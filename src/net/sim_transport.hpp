// Transport over the deterministic simulator, plus SimCluster, which turns a
// Topology into a fully wired simulated WAN with one transport per node.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "config/topology.hpp"
#include "net/transport.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace stab {

class SimCluster;

class SimTransport final : public Transport {
 public:
  SimTransport(sim::Simulator& simulator, sim::SimNetwork& network,
               NodeId self);

  NodeId self() const override { return self_; }
  size_t cluster_size() const override { return network_.num_nodes(); }
  void set_receive_handler(ReceiveHandler handler) override;
  void send(NodeId dst, Bytes frame, uint64_t wire_size = 0) override;
  void send_shared(NodeId dst, std::shared_ptr<const Bytes> frame,
                   uint64_t wire_size = 0) override;
  Env& env() override { return simulator_; }
  // All sim deliveries run on the single simulator thread, so the core
  // applies reports directly and stays schedule-deterministic.
  bool single_threaded() const override { return true; }

  /// Crash-simulation hooks. detach() models the process dying: the node is
  /// marked down (in-flight frames to it are blackholed) and the delivery
  /// handler is cleared so no callback into freed state can fire. A restarted
  /// owner calls reattach() and then installs its own receive handler.
  void detach();
  void reattach();

 private:
  sim::Simulator& simulator_;
  sim::SimNetwork& network_;
  NodeId self_;
};

/// Builds a SimNetwork from a Topology (honoring pipe groups) and exposes a
/// SimTransport per node. The single Simulator is the shared virtual clock.
class SimCluster {
 public:
  SimCluster(const Topology& topology, sim::Simulator& simulator);

  SimTransport& transport(NodeId node) { return *transports_.at(node); }
  sim::SimNetwork& network() { return *network_; }
  sim::Simulator& simulator() { return simulator_; }
  const Topology& topology() const { return topology_; }

 private:
  Topology topology_;
  sim::Simulator& simulator_;
  std::unique_ptr<sim::SimNetwork> network_;
  std::vector<std::unique_ptr<SimTransport>> transports_;
};

}  // namespace stab
