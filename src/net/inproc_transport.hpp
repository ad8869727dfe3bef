// In-process transport: every node is a RealtimeEnv thread; frames hop
// between threads with an optional configured per-link delay. Used by the
// real-time integration tests and examples that don't need sockets.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "common/realtime_env.hpp"
#include "config/topology.hpp"
#include "net/transport.hpp"

namespace stab {

class InProcCluster;

class InProcTransport final : public Transport {
 public:
  InProcTransport(InProcCluster& cluster, NodeId self);

  NodeId self() const override { return self_; }
  size_t cluster_size() const override;
  void set_receive_handler(ReceiveHandler handler) override;
  void send(NodeId dst, Bytes frame, uint64_t wire_size = 0) override;
  void send_shared(NodeId dst, std::shared_ptr<const Bytes> frame,
                   uint64_t wire_size = 0) override;
  Env& env() override;

 private:
  friend class InProcCluster;
  // Gated handler invocation on the destination Env thread: bump the
  // in-flight count, check the armed flag, call.
  // set_receive_handler(nullptr) disarms and waits for the count to drain
  // before destroying the function object, so a tearing-down Stabilizer
  // never races an invocation into freed state.
  void dispatch(NodeId src, BytesView frame, uint64_t wire_size);
  InProcCluster& cluster_;
  NodeId self_;
  ReceiveHandler handler_;  // written only while disarmed and drained
  std::atomic<bool> handler_armed_{false};
  std::atomic<uint32_t> dispatches_in_flight_{0};
};

class InProcCluster {
 public:
  /// `topology` is optional; when given, per-link latency is applied to
  /// deliveries (bandwidth is not modeled — use SimCluster for that).
  explicit InProcCluster(size_t num_nodes,
                         const Topology* topology = nullptr);
  ~InProcCluster();

  InProcTransport& transport(NodeId node) { return *transports_.at(node); }
  RealtimeEnv& env(NodeId node) { return *envs_.at(node); }
  size_t size() const { return transports_.size(); }

  /// Stop all node threads (idempotent; also done by the destructor).
  void shutdown();

 private:
  friend class InProcTransport;
  void deliver(NodeId src, NodeId dst, std::shared_ptr<const Bytes> frame,
               uint64_t wire_size);

  std::vector<std::unique_ptr<RealtimeEnv>> envs_;
  std::vector<std::unique_ptr<InProcTransport>> transports_;
  std::vector<Duration> latency_;  // row-major [src][dst]
};

}  // namespace stab
