// Shared fixtures for the paper-reproduction bench harnesses.
//
// Each bench binary regenerates one table or figure of the paper
// (DESIGN.md §2 maps experiment ids to binaries). They print paper-style
// rows to stdout; EXPERIMENTS.md records paper-vs-measured.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "core/stabilizer.hpp"
#include "net/sim_transport.hpp"

namespace stab::bench {

/// A full Stabilizer cluster on the simulator, one instance per node.
struct StabCluster {
  explicit StabCluster(const Topology& topo, StabilizerOptions base = {}) {
    cluster = std::make_unique<SimCluster>(topo, sim);
    for (NodeId n = 0; n < topo.num_nodes(); ++n) {
      StabilizerOptions opts = base;
      opts.topology = topo;
      opts.self = n;
      nodes.push_back(
          std::make_unique<Stabilizer>(opts, cluster->transport(n)));
    }
  }
  Stabilizer& node(NodeId n) { return *nodes.at(n); }

  sim::Simulator sim;
  std::unique_ptr<SimCluster> cluster;
  std::vector<std::unique_ptr<Stabilizer>> nodes;
};

/// `node`'s counter `name` (docs/OBSERVABILITY.md). Exits the bench on a
/// name the node's registry does not hold, so a misspelt name cannot read 0.
inline uint64_t counter(const Stabilizer& node, std::string_view name) {
  const obs::Counter* c = node.metrics().find_counter(name);
  if (c == nullptr) {
    std::fprintf(stderr, "no counter named %.*s\n",
                 static_cast<int>(name.size()), name.data());
    std::exit(1);
  }
  return c->value();
}

inline void print_header(const char* experiment, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n  (reproduces %s)\n", experiment, paper_ref);
  std::printf("==============================================================\n");
}

}  // namespace stab::bench
