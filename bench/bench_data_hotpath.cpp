// Data-plane hot path bench: small-frame coalescing on top of encode-once
// shared frames.
//
// A single origin broadcasts M payloads across an n-node zero-loss mesh and
// the sim drains until every peer delivered all M. Two configurations run
// the identical workload in one binary:
//   * shared   — encode once per message, refcounted fan-out through
//                Transport::send_shared (the default data path),
//   * coalesce — shared + coalesce_max_frames=16: consecutive small DATA
//                frames ride one kDataBatch per peer flush.
// Wall-clock throughput plus the data-plane StabilizerStats counters are
// printed per (cluster, payload) cell and written to BENCH_data_hotpath.json
// (EXPERIMENTS.md "Data-plane hot path"). Acceptance: >= 1.5x broadcast
// throughput at 64 B / 5 nodes, coalesce vs shared (full mode only;
// --smoke shrinks the workload for CI and skips the floor).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "config/topology.hpp"

namespace stab::bench {
namespace {

Topology mesh(size_t n) {
  Topology topo;
  for (size_t i = 0; i < n; ++i)
    topo.add_node("n" + std::to_string(i), "az" + std::to_string(i % 3));
  LinkSpec link;
  link.latency = millis(1);
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = 0; b < n; ++b)
      if (a != b) topo.set_link(a, b, link);
  return topo;
}

struct Config {
  const char* name;
  size_t coalesce_max_frames;
};

constexpr Config kConfigs[] = {
    {"shared", 0},
    {"coalesce", 16},
};

struct CaseResult {
  double wall_ms = 0;
  double msgs_per_sec = 0;
  StabilizerStats stats;  // sender's counters
};

CaseResult run_case(size_t nodes, size_t payload_size, const Config& cfg,
                    size_t msgs) {
  StabilizerOptions base;
  base.coalesce_max_frames = cfg.coalesce_max_frames;
  StabCluster c(mesh(nodes), base);

  std::vector<uint64_t> delivered(nodes, 0);
  for (NodeId n = 1; n < nodes; ++n)
    c.node(n).set_delivery_handler(
        [&delivered, n](NodeId, SeqNum, BytesView payload, uint64_t) {
          delivered[n] += payload.empty() ? 1 : (payload[0] == 0xAB ? 1 : 0);
        });

  const Bytes payload(payload_size, 0xAB);
  auto all_delivered = [&] {
    for (NodeId n = 1; n < nodes; ++n)
      if (delivered[n] < msgs) return false;
    return true;
  };

  auto start = std::chrono::steady_clock::now();
  // Stream in bursts so the out-buffer stays bounded by acks, like a real
  // producer; each burst is wide enough for coalescing to fill batches.
  const size_t kBurst = 64;
  for (size_t sent = 0; sent < msgs;) {
    for (size_t i = 0; i < kBurst && sent < msgs; ++i, ++sent)
      c.node(0).send(payload);
    c.sim.run_until(c.sim.now() + millis(5));
  }
  if (!c.sim.run_until_pred(all_delivered, c.sim.now() + seconds(300))) {
    std::fprintf(stderr, "bench stalled: %zu nodes payload %zu config %s\n",
                 nodes, payload_size, cfg.name);
    std::exit(1);
  }
  auto elapsed = std::chrono::steady_clock::now() - start;

  CaseResult r;
  r.wall_ms = std::chrono::duration<double, std::milli>(elapsed).count();
  r.msgs_per_sec = static_cast<double>(msgs) / (r.wall_ms / 1000.0);
  r.stats = c.node(0).stats();
  return r;
}

size_t messages_for(size_t payload_size, bool smoke) {
  if (payload_size >= 64 * 1024) return smoke ? 32 : 1024;
  return smoke ? 512 : 8192;
}

}  // namespace
}  // namespace stab::bench

int main(int argc, char** argv) {
  using namespace stab;
  using namespace stab::bench;

  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int reps = smoke ? 1 : 3;

  print_header("Data-plane hot path: encode-once shared frames + coalescing",
               "DESIGN.md § data-plane fast path / ISSUE 4 tentpole");
  if (smoke) std::printf("(smoke mode: reduced workload, floor not enforced)\n");

  const size_t clusters[] = {3, 5, 9};
  const size_t payloads[] = {64, 1024, 64 * 1024};

  std::FILE* json = std::fopen("BENCH_data_hotpath.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_data_hotpath.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"smoke\": %s,\n  \"rows\": [\n",
               smoke ? "true" : "false");

  std::printf("%5s %7s %9s | %10s %9s | %8s %8s %9s\n", "nodes", "payload",
              "config", "msgs/s", "vs shared", "encodes", "shared",
              "coalesced");

  double headline_ratio = 0;
  bool first_row = true;
  for (size_t n : clusters) {
    for (size_t p : payloads) {
      const size_t msgs = messages_for(p, smoke);
      double shared_tput = 0;
      double coalesce_tput = 0;
      for (const Config& cfg : kConfigs) {
        CaseResult best;
        for (int rep = 0; rep < reps; ++rep) {
          CaseResult r = run_case(n, p, cfg, msgs);
          if (rep == 0 || r.wall_ms < best.wall_ms) best = r;
        }
        if (cfg.coalesce_max_frames == 0)
          shared_tput = best.msgs_per_sec;
        else
          coalesce_tput = best.msgs_per_sec;
        const double ratio =
            shared_tput > 0 ? best.msgs_per_sec / shared_tput : 0;
        std::printf("%5zu %6zuB %9s | %10.0f %8.2fx | %8llu %8llu %9llu\n", n,
                    p, cfg.name, best.msgs_per_sec, ratio,
                    static_cast<unsigned long long>(best.stats.data_encodes),
                    static_cast<unsigned long long>(best.stats.shared_sends),
                    static_cast<unsigned long long>(
                        best.stats.frames_coalesced));
        std::fprintf(
            json,
            "%s    {\"nodes\": %zu, \"payload\": %zu, \"config\": \"%s\", "
            "\"messages\": %zu, \"wall_ms\": %.2f, \"msgs_per_sec\": %.0f, "
            "\"vs_shared\": %.3f, \"data_encodes\": %llu, "
            "\"shared_sends\": %llu, \"frames_coalesced\": %llu, "
            "\"frames_transmitted\": %llu}",
            first_row ? "" : ",\n", n, p, cfg.name, msgs, best.wall_ms,
            best.msgs_per_sec, ratio,
            static_cast<unsigned long long>(best.stats.data_encodes),
            static_cast<unsigned long long>(best.stats.shared_sends),
            static_cast<unsigned long long>(best.stats.frames_coalesced),
            static_cast<unsigned long long>(best.stats.frames_transmitted));
        first_row = false;
      }
      if (n == 5 && p == 64) headline_ratio = coalesce_tput / shared_tput;
    }
  }

  std::printf(
      "\nbroadcast throughput at 64 B / 5 nodes, coalesce vs shared: "
      "%.2fx (acceptance floor: 1.5x%s)\n",
      headline_ratio, smoke ? ", not enforced in smoke mode" : "");
  std::fprintf(json,
               "\n  ],\n  \"throughput_ratio_64B_5node\": %.3f,\n"
               "  \"acceptance_floor\": 1.5\n}\n",
               headline_ratio);
  std::fclose(json);
  if (!smoke && headline_ratio < 1.5) {
    std::fprintf(stderr, "FAIL: throughput ratio %.2f < 1.5x\n",
                 headline_ratio);
    return 1;
  }
  std::printf("wrote BENCH_data_hotpath.json\n");
  return 0;
}
