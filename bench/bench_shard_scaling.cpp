// Sharded multi-primary scale-out bench (ISSUE 9 tentpole, DESIGN.md §9).
//
// Eight producer threads drive the coalesced data path of one node's facade
// at 1/2/4/8 keyspace shards, with a mirror node acking every stream over a
// 2 ms WAN-latency link. The workload is FIXED (same total messages, same
// payload, same producers) — only the shard count changes, so the curve
// isolates what sharding buys: a single sequencer's throughput is capped by
// its per-stream flow-control window over the round trip (send_window
// messages in flight per stream, refilled as the mirror's acks
// return — the bounded reorder/retransmit buffer every real mirror
// imposes), and every producer's traffic funnels through that ONE window.
// Producer p routes to shard p mod S, so S shards sequence S independent
// streams with S independent windows: aggregate in-flight capacity scales
// with the shard count while the per-message CPU work stays identical.
//
// The clock is end-to-end per config: it stops only when every shard's
// "stable" frontier (MIN($ALLWNODES), both nodes acked) covers that shard's
// last issued seq — ingestion, coalesced window flush, delivery, ack
// return, and frontier evaluation all inside the timed window. The mirror
// checks dense per-shard FIFO delivery throughout, so a config cannot win
// by dropping or reordering.
//
// Writes BENCH_shard_scaling.json (committed artifact; EXPERIMENTS.md
// "Shard scaling"). Acceptance: >= 3x throughput at 4 shards vs 1 (full
// mode). --smoke runs 1 vs 2 shards with a small workload and enforces a
// 1.5x floor (the scripts/ci.sh gate).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "config/topology.hpp"
#include "net/inproc_transport.hpp"
#include "shard/sharded_stabilizer.hpp"

namespace stab::bench {
namespace {

using shard::ShardedOptions;
using shard::ShardedStabilizer;
using shard::ShardId;

constexpr size_t kProducers = 8;
constexpr size_t kPayloadBytes = 64;

struct CaseResult {
  double wall_ms = 0;
  double msgs_per_sec = 0;
  uint64_t frames_coalesced = 0;
};

constexpr size_t kSendWindow = 64;   // per-stream in-flight cap (flow control)
constexpr double kLinkLatencyMs = 2; // one-way WAN latency on the InProc link

/// One scale-out deployment: a 2-node InProc cluster per shard with the
/// WAN-latency link, so each shard's stream pays a real window-refill round
/// trip and aggregate in-flight capacity is shards x send_window.
CaseResult run_case(uint32_t num_shards, size_t total_msgs) {
  Topology topo;
  topo.add_node("n0", "az0");
  topo.add_node("n1", "az1");
  LinkSpec link;
  link.latency = from_ms(kLinkLatencyMs);
  topo.set_link(0, 1, link);
  topo.set_link(1, 0, link);

  std::vector<std::unique_ptr<InProcCluster>> clusters;
  std::vector<Transport*> t0, t1;
  for (uint32_t s = 0; s < num_shards; ++s) {
    clusters.push_back(std::make_unique<InProcCluster>(2, &topo));
    t0.push_back(&clusters.back()->transport(0));
    t1.push_back(&clusters.back()->transport(1));
  }

  auto make_opts = [&](NodeId self) {
    ShardedOptions opts;
    opts.base.topology = topo;
    opts.base.self = self;
    opts.base.ack_interval = millis(1);
    opts.base.coalesce_max_frames = 16;
    opts.base.send_window = kSendWindow;
    opts.num_shards = num_shards;
    return opts;
  };
  ShardedStabilizer origin(make_opts(0), t0);
  ShardedStabilizer mirror(make_opts(1), t1);

  // Dense per-shard FIFO check at the mirror: a shard's deliveries must be
  // exactly 0,1,2,... in order. (Handlers of different shards run
  // concurrently; each counter is only ever advanced by its own shard.)
  std::vector<std::unique_ptr<std::atomic<int64_t>>> next_seq;
  std::atomic<bool> fifo_broken{false};
  for (uint32_t s = 0; s < num_shards; ++s)
    next_seq.push_back(std::make_unique<std::atomic<int64_t>>(0));
  mirror.set_delivery_handler(
      [&](ShardId s, NodeId, SeqNum seq, BytesView, uint64_t) {
        if (seq != next_seq[s]->fetch_add(1, std::memory_order_relaxed))
          fifo_broken.store(true, std::memory_order_relaxed);
      });

  if (!origin.register_predicate("stable", "MIN($ALLWNODES)").is_ok()) {
    std::fprintf(stderr, "register_predicate failed\n");
    std::exit(1);
  }

  // Pre-probe one routing key per producer that lands on shard p mod S, so
  // the timed loop routes by key (the real API) but the placement is the
  // partition the headline describes.
  std::vector<std::string> keys(kProducers);
  for (size_t p = 0; p < kProducers; ++p)
    for (int i = 0;; ++i) {
      std::string k = "key/" + std::to_string(i);
      if (origin.shard_of(std::string_view(k)) == p % num_shards) {
        keys[p] = std::move(k);
        break;
      }
    }

  const Bytes payload(kPayloadBytes, 0xAB);
  const size_t per_producer = total_msgs / kProducers;
  std::vector<std::atomic<int64_t>> last_seq(num_shards);
  for (auto& l : last_seq) l.store(kNoSeq, std::memory_order_relaxed);

  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      for (size_t i = 0; i < per_producer; ++i) {
        const auto ss = origin.send(keys[p], payload);
        // Producers sharing a shard race on seq order; track the max.
        int64_t prev = last_seq[ss.shard].load(std::memory_order_relaxed);
        while (prev < ss.seq && !last_seq[ss.shard].compare_exchange_weak(
                                    prev, ss.seq, std::memory_order_relaxed)) {
        }
      }
    });
  for (auto& t : producers) t.join();

  // End-to-end: every shard's frontier must absorb everything it issued.
  auto deadline = start + std::chrono::seconds(120);
  for (uint32_t s = 0; s < num_shards; ++s) {
    const SeqNum want = last_seq[s].load(std::memory_order_relaxed);
    while (origin.shard(s).get_stability_frontier("stable") < want) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "TIMEOUT: shard %u frontier stuck below %lld\n",
                     s, static_cast<long long>(want));
        std::exit(1);
      }
      std::this_thread::yield();
    }
  }
  auto elapsed = std::chrono::steady_clock::now() - start;

  if (fifo_broken.load()) {
    std::fprintf(stderr, "FIFO VIOLATION at %u shards\n", num_shards);
    std::exit(1);
  }
  // Completeness: the mirror delivered exactly what every shard issued.
  uint64_t delivered = 0;
  for (uint32_t s = 0; s < num_shards; ++s)
    delivered += static_cast<uint64_t>(next_seq[s]->load());
  if (delivered != total_msgs) {
    std::fprintf(stderr, "DELIVERY SHORTFALL: %llu != %zu\n",
                 static_cast<unsigned long long>(delivered), total_msgs);
    std::exit(1);
  }

  CaseResult r;
  r.wall_ms = static_cast<double>(
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      elapsed)
                      .count()) /
              1000.0;
  r.msgs_per_sec = static_cast<double>(total_msgs) / (r.wall_ms / 1000.0);
  for (ShardId s = 0; s < num_shards; ++s)
    r.frames_coalesced += counter(origin.shard(s), "data.frames_coalesced");
  return r;
}

int run(bool smoke) {
  const std::vector<uint32_t> shard_counts =
      smoke ? std::vector<uint32_t>{1, 2} : std::vector<uint32_t>{1, 2, 4, 8};
  const size_t total_msgs = smoke ? 16000 : 96000;
  const double floor = smoke ? 1.5 : 3.0;
  const uint32_t floor_at = smoke ? 2 : 4;

  std::printf(
      "Shard scaling: %zu producers, %zu msgs x %zu B, coalesced data path\n"
      "%7s | %10s %14s %9s %12s\n",
      kProducers, total_msgs, kPayloadBytes, "shards", "wall ms",
      "msgs/sec", "speedup", "coalesced");

  std::FILE* json = std::fopen("BENCH_shard_scaling.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_shard_scaling.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"rows\": [\n");

  double base_rate = 0, floor_speedup = 0;
  bool first = true;
  for (uint32_t s : shard_counts) {
    const CaseResult r = run_case(s, total_msgs);
    if (s == 1) base_rate = r.msgs_per_sec;
    const double speedup = base_rate > 0 ? r.msgs_per_sec / base_rate : 0;
    if (s == floor_at) floor_speedup = speedup;
    std::printf("%7u | %10.1f %14.0f %8.2fx %12llu\n", s, r.wall_ms,
                r.msgs_per_sec, speedup,
                static_cast<unsigned long long>(r.frames_coalesced));
    std::fprintf(json,
                 "%s    {\"shards\": %u, \"producers\": %zu, \"msgs\": %zu, "
                 "\"payload_bytes\": %zu, \"wall_ms\": %.1f, "
                 "\"msgs_per_sec\": %.0f, \"speedup_vs_1shard\": %.3f, "
                 "\"frames_coalesced\": %llu}",
                 first ? "" : ",\n", s, kProducers, total_msgs, kPayloadBytes,
                 r.wall_ms, r.msgs_per_sec, speedup,
                 static_cast<unsigned long long>(r.frames_coalesced));
    first = false;
  }

  std::printf("\nspeedup at %u shards: %.2fx (acceptance floor: %.1fx)\n",
              floor_at, floor_speedup, floor);
  std::fprintf(json,
               "\n  ],\n  \"speedup_at_%u_shards\": %.3f,\n"
               "  \"acceptance_floor\": %.1f,\n  \"smoke\": %s\n}\n",
               floor_at, floor_speedup, floor, smoke ? "true" : "false");
  std::fclose(json);

  if (floor_speedup < floor) {
    std::fprintf(stderr, "FAIL: speedup at %u shards %.2fx < %.1fx\n",
                 floor_at, floor_speedup, floor);
    return 1;
  }
  std::printf("wrote BENCH_shard_scaling.json\n");
  return 0;
}

}  // namespace
}  // namespace stab::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  return stab::bench::run(smoke);
}
