// Control-plane hot path microbench, two studies in one binary:
//
//  1. Single-threaded dispatch: indexed batch dispatch vs the legacy
//     per-entry scan (ISSUE 1 tentpole). Each AckBatchFrame entry used to
//     trigger an O(#predicates) scan plus a full eval of every predicate
//     referencing the updated cell; the indexed path cuts that with a
//     reverse dependency index + batch dedup + crossing rule. Writes
//     BENCH_control.json (working artifact, not committed — see
//     EXPERIMENTS.md "Control-plane hot path" for the recorded numbers).
//
//  2. Multi-threaded producer scaling of the application-facing control
//     plane under 1/2/4/8 producer threads (DESIGN.md §4f). Ack mix: plain
//     report_stability calls fold into lock-free report cells and a posted
//     drain applies them in batches; the in-binary baseline is the same
//     calls carrying one byte of extra, which take the locked per-report
//     path. Read mixes: get_stability_frontier answers from the wait-free
//     board, with and without a concurrent report storm. Writes
//     BENCH_control_mt.json (committed artifact, EXPERIMENTS.md "Producer
//     scaling"). `--smoke` shrinks both studies for CI and skips the
//     timing-based acceptance floors (structural assertions still run).
#include <cassert>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "config/topology.hpp"
#include "control/frontier_engine.hpp"
#include "core/stabilizer.hpp"
#include "net/inproc_transport.hpp"

namespace stab::bench {
namespace {

// Predicate pool: the Table III shapes, cycled. All reference type 0
// ("received") cells of the 8-node EC2 topology, so every predicate is a
// candidate on every ack — the worst case for the legacy scan.
std::vector<std::string> predicate_pool() {
  return {
      "MIN($ALLWNODES)",
      "MAX($ALLWNODES)",
      "KTH_MAX(SIZEOF($ALLWNODES)/2+1,$ALLWNODES)",
      "KTH_MIN(2,$ALLWNODES)",
      "MIN($ALLWNODES-$MYWNODE)",
      "KTH_MAX(3,($ALLWNODES-$MYWNODE))",
      "MIN(MAX($AZ_North_Virginia),MAX($AZ_Oregon),MAX($AZ_Ohio))",
      "KTH_MAX(2,MAX($AZ_North_Virginia),MAX($AZ_Oregon),MAX($AZ_Ohio))",
  };
}

struct Workload {
  std::vector<AckUpdate> updates;  // num_batches * batch_size entries
};

// A random monotone ack stream: per-node counters advance by 0..3 per
// report, so a realistic fraction of reports is stale (max-merge no-ops).
Workload make_workload(size_t num_batches, size_t batch_size,
                       size_t num_nodes, uint64_t seed) {
  Workload w;
  Rng rng(seed);
  std::vector<int64_t> counter(num_nodes, kNoSeq);
  w.updates.reserve(num_batches * batch_size);
  for (size_t b = 0; b < num_batches; ++b)
    for (size_t i = 0; i < batch_size; ++i) {
      NodeId n = static_cast<NodeId>(rng.next_below(num_nodes));
      counter[n] += rng.next_range(0, 3);
      w.updates.push_back(AckUpdate{0, n, counter[n], {}});
    }
  return w;
}

struct RunResult {
  uint64_t evals = 0;
  uint64_t skipped_index = 0;
  uint64_t skipped_binding = 0;
  double ns_per_ack = 0;
  std::vector<SeqNum> frontiers;
};

RunResult run(const Topology& topo, size_t num_predicates, size_t batch_size,
              const Workload& w, FrontierEngine::DispatchMode mode) {
  StabilityTypeRegistry types;
  FrontierEngine engine(topo, 0, types);
  engine.set_dispatch_mode(mode);
  auto pool = predicate_pool();
  std::vector<std::string> keys;
  for (size_t p = 0; p < num_predicates; ++p) {
    keys.push_back("p" + std::to_string(p));
    Status st = engine.register_predicate(keys.back(), pool[p % pool.size()]);
    if (!st.is_ok()) {
      std::fprintf(stderr, "register failed: %s\n", st.message().c_str());
      std::exit(1);
    }
  }
  const uint64_t evals0 = engine.predicate_evals();
  const uint64_t idx0 = engine.evals_skipped_index();
  const uint64_t bind0 = engine.evals_skipped_binding();

  auto start = std::chrono::steady_clock::now();
  if (mode == FrontierEngine::DispatchMode::kLegacyScan) {
    for (const AckUpdate& u : w.updates)
      engine.on_ack(u.type, u.node, u.seq, u.extra);
  } else {
    for (size_t off = 0; off < w.updates.size(); off += batch_size)
      engine.on_ack_batch(
          std::span<const AckUpdate>(w.updates.data() + off, batch_size));
  }
  auto elapsed = std::chrono::steady_clock::now() - start;

  RunResult r;
  r.evals = engine.predicate_evals() - evals0;
  r.skipped_index = engine.evals_skipped_index() - idx0;
  r.skipped_binding = engine.evals_skipped_binding() - bind0;
  r.ns_per_ack = static_cast<double>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         elapsed)
                         .count()) /
                 static_cast<double>(w.updates.size());
  for (const auto& k : keys) r.frontiers.push_back(engine.frontier(k));
  return r;
}

int run_single_threaded(bool smoke) {
  Topology topo = ec2_topology();
  const size_t predicates[] = {1, 2, 4, 8, 16, 32, 64};
  const size_t batches[] = {1, 4, 16, 64, 256};
  const size_t total_acks = smoke ? 8192 : 65536;  // per config

  std::FILE* json = std::fopen("BENCH_control.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_control.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"rows\": [\n");

  std::printf(
      "%5s %6s | %14s %14s %8s | %12s %12s | %10s %10s\n", "preds", "batch",
      "legacy evals", "indexed evals", "reduct", "legacy ns/ack",
      "indexed ns/ack", "skip_idx", "skip_bind");

  double headline_reduction = 0;
  bool first_row = true;
  for (size_t p : predicates) {
    for (size_t b : batches) {
      const size_t num_batches = total_acks / b;
      Workload w = make_workload(num_batches, b, topo.num_nodes(),
                                 /*seed=*/p * 1000 + b);
      RunResult legacy =
          run(topo, p, b, w, FrontierEngine::DispatchMode::kLegacyScan);
      RunResult indexed =
          run(topo, p, b, w, FrontierEngine::DispatchMode::kIndexed);
      if (legacy.frontiers != indexed.frontiers) {
        std::fprintf(stderr,
                     "FRONTIER MISMATCH at predicates=%zu batch=%zu\n", p, b);
        return 1;
      }
      const double acks = static_cast<double>(w.updates.size());
      const double legacy_epa = static_cast<double>(legacy.evals) / acks;
      const double indexed_epa = static_cast<double>(indexed.evals) / acks;
      const double reduction =
          indexed.evals ? static_cast<double>(legacy.evals) /
                              static_cast<double>(indexed.evals)
                        : 0;
      if (p == 16 && b == 64) headline_reduction = reduction;
      std::printf(
          "%5zu %6zu | %14.3f %14.3f %7.1fx | %12.1f %12.1f | %10llu %10llu\n",
          p, b, legacy_epa, indexed_epa, reduction, legacy.ns_per_ack,
          indexed.ns_per_ack,
          static_cast<unsigned long long>(indexed.skipped_index),
          static_cast<unsigned long long>(indexed.skipped_binding));
      std::fprintf(
          json,
          "%s    {\"predicates\": %zu, \"batch\": %zu, "
          "\"legacy_evals_per_ack\": %.4f, \"indexed_evals_per_ack\": %.4f, "
          "\"eval_reduction\": %.2f, \"legacy_ns_per_ack\": %.1f, "
          "\"indexed_ns_per_ack\": %.1f, \"evals_skipped_index\": %llu, "
          "\"evals_skipped_binding\": %llu}",
          first_row ? "" : ",\n", p, b, legacy_epa, indexed_epa, reduction,
          legacy.ns_per_ack, indexed.ns_per_ack,
          static_cast<unsigned long long>(indexed.skipped_index),
          static_cast<unsigned long long>(indexed.skipped_binding));
      first_row = false;
    }
  }

  std::printf(
      "\npredicate_evals reduction at 16 predicates / batch 64: %.1fx "
      "(acceptance floor: 5x)\n",
      headline_reduction);
  std::fprintf(json,
               "\n  ],\n  \"reduction_16pred_batch64\": %.2f,\n"
               "  \"acceptance_floor\": 5.0\n}\n",
               headline_reduction);
  std::fclose(json);
  if (headline_reduction < 5.0) {
    std::fprintf(stderr, "FAIL: reduction %.2f < 5x\n", headline_reduction);
    return 1;
  }
  std::printf("wrote BENCH_control.json\n");
  return 0;
}

// --- multi-threaded producer scaling -------------------------------------------

struct MtResult {
  double ops_per_sec = 0;        // aggregate producer ops completed / wall time
  double ns_per_op = 0;          // inverse, per single op (wall)
  double read_cpu_ns_per_op = 0; // reader THREAD-CPU per op (read mixes only)
  SeqNum final_frontier = 0;     // after full convergence (digest input)
};

enum class Mix { kAck, kRead, kReadQuiet };

/// Per-thread CPU time (ns): unaffected by timeslicing, which otherwise
/// dominates wall-clock per-op numbers when threads outnumber cores.
double thread_cpu_ns() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 +
         static_cast<double>(ts.tv_nsec);
}

/// One facade under `producers` concurrent client threads.
///   kAck      : every producer op is report_stability("verified", ...) with
///               a globally increasing seq (shared fetch_add — every report
///               genuinely advances the stream, no binding-skip freebies).
///               `locked` attaches one byte of extra to each report, which
///               routes it through the locked per-report path instead of
///               the report cells. The clock stops when the frontier has
///               absorbed ALL reports (end-to-end: report + drain + eval),
///               not when the last producer returns.
///   kRead     : every producer op is get_stability_frontier, with one
///               background storm thread reporting continuously so reads
///               contend with report application (the "ack storm").
///   kReadQuiet: reads with no storm — the baseline the storm runs are
///               compared against for the flat-read-latency claim.
MtResult run_mt(bool locked, size_t producers, Mix mix,
                size_t ops_per_thread) {
  Topology topo;
  topo.add_node("n0", "az0");
  topo.add_node("n1", "az1");
  LinkSpec link;
  topo.set_link(0, 1, link);
  topo.set_link(1, 0, link);
  InProcCluster cluster(2, &topo);

  StabilizerOptions opts;
  opts.topology = topo;
  opts.self = 0;
  Stabilizer node(opts, cluster.transport(0));
  // Several subscribers each register their own frontier key over the same
  // reported level (the paper's pattern: every consumer/application installs
  // its own predicate). The locked path re-evaluates every key under the
  // mutex per report; the drain evaluates each key once per coalesced
  // batch — the structural win this curve measures.
  constexpr size_t kKeys = 8;
  std::vector<std::string> keys;
  for (size_t k = 0; k < kKeys; ++k) {
    keys.push_back("sub" + std::to_string(k));
    Status st =
        node.register_predicate(keys.back(), "MAX(($ALLWNODES).verified)");
    if (!st.is_ok()) {
      std::fprintf(stderr, "register failed: %s\n", st.message().c_str());
      std::exit(1);
    }
  }
  const Bytes one_byte{0x01};
  const BytesView extra = locked ? BytesView(one_byte) : BytesView();
  // Warm-up report: makes the first timed op representative.
  node.report_stability("verified", 0, 0, extra);

  const bool reading = mix != Mix::kAck;
  std::atomic<SeqNum> next_seq{1};
  std::atomic<bool> storm_stop{false};
  std::atomic<uint64_t> reader_cpu_ns{0};
  const SeqNum expected_final =
      reading ? kNoSeq  // storm progress is unbounded; digest not compared
              : static_cast<SeqNum>(producers * ops_per_thread);

  std::vector<std::thread> threads;
  std::thread storm;
  if (mix == Mix::kRead)
    storm = std::thread([&] {
      while (!storm_stop.load(std::memory_order_relaxed))
        node.report_stability("verified", 0,
                              next_seq.fetch_add(1, std::memory_order_relaxed));
    });

  auto start = std::chrono::steady_clock::now();
  for (size_t t = 0; t < producers; ++t)
    threads.emplace_back([&] {
      if (reading) {
        const double cpu0 = thread_cpu_ns();
        SeqNum prev = kNoSeq;
        for (size_t i = 0; i < ops_per_thread; ++i) {
          SeqNum f = node.get_stability_frontier(keys[0]);
          if (f < prev) {
            std::fprintf(stderr, "FRONTIER REGRESSION %lld -> %lld\n",
                         static_cast<long long>(prev),
                         static_cast<long long>(f));
            std::exit(1);
          }
          prev = f;
        }
        reader_cpu_ns.fetch_add(
            static_cast<uint64_t>(thread_cpu_ns() - cpu0),
            std::memory_order_relaxed);
      } else {
        for (size_t i = 0; i < ops_per_thread; ++i)
          node.report_stability(
              "verified", 0, next_seq.fetch_add(1, std::memory_order_relaxed),
              extra);
      }
    });
  for (auto& t : threads) t.join();
  if (!reading) {
    // End-to-end: the run is not done until every report is visible.
    while (node.get_stability_frontier(keys[0]) < expected_final)
      std::this_thread::yield();
  }
  auto elapsed = std::chrono::steady_clock::now() - start;

  if (mix == Mix::kRead) {
    storm_stop.store(true, std::memory_order_relaxed);
    storm.join();
  }
  // Let any still-armed drain finish, then snapshot the converged frontier.
  SeqNum settled = node.get_stability_frontier(keys[0]);
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    SeqNum again = node.get_stability_frontier(keys[0]);
    if (again == settled) break;
    settled = again;
  }

  // Every subscriber key tracks the same cells: their frontiers must agree.
  for (const auto& k : keys)
    if (node.get_stability_frontier(k) != settled) {
      std::fprintf(stderr, "SUBSCRIBER FRONTIER DISAGREEMENT at %s\n",
                   k.c_str());
      std::exit(1);
    }

  MtResult r;
  const double ops = static_cast<double>(producers * ops_per_thread);
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  r.ops_per_sec = ops / (ns / 1e9);
  r.ns_per_op = ns / ops;
  r.read_cpu_ns_per_op =
      reading ? static_cast<double>(reader_cpu_ns.load()) / ops : 0;
  r.final_frontier = settled;
  if (!reading && settled != expected_final) {
    std::fprintf(stderr, "FRONTIER SHORTFALL: %lld != expected %lld\n",
                 static_cast<long long>(settled),
                 static_cast<long long>(expected_final));
    std::exit(1);
  }
  return r;
}

int run_multi_threaded(bool smoke) {
  const size_t producer_counts[] = {1, 2, 4, 8};
  const size_t ops_per_thread = smoke ? 5000 : 100000;

  std::FILE* json = std::fopen("BENCH_control_mt.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_control_mt.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"rows\": [\n");
  bool first_row = true;

  // Ack mix: report cells vs the locked per-report path.
  std::printf("\n%10s %5s | %14s %14s %8s\n", "mix", "prods", "locked ops/s",
              "cells ops/s", "speedup");
  double speedup_4p_ack = 0;
  for (size_t p : producer_counts) {
    MtResult locked = run_mt(true, p, Mix::kAck, ops_per_thread);
    MtResult cells = run_mt(false, p, Mix::kAck, ops_per_thread);
    // Digest equality: both paths must converge on the exact same final
    // frontier — every report absorbed, none lost or double counted.
    if (locked.final_frontier != cells.final_frontier) {
      std::fprintf(stderr, "DIGEST MISMATCH at producers=%zu: %lld != %lld\n",
                   p, static_cast<long long>(locked.final_frontier),
                   static_cast<long long>(cells.final_frontier));
      return 1;
    }
    const double speedup = cells.ops_per_sec / locked.ops_per_sec;
    if (p == 4) speedup_4p_ack = speedup;
    std::printf("%10s %5zu | %14.0f %14.0f %7.2fx\n", "ack", p,
                locked.ops_per_sec, cells.ops_per_sec, speedup);
    std::fprintf(json,
                 "%s    {\"mix\": \"ack\", \"producers\": %zu, "
                 "\"ops_per_thread\": %zu, \"locked_ops_per_sec\": %.0f, "
                 "\"cells_ops_per_sec\": %.0f, \"speedup\": %.3f, "
                 "\"locked_ns_per_op\": %.1f, \"cells_ns_per_op\": %.1f}",
                 first_row ? "" : ",\n", p, ops_per_thread, locked.ops_per_sec,
                 cells.ops_per_sec, speedup, locked.ns_per_op, cells.ns_per_op);
    first_row = false;
  }

  // Read mixes: absolute wait-free read throughput and reader CPU.
  std::printf("\n%10s %5s | %14s %12s\n", "mix", "prods", "ops/s",
              "rd cpu ns");
  double read_cpu_storm_4p = 0, read_cpu_quiet_4p = 0;
  for (Mix mix : {Mix::kRead, Mix::kReadQuiet}) {
    const char* name = mix == Mix::kRead ? "read" : "read_quiet";
    for (size_t p : producer_counts) {
      MtResult r = run_mt(false, p, mix, ops_per_thread);
      if (p == 4)
        (mix == Mix::kRead ? read_cpu_storm_4p : read_cpu_quiet_4p) =
            r.read_cpu_ns_per_op;
      std::printf("%10s %5zu | %14.0f %12.1f\n", name, p, r.ops_per_sec,
                  r.read_cpu_ns_per_op);
      std::fprintf(json,
                   ",\n    {\"mix\": \"%s\", \"producers\": %zu, "
                   "\"ops_per_thread\": %zu, \"ops_per_sec\": %.0f, "
                   "\"ns_per_op\": %.1f, \"read_cpu_ns_per_op\": %.1f}",
                   name, p, ops_per_thread, r.ops_per_sec, r.ns_per_op,
                   r.read_cpu_ns_per_op);
    }
  }

  // Flat-read-latency check: the wait-free read's CPU cost per op under a
  // report storm vs quiet. (Thread-CPU, not wall: timeslicing steals time
  // from every thread, which wall-clock can't separate from actual
  // read-path degradation.)
  const double read_degradation =
      read_cpu_quiet_4p > 0 ? read_cpu_storm_4p / read_cpu_quiet_4p : 0;
  std::printf(
      "\nack speedup at 4 producers, cells over locked: %.2fx "
      "(acceptance floor: 3x%s)\n"
      "wait-free read CPU under storm vs quiet at 4 producers: %.2fx\n",
      speedup_4p_ack, smoke ? ", not enforced in --smoke" : "",
      read_degradation);
  std::fprintf(json,
               "\n  ],\n  \"speedup_4producers_ack\": %.3f,\n"
               "  \"read_cpu_storm_over_quiet_4producers\": %.3f,\n"
               "  \"acceptance_floor\": 3.0,\n"
               "  \"smoke\": %s\n}\n",
               speedup_4p_ack, read_degradation, smoke ? "true" : "false");
  std::fclose(json);
  if (!smoke && speedup_4p_ack < 3.0) {
    std::fprintf(stderr, "FAIL: 4-producer ack speedup %.2fx < 3x\n",
                 speedup_4p_ack);
    return 1;
  }
  std::printf("wrote BENCH_control_mt.json\n");
  return 0;
}

}  // namespace
}  // namespace stab::bench

int main(int argc, char** argv) {
  using namespace stab;
  using namespace stab::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  print_header("Control-plane hot path: indexed dispatch + lock-free facade",
               "DESIGN.md §4c/§4f");

  int rc = run_single_threaded(smoke);
  if (rc != 0) return rc;
  return run_multi_threaded(smoke);
}
