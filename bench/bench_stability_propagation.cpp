// Stability propagation at fleet scale (ISSUE 10 tentpole, DESIGN.md §10).
//
// One origin drives a 64-node simulated fleet (8 AZs x 8 nodes, 1 ms intra /
// 10 ms inter one-way) under the MIN($ALLWNODES) predicate, so every frontier
// advance needs a report from every node. The workload is FIXED — the only
// variables are the report plane's flush period and whether reports are
// aggregated:
//
//   immediate      every node broadcasts its reports on the default 2 ms
//                  ack_interval (the paper's baseline);
//   deferred       the same plane at ack_interval = 50 ms: each flush
//                  carries the node's coalesced cumulative reports;
//   deferred+agg   50 ms with aggregate_reports: mirrors flush to their AZ
//                  aggregator only; the aggregator max-merges the AZ's
//                  reports and broadcasts one merged frame per flush over the
//                  long-haul links.
//
// Measured per mode: total control-plane bytes and frames (ACKBATCH +
// REPORTBATCH, summed over the fleet) and the per-message frontier lag
// (monitor fire time at each mirror minus the origin's send time, sampled at
// every mirror for every sequence). The tradeoff the table quantifies:
// deferred modes trade bounded extra lag (≈ flush interval per merge level)
// for an order-of-magnitude control-bandwidth reduction.
//
// Writes BENCH_stability_propagation.json (committed artifact;
// EXPERIMENTS.md "Stability propagation at fleet scale"). Acceptance (full
// run): deferred+agg control bytes >= 10x below immediate, and its p99 lag
// <= 2x flush interval + long-haul margins. --smoke runs a 16-node fleet
// with a 5x bytes floor (the scripts/ci.sh gate).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "config/topology.hpp"

namespace stab::bench {
namespace {

constexpr double kIntraMs = 1.0;
constexpr double kInterMs = 10.0;
constexpr double kFlushMs = 50.0;
constexpr double kSendIntervalMs = 5.0;

struct ModeResult {
  const char* name = "";
  uint64_t control_bytes = 0;
  uint64_t control_frames = 0;
  uint64_t report_entries = 0;  // entries applied fleet-wide (merge depth)
  double p50_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
  double converge_ms = 0;  // virtual time until every frontier caught up
};

ModeResult run_mode(const char* name, double flush_ms, bool aggregate,
                    size_t num_azs, size_t nodes_per_az, size_t msgs) {
  Topology topo =
      fleet_topology(num_azs, nodes_per_az, kIntraMs, kInterMs, /*bw=*/0);
  StabilizerOptions base;
  base.ack_interval = millis(static_cast<int64_t>(flush_ms));
  base.broadcast_acks = true;
  base.aggregate_reports = aggregate;
  StabCluster c(topo, base);

  const size_t n = topo.num_nodes();
  for (NodeId id = 0; id < n; ++id)
    if (!c.node(id).register_predicate("all", "MIN($ALLWNODES)")) {
      std::fprintf(stderr, "register_predicate failed at node %u\n", id);
      std::exit(1);
    }

  // Frontier lag: every mirror monitors origin 0; a fire covering sequences
  // (cursor, frontier] samples now - send_time for each one.
  std::vector<double> send_at_ms(msgs, 0);
  std::vector<SeqNum> cursor(n, kNoSeq);
  Series lag;
  for (NodeId id = 0; id < n; ++id) {
    if (id == 0) continue;  // the origin's own fire is not propagation lag
    Status ok = c.node(id).monitor_stability_frontier(
        "all",
        [&, id](SeqNum frontier, BytesView) {
          const double now_ms = to_ms(c.sim.now() - kTimeZero);
          for (SeqNum s = cursor[id] + 1;
               s <= frontier && s < static_cast<SeqNum>(msgs); ++s)
            lag.add(now_ms - send_at_ms[static_cast<size_t>(s)]);
          cursor[id] = frontier;
        },
        /*origin=*/0);
    if (!ok) {
      std::fprintf(stderr, "monitor registration failed at node %u\n", id);
      std::exit(1);
    }
  }

  for (size_t i = 0; i < msgs; ++i)
    c.sim.schedule_at(from_ms(kSendIntervalMs * static_cast<double>(i + 1)),
                      [&c, &send_at_ms, i] {
                        send_at_ms[i] = to_ms(c.sim.now() - kTimeZero);
                        c.node(0).send(Bytes(32, 0xAB));
                      });

  // Run until every mirror's frontier covers the last message (chunked so
  // convergence time is read off the virtual clock, not the horizon).
  const SeqNum want = static_cast<SeqNum>(msgs) - 1;
  double now_ms = 0;
  const double deadline_ms = 300000;
  for (;;) {
    now_ms += 50;
    c.sim.run_until(from_ms(now_ms));
    bool done = true;
    for (NodeId id = 0; id < n && done; ++id)
      done = c.node(id).get_stability_frontier("all", 0) >= want;
    if (done) break;
    if (now_ms > deadline_ms) {
      std::fprintf(stderr, "TIMEOUT: %s not converged by %.0f ms\n", name,
                   deadline_ms);
      std::exit(1);
    }
  }

  if (lag.count() != (n - 1) * msgs) {
    std::fprintf(stderr, "LAG SAMPLE SHORTFALL: %zu != %zu\n", lag.count(),
                 (n - 1) * msgs);
    std::exit(1);
  }

  ModeResult r;
  r.name = name;
  r.converge_ms = now_ms;
  r.p50_ms = lag.percentile(50);
  r.p99_ms = lag.percentile(99);
  r.max_ms = lag.max();
  for (NodeId id = 0; id < n; ++id) {
    const obs::MetricsRegistry& m = c.node(id).metrics();
    for (const char* counter : {"control.ack_bytes_sent",
                                "control.report_bytes_sent"})
      if (const obs::Counter* v = m.find_counter(counter))
        r.control_bytes += v->value();
    for (const char* counter : {"control.ack_batches_sent",
                                "control.report_batches_sent"})
      if (const obs::Counter* v = m.find_counter(counter))
        r.control_frames += v->value();
    if (const obs::Counter* v = m.find_counter("control.report_entries_applied"))
      r.report_entries += v->value();
  }
  return r;
}

int run(bool smoke) {
  const size_t num_azs = smoke ? 4 : 8;
  const size_t nodes_per_az = smoke ? 4 : 8;
  const size_t msgs = smoke ? 60 : 200;
  const double bytes_floor = smoke ? 5.0 : 10.0;
  // p99 bound: one flush at the mirror plus one at the aggregator, plus the
  // long-haul hops the merged frame still pays, plus scheduling margin.
  const double p99_bound_ms = 2 * kFlushMs + 3 * kInterMs + 10;

  print_header("Stability propagation at fleet scale",
               "deferred update stabilization, §V-C flavor");
  std::printf(
      "fleet: %zu AZs x %zu nodes, %.0f/%.0f ms intra/inter one-way,\n"
      "origin 0 sends %zu msgs @ %.0f ms, MIN($ALLWNODES), flush %.0f ms\n\n"
      "%-14s | %12s %8s %10s %9s %9s %9s\n",
      num_azs, nodes_per_az, kIntraMs, kInterMs, msgs, kSendIntervalMs,
      kFlushMs, "mode", "ctrl bytes", "frames", "entries", "p50 ms",
      "p99 ms", "conv ms");

  ModeResult rows[3] = {
      run_mode("immediate", 2, false, num_azs, nodes_per_az, msgs),
      run_mode("deferred", kFlushMs, false, num_azs, nodes_per_az, msgs),
      run_mode("deferred+agg", kFlushMs, true, num_azs, nodes_per_az, msgs),
  };

  std::FILE* json = std::fopen("BENCH_stability_propagation.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_stability_propagation.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"fleet\": {\"azs\": %zu, \"nodes_per_az\": %zu, "
               "\"intra_ms\": %.1f, \"inter_ms\": %.1f},\n"
               "  \"workload\": {\"msgs\": %zu, \"send_interval_ms\": %.1f, "
               "\"predicate\": \"MIN($ALLWNODES)\", \"flush_ms\": %.1f},\n"
               "  \"rows\": [\n",
               num_azs, nodes_per_az, kIntraMs, kInterMs, msgs,
               kSendIntervalMs, kFlushMs);

  const uint64_t base_bytes = rows[0].control_bytes;
  for (size_t i = 0; i < 3; ++i) {
    const ModeResult& r = rows[i];
    const double reduction =
        r.control_bytes ? static_cast<double>(base_bytes) /
                              static_cast<double>(r.control_bytes)
                        : 0;
    std::printf("%-14s | %12llu %8llu %10llu %9.1f %9.1f %9.0f\n", r.name,
                static_cast<unsigned long long>(r.control_bytes),
                static_cast<unsigned long long>(r.control_frames),
                static_cast<unsigned long long>(r.report_entries), r.p50_ms,
                r.p99_ms, r.converge_ms);
    std::fprintf(json,
                 "%s    {\"mode\": \"%s\", \"control_bytes\": %llu, "
                 "\"control_frames\": %llu, \"report_entries\": %llu, "
                 "\"bytes_reduction_vs_immediate\": %.2f, \"lag_p50_ms\": "
                 "%.2f, \"lag_p99_ms\": %.2f, \"lag_max_ms\": %.2f, "
                 "\"converge_ms\": %.0f}",
                 i ? ",\n" : "", r.name,
                 static_cast<unsigned long long>(r.control_bytes),
                 static_cast<unsigned long long>(r.control_frames),
                 static_cast<unsigned long long>(r.report_entries), reduction,
                 r.p50_ms, r.p99_ms, r.max_ms, r.converge_ms);
  }

  const double agg_reduction =
      rows[2].control_bytes ? static_cast<double>(base_bytes) /
                                  static_cast<double>(rows[2].control_bytes)
                            : 0;
  std::printf(
      "\ndeferred+agg control bytes: %.1fx below immediate (floor %.0fx)\n"
      "deferred+agg p99 lag: %.1f ms (bound %.0f ms)\n",
      agg_reduction, bytes_floor, rows[2].p99_ms, p99_bound_ms);
  std::fprintf(json,
               "\n  ],\n  \"agg_bytes_reduction\": %.2f,\n"
               "  \"bytes_floor\": %.1f,\n  \"agg_p99_ms\": %.2f,\n"
               "  \"p99_bound_ms\": %.1f,\n  \"smoke\": %s\n}\n",
               agg_reduction, bytes_floor, rows[2].p99_ms, p99_bound_ms,
               smoke ? "true" : "false");
  std::fclose(json);

#if !STAB_OBS_ENABLED
  // Byte counters read zero without the obs layer; the lag bound still holds.
  std::printf("obs disabled: skipping the control-bytes acceptance floor\n");
#else
  if (agg_reduction < bytes_floor) {
    std::fprintf(stderr, "FAIL: bytes reduction %.1fx < %.0fx\n",
                 agg_reduction, bytes_floor);
    return 1;
  }
#endif
  if (rows[2].p99_ms > p99_bound_ms) {
    std::fprintf(stderr, "FAIL: deferred+agg p99 lag %.1f ms > %.0f ms\n",
                 rows[2].p99_ms, p99_bound_ms);
    return 1;
  }
  std::printf("wrote BENCH_stability_propagation.json\n");
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
