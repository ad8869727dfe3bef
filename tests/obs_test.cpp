// Tests for the observability layer (src/obs): histogram bucket math and
// percentile estimates pinned against a sorted-vector oracle, registry
// semantics and JSONL export determinism, tracer lifecycle + determinism
// over the simulator, and the StabilizerStats compatibility view reading
// through the per-node registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "core/stabilizer.hpp"
#include "net/sim_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stab {
namespace {

// --- Histogram bucket math ------------------------------------------------------

TEST(Histogram, BucketBoundsTileTheRange) {
  // Buckets partition [0, 2^63): contiguous, non-overlapping, and bucket_of
  // maps both endpoints back to the bucket.
  for (size_t b = 0; b + 1 < obs::Histogram::kNumBuckets; ++b) {
    uint64_t lo = obs::Histogram::bucket_lo(b);
    uint64_t hi = obs::Histogram::bucket_hi(b);
    ASSERT_LE(lo, hi) << "bucket " << b;
    EXPECT_EQ(obs::Histogram::bucket_of(lo), b);
    EXPECT_EQ(obs::Histogram::bucket_of(hi), b);
    EXPECT_EQ(obs::Histogram::bucket_lo(b + 1), hi + 1) << "bucket " << b;
  }
  // Quarter-octave guarantee: every bucket's width is at most lo/4, so a
  // percentile reported as bucket_hi over-estimates by < 25%.
  for (size_t b = 4; b < obs::Histogram::kNumBuckets; ++b) {
    uint64_t lo = obs::Histogram::bucket_lo(b);
    uint64_t width = obs::Histogram::bucket_hi(b) - lo + 1;
    EXPECT_LE(width, lo / 4) << "bucket " << b;
  }
  // Values 0..7 are exact (width-1 buckets).
  for (uint64_t v = 0; v < 8; ++v) {
    size_t b = obs::Histogram::bucket_of(v);
    EXPECT_EQ(obs::Histogram::bucket_lo(b), v);
    EXPECT_EQ(obs::Histogram::bucket_hi(b), v);
  }
}

// Nearest-rank oracle matching Histogram::percentile's rank definition.
uint64_t oracle_percentile(std::vector<uint64_t> sorted, double p) {
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(p / 100.0 * sorted.size()));
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

void check_against_oracle(const std::vector<uint64_t>& samples) {
  obs::Histogram h;
  for (uint64_t v : samples) h.record(v);
  std::vector<uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());

  EXPECT_EQ(h.count(), samples.size());
  EXPECT_EQ(h.min(), sorted.front());
  EXPECT_EQ(h.max(), sorted.back());
  uint64_t sum = 0;
  for (uint64_t v : samples) sum += v;
  EXPECT_EQ(h.sum(), sum);

  for (double p : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    uint64_t exact = oracle_percentile(sorted, p);
    uint64_t est = h.percentile(p);
    // The estimate is the true sample's bucket upper bound (clamped to
    // max): never below the truth, never more than 25% above it.
    EXPECT_GE(est, exact) << "p" << p;
    EXPECT_LE(est, exact + exact / 4) << "p" << p;
  }
}

TEST(Histogram, PercentilesMatchSortedOracleAcrossDistributions) {
  Rng rng(0xfeedbeefULL);
  // Uniform small values (mostly exact buckets).
  {
    std::vector<uint64_t> s;
    for (int i = 0; i < 5000; ++i) s.push_back(rng.next_below(16));
    check_against_oracle(s);
  }
  // Uniform over a wide range.
  {
    std::vector<uint64_t> s;
    for (int i = 0; i < 5000; ++i) s.push_back(rng.next_below(50'000'000));
    check_against_oracle(s);
  }
  // Heavy-tailed (Pareto) — the shape latency distributions actually have.
  {
    std::vector<uint64_t> s;
    for (int i = 0; i < 5000; ++i)
      s.push_back(static_cast<uint64_t>(rng.next_pareto(100.0, 1.2)));
    check_against_oracle(s);
  }
  // Degenerate: constant samples.
  check_against_oracle(std::vector<uint64_t>(100, 42));
}

TEST(Histogram, MergeFoldsCountsAndExtremes) {
  obs::Histogram a, b;
  for (uint64_t v : {1ull, 10ull, 100ull}) a.record(v);
  for (uint64_t v : {5ull, 1000ull}) b.record(v);
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_EQ(a.sum(), 1116u);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 1000u);
  obs::Histogram empty;
  a.merge(empty);  // merging an empty histogram is a no-op
  EXPECT_EQ(a.count(), 5u);
  EXPECT_EQ(a.min(), 1u);
}

TEST(Histogram, MergePercentilesMatchUnionOracle) {
  // Merged percentiles must equal those of a histogram fed the union — the
  // cluster-wide aggregation the chaos campaign relies on.
  Rng rng(0x5eedULL);
  std::vector<uint64_t> sa, sb;
  for (int i = 0; i < 3000; ++i) sa.push_back(rng.next_below(1'000'000));
  for (int i = 0; i < 2000; ++i)
    sb.push_back(static_cast<uint64_t>(rng.next_pareto(50.0, 1.3)));
  obs::Histogram a, b, u;
  for (uint64_t v : sa) {
    a.record(v);
    u.record(v);
  }
  for (uint64_t v : sb) {
    b.record(v);
    u.record(v);
  }
  a.merge(b);
  for (double p : {50.0, 95.0, 99.0, 99.9})
    EXPECT_EQ(a.percentile(p), u.percentile(p)) << "p" << p;
  EXPECT_EQ(a.snapshot().p999, u.snapshot().p999);
}

TEST(Histogram, SnapshotReportsP999AgainstOracle) {
  Rng rng(0xabcdULL);
  std::vector<uint64_t> s;
  for (int i = 0; i < 20'000; ++i)
    s.push_back(static_cast<uint64_t>(rng.next_pareto(100.0, 1.1)));
  obs::Histogram h;
  for (uint64_t v : s) h.record(v);
  std::sort(s.begin(), s.end());
  const uint64_t exact = oracle_percentile(s, 99.9);
  const obs::Histogram::Snapshot snap = h.snapshot();
  EXPECT_GE(snap.p999, exact);
  EXPECT_LE(snap.p999, exact + exact / 4);
  EXPECT_GE(snap.p999, snap.p99);
  EXPECT_LE(snap.p999, snap.max);
}

// --- WindowedHistogram ----------------------------------------------------------

TEST(WindowedHistogram, SnapshotCoversOnlyTheLastWindowEpochs) {
  obs::Histogram src;
  obs::WindowedHistogram w(src, /*window_epochs=*/2);
  // Epoch A: two samples, then closed.
  src.record(10);
  src.record(20);
  w.advance();
  // Epoch B: one sample, then closed.
  src.record(1000);
  w.advance();
  obs::Histogram::Snapshot s = w.snapshot();
  EXPECT_EQ(s.count, 3u);  // both epochs in the window
  EXPECT_EQ(s.sum, 1030u);
  // Two more empty epochs push A and B out of the 2-deep ring.
  w.advance();
  w.advance();
  s = w.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.p999, 0u);
  // The cumulative source is untouched by windowing.
  EXPECT_EQ(src.count(), 3u);
  // Samples recorded after the last advance() are not yet visible.
  src.record(7);
  EXPECT_EQ(w.snapshot().count, 0u);
  w.advance();
  EXPECT_EQ(w.snapshot().count, 1u);
  EXPECT_EQ(w.epochs_closed(), 5u);
}

// Property test: windowed percentiles over any epoch pattern match a
// sorted-vector oracle of exactly the samples in the last N epochs, within
// the histogram's one-bucket (<= 25%) bound; window min/max are bucket-
// bound estimates bracketing the true extremes.
TEST(WindowedHistogram, PercentilesMatchWindowOracleWithinBucketBound) {
  Rng rng(0x91d0ULL + 7);
  obs::Histogram src;
  obs::WindowedHistogram w(src, /*window_epochs=*/4);
  std::vector<std::vector<uint64_t>> epochs;
  for (int e = 0; e < 12; ++e) {
    std::vector<uint64_t> batch;
    const size_t n = 50 + rng.next_below(200);
    for (size_t i = 0; i < n; ++i) {
      uint64_t v = rng.next_below(2) == 0
                       ? rng.next_below(100)
                       : static_cast<uint64_t>(rng.next_pareto(500.0, 1.2));
      batch.push_back(v);
      src.record(v);
    }
    w.advance();
    epochs.push_back(std::move(batch));

    // Oracle: union of the last <= 4 closed epochs.
    std::vector<uint64_t> window_samples;
    for (size_t k = epochs.size() >= 4 ? epochs.size() - 4 : 0;
         k < epochs.size(); ++k)
      window_samples.insert(window_samples.end(), epochs[k].begin(),
                            epochs[k].end());
    std::sort(window_samples.begin(), window_samples.end());

    const obs::Histogram::Snapshot s = w.snapshot();
    ASSERT_EQ(s.count, window_samples.size()) << "epoch " << e;
    uint64_t sum = 0;
    for (uint64_t v : window_samples) sum += v;
    EXPECT_EQ(s.sum, sum) << "epoch " << e;
    for (double p : {50.0, 99.0, 99.9}) {
      const uint64_t exact = oracle_percentile(window_samples, p);
      const uint64_t est = p == 50.0 ? s.p50 : (p == 99.0 ? s.p99 : s.p999);
      EXPECT_GE(est, exact) << "epoch " << e << " p" << p;
      EXPECT_LE(est, exact + exact / 4) << "epoch " << e << " p" << p;
    }
    // Bucket-bound extremes bracket the truth.
    EXPECT_LE(s.min, window_samples.front()) << "epoch " << e;
    EXPECT_GE(s.max, window_samples.back()) << "epoch " << e;
  }
}

// --- MetricsRegistry ------------------------------------------------------------

TEST(Registry, GetOrCreateReturnsStableReferences) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("x"), nullptr);
  obs::Counter& c1 = reg.counter("x");
  obs::Counter& c2 = reg.counter("x");
  EXPECT_EQ(&c1, &c2);
  c1.inc(3);
  EXPECT_EQ(reg.find_counter("x")->value(), 3u);
  reg.gauge("g").set(-7);
  EXPECT_EQ(reg.find_gauge("g")->value(), -7);
  reg.histogram("h").record(9);
  EXPECT_EQ(reg.find_histogram("h")->count(), 1u);
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"x", "g", "h"}));
}

TEST(Registry, JsonlExportIsSortedDeterministicAndPrefixed) {
  obs::MetricsRegistry reg;
  reg.counter("b.count").inc(2);
  reg.counter("a.count").inc(1);
  reg.gauge("depth").set(4);
  reg.histogram("lat").record(5);
  std::ostringstream s1, s2;
  reg.dump_jsonl(s1, "node0.");
  reg.dump_jsonl(s2, "node0.");
  EXPECT_EQ(s1.str(), s2.str());  // byte-identical re-export
  std::string out = s1.str();
  EXPECT_NE(out.find("{\"name\":\"node0.a.count\",\"type\":\"counter\","
                     "\"value\":1}"),
            std::string::npos);
  // Sorted by name within each type: a.count precedes b.count.
  EXPECT_LT(out.find("node0.a.count"), out.find("node0.b.count"));
  EXPECT_NE(out.find("\"type\":\"histogram\""), std::string::npos);
}

// --- Tracer ---------------------------------------------------------------------

TEST(Tracer, CapacityBoundDropsDeterministically) {
  obs::Tracer t(/*capacity=*/2);
  for (SeqNum s = 0; s < 5; ++s)
    t.record(TimePoint{}, obs::SpanEvent::kBroadcast, 0, 0, s);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.dropped(), 3u);
  auto recs = t.records();
  EXPECT_EQ(recs[0].seq, 0);  // kept prefix is append-ordered
  EXPECT_EQ(recs[1].seq, 1);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, EventMaskFiltersUnsubscribedEvents) {
  obs::Tracer t(1024, obs::event_bit(obs::SpanEvent::kDeliver));
  EXPECT_TRUE(t.wants(obs::SpanEvent::kDeliver));
  EXPECT_FALSE(t.wants(obs::SpanEvent::kBroadcast));
  t.record(TimePoint{}, obs::SpanEvent::kBroadcast, 0, 0, 0);
  t.record(TimePoint{}, obs::SpanEvent::kDeliver, 1, 0, 0, 0);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.records()[0].ev, obs::SpanEvent::kDeliver);
}

// --- End-to-end over the simulator ---------------------------------------------

Topology mesh_topology(size_t n, double lat_ms = 10) {
  Topology t;
  for (size_t i = 0; i < n; ++i) t.add_node("n" + std::to_string(i), "az0");
  LinkSpec s;
  s.latency = from_ms(lat_ms);
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = 0; b < n; ++b)
      if (a != b) t.set_link(a, b, s);
  return t;
}

/// Runs a fixed 3-node workload with a shared tracer; returns the trace
/// JSONL plus node 0's metrics JSONL.
struct RunArtifacts {
  std::string trace;
  std::string metrics;
};

RunArtifacts run_traced_workload() {
  sim::Simulator sim;
  Topology topo = mesh_topology(3);
  SimCluster cluster(topo, sim);
  auto tracer = std::make_shared<obs::Tracer>();
  std::vector<std::unique_ptr<Stabilizer>> nodes;
  for (NodeId n = 0; n < 3; ++n) {
    StabilizerOptions opts;
    opts.topology = topo;
    opts.self = n;
    opts.tracer = tracer;
    nodes.push_back(std::make_unique<Stabilizer>(opts, cluster.transport(n)));
  }
  for (auto& node : nodes)
    node->register_predicate("all", "MIN($ALLWNODES)");
  for (int i = 0; i < 5; ++i) nodes[0]->send(to_bytes("m" + std::to_string(i)));
  nodes[1]->send(to_bytes("from1"));
  sim.run();
  RunArtifacts out;
  std::ostringstream ts, ms;
  tracer->export_jsonl(ts);
  nodes[0]->metrics().dump_jsonl(ms, "node0.");
  out.trace = ts.str();
  out.metrics = ms.str();
  return out;
}

TEST(TraceE2E, LifecycleSpansCoverBroadcastTransmitDeliverFire) {
  sim::Simulator sim;
  Topology topo = mesh_topology(3);
  SimCluster cluster(topo, sim);
  auto tracer = std::make_shared<obs::Tracer>();
  std::vector<std::unique_ptr<Stabilizer>> nodes;
  for (NodeId n = 0; n < 3; ++n) {
    StabilizerOptions opts;
    opts.topology = topo;
    opts.self = n;
    opts.tracer = tracer;
    nodes.push_back(std::make_unique<Stabilizer>(opts, cluster.transport(n)));
  }
  nodes[0]->register_predicate("all", "MIN($ALLWNODES)");
  SeqNum seq = nodes[0]->send(to_bytes("hello"));
  sim.run();

  std::map<obs::SpanEvent, int> per_event;
  bool fired_for_seq = false;
  for (const auto& r : tracer->records()) {
    if (r.origin != 0 || r.seq != seq) continue;
    ++per_event[r.ev];
    if (r.ev == obs::SpanEvent::kFrontierFire && r.detail == "all")
      fired_for_seq = true;
  }
  EXPECT_EQ(per_event[obs::SpanEvent::kBroadcast], 1);
  EXPECT_EQ(per_event[obs::SpanEvent::kTransmit], 2);  // one per peer
  EXPECT_EQ(per_event[obs::SpanEvent::kDeliver], 2);   // both receivers
  EXPECT_GE(per_event[obs::SpanEvent::kAckReport], 2);
  EXPECT_TRUE(fired_for_seq) << "no kFrontierFire for predicate 'all'";
  // Deliveries happen strictly after the broadcast on the virtual clock.
  TimePoint sent{}, delivered{};
  for (const auto& r : tracer->records()) {
    if (r.origin != 0 || r.seq != seq) continue;
    if (r.ev == obs::SpanEvent::kBroadcast) sent = r.t;
    if (r.ev == obs::SpanEvent::kDeliver) delivered = r.t;
  }
  EXPECT_GE(delivered - sent, from_ms(10));  // one link latency minimum
}

TEST(TraceE2E, IdenticalSimRunsProduceByteIdenticalArtifacts) {
  RunArtifacts a = run_traced_workload();
  RunArtifacts b = run_traced_workload();
  EXPECT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics, b.metrics);
}

TEST(StatsCompat, StructViewReadsThroughRegistry) {
  sim::Simulator sim;
  Topology topo = mesh_topology(3);
  SimCluster cluster(topo, sim);
  std::vector<std::unique_ptr<Stabilizer>> nodes;
  for (NodeId n = 0; n < 3; ++n) {
    StabilizerOptions opts;
    opts.topology = topo;
    opts.self = n;
    nodes.push_back(std::make_unique<Stabilizer>(opts, cluster.transport(n)));
  }
  nodes[0]->register_predicate("all", "MIN($ALLWNODES)");
  for (int i = 0; i < 4; ++i) nodes[0]->send(to_bytes("x"));
  sim.run();

  StabilizerStats s = nodes[0]->stats();
  obs::MetricsRegistry& reg = nodes[0]->metrics();
  EXPECT_EQ(s.messages_sent, 4u);
  EXPECT_EQ(s.messages_sent, reg.find_counter("core.messages_sent")->value());
  EXPECT_EQ(s.frames_transmitted,
            reg.find_counter("data.frames_transmitted")->value());
  EXPECT_EQ(s.shared_sends, reg.find_counter("data.shared_sends")->value());
  EXPECT_EQ(s.report_entries_applied,
            reg.find_counter("control.report_entries_applied")->value());
  EXPECT_GT(s.frames_transmitted, 0u);
  EXPECT_GT(s.report_entries_applied, 0u);
  // Engine-owned eval counters still aggregate into the view.
  EXPECT_GT(s.predicate_evals, 0u);

  StabilizerStats s1 = nodes[1]->stats();
  EXPECT_EQ(s1.messages_delivered, 4u);
  EXPECT_EQ(s1.messages_delivered,
            nodes[1]->metrics().find_counter("core.messages_delivered")
                ->value());
}

TEST(FrontierLag, HistogramAndPerKeyGaugePopulated) {
  sim::Simulator sim;
  Topology topo = mesh_topology(3);
  SimCluster cluster(topo, sim);
  std::vector<std::unique_ptr<Stabilizer>> nodes;
  for (NodeId n = 0; n < 3; ++n) {
    StabilizerOptions opts;
    opts.topology = topo;
    opts.self = n;
    nodes.push_back(std::make_unique<Stabilizer>(opts, cluster.transport(n)));
  }
  nodes[0]->register_predicate("all", "MIN($ALLWNODES)");
  for (int i = 0; i < 8; ++i) nodes[0]->send(to_bytes("x"));
  sim.run();

  obs::MetricsRegistry& reg = nodes[0]->metrics();
  const obs::Histogram* lag = reg.find_histogram("control.frontier_lag");
  ASSERT_NE(lag, nullptr);
  EXPECT_GT(lag->count(), 0u);
  const obs::Gauge* per_key = reg.find_gauge("control.frontier_lag.o0.all");
  ASSERT_NE(per_key, nullptr);
  // Quiesced cluster: the predicate caught up with the stream.
  EXPECT_EQ(per_key->value(), 0);
  EXPECT_EQ(nodes[0]->get_stability_frontier("all"), 7);
}

// --- LatencyProbe ---------------------------------------------------------------

TEST(LatencyProbe, JoinsSendDeliverAndStableSpansAtSampledSeqs) {
  obs::LatencyProbeOptions popt;
  popt.sample_every = 2;
  obs::LatencyProbe probe(popt);
  EXPECT_TRUE(probe.sampled(0));
  EXPECT_FALSE(probe.sampled(1));
  EXPECT_TRUE(probe.sampled(2));
  EXPECT_FALSE(probe.sampled(kNoSeq));

  // seqs 0..3 sent at t = 100 + 10*seq; sampled: 0 and 2.
  for (SeqNum s = 0; s < 4; ++s)
    probe.on_send(/*origin=*/0, s, TimePoint{Duration{100 + 10 * s}});
  // Remote node 1 delivers seq 0 at 150 (+50) and seq 2 at 180 (+60);
  // the origin's self-delivery must not record.
  probe.on_deliver(1, 0, 0, TimePoint{Duration{150}});
  probe.on_deliver(0, 0, 0, TimePoint{Duration{151}});  // self: ignored
  probe.on_deliver(1, 0, 2, TimePoint{Duration{180}});
  probe.on_deliver(1, 0, 1, TimePoint{Duration{160}});  // unsampled: ignored
  const obs::Histogram* dlv =
      probe.registry().find_histogram("probe.send_to_deliver");
  ASSERT_NE(dlv, nullptr);
  EXPECT_EQ(dlv->count(), 2u);
  EXPECT_EQ(dlv->min(), 50u);
  EXPECT_EQ(dlv->max(), 60u);

  // The "all" frontier reaches seq 1 (covers sampled 0), then seq 3
  // (covers sampled 2); a repeat fire at 3 must not double-record.
  probe.on_stable(0, 1, 3, "all", TimePoint{Duration{200}});
  probe.on_stable(0, 3, 3, "all", TimePoint{Duration{300}});
  probe.on_stable(0, 3, 3, "all", TimePoint{Duration{400}});
  const obs::Histogram* stb =
      probe.registry().find_histogram("probe.send_to_stable.all");
  ASSERT_NE(stb, nullptr);
  EXPECT_EQ(stb->count(), 2u);
  EXPECT_EQ(stb->min(), 100u);   // seq 0: 200 - 100
  EXPECT_EQ(stb->max(), 180u);   // seq 2: 300 - 120
  // Frontier lag fed per fire: 3-1=2, 3-3=0, 3-3=0.
  const obs::Histogram* lag =
      probe.registry().find_histogram("probe.frontier_lag");
  ASSERT_NE(lag, nullptr);
  EXPECT_EQ(lag->count(), 3u);
  EXPECT_EQ(lag->max(), 2u);
  const obs::Gauge* lag_gauge =
      probe.registry().find_gauge("probe.frontier_lag.o0");
  ASSERT_NE(lag_gauge, nullptr);
  EXPECT_EQ(lag_gauge->value(), 0);
}

TEST(LatencyProbe, WindowedExportAdvancesOffCallerClockOnly) {
  obs::LatencyProbeOptions popt;
  popt.sample_every = 1;
  popt.window_epoch = millis(10);
  popt.window_epochs = 2;
  obs::LatencyProbe probe(popt);
  probe.on_send(0, 0, TimePoint{millis(0)});
  probe.on_deliver(1, 0, 0, TimePoint{millis(1)});
  // Nothing advanced yet: the windowed view is empty until an epoch closes.
  EXPECT_EQ(probe.windowed("probe.send_to_deliver").count, 0u);
  probe.advance_windows(TimePoint{millis(25)});  // closes >= 1 epoch
  EXPECT_EQ(probe.windowed("probe.send_to_deliver").count, 1u);
  // Far-future advance ages everything out of the 2-epoch ring.
  probe.advance_windows(TimePoint{millis(1000)});
  EXPECT_EQ(probe.windowed("probe.send_to_deliver").count, 0u);

  std::ostringstream out;
  probe.export_windows_jsonl(out);
  EXPECT_NE(out.str().find("\"type\":\"windowed_histogram\""),
            std::string::npos);
  EXPECT_NE(out.str().find("probe.send_to_deliver"), std::string::npos);
}

TEST(LatencyProbe, EvictsOldestSpanPastMaxOpenAndCounts) {
  obs::LatencyProbeOptions popt;
  popt.sample_every = 1;
  popt.max_open_spans = 4;
  obs::LatencyProbe probe(popt);
  for (SeqNum s = 0; s < 6; ++s)
    probe.on_send(0, s, TimePoint{Duration{s}});
  EXPECT_EQ(probe.registry().find_counter("probe.spans_evicted")->value(),
            2u);
  // Evicted seqs 0 and 1 no longer close; surviving 2..5 do.
  probe.on_stable(0, 5, 5, "all", TimePoint{Duration{100}});
  EXPECT_EQ(
      probe.registry().find_histogram("probe.send_to_stable.all")->count(),
      4u);
}

/// Shared-probe sim campaign; returns the full probe export (registry +
/// windowed views) for determinism comparison.
std::string run_probed_workload() {
  sim::Simulator sim;
  Topology topo = mesh_topology(3);
  SimCluster cluster(topo, sim);
  obs::LatencyProbeOptions popt;
  popt.sample_every = 2;
  auto probe = std::make_shared<obs::LatencyProbe>(popt);
  std::vector<std::unique_ptr<Stabilizer>> nodes;
  for (NodeId n = 0; n < 3; ++n) {
    StabilizerOptions opts;
    opts.topology = topo;
    opts.self = n;
    opts.probe = probe;
    nodes.push_back(std::make_unique<Stabilizer>(opts, cluster.transport(n)));
  }
  nodes[0]->register_predicate("all", "MIN($ALLWNODES)");
  for (int i = 0; i < 32; ++i)
    nodes[0]->send(to_bytes("m" + std::to_string(i)));
  sim.run();
  probe->advance_windows(sim.now() + seconds(10));
  std::ostringstream out;
  probe->registry().dump_jsonl(out, "probe.");
  probe->export_windows_jsonl(out);
  return out.str();
}

TEST(LatencyProbe, SimCampaignClosesSpansAndExportsByteIdenticallyPerSeed) {
  std::string a = run_probed_workload();
  std::string b = run_probed_workload();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("probe.send_to_deliver"), std::string::npos);
  EXPECT_NE(a.find("probe.send_to_stable.all"), std::string::npos);
  EXPECT_NE(a.find("windowed_histogram"), std::string::npos);
  // 32 messages at 1-in-2 sampling: 16 sampled spans, each delivered on 2
  // remote nodes -> 32 deliver legs; 16 stable closes.
  EXPECT_NE(a.find("\"name\":\"probe.probe.send_to_stable.all\","
                   "\"type\":\"histogram\",\"count\":16"),
            std::string::npos)
      << a;
}

// --- Trace drop accounting ------------------------------------------------------

TEST(TraceDrop, ExportAppendsSummaryLineOnlyWhenDropsOccurred) {
  obs::Tracer t(/*capacity=*/2);
  t.record(TimePoint{}, obs::SpanEvent::kBroadcast, 0, 0, 0);
  std::ostringstream clean;
  t.export_jsonl(clean);
  EXPECT_EQ(clean.str().find("trace_dropped"), std::string::npos);
  for (SeqNum s = 1; s < 5; ++s)
    t.record(TimePoint{}, obs::SpanEvent::kBroadcast, 0, 0, s);
  std::ostringstream out;
  t.export_jsonl(out);
  EXPECT_NE(out.str().find("{\"summary\":\"trace_dropped\",\"dropped\":3,"
                           "\"kept\":2}"),
            std::string::npos)
      << out.str();
}

TEST(TraceDrop, StabilizerExportsDroppedCountAsRegistryCounter) {
  sim::Simulator sim;
  Topology topo = mesh_topology(3);
  SimCluster cluster(topo, sim);
  // Tiny capacity: the workload overflows it deterministically.
  auto tracer = std::make_shared<obs::Tracer>(/*capacity=*/4);
  std::vector<std::unique_ptr<Stabilizer>> nodes;
  for (NodeId n = 0; n < 3; ++n) {
    StabilizerOptions opts;
    opts.topology = topo;
    opts.self = n;
    opts.tracer = tracer;
    nodes.push_back(std::make_unique<Stabilizer>(opts, cluster.transport(n)));
  }
  nodes[0]->register_predicate("all", "MIN($ALLWNODES)");
  for (int i = 0; i < 16; ++i) nodes[0]->send(to_bytes("x"));
  sim.run();
  ASSERT_GT(tracer->dropped(), 0u);
  // metrics() folds the tracer's drop count into obs.trace_dropped. The
  // shared tracer's drops appear at whichever node's metrics are read.
  const obs::Counter* c =
      nodes[0]->metrics().find_counter("obs.trace_dropped");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), tracer->dropped());
}

// --- New span coverage ----------------------------------------------------------

TEST(SpanNames, FailoverEventsAreNamed) {
  EXPECT_STREQ(obs::span_event_name(obs::SpanEvent::kLeaseExpire),
               "lease_expire");
  EXPECT_STREQ(obs::span_event_name(obs::SpanEvent::kSuspect), "suspect");
  EXPECT_STREQ(obs::span_event_name(obs::SpanEvent::kPromote), "promote");
  EXPECT_STREQ(obs::span_event_name(obs::SpanEvent::kTakeoverApply),
               "takeover_apply");
  EXPECT_STREQ(obs::span_event_name(obs::SpanEvent::kFenceDrop),
               "fence_drop");
  // Mask partition: lifecycle + episode = all, disjoint.
  EXPECT_EQ(obs::kLifecycleEvents | obs::kEpisodeEvents, obs::kAllEvents);
  EXPECT_EQ(obs::kLifecycleEvents & obs::kEpisodeEvents, 0u);
  EXPECT_TRUE((obs::kEpisodeEvents &
               obs::event_bit(obs::SpanEvent::kFenceDrop)) != 0);
}

}  // namespace
}  // namespace stab
