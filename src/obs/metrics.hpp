// Lock-cheap metrics registry: named counters, gauges, and log-bucketed
// latency/size histograms (docs/OBSERVABILITY.md is the metric catalog).
//
// Design (Prometheus-client-style, trimmed to what the hot paths need):
//   * Registration is rare and mutex-guarded; the returned Counter& /
//     Gauge& / Histogram& references are stable for the registry's lifetime,
//     so instrumentation sites resolve their metric once and then touch only
//     relaxed atomics — no lock, no lookup, no branch on the fast path.
//   * All mutation is std::memory_order_relaxed. Counters are never read to
//     make control-flow decisions, only snapshotted for reporting, so torn
//     or stale reads are impossible by construction (each word is a single
//     atomic) and cross-counter skew is acceptable. A counter bumped on a
//     transport IO thread is therefore safe to read from any thread.
//   * Histograms are log-bucketed with 4 linear sub-buckets per power of
//     two (quarter-octave resolution): values 0..7 are exact, every larger
//     bucket's upper bound is < 1.25x its lower bound, so reported
//     percentiles over-estimate the true nearest-rank sample by at most 25%
//     (tests/obs_test.cpp pins this against a sorted-vector oracle).
//
// One MetricsRegistry per Stabilizer node, the only source of its counters
// (Stabilizer::metrics()); obs::global() is the process-wide registry used
// by code without a node identity (the wire codec, transports by default).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace stab::obs {

/// Monotonic event count. inc() is one relaxed fetch_add; safe from any
/// thread without external locking.
class Counter {
 public:
  void inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (queue depth, frontier lag). set()
/// and add() are single relaxed atomic ops; safe from any thread.
class Gauge {
 public:
  void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Log-bucketed histogram of non-negative integer samples (nanoseconds,
/// bytes, sequence lags). record() is one bit-scan plus relaxed atomics;
/// safe from any thread. Percentiles are computed on demand from the bucket
/// counts and report the bucket's upper bound (a <= 25% over-estimate).
class Histogram {
 public:
  // Buckets: 0..3 exact; then 4 linear sub-buckets per power of two up to
  // 2^63, i.e. bucket widths grow 1.19x per step. 252 buckets total.
  static constexpr size_t kNumBuckets = 252;

  static size_t bucket_of(uint64_t v);
  /// Smallest / largest value mapping to bucket `b`.
  static uint64_t bucket_lo(size_t b);
  static uint64_t bucket_hi(size_t b);

  void record(uint64_t v);
  /// Fold `other`'s samples into this histogram (cluster-wide aggregation;
  /// min/max/sum/count merge exactly, buckets add).
  void merge(const Histogram& other);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Exact extremes of the recorded samples (0 when empty).
  uint64_t min() const;
  uint64_t max() const;

  /// Nearest-rank percentile estimate, p in [0,100]. Returns the upper
  /// bound of the bucket holding the rank'th sample, clamped to max().
  /// 0 when empty.
  uint64_t percentile(double p) const;

  struct Snapshot {
    uint64_t count = 0, sum = 0, min = 0, max = 0;
    uint64_t p50 = 0, p95 = 0, p99 = 0, p999 = 0;
  };
  Snapshot snapshot() const;

  /// Raw count of bucket `b` (relaxed load; windowed views delta these).
  uint64_t bucket_count(size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  /// Non-empty buckets as (upper_bound, count) pairs, ascending.
  std::vector<std::pair<uint64_t, uint64_t>> nonzero_buckets() const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// Time-windowed view over a cumulative Histogram.
///
/// A Histogram only accumulates since construction, so its percentiles go
/// stale on long-running nodes: one latency spike an hour ago pins p999
/// forever. A WindowedHistogram watches a source histogram and keeps a ring
/// of the last `window_epochs` *epoch deltas* (bucket-count differences
/// between consecutive advance() calls). snapshot() merges the ring, so the
/// reported p50/p99/p999 reflect only samples recorded during the last
/// N closed epochs — what a scrape wants — while the source histogram keeps
/// its exact since-boot totals.
///
/// advance() is driven by the owner (the LatencyProbe advances lazily off
/// the caller's clock; tests advance explicitly), never by wall time read
/// inside this class — that keeps windowed exports byte-identical across
/// replays of a seeded simulation.
///
/// The window's min/max are bucket-bound estimates (lo of the first /
/// hi of the last non-empty window bucket): deltas cannot recover the exact
/// extremes of a sub-range. Percentiles carry the same <= 25% one-bucket
/// over-estimate bound as Histogram (tests pin both against an oracle).
///
/// Thread safety: advance()/snapshot() take an internal mutex; the source
/// histogram may keep recording concurrently (its bucket loads are relaxed
/// and monotone, so a racing record lands in either the closing or the next
/// epoch — never lost, never double-counted).
class WindowedHistogram {
 public:
  explicit WindowedHistogram(const Histogram& source, size_t window_epochs = 8);

  /// Close the current epoch: fold (source - cumulative-at-last-advance)
  /// into the ring, evicting the oldest epoch once the ring is full.
  void advance();

  size_t window_epochs() const { return window_; }
  /// Total advance() calls so far (epochs closed since construction).
  uint64_t epochs_closed() const;

  /// Merged view of the last window_epochs closed epochs. Samples recorded
  /// after the latest advance() are not included.
  Histogram::Snapshot snapshot() const;

 private:
  struct Delta {
    std::array<uint64_t, Histogram::kNumBuckets> buckets{};
    uint64_t count = 0, sum = 0;
  };

  const Histogram& src_;
  const size_t window_;
  mutable std::mutex mu_;
  Delta cum_;                 // cumulative source state at last advance()
  std::vector<Delta> ring_;   // closed epochs, ring_[epochs_ % window_] next
  uint64_t epochs_ = 0;
};

/// Owns named metrics. counter()/gauge()/histogram() get-or-create under a
/// mutex and return stable references — resolve once, mutate lock-free.
/// A name identifies one metric: repeated lookups return the same object.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Optional shard dimension (DESIGN.md §9): a sharded node runs one
  /// registry per shard instance, and the shard id set here rides along in
  /// every export — dump_jsonl emits a "shard" field and the Prometheus
  /// endpoint a {shard="N"} label — so per-shard series stay separable
  /// instead of aggregating silently. -1 (the default) = unsharded: exports
  /// are byte-identical to the pre-shard format.
  void set_shard(int shard) { shard_.store(shard, std::memory_order_relaxed); }
  int shard() const { return shard_.load(std::memory_order_relaxed); }

  /// Lookup without creation (exporters, tests); nullptr when absent.
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  /// JSON-lines export: one {"name":...,"type":...} object per metric,
  /// sorted by name. `prefix` is prepended to every name (per-node
  /// namespacing when several registries feed one file). Deterministic for
  /// deterministic metric values — no timestamps, no addresses.
  void dump_jsonl(std::ostream& out, std::string_view prefix = {}) const;

  /// Human-readable aligned table (benches, chaos reports).
  void dump_table(std::ostream& out, std::string_view title = {}) const;

  /// Registered names, sorted (counters, then gauges, then histograms).
  std::vector<std::string> names() const;

 private:
  mutable std::mutex mu_;  // guards the maps, not the metrics
  std::atomic<int> shard_{-1};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Process-wide registry for instrumentation that has no per-node home:
/// the wire codec's encode/decode accounting and any transport not handed
/// an explicit registry. Never destroyed (leaky singleton), so counters
/// cached in function-local statics stay valid during shutdown.
MetricsRegistry& global();

}  // namespace stab::obs
