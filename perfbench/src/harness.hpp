// Shared machinery of the end-to-end benchmark: the result record, the
// benchmark's own span tracer, a decorator Transport that counts and times
// every frame, seeded payloads, and the per-layer report built from
// outside the library (registry counter deltas, span statistics, replays of
// public codec and predicate functions).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/stabilizer.hpp"
#include "net/transport.hpp"

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  // where the traced run writes its spans
};

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // first few correctness violations

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records one wrong output; the run then reports correct=false.
  void fail(const std::string& what, uint64_t n = 1);
};

// --- statistics --------------------------------------------------------------

/// Nearest-rank percentile, p in [0,100]; sorts `v`. 0 when empty.
double percentile(std::vector<int64_t>& v, double p);
double median(std::vector<double> v);
double cpu_seconds();         // process user + system CPU
uint64_t context_switches();  // process voluntary + involuntary
double current_rss_mib();  // resident set now, from /proc/self/statm

/// Median of `field` over every round. Outside load that disturbs a few
/// rounds does not move it; a stall the program causes in half the rounds
/// or more does.
template <class Round>
double rounds_median(const std::vector<Round>& rounds, double Round::*field) {
  std::vector<double> v;
  for (const Round& rd : rounds) v.push_back(rd.*field);
  return median(std::move(v));
}

/// Latencies pooled over a whole run, in fixed memory so that pooling does
/// not grow the resident set the run measures. Buckets are exact below 64
/// and 1/64 of a power of two wide above it.
class LatencyHistogram {
 public:
  void add(int64_t v);
  /// Nearest-rank percentile, p in [0,100], interpolated linearly by rank
  /// inside its bucket. 0 when empty.
  double percentile(double p) const;

 private:
  static constexpr size_t kSub = 64;
  static size_t index(uint64_t v);
  static uint64_t lower(size_t i);
  static uint64_t width(size_t i);
  std::vector<uint64_t> counts_ = std::vector<uint64_t>(kSub * 59, 0);
  uint64_t total_ = 0;
};

/// Watches for the hypervisor taking CPUs away from this machine, in the
/// manner of jHiccup. One idle real-time thread pinned to each CPU the
/// process may use sleeps 1 ms at a time and records when it wakes late.
/// A real-time thread preempts every ordinary thread at once, so it is late
/// only when its virtual CPU was not running at all; the program under
/// test cannot delay it. Where real-time priority is refused, the threads
/// run at normal priority and say so on standard error.
class StallWatch {
 public:
  using Interval = std::pair<int64_t, int64_t>;  // now_ns() start, end
  StallWatch();
  ~StallWatch() { stop(); }
  StallWatch(const StallWatch&) = delete;
  StallWatch& operator=(const StallWatch&) = delete;

  /// Stops and joins the watchdogs; returns the stalls they saw, merged
  /// and sorted. A stall starts when its watchdog went to sleep, since it
  /// may have begun at any time after that.
  std::vector<Interval> stop();
  /// True when [from, to] overlaps one of `stalls` (as stop() returns).
  static bool overlaps(const std::vector<Interval>& stalls, int64_t from,
                       int64_t to);

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
  std::vector<std::vector<Interval>> seen_;  // one per watchdog
};

/// splitmix64 step: the benchmark's only source of seeded randomness.
uint64_t mix64(uint64_t x);

/// Inter-arrival gaps: exponential from a seed (Poisson arrivals), or a
/// fixed period (a steady stream).
class Arrivals {
 public:
  Arrivals(uint64_t seed, double rate_per_s, bool poisson)
      : state_(seed), rate_(rate_per_s), poisson_(poisson) {}
  int64_t next_gap_ns();

 private:
  uint64_t state_;
  double rate_;
  bool poisson_;
};

/// A seeded block of random bytes; every payload is a slice of it chosen
/// by a key, so senders never generate bytes and mirrors can check any
/// delivery against the expected slice.
class PayloadPool {
 public:
  explicit PayloadPool(uint64_t seed, size_t bytes = size_t{4} << 20);
  stab::BytesView slice(uint64_t key, size_t len) const;

 private:
  std::vector<uint8_t> bytes_;
};

// --- spans ---------------------------------------------------------------------

enum SpanName : uint8_t { kCoreSend, kNetSend, kNetRx, kDeliver, kNumSpanNames };
inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  int64_t start = 0;
  int64_t end = 0;
  uint64_t write = 0;  // write index + 1; 0 = not tied to one write
  uint32_t parent = kNoParent;  // index of the enclosing span, same thread
  uint8_t name = 0;
};

struct ThreadSpans {
  uint32_t tid = 0;
  std::vector<Span> spans;
  std::vector<uint32_t> open;
  uint64_t dropped = 0;
};

extern std::atomic<bool> g_tracing;
inline bool tracing_on() { return g_tracing.load(std::memory_order_relaxed); }
ThreadSpans& thread_spans();

/// Records one span on the calling thread while tracing is on; otherwise
/// costs one relaxed load.
class SpanScope {
 public:
  explicit SpanScope(SpanName name, uint64_t write = 0) {
    if (tracing_on()) open(name, write);
  }
  ~SpanScope() {
    if (ts_ == nullptr) return;
    ts_->spans[idx_].end = now_ns();
    ts_->open.pop_back();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  void open(SpanName name, uint64_t write);
  ThreadSpans* ts_ = nullptr;
  uint32_t idx_ = 0;
};

/// Starts a traced round: frees every span recorded so far and gives the
/// round a fresh budget of spans. Call while no thread records spans.
void reset_spans();
/// Spans the current round could not record because its budget ran out.
uint64_t spans_dropped();

/// Figures of one traced round's spans.
struct SpanStats {
  double net_send_ns_p50 = 0;
  double core_send_ns_p50 = 0;
  double core_send_ns_p99 = 0;
  double rx_self_ns_p50 = 0;
  double top_level_ns = 0;  // summed durations of spans with no parent
  // Summed per thread: first recorded start to last recorded end.
  double covered_ns = 0;
};
/// Analyzes the spans recorded since the last reset_spans().
SpanStats analyze_spans();
/// Percentiles: the median over rounds. Durations: summed over rounds.
SpanStats combine_span_stats(const std::vector<SpanStats>& rounds);
/// Writes the spans recorded since the last reset_spans() as fixed
/// 32-byte records (README.md).
void write_spans(const std::string& path);

// --- transport decorator ---------------------------------------------------------

enum WireKind { kWData, kWDataBatch, kWAck, kWReport, kWOther, kNumWireKinds };
extern const char* const kWireKindNames[kNumWireKinds];

struct WireCounts {
  uint64_t frames[kNumWireKinds] = {};
  uint64_t bytes[kNumWireKinds] = {};
  uint64_t total_bytes() const;
  uint64_t total_frames() const;
  WireCounts& operator+=(const WireCounts& o);
  WireCounts operator-(const WireCounts& o) const;
};

/// Wraps a node's real transport: counts frames and bytes by wire kind,
/// times every send and receive-handler call as spans, and (while frame
/// capture is on) keeps copies of a few frames per kind for decode replay.
class ProbeTransport final : public stab::Transport {
 public:
  explicit ProbeTransport(stab::Transport& inner) : inner_(inner) {}

  stab::NodeId self() const override { return inner_.self(); }
  size_t cluster_size() const override { return inner_.cluster_size(); }
  void set_receive_handler(ReceiveHandler handler) override;
  void send(stab::NodeId dst, stab::Bytes frame,
            uint64_t wire_size = 0) override;
  void send_shared(stab::NodeId dst, std::shared_ptr<const stab::Bytes> frame,
                   uint64_t wire_size = 0) override;
  stab::Env& env() override { return inner_.env(); }
  bool single_threaded() const override { return inner_.single_threaded(); }
  void set_direct_dispatch(bool on) override { inner_.set_direct_dispatch(on); }

  WireCounts counts() const;

 private:
  void account(stab::BytesView frame, uint64_t wire_size);

  stab::Transport& inner_;
  std::atomic<uint64_t> frames_[kNumWireKinds] = {};
  std::atomic<uint64_t> bytes_[kNumWireKinds] = {};
};

WireKind wire_kind(stab::BytesView frame);
void set_frame_capture(bool on);
/// Decodes every captured frame with the public data::decode_* functions;
/// returns nanoseconds per KiB of frame decoded (0 when none captured).
double decode_ns_per_kib();

// --- per-layer report ---------------------------------------------------------------

/// Whatever a cluster exposes to the per-layer report. `run_on(i, fn)` runs
/// fn where node i's engine state may be read (its Env thread on real
/// transports, inline on the simulator).
struct ClusterView {
  std::vector<stab::Stabilizer*> nodes;
  std::vector<ProbeTransport*> wires;
  std::function<void(size_t, const std::function<void()>&)> run_on;
};

/// Cumulative counters of a whole cluster at one instant.
struct Snapshot {
  int64_t wall_ns = 0;
  double cpu_s = 0;
  uint64_t ctx_switches = 0;
  WireCounts wire;
  uint64_t frames_transmitted = 0;
  uint64_t frames_coalesced = 0;
  uint64_t encodes = 0;
  uint64_t retransmits = 0;
  uint64_t entries_sum = 0;  // control flush entries (ACK + REPORT batches)
  uint64_t entries_count = 0;
  std::vector<uint64_t> batch_buckets;  // data.batch_frames histogram
  uint64_t evals = 0;
  uint64_t evals_skipped = 0;

  /// Field-wise difference and sum, to total the windows of several
  /// clusters (wall_ns, cpu_s and ctx_switches included).
  Snapshot operator-(const Snapshot& o) const;
  Snapshot& operator+=(const Snapshot& o);
};
Snapshot take_snapshot(const ClusterView& c);

/// Median cost of one Predicate::eval over every predicate registered on
/// node `node`'s engine for `origin`, replayed on a copy of its ack table.
double eval_ns_p50(const ClusterView& c, size_t node, stab::NodeId origin);

struct LayerInputs {
  double writes = 0;        // application writes issued inside the window
  uint64_t frames_dropped = 0;
  double send_buffer_peak_bytes = 0;
  double gen_late_p99_us = 0;
  double stalled_frac = 0;  // phase B writes left out: the host stalled
  double eval_ns_p50 = 0;
  double trace_overhead_frac = 0;
  bool simulated = false;
};
/// Adds every per-layer metric for a traced window whose counters grew by
/// `d`; `spans` must come from analyze_spans() over the same window.
void report_layers(Result& r, const Snapshot& d, const LayerInputs& in,
                   const SpanStats& spans);

/// The six Table III predicates of the paper as seen from `self`.
std::vector<std::pair<std::string, std::string>> table3_predicates(
    const stab::Topology& topo, stab::NodeId self);

// --- workloads -----------------------------------------------------------------------

Result run_tcp_small(const RunConfig& cfg);
Result run_tcp_bulk(const RunConfig& cfg);
Result run_sim_fleet(const RunConfig& cfg);
Result run_sim_wan_lossy(const RunConfig& cfg);

}  // namespace perfbench
