#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "control/ack_table.hpp"
#include "data/wire.hpp"

// Half the per-layer metrics are registry counters read through
// Stabilizer::metrics(), which a build without observability lacks.
#if !STAB_OBS_ENABLED
#error "perfbench needs the observability layer (STAB_OBS_ENABLED=1)"
#endif

namespace perfbench {

using stab::Bytes;
using stab::BytesView;

void Result::fail(const std::string& what, uint64_t n) {
  failed += n;
  if (problems.size() < 8) problems.push_back(what);
}

// --- statistics --------------------------------------------------------------

double percentile(std::vector<int64_t>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  return static_cast<double>(v[std::max<size_t>(rank, 1) - 1]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

uint64_t context_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
}

double current_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return n == 2 ? static_cast<double>(resident) *
                      static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0
                : 0;
}

StallWatch::StallWatch() {
  constexpr int64_t kPeriod = 1000000;  // ns between wake-ups
  constexpr int64_t kLate = 200000;     // a later wake-up is a stall
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  const int cpus = CPU_COUNT(&allowed);
  seen_.resize(static_cast<size_t>(cpus));
  static std::atomic<bool> warned{false};
  for (int cpu = 0, k = 0; k < cpus; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    std::vector<Interval>* seen = &seen_[static_cast<size_t>(k++)];
    threads_.emplace_back([this, cpu, seen] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof one, &one);
      sched_param prio{};
      prio.sched_priority = 1;
      if (pthread_setschedparam(pthread_self(), SCHED_FIFO, &prio) != 0 &&
          !warned.exchange(true))
        std::fprintf(stderr,
                     "perfbench: real-time priority refused; stall watchdogs "
                     "run at normal priority\n");
      prctl(PR_SET_TIMERSLACK, 1UL);
      for (int64_t slept = now_ns(); !stop_.load(std::memory_order_relaxed);) {
        const int64_t due = slept + kPeriod;
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        const int64_t woke = now_ns();
        if (woke - due > kLate) seen->emplace_back(slept, woke);
        slept = woke;
      }
    });
  }
}

std::vector<StallWatch::Interval> StallWatch::stop() {
  stop_ = true;
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  std::vector<Interval> all;
  for (const auto& s : seen_) all.insert(all.end(), s.begin(), s.end());
  std::sort(all.begin(), all.end());
  std::vector<Interval> merged;
  for (const Interval& s : all) {
    if (!merged.empty() && s.first <= merged.back().second)
      merged.back().second = std::max(merged.back().second, s.second);
    else
      merged.push_back(s);
  }
  return merged;
}

bool StallWatch::overlaps(const std::vector<Interval>& stalls, int64_t from,
                          int64_t to) {
  // The first stall that ends at or after `from`.
  auto it = std::lower_bound(
      stalls.begin(), stalls.end(), from,
      [](const Interval& s, int64_t t) { return s.second < t; });
  return it != stalls.end() && it->first <= to;
}

size_t LatencyHistogram::index(uint64_t v) {
  if (v < kSub) return v;
  const int e = 63 - __builtin_clzll(v);  // 6..63
  return static_cast<size_t>(e - 5) * kSub + ((v >> (e - 6)) - kSub);
}

uint64_t LatencyHistogram::lower(size_t i) {
  if (i < kSub) return i;
  return (kSub + i % kSub) << (i / kSub - 1);
}

uint64_t LatencyHistogram::width(size_t i) {
  return i < kSub ? 1 : uint64_t{1} << (i / kSub - 1);
}

void LatencyHistogram::add(int64_t v) {
  ++counts_[index(static_cast<uint64_t>(std::max<int64_t>(v, 0)))];
  ++total_;
}

double LatencyHistogram::percentile(double p) const {
  if (total_ == 0) return 0;
  const auto rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(total_))));
  uint64_t below = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (below + counts_[i] >= rank) {
      const double into = (static_cast<double>(rank - below) - 0.5) /
                          static_cast<double>(counts_[i]);
      return static_cast<double>(lower(i)) +
             into * static_cast<double>(width(i));
    }
    below += counts_[i];
  }
  return 0;
}

uint64_t mix64(uint64_t x) {
  uint64_t z = x + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int64_t Arrivals::next_gap_ns() {
  if (!poisson_) return static_cast<int64_t>(1e9 / rate_);
  state_ = mix64(state_);
  double u = static_cast<double>(state_ >> 11) * 0x1.0p-53;  // [0, 1)
  return static_cast<int64_t>(-std::log1p(-u) / rate_ * 1e9);
}

PayloadPool::PayloadPool(uint64_t seed, size_t bytes) : bytes_(bytes) {
  uint64_t s = seed;
  for (size_t i = 0; i + 8 <= bytes_.size(); i += 8) {
    s = mix64(s);
    std::memcpy(&bytes_[i], &s, 8);
  }
}

BytesView PayloadPool::slice(uint64_t key, size_t len) const {
  size_t off = mix64(key) % (bytes_.size() - len + 1);
  return BytesView(bytes_.data() + off, len);
}

// --- spans ---------------------------------------------------------------------

std::atomic<bool> g_tracing{false};

namespace {

// Spans of one traced round stay in memory until the next round starts;
// past this many (64 MiB) the rest of the round is counted as dropped, not
// recorded, and the round is left out of the span figures.
constexpr int64_t kSpanBudget = int64_t{2} << 20;
std::atomic<int64_t> g_spans_left{kSpanBudget};
const char* const kSpanNames[kNumSpanNames] = {"core.send", "net.send",
                                               "net.rx", "app.deliver"};

std::mutex g_span_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_span_buffers;  // never shrinks

}  // namespace

ThreadSpans& thread_spans() {
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> lock(g_span_mu);
    g_span_buffers.push_back(std::make_unique<ThreadSpans>());
    mine = g_span_buffers.back().get();
    mine->tid = static_cast<uint32_t>(g_span_buffers.size() - 1);
  }
  return *mine;
}

void SpanScope::open(SpanName name, uint64_t write) {
  ThreadSpans& ts = thread_spans();
  if (g_spans_left.fetch_sub(1, std::memory_order_relaxed) <= 0) {
    ++ts.dropped;
    return;
  }
  Span s;
  s.name = name;
  s.parent = ts.open.empty() ? kNoParent : ts.open.back();
  s.write = write != 0 || s.parent == kNoParent ? write
                                                : ts.spans[s.parent].write;
  idx_ = static_cast<uint32_t>(ts.spans.size());
  ts.open.push_back(idx_);
  s.start = now_ns();
  ts.spans.push_back(s);
  ts_ = &ts;
}

void reset_spans() {
  std::lock_guard<std::mutex> lock(g_span_mu);
  for (const auto& buf : g_span_buffers) {
    std::vector<Span>().swap(buf->spans);
    buf->open.clear();
    buf->dropped = 0;
  }
  g_spans_left = kSpanBudget;
}

uint64_t spans_dropped() {
  std::lock_guard<std::mutex> lock(g_span_mu);
  uint64_t dropped = 0;
  for (const auto& buf : g_span_buffers) dropped += buf->dropped;
  return dropped;
}

SpanStats combine_span_stats(const std::vector<SpanStats>& rounds) {
  auto med = [&rounds](double SpanStats::*field) {
    std::vector<double> v;
    for (const SpanStats& s : rounds) v.push_back(s.*field);
    return median(std::move(v));
  };
  SpanStats out;
  out.net_send_ns_p50 = med(&SpanStats::net_send_ns_p50);
  out.core_send_ns_p50 = med(&SpanStats::core_send_ns_p50);
  out.core_send_ns_p99 = med(&SpanStats::core_send_ns_p99);
  out.rx_self_ns_p50 = med(&SpanStats::rx_self_ns_p50);
  for (const SpanStats& s : rounds) {
    out.top_level_ns += s.top_level_ns;
    out.covered_ns += s.covered_ns;
  }
  return out;
}

SpanStats analyze_spans() {
  std::lock_guard<std::mutex> lock(g_span_mu);
  std::vector<int64_t> net_send, core_send, rx_self;
  SpanStats st;
  for (const auto& buf : g_span_buffers) {
    const auto& spans = buf->spans;
    if (spans.empty()) continue;
    st.covered_ns += static_cast<double>(spans.back().end - spans.front().start);
    std::vector<int64_t> child(spans.size(), 0);
    for (const Span& s : spans)
      if (s.parent != kNoParent) child[s.parent] += s.end - s.start;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      int64_t dur = s.end - s.start;
      if (s.parent == kNoParent) st.top_level_ns += static_cast<double>(dur);
      switch (s.name) {
        case kCoreSend: core_send.push_back(dur); break;
        case kNetSend: net_send.push_back(dur); break;
        case kNetRx: rx_self.push_back(dur - child[i]); break;
        default: break;
      }
    }
  }
  st.net_send_ns_p50 = percentile(net_send, 50);
  st.core_send_ns_p50 = percentile(core_send, 50);
  st.core_send_ns_p99 = percentile(core_send, 99);
  st.rx_self_ns_p50 = percentile(rx_self, 50);
  return st;
}

void write_spans(const std::string& path) {
  const uint64_t dropped = spans_dropped();
  std::lock_guard<std::mutex> lock(g_span_mu);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "perfbench-spans v1 names=";
  for (int n = 0; n < kNumSpanNames; ++n)
    out << (n ? "," : "") << kSpanNames[n];
  out << " dropped=" << dropped << "\n";
  struct Record {
    int64_t start, end;
    uint64_t write;
    uint32_t parent;
    uint8_t name, tid;
    uint16_t pad;
  };
  static_assert(sizeof(Record) == 32);
  for (const auto& buf : g_span_buffers)
    for (const Span& s : buf->spans) {
      Record r{s.start, s.end, s.write, s.parent, s.name,
               static_cast<uint8_t>(buf->tid), 0};
      out.write(reinterpret_cast<const char*>(&r), sizeof r);
    }
}

// --- transport decorator ---------------------------------------------------------

const char* const kWireKindNames[kNumWireKinds] = {
    "data", "databatch", "ackbatch", "reportbatch", "other"};

uint64_t WireCounts::total_bytes() const {
  uint64_t t = 0;
  for (uint64_t b : bytes) t += b;
  return t;
}

uint64_t WireCounts::total_frames() const {
  uint64_t t = 0;
  for (uint64_t f : frames) t += f;
  return t;
}

WireCounts& WireCounts::operator+=(const WireCounts& o) {
  for (int k = 0; k < kNumWireKinds; ++k) {
    frames[k] += o.frames[k];
    bytes[k] += o.bytes[k];
  }
  return *this;
}

WireCounts WireCounts::operator-(const WireCounts& o) const {
  WireCounts d;
  for (int k = 0; k < kNumWireKinds; ++k) {
    d.frames[k] = frames[k] - o.frames[k];
    d.bytes[k] = bytes[k] - o.bytes[k];
  }
  return d;
}

WireKind wire_kind(BytesView frame) {
  auto k = stab::data::peek_kind(frame);
  if (!k) return kWOther;
  switch (*k) {
    case stab::data::FrameKind::kData: return kWData;
    case stab::data::FrameKind::kDataBatch: return kWDataBatch;
    case stab::data::FrameKind::kAckBatch: return kWAck;
    case stab::data::FrameKind::kReportBatch: return kWReport;
    default: return kWOther;
  }
}

namespace {

struct FrameCapture {
  static constexpr size_t kPerKind = 256;
  std::atomic<bool> on{false};
  std::mutex mu;
  std::vector<Bytes> frames[kNumWireKinds];

  void offer(WireKind k, BytesView f) {
    if (!on.load(std::memory_order_relaxed) || k == kWOther) return;
    std::lock_guard<std::mutex> lock(mu);
    if (frames[k].size() < kPerKind) frames[k].emplace_back(f.begin(), f.end());
  }
};

FrameCapture g_capture;
volatile uint64_t g_sink = 0;

}  // namespace

void set_frame_capture(bool on) { g_capture.on.store(on); }

void ProbeTransport::account(BytesView frame, uint64_t wire_size) {
  WireKind k = wire_kind(frame);
  frames_[k].fetch_add(1, std::memory_order_relaxed);
  bytes_[k].fetch_add(wire_size ? wire_size : frame.size(),
                      std::memory_order_relaxed);
  g_capture.offer(k, frame);
}

void ProbeTransport::set_receive_handler(ReceiveHandler handler) {
  if (!handler) {
    inner_.set_receive_handler(nullptr);
    return;
  }
  inner_.set_receive_handler(
      [h = std::move(handler)](stab::NodeId src, BytesView frame,
                               uint64_t wire_size) {
        SpanScope span(kNetRx);
        h(src, frame, wire_size);
      });
}

void ProbeTransport::send(stab::NodeId dst, Bytes frame, uint64_t wire_size) {
  account(frame, wire_size);
  SpanScope span(kNetSend);
  inner_.send(dst, std::move(frame), wire_size);
}

void ProbeTransport::send_shared(stab::NodeId dst,
                                 std::shared_ptr<const Bytes> frame,
                                 uint64_t wire_size) {
  account(*frame, wire_size);
  SpanScope span(kNetSend);
  inner_.send_shared(dst, std::move(frame), wire_size);
}

WireCounts ProbeTransport::counts() const {
  WireCounts c;
  for (int k = 0; k < kNumWireKinds; ++k) {
    c.frames[k] = frames_[k].load(std::memory_order_relaxed);
    c.bytes[k] = bytes_[k].load(std::memory_order_relaxed);
  }
  return c;
}

double decode_ns_per_kib() {
  std::lock_guard<std::mutex> lock(g_capture.mu);
  uint64_t bytes = 0;
  for (const auto& kind : g_capture.frames)
    for (const Bytes& f : kind) bytes += f.size();
  if (bytes == 0) return 0;
  const int reps = static_cast<int>(
      std::clamp<uint64_t>((uint64_t{16} << 20) / bytes, 4, 4096));
  namespace data = stab::data;
  int64_t t0 = now_ns();
  uint64_t sink = 0;
  for (int r = 0; r < reps; ++r) {
    for (const Bytes& f : g_capture.frames[kWData]) {
      data::DataView v = data::decode_data_view(f);
      sink += static_cast<uint64_t>(v.seq) + v.payload.size();
    }
    for (const Bytes& f : g_capture.frames[kWDataBatch])
      sink += data::decode_data_batch(f).entries.size();
    for (const Bytes& f : g_capture.frames[kWAck])
      sink += data::decode_ack_batch(f).entries.size();
    for (const Bytes& f : g_capture.frames[kWReport])
      sink += data::decode_report_batch(f).blocks.size();
  }
  int64_t dt = now_ns() - t0;
  g_sink = g_sink + sink;
  return static_cast<double>(dt) / (static_cast<double>(bytes) * reps / 1024.0);
}

// --- per-layer report ---------------------------------------------------------------

Snapshot Snapshot::operator-(const Snapshot& o) const {
  Snapshot d = *this;
  d.wall_ns -= o.wall_ns;
  d.cpu_s -= o.cpu_s;
  d.ctx_switches -= o.ctx_switches;
  d.wire = wire - o.wire;
  d.frames_transmitted -= o.frames_transmitted;
  d.frames_coalesced -= o.frames_coalesced;
  d.encodes -= o.encodes;
  d.retransmits -= o.retransmits;
  d.entries_sum -= o.entries_sum;
  d.entries_count -= o.entries_count;
  for (size_t i = 0; i < o.batch_buckets.size() && i < d.batch_buckets.size(); ++i)
    d.batch_buckets[i] -= o.batch_buckets[i];
  d.evals -= o.evals;
  d.evals_skipped -= o.evals_skipped;
  return d;
}

Snapshot& Snapshot::operator+=(const Snapshot& o) {
  wall_ns += o.wall_ns;
  cpu_s += o.cpu_s;
  ctx_switches += o.ctx_switches;
  wire += o.wire;
  frames_transmitted += o.frames_transmitted;
  frames_coalesced += o.frames_coalesced;
  encodes += o.encodes;
  retransmits += o.retransmits;
  entries_sum += o.entries_sum;
  entries_count += o.entries_count;
  if (batch_buckets.size() < o.batch_buckets.size())
    batch_buckets.resize(o.batch_buckets.size(), 0);
  for (size_t i = 0; i < o.batch_buckets.size(); ++i)
    batch_buckets[i] += o.batch_buckets[i];
  evals += o.evals;
  evals_skipped += o.evals_skipped;
  return *this;
}

Snapshot take_snapshot(const ClusterView& c) {
  Snapshot s;
  s.wall_ns = now_ns();
  s.cpu_s = cpu_seconds();
  s.ctx_switches = context_switches();
  for (ProbeTransport* w : c.wires) s.wire += w->counts();
  for (size_t i = 0; i < c.nodes.size(); ++i) {
    stab::Stabilizer* node = c.nodes[i];
    const auto& reg = node->metrics();
    auto counter = [&reg](const char* name) -> uint64_t {
      const auto* ctr = reg.find_counter(name);
      return ctr ? ctr->value() : 0;
    };
    s.frames_transmitted += counter("data.frames_transmitted");
    s.frames_coalesced += counter("data.frames_coalesced");
    s.encodes += counter("data.encodes");
    s.retransmits += counter("data.retransmits_sent");
    for (const char* h : {"control.ack_flush_entries",
                          "control.report_flush_entries"})
      if (const auto* hist = reg.find_histogram(h)) {
        s.entries_sum += hist->sum();
        s.entries_count += hist->count();
      }
    if (const auto* hist = reg.find_histogram("data.batch_frames")) {
      s.batch_buckets.resize(stab::obs::Histogram::kNumBuckets, 0);
      for (size_t b = 0; b < stab::obs::Histogram::kNumBuckets; ++b)
        s.batch_buckets[b] += hist->bucket_count(b);
    }
    c.run_on(i, [&] {
      for (stab::NodeId o = 0; o < node->topology().num_nodes(); ++o) {
        const stab::FrontierEngine& e = node->engine(o);
        s.evals += e.predicate_evals();
        s.evals_skipped += e.evals_skipped_index() + e.evals_skipped_binding();
      }
    });
  }
  return s;
}

double eval_ns_p50(const ClusterView& c, size_t node, stab::NodeId origin) {
  std::vector<double> samples;
  c.run_on(node, [&] {
    const stab::FrontierEngine& e = c.nodes[node]->engine(origin);
    const stab::AckTable acks = e.acks();
    constexpr int kBatches = 64, kPerBatch = 32;
    uint64_t sink = 0;
    for (const std::string& key : e.predicate_keys()) {
      const stab::dsl::Predicate* p = e.predicate(key);
      if (p == nullptr) continue;
      for (int b = 0; b < kBatches; ++b) {
        int64_t t0 = now_ns();
        for (int i = 0; i < kPerBatch; ++i)
          sink += static_cast<uint64_t>(p->eval(acks));
        samples.push_back(static_cast<double>(now_ns() - t0) / kPerBatch);
      }
    }
    g_sink = g_sink + sink;
  });
  return median(std::move(samples));
}

void report_layers(Result& r, const Snapshot& d, const LayerInputs& in,
                   const SpanStats& spans) {
  const double w = std::max(in.writes, 1.0);
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto per_write = [w](uint64_t v) { return static_cast<double>(v) / w; };

  r.metric("net.send_calls_per_msg", per_write(d.wire.total_frames()), "count");
  r.metric("net.send_ns_p50", spans.net_send_ns_p50, "ns");
  r.metric("net.ctx_switches_per_msg", per_write(d.ctx_switches), "count");
  for (int k = kWData; k <= kWReport; ++k) {
    r.metric(std::string("net.frames_per_msg.") + kWireKindNames[k],
             per_write(d.wire.frames[k]), "count");
    r.metric(std::string("net.bytes_per_msg.") + kWireKindNames[k],
             per_write(d.wire.bytes[k]), "B");
  }
  r.metric("core.send_ns_p50", spans.core_send_ns_p50, "ns");
  r.metric("core.send_ns_p99", spans.core_send_ns_p99, "ns");
  r.metric("core.rx_self_ns_p50", spans.rx_self_ns_p50, "ns");

  r.metric("data.coalesced_frac",
           ratio(static_cast<double>(d.frames_coalesced),
                 static_cast<double>(d.frames_transmitted)),
           "frac");
  uint64_t batches = 0, seen = 0;
  for (uint64_t c : d.batch_buckets) batches += c;
  double batch_p50 = 0;
  for (size_t i = 0; i < d.batch_buckets.size() && batches > 0; ++i) {
    seen += d.batch_buckets[i];
    if (seen * 2 >= batches) {
      batch_p50 = static_cast<double>(stab::obs::Histogram::bucket_lo(i));
      break;
    }
  }
  r.metric("data.batch_frames_p50", batch_p50, "count");
  r.metric("data.encodes_per_msg", per_write(d.encodes), "count");
  r.metric("data.decode_ns_per_kib", decode_ns_per_kib(), "ns");
  r.metric("data.retransmits_per_drop",
           ratio(static_cast<double>(d.retransmits),
                 static_cast<double>(in.frames_dropped)),
           "count");
  r.metric("data.send_buffer_peak_mib", in.send_buffer_peak_bytes / 1048576.0,
           "MiB");

  r.metric("control.ack_frames_per_msg",
           per_write(d.wire.frames[kWAck] + d.wire.frames[kWReport]), "count");
  r.metric("control.ack_bytes_per_msg",
           per_write(d.wire.bytes[kWAck] + d.wire.bytes[kWReport]), "B");
  r.metric("control.entries_per_batch",
           ratio(static_cast<double>(d.entries_sum),
                 static_cast<double>(d.entries_count)),
           "count");
  const double evals = static_cast<double>(d.evals);
  const double skipped = static_cast<double>(d.evals_skipped);
  r.metric("control.evals_per_msg", evals / w, "count");
  r.metric("control.evals_skipped_frac", ratio(skipped, evals + skipped),
           "frac");
  r.metric("dsl.eval_ns_p50", in.eval_ns_p50, "ns");

  r.metric("sim.self_frac",
           in.simulated
               ? std::max(0.0, 1.0 - ratio(spans.top_level_ns, spans.covered_ns))
               : 0.0,
           "frac");
  r.metric("bench.gen_late_p99_us", in.gen_late_p99_us, "us");
  r.metric("bench.stalled_frac", in.stalled_frac, "frac");
  r.metric("bench.trace_overhead_frac", in.trace_overhead_frac, "frac");
}

std::vector<std::pair<std::string, std::string>> table3_predicates(
    const stab::Topology& topo, stab::NodeId self) {
  std::vector<std::pair<std::string, std::string>> out = {
      {"OneWNode", "MAX($ALLWNODES-$MYWNODE)"},
      {"MajorityWNodes",
       "KTH_MAX(SIZEOF($ALLWNODES)/2+1,($ALLWNODES-$MYWNODE))"},
      {"AllWNodes", "MIN($ALLWNODES-$MYWNODE)"},
  };
  std::string terms;
  size_t remote = 0;
  for (const std::string& az : topo.az_names()) {
    if (az == topo.az_of(self)) continue;
    terms += (remote++ ? ",MAX($AZ_" : "MAX($AZ_") + az + ")";
  }
  if (remote > 0) {
    out.emplace_back("OneRegion", "MAX(" + terms + ")");
    out.emplace_back("MajorityRegions", "KTH_MAX(" +
                                            std::to_string(remote / 2 + 1) +
                                            "," + terms + ")");
    out.emplace_back("AllRegions", "MIN(" + terms + ")");
  }
  return out;
}

}  // namespace perfbench
