// tcp_small and tcp_bulk: a 3-node cluster (2 AZs) over loopback
// TcpTransport in one process, node 0 the only origin.
//
// Phase A is a closed loop bounded by in-flight messages: the generator
// blocks on a condition signalled by an AllWNodes frontier monitor, so it
// never spins. It gives throughput_msgs_s. Phase B is an open loop at a
// fixed rate with sleep_until pacing and one waitfor per write, timed from
// the write's due time. It gives the latency, CPU and byte metrics.
#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <future>
#include <stdexcept>
#include <thread>

#include "harness.hpp"
#include "net/tcp_transport.hpp"

namespace perfbench {
namespace {

using stab::NodeId;
using stab::SeqNum;

struct TcpSpec {
  size_t write_bytes;     // one application write
  size_t msgs_per_write;  // send_large splits writes into 8 KiB messages
  size_t window_msgs;     // phase A: messages sent but not yet AllWNodes-stable
  double rate;            // phase B: writes per second
};

constexpr size_t kNodes = 3;
constexpr size_t kSplit = 8 * 1024;  // StabilizerOptions::split_size default
constexpr uint64_t kSample = 16;     // mirrors check 1 payload in 16
constexpr const char* kStrict = "AllWNodes";
constexpr uint64_t kRounds = 16;  // every figure is a median over rounds
const stab::Duration kDeadline = stab::seconds(10);

stab::Topology tcp_topology() {
  stab::Topology topo;
  topo.add_node("n0", "east");
  topo.add_node("n1", "east");
  topo.add_node("n2", "west");
  for (NodeId a = 0; a < kNodes; ++a)
    for (NodeId b = 0; b < kNodes; ++b)
      if (a != b) topo.set_link(a, b, stab::LinkSpec{});
  return topo;
}

/// True when nothing holds `port` on any local address. Binds the way
/// TcpTransport's listener does (INADDR_ANY), minus SO_REUSEADDR, so a
/// port still in TIME_WAIT counts as taken.
bool port_free(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_ANY);
  bool ok = bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) == 0;
  close(fd);
  return ok;
}

/// A base port whose kNodes consecutive ports are all free, probed from a
/// per-process random start below the kernel's ephemeral range, so
/// concurrent or back-to-back runs do not collide.
std::vector<stab::TcpPeerAddr> free_loopback_addrs(uint64_t salt) {
  for (uint64_t attempt = 0; attempt < 1000; ++attempt) {
    uint64_t r = mix64(salt ^ (static_cast<uint64_t>(getpid()) << 20) ^
                       static_cast<uint64_t>(now_ns()) ^ attempt);
    auto base = static_cast<uint16_t>(20000 + r % 12000);
    bool ok = true;
    for (size_t i = 0; i < kNodes && ok; ++i)
      ok = port_free(static_cast<uint16_t>(base + i));
    if (ok) return stab::loopback_addrs(kNodes, base);
  }
  throw std::runtime_error("no free loopback port range found");
}

void run_on_env(stab::Env& env, const std::function<void()>& fn) {
  std::promise<void> done;
  env.post([&] {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

class TcpWorkload {
 public:
  TcpWorkload(const RunConfig& cfg, TcpSpec spec)
      : cfg_(cfg), spec_(spec), pool_(cfg.seed), topo_(tcp_topology()),
        sample_phase_(mix64(cfg.seed) % kSample) {}

  Result run();

 private:
  struct Mirror {
    SeqNum next = 0;
    uint64_t delivered = 0;
    uint64_t errors = 0;
    std::string first_error;
    std::vector<int64_t> deliver_at;  // phase B write -> last message delivered
  };

  struct Cluster {
    std::vector<std::unique_ptr<stab::TcpTransport>> tcp;
    std::vector<std::unique_ptr<ProbeTransport>> wires;
    std::vector<std::unique_ptr<stab::Stabilizer>> nodes;
    ~Cluster() {
      nodes.clear();
      for (auto& t : tcp)
        if (t) t->shutdown();
    }
    ClusterView view() {
      ClusterView v;
      for (auto& n : nodes) v.nodes.push_back(n.get());
      for (auto& w : wires) v.wires.push_back(w.get());
      v.run_on = [this](size_t i, const std::function<void()>& fn) {
        run_on_env(nodes[i]->env(), fn);
      };
      return v;
    }
  };

  /// One round's figures. Latencies go to the run's histograms.
  struct Round {
    double tput = 0;  // phase A stable writes per second
    double late_p99 = 0;    // generator lateness, microseconds
    double stalled = 0;     // share of phase B writes during a host stall
    double cpu_us = 0;      // process CPU per phase B write
    double wan_bytes = 0;   // bytes on the wire per phase B write
    double eval_ns = 0;     // replayed predicate eval (traced rounds)
    double rss_mib = 0;     // largest resident set sampled in phase B
    double setup_s = 0;     // building the round's cluster
    Snapshot delta;         // counters over the whole round
    uint64_t writes = 0;
  };

  std::unique_ptr<Cluster> build(uint64_t salt);
  Round run_round(uint64_t index, int64_t len, bool phase_b, Result& r);
  stab::BytesView expected(SeqNum seq) const;
  void on_deliver(size_t m, NodeId origin, SeqNum seq, stab::BytesView p);
  void issue_write();
  void sample_rss() { rss_peak_ = std::max(rss_peak_, current_rss_mib()); }
  double closed_loop(int64_t warm_until, int64_t until);
  bool wait_stable(SeqNum seq);
  void check_mirrors(Result& r);

  const RunConfig& cfg_;
  const TcpSpec spec_;
  const PayloadPool pool_;
  const stab::Topology topo_;
  const uint64_t sample_phase_;
  std::unique_ptr<Cluster> c_;
  Mirror mirrors_[kNodes];
  std::atomic<int64_t> record_from_{INT64_MAX};  // first phase B write
  std::atomic<uint64_t> send_buffer_peak_{0};
  uint64_t next_write_ = 0;
  // This round's largest resident set, sampled under phase B's fixed load:
  // phase A's closed loop parks a varying share of its window in queues.
  double rss_peak_ = 0;
  // Phase B latencies from each write's due time, pooled over every round,
  // of the writes during which the host stole no CPU.
  LatencyHistogram stable_lat_, deliver_lat_;

  std::mutex mu_;  // guards stable_
  std::condition_variable cv_;
  SeqNum stable_ = stab::kNoSeq;
};

std::unique_ptr<TcpWorkload::Cluster> TcpWorkload::build(uint64_t salt) {
  auto c = std::make_unique<Cluster>();
  auto addrs = free_loopback_addrs(salt);
  c->tcp.resize(kNodes);
  // Listeners first: the smaller id dials, so starting the highest id
  // first means no dial is refused and none waits out a reconnect backoff.
  for (size_t n = kNodes; n-- > 0;)
    c->tcp[n] = std::make_unique<stab::TcpTransport>(static_cast<NodeId>(n),
                                                     addrs);
  for (auto& t : c->tcp)
    if (!t->wait_connected(kDeadline))
      throw std::runtime_error("tcp cluster failed to connect");
  for (size_t n = 0; n < kNodes; ++n) {
    c->wires.push_back(std::make_unique<ProbeTransport>(*c->tcp[n]));
    stab::StabilizerOptions opts;
    opts.topology = topo_;
    opts.self = static_cast<NodeId>(n);
    opts.ack_interval = stab::millis(1);
    opts.coalesce_max_frames = 16;
    c->nodes.push_back(
        std::make_unique<stab::Stabilizer>(opts, *c->wires.back()));
  }
  stab::Stabilizer& origin = *c->nodes[0];
  for (const auto& [key, src] : table3_predicates(topo_, 0)) {
    if (key.find("WNode") == std::string::npos) continue;  // node family only
    stab::Status st = origin.register_predicate(key, src);
    if (!st.is_ok()) throw std::runtime_error("register " + key + ": " + st.message());
  }
  origin.monitor_stability_frontier(
      kStrict, [this, &origin](SeqNum f, stab::BytesView) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          stable_ = f;
        }
        cv_.notify_one();
        // Monitors run under the node's API lock, so this read is safe.
        uint64_t b = origin.send_buffer_bytes();
        if (b > send_buffer_peak_.load(std::memory_order_relaxed))
          send_buffer_peak_.store(b, std::memory_order_relaxed);
      });
  for (size_t m = 1; m < kNodes; ++m)
    c->nodes[m]->set_delivery_handler(
        [this, m](NodeId o, SeqNum seq, stab::BytesView p, uint64_t) {
          on_deliver(m, o, seq, p);
        });
  return c;
}

stab::BytesView TcpWorkload::expected(SeqNum seq) const {
  const uint64_t w = static_cast<uint64_t>(seq) / spec_.msgs_per_write;
  const size_t chunk = static_cast<uint64_t>(seq) % spec_.msgs_per_write;
  stab::BytesView write = pool_.slice(w, spec_.write_bytes);
  const size_t off = chunk * kSplit;
  return write.subspan(off, std::min(kSplit, write.size() - off));
}

void TcpWorkload::on_deliver(size_t m, NodeId origin, SeqNum seq,
                             stab::BytesView p) {
  const uint64_t w = static_cast<uint64_t>(seq) / spec_.msgs_per_write;
  SpanScope span(kDeliver, w + 1);
  Mirror& mi = mirrors_[m];
  auto error = [&](const char* what) {
    if (mi.errors++ == 0)
      mi.first_error = std::string(what) + " at mirror " + std::to_string(m) +
                       " seq " + std::to_string(seq);
  };
  if (origin != 0) error("unexpected origin");
  if (seq != mi.next) error("out of order or duplicate delivery");
  mi.next = seq + 1;
  ++mi.delivered;
  if (static_cast<uint64_t>(seq) % kSample == sample_phase_) {
    stab::BytesView want = expected(seq);
    if (p.size() != want.size() ||
        std::memcmp(p.data(), want.data(), p.size()) != 0)
      error("payload checksum mismatch");
  }
  if (static_cast<uint64_t>(seq) % spec_.msgs_per_write ==
      spec_.msgs_per_write - 1) {
    int64_t i = static_cast<int64_t>(w) - record_from_.load(std::memory_order_acquire);
    if (i >= 0 && static_cast<size_t>(i) < mi.deliver_at.size())
      mi.deliver_at[i] = now_ns();
  }
}

void TcpWorkload::issue_write() {
  const uint64_t w = next_write_++;
  stab::BytesView payload = pool_.slice(w, spec_.write_bytes);
  SeqNum first;
  {
    SpanScope span(kCoreSend, w + 1);
    stab::Stabilizer& origin = *c_->nodes[0];
    first = spec_.msgs_per_write > 1 ? origin.send_large(payload).first
                                     : origin.send(payload);
  }
  if (first != static_cast<SeqNum>(w * spec_.msgs_per_write))
    throw std::runtime_error("send returned an unexpected sequence number");
}

/// Runs the closed loop until `until`; returns stable writes per second
/// over [warm_until, until].
double TcpWorkload::closed_loop(int64_t warm_until, int64_t until) {
  const auto window = static_cast<SeqNum>(spec_.window_msgs);
  const auto mpw = static_cast<SeqNum>(spec_.msgs_per_write);
  SeqNum s0 = stab::kNoSeq;
  int64_t t0 = 0;
  for (int64_t now = now_ns(); now < until; now = now_ns()) {
    std::unique_lock<std::mutex> lock(mu_);
    if (t0 == 0 && now >= warm_until) {
      s0 = stable_;
      t0 = now;
    }
    const SeqNum next_end = static_cast<SeqNum>(next_write_ + 1) * mpw;
    if (!cv_.wait_for(lock, kDeadline,
                      [&] { return next_end - (stable_ + 1) <= window; }))
      throw std::runtime_error("closed loop stalled: frontier stopped");
    lock.unlock();
    issue_write();
  }
  std::lock_guard<std::mutex> lock(mu_);
  const double dt = static_cast<double>(now_ns() - t0) / 1e9;
  return static_cast<double>(stable_ - s0) / static_cast<double>(mpw) / dt;
}

bool TcpWorkload::wait_stable(SeqNum seq) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, kDeadline, [&] { return stable_ >= seq; });
}

void TcpWorkload::check_mirrors(Result& r) {
  const auto total = static_cast<SeqNum>(next_write_ * spec_.msgs_per_write);
  const int64_t deadline = now_ns() + kDeadline.count();
  for (size_t m = 1; m < kNodes; ++m) {
    Mirror seen;
    for (;;) {
      // Reading on the mirror's Env thread orders it after every delivery.
      run_on_env(c_->nodes[m]->env(), [&] {
        seen.next = mirrors_[m].next;
        seen.delivered = mirrors_[m].delivered;
        seen.errors = mirrors_[m].errors;
        seen.first_error = mirrors_[m].first_error;
      });
      if (seen.next >= total || now_ns() > deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (seen.errors) r.fail(seen.first_error, seen.errors);
    if (seen.delivered != static_cast<uint64_t>(total))
      r.fail("mirror " + std::to_string(m) + " delivered " +
                 std::to_string(seen.delivered) + " of " +
                 std::to_string(total) + " messages",
             static_cast<uint64_t>(std::abs(total - static_cast<SeqNum>(seen.delivered))) /
                     spec_.msgs_per_write + 1);
  }
  stab::Stabilizer& origin = *c_->nodes[0];
  for (const auto& [key, src] : table3_predicates(topo_, 0)) {
    if (key.find("WNode") == std::string::npos) continue;
    SeqNum f = origin.get_stability_frontier(key);
    for (int64_t t = now_ns(); f < total - 1 && t < deadline; t = now_ns()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      f = origin.get_stability_frontier(key);
    }
    if (f < total - 1)
      r.fail(key + " frontier " + std::to_string(f) + " short of " +
                 std::to_string(total - 1),
             static_cast<uint64_t>(total - 1 - f) / spec_.msgs_per_write + 1);
  }
}

TcpWorkload::Round TcpWorkload::run_round(uint64_t index, int64_t len,
                                          bool phase_b, Result& r) {
  for (Mirror& m : mirrors_) m = Mirror{};
  next_write_ = 0;
  rss_peak_ = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stable_ = stab::kNoSeq;
  }
  record_from_.store(INT64_MAX);
  const int64_t t_build = now_ns();
  c_ = build(mix64(cfg_.seed * 7919 + index));
  const double setup_s = static_cast<double>(now_ns() - t_build) / 1e9;
  ClusterView view = c_->view();
  const Snapshot s0 = take_snapshot(view);
  Round out;

  // Phase A: the first fifth of it warms the cluster up.
  const int64_t a_len = len * 2 / 5;
  const int64_t t = now_ns();
  out.tput = closed_loop(t + a_len / 5, t + a_len);
  if (!wait_stable(static_cast<SeqNum>(next_write_ * spec_.msgs_per_write) - 1))
    r.fail("phase A writes not stable by the deadline");

  // Phase B: open loop at a fixed rate, every write timed from its due time.
  const auto n_b = phase_b ? static_cast<size_t>(static_cast<double>(len / 2) /
                                                 1e9 * spec_.rate)
                           : 0;
  const double period = 1e9 / spec_.rate;
  std::vector<int64_t> stable_at(n_b, 0), late(n_b, 0);
  for (size_t m = 1; m < kNodes; ++m)
    run_on_env(c_->nodes[m]->env(), [&] { mirrors_[m].deliver_at.assign(n_b, 0); });
  std::atomic<size_t> fired{0};
  std::atomic<uint64_t> waits_failed{0};
  record_from_.store(static_cast<int64_t>(next_write_), std::memory_order_release);
  StallWatch watch;
  const Snapshot b0 = take_snapshot(view);
  const int64_t t_b0 = now_ns() + 1000000;
  auto due = [&](size_t i) {
    return t_b0 + static_cast<int64_t>(period * static_cast<double>(i));
  };
  for (size_t i = 0; i < n_b; ++i) {
    if (now_ns() < due(i))
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due(i))));
    late[i] = now_ns() - due(i);
    issue_write();
    if (i % 256 == 0) sample_rss();
    const SeqNum last = static_cast<SeqNum>(next_write_ * spec_.msgs_per_write) - 1;
    c_->nodes[0]->waitfor(last, kStrict, [&, i](SeqNum f) {
      if (f < 0) waits_failed.fetch_add(1);
      stable_at[i] = now_ns();
      fired.fetch_add(1, std::memory_order_release);
    });
  }
  for (int64_t deadline = now_ns() + kDeadline.count();
       fired.load(std::memory_order_acquire) < n_b && now_ns() < deadline;)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  const std::vector<StallWatch::Interval> stalls = watch.stop();
  const Snapshot b1 = take_snapshot(view);
  if (fired.load() < n_b)
    r.fail("phase B writes not stable by the deadline", n_b - fired.load());
  if (waits_failed.load()) r.fail("waitfor failed", waits_failed.load());
  check_mirrors(r);  // also orders every mirror's deliver_at before the reads

  if (n_b > 0 && fired.load() == n_b) {
    // A write whose time in flight overlaps a stall of the host waited on
    // a CPU the machine did not have; its latency says nothing about the
    // program.
    size_t stalled = 0;
    for (size_t i = 0; i < n_b; ++i) {
      if (StallWatch::overlaps(stalls, due(i), stable_at[i])) {
        ++stalled;
        continue;
      }
      stable_lat_.add(stable_at[i] - due(i));
      int64_t slowest = 0;
      for (size_t m = 1; m < kNodes; ++m)
        slowest = std::max(slowest, mirrors_[m].deliver_at[i]);
      deliver_lat_.add(slowest - due(i));
    }
    out.stalled = static_cast<double>(stalled) / static_cast<double>(n_b);
    out.late_p99 = percentile(late, 99) / 1e3;
    out.cpu_us = (b1.cpu_s - b0.cpu_s) * 1e6 / static_cast<double>(n_b);
    out.wan_bytes = static_cast<double>((b1.wire - b0.wire).total_bytes()) /
                    static_cast<double>(n_b);
  }
  out.delta = take_snapshot(view) - s0;
  out.writes = next_write_;
  out.rss_mib = rss_peak_;
  out.setup_s = setup_s;
  if (tracing_on()) out.eval_ns = eval_ns_p50(view, 0, 0);
  c_.reset();  // joins every cluster thread
  // Hand the round's freed memory back, so the next round's resident set
  // is its own and not what the allocator kept from this one.
  malloc_trim(0);
  return out;
}

Result TcpWorkload::run() {
  Result r;
  const int64_t budget = static_cast<int64_t>(cfg_.seconds * 1e9);

  // Rounds, each on a fresh cluster: where the scheduler places the
  // cluster's threads on the cores shifts a whole round, so every figure is
  // a median over rounds, or latencies pooled over their writes.
  // The traced run spends its first half on untraced phase-A-only rounds,
  // the baseline for the tracing overhead.
  const int64_t len = budget / kRounds;
  std::vector<Round> rounds, traced;
  std::vector<SpanStats> spans;  // of each traced round that recorded all
  for (uint64_t i = 0; i < kRounds; ++i) {
    const bool trace_round = cfg_.trace && i >= kRounds / 2;
    if (trace_round) reset_spans();
    g_tracing = trace_round;
    set_frame_capture(trace_round);
    Round rd = run_round(i, len, !cfg_.trace || trace_round, r);
    g_tracing = false;
    r.attempted += rd.writes;
    if (!trace_round) {
      rounds.push_back(std::move(rd));
    } else if (spans_dropped() == 0) {
      spans.push_back(analyze_spans());
      traced.push_back(std::move(rd));
    } else {
      std::fprintf(stderr, "perfbench: round %llu ran out of span budget\n",
                   static_cast<unsigned long long>(i));
    }
  }
  set_frame_capture(false);

  auto med = [](const std::vector<Round>& rs, double Round::*field) {
    return rounds_median(rs, field);
  };
  if (!cfg_.trace) {
    r.metric("setup_s", med(rounds, &Round::setup_s), "s");
    r.metric("throughput_msgs_s", med(rounds, &Round::tput), "1/s");
    r.metric("stable_p50_us", stable_lat_.percentile(50) / 1e3, "us");
    r.metric("stable_p95_us", stable_lat_.percentile(95) / 1e3, "us");
    r.metric("deliver_p50_us", deliver_lat_.percentile(50) / 1e3, "us");
    r.metric("deliver_p95_us", deliver_lat_.percentile(95) / 1e3, "us");
    r.metric("cpu_us_per_msg", med(rounds, &Round::cpu_us), "us");
    r.metric("wan_bytes_per_msg", med(rounds, &Round::wan_bytes), "B");
    r.metric("peak_rss_mib", med(rounds, &Round::rss_mib), "MiB");
    r.metric("bench.stalled_frac", med(rounds, &Round::stalled), "frac");
    return r;
  }

  if (traced.empty())
    throw std::runtime_error("every traced round ran out of span budget");
  Snapshot total;
  LayerInputs in;
  for (const Round& rd : traced) {
    total += rd.delta;
    in.writes += static_cast<double>(rd.writes);
  }
  in.send_buffer_peak_bytes = static_cast<double>(send_buffer_peak_.load());
  in.gen_late_p99_us = med(traced, &Round::late_p99);
  in.stalled_frac = med(traced, &Round::stalled);
  in.eval_ns_p50 = med(traced, &Round::eval_ns);
  in.trace_overhead_frac =
      1.0 - med(traced, &Round::tput) / med(rounds, &Round::tput);
  report_layers(r, total, in, combine_span_stats(spans));
  write_spans(cfg_.trace_path);
  return r;
}

}  // namespace

Result run_tcp_small(const RunConfig& cfg) {
  return TcpWorkload(cfg, TcpSpec{64, 1, 1024, 100000}).run();
}

Result run_tcp_bulk(const RunConfig& cfg) {
  return TcpWorkload(cfg, TcpSpec{64 * 1024, 8, 1024, 2000}).run();
}

}  // namespace perfbench
