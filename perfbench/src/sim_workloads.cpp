// sim_fleet and sim_wan_lossy: clusters on the deterministic simulator.
//
// A run is a series of rounds. Each round builds a fresh cluster, lets the
// origins send on seeded schedules for a fixed virtual horizon, then drains
// until every write is stable. Latencies are virtual time; throughput_msgs_s
// and cpu_us_per_msg are the simulation's speed in wall and CPU time.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "harness.hpp"
#include "net/sim_transport.hpp"

namespace perfbench {
namespace {

using stab::NodeId;
using stab::SeqNum;

constexpr uint64_t kSample = 16;  // mirrors check 1 payload in 16
const stab::Duration kDrainDeadline = stab::seconds(20);  // virtual

/// The seed perturbs every link's one-way latency by up to +/-2%, so each
/// seed is a slightly different WAN and virtual-time latencies are not one
/// fixed number for every run.
stab::Topology jitter_latencies(const stab::Topology& topo, uint64_t seed) {
  stab::Topology out = topo;
  uint64_t s = mix64(seed ^ 0x1a7e);
  for (NodeId a = 0; a < topo.num_nodes(); ++a)
    for (NodeId b = 0; b < topo.num_nodes(); ++b) {
      const stab::LinkSpec* l = topo.link(a, b);
      if (a == b || l == nullptr) continue;
      s = mix64(s);
      const double f = 1.0 + 0.04 * (static_cast<double>(s >> 11) * 0x1.0p-53 - 0.5);
      stab::LinkSpec j = *l;
      j.latency = stab::Duration(static_cast<int64_t>(
          static_cast<double>(l->latency.count()) * f));
      out.set_link(a, b, j);
    }
  return out;
}

/// The fastest quarter of `rounds` (at least one), ranked by `faster`.
/// Rounds of one run differ only in their seed, which moves their work by
/// about 2%, yet on a shared host single rounds of sim_fleet ran up to 40%
/// slower than their neighbours, and the host's speed drifts by 30% over
/// minutes. Contention only ever slows a round. The simulator runs on one
/// thread, so a round's CPU per write is the inverse of its speed, and both
/// figures come from the same rounds. A slowdown the program causes in most
/// rounds still shows.
template <class Round, class Faster>
std::vector<Round> fastest_quarter(std::vector<Round> rounds, Faster faster) {
  std::sort(rounds.begin(), rounds.end(), faster);
  rounds.resize(std::max<size_t>(1, rounds.size() / 4));
  return rounds;
}

struct SimSpec {
  stab::Topology topo;
  std::vector<NodeId> origins;
  double rate = 0;     // writes per virtual second per origin
  bool poisson = true;  // else a steady stream at `rate`
  size_t payload = 0;  // bytes per write
  stab::StabilizerOptions base;
  bool predicates_everywhere = false;  // else only origins register
  bool persisted = false;  // mirrors report "persisted" on delivery
  double loss = 0;         // drop probability of every link
  std::string strict;      // the predicate each write waits for
  stab::Duration horizon;  // virtual time one round generates writes
  uint64_t latency_rounds = 0;  // rounds whose writes give the latencies
};

class SimWorkload {
 public:
  SimWorkload(const RunConfig& cfg, SimSpec spec)
      : cfg_(cfg), spec_(jittered(std::move(spec), cfg.seed)), pool_(cfg.seed),
        sample_phase_(mix64(cfg.seed) % kSample) {}

  Result run();

 private:
  static SimSpec jittered(SimSpec spec, uint64_t seed) {
    spec.topo = jitter_latencies(spec.topo, seed);
    return spec;
  }

  struct Cluster {
    stab::sim::Simulator sim;
    std::unique_ptr<stab::SimCluster> net;
    std::vector<std::unique_ptr<ProbeTransport>> wires;
    std::vector<std::unique_ptr<stab::Stabilizer>> nodes;
    ~Cluster() { nodes.clear(); }
    ClusterView view() {
      ClusterView v;
      for (auto& n : nodes) v.nodes.push_back(n.get());
      for (auto& w : wires) v.wires.push_back(w.get());
      v.run_on = [](size_t, const std::function<void()>& fn) { fn(); };
      return v;
    }
  };

  struct Write {
    int64_t sent = 0;    // virtual ns
    int64_t stable = -1;
    int64_t delivered_last = 0;
    uint32_t deliveries = 0;
  };

  /// What one round adds to the run's totals.
  struct Round {
    Snapshot delta;
    uint64_t writes = 0;
    uint64_t drops = 0;
    double speed = 0;   // writes per wall second
    double cpu_us = 0;  // process CPU per write
    double rss_mib = 0;  // largest resident set sampled in the round
    double setup_s = 0;  // building the round's cluster
  };

  std::unique_ptr<Cluster> build(uint64_t seed);
  Round run_round(uint64_t index, Result& r);
  std::vector<std::pair<std::string, std::string>> predicates(NodeId n) const;
  bool registers(NodeId n) const;
  stab::BytesView payload_of(NodeId origin, SeqNum seq) const {
    return pool_.slice((uint64_t{origin} << 40) ^ static_cast<uint64_t>(seq),
                       spec_.payload);
  }
  void schedule_next(size_t k);
  void send_one(NodeId origin);
  void on_deliver(NodeId m, NodeId origin, SeqNum seq, stab::BytesView p);
  /// Runs the simulation to virtual time `horizon`.
  void run_virtual(stab::Duration horizon);
  void drain(Result& r);

  const RunConfig& cfg_;
  const SimSpec spec_;
  const PayloadPool pool_;
  const uint64_t sample_phase_;
  std::unique_ptr<Cluster> c_;
  std::vector<Arrivals> arrivals_;  // per origin, index as in spec_.origins
  bool generating_ = true;

  std::vector<Write> writes_;
  std::vector<std::vector<uint32_t>> id_of_;  // [origin][seq] -> write
  std::vector<std::vector<SeqNum>> next_;     // [mirror][origin] next seq
  uint64_t stable_count_ = 0;
  uint64_t deliveries_ = 0;
  uint64_t expected_deliveries_ = 0;
  uint64_t send_buffer_peak_ = 0;  // cluster-wide, traced rounds only
  double rss_peak_ = 0;            // this round's
  std::vector<int64_t> stable_lat_, deliver_lat_;  // virtual ns
  Result* r_ = nullptr;
};

bool SimWorkload::registers(NodeId n) const {
  return spec_.predicates_everywhere ||
         std::find(spec_.origins.begin(), spec_.origins.end(), n) !=
             spec_.origins.end();
}

std::vector<std::pair<std::string, std::string>> SimWorkload::predicates(
    NodeId n) const {
  auto preds = table3_predicates(spec_.topo, n);
  if (spec_.persisted)
    preds.emplace_back("Persisted", "MIN(($ALLWNODES-$MYWNODE).persisted)");
  return preds;
}

std::unique_ptr<SimWorkload::Cluster> SimWorkload::build(uint64_t seed) {
  auto c = std::make_unique<Cluster>();
  c->net = std::make_unique<stab::SimCluster>(spec_.topo, c->sim);
  const size_t n = spec_.topo.num_nodes();
  if (spec_.loss > 0) {
    c->net->network().set_drop_rng_seed(mix64(seed ^ 0x1055));
    for (NodeId a = 0; a < n; ++a)
      for (NodeId b = 0; b < n; ++b)
        if (a != b) c->net->network().set_drop_probability(a, b, spec_.loss);
  }
  for (NodeId i = 0; i < n; ++i) {
    c->wires.push_back(std::make_unique<ProbeTransport>(c->net->transport(i)));
    stab::StabilizerOptions opts = spec_.base;
    opts.topology = spec_.topo;
    opts.self = i;
    c->nodes.push_back(
        std::make_unique<stab::Stabilizer>(opts, *c->wires.back()));
  }
  for (NodeId i = 0; i < n; ++i) {
    stab::Stabilizer& node = *c->nodes[i];
    if (registers(i))
      for (const auto& [key, src] : predicates(i)) {
        stab::Status st = node.register_predicate(key, src);
        if (!st.is_ok())
          throw std::runtime_error("register " + key + ": " + st.message());
      }
    node.set_delivery_handler(
        [this, i](NodeId o, SeqNum seq, stab::BytesView p, uint64_t) {
          on_deliver(i, o, seq, p);
        });
  }
  return c;
}

void SimWorkload::schedule_next(size_t k) {
  const NodeId origin = spec_.origins[k];
  c_->sim.schedule_after(
      stab::Duration(arrivals_[k].next_gap_ns()), [this, k, origin] {
        if (!generating_) return;
        send_one(origin);
        schedule_next(k);
      });
}

void SimWorkload::send_one(NodeId origin) {
  const auto id = static_cast<uint32_t>(writes_.size());
  const auto expect = static_cast<SeqNum>(id_of_[origin].size());
  writes_.push_back(Write{c_->sim.now().count()});
  id_of_[origin].push_back(id);
  expected_deliveries_ += spec_.topo.num_nodes() - 1;
  stab::Stabilizer& node = *c_->nodes[origin];
  SeqNum seq;
  {
    SpanScope span(kCoreSend, id + 1);
    seq = node.send(payload_of(origin, expect));
  }
  if (seq != expect)
    throw std::runtime_error("send returned an unexpected sequence number");
  node.waitfor(seq, spec_.strict, [this, id](SeqNum f) {
    if (f < 0) r_->fail("waitfor failed");
    writes_[id].stable = c_->sim.now().count();
    ++stable_count_;
  });
}

void SimWorkload::on_deliver(NodeId m, NodeId origin, SeqNum seq,
                             stab::BytesView p) {
  if (origin >= id_of_.size() || seq < 0 ||
      static_cast<size_t>(seq) >= id_of_[origin].size()) {
    r_->fail("delivery of a message never sent");
    return;
  }
  const uint32_t id = id_of_[origin][seq];
  SpanScope span(kDeliver, id + 1);
  SeqNum& next = next_[m][origin];
  if (seq != next)
    r_->fail("out of order or duplicate delivery at node " + std::to_string(m));
  next = seq + 1;
  Write& w = writes_[id];
  ++w.deliveries;
  ++deliveries_;
  w.delivered_last = std::max(w.delivered_last, c_->sim.now().count());
  if (static_cast<uint64_t>(seq) % kSample == sample_phase_) {
    stab::BytesView want = payload_of(origin, seq);
    if (p.size() != want.size() ||
        std::memcmp(p.data(), want.data(), p.size()) != 0)
      r_->fail("payload checksum mismatch at node " + std::to_string(m));
  }
  if (spec_.persisted) c_->nodes[m]->report_stability("persisted", origin, seq);
}

void SimWorkload::run_virtual(stab::Duration horizon) {
  // Sampling runs inside the window timed for throughput and CPU, so the
  // resident set is read ten times a round. The send buffer's peaks are
  // brief; it is read every 20 ms, and only in traced rounds, which time
  // nothing end to end.
  const bool traced = tracing_on();
  const stab::Duration step = traced ? stab::millis(20) : spec_.horizon / 10;
  while (c_->sim.now() < horizon) {
    c_->sim.run_until(c_->sim.now() + step);
    if (traced) {
      uint64_t buffered = 0;
      for (auto& node : c_->nodes) buffered += node->send_buffer_bytes();
      send_buffer_peak_ = std::max(send_buffer_peak_, buffered);
    }
    rss_peak_ = std::max(rss_peak_, current_rss_mib());
  }
}

void SimWorkload::drain(Result& r) {
  generating_ = false;
  const stab::TimePoint deadline = c_->sim.now() + kDrainDeadline;
  c_->sim.run_until_pred(
      [this] {
        return stable_count_ == writes_.size() &&
               deliveries_ == expected_deliveries_;
      },
      deadline);
  if (stable_count_ != writes_.size())
    r.fail("writes not stable by the deadline", writes_.size() - stable_count_);
  for (const Write& w : writes_)
    if (w.deliveries != spec_.topo.num_nodes() - 1)
      r.fail("write delivered to " + std::to_string(w.deliveries) +
             " mirrors");
  for (NodeId o : spec_.origins) {
    const auto last = static_cast<SeqNum>(id_of_[o].size()) - 1;
    for (const auto& [key, src] : predicates(o)) {
      SeqNum f = c_->nodes[o]->get_stability_frontier(key);
      if (f < last)
        r.fail(key + " frontier short at node " + std::to_string(o),
               static_cast<uint64_t>(last - f));
    }
  }
}

SimWorkload::Round SimWorkload::run_round(uint64_t index, Result& r) {
  const size_t n = spec_.topo.num_nodes();
  const uint64_t seed = mix64(cfg_.seed * 1000003 + index);
  c_.reset();
  malloc_trim(0);  // the round's resident set is its own, not leftovers
  rss_peak_ = 0;
  const int64_t t_build = now_ns();
  c_ = build(seed);
  const double setup_s = static_cast<double>(now_ns() - t_build) / 1e9;
  writes_.clear();
  id_of_.assign(n, {});
  next_.assign(n, std::vector<SeqNum>(n, 0));
  stable_count_ = deliveries_ = expected_deliveries_ = 0;
  generating_ = true;
  arrivals_.clear();
  for (size_t k = 0; k < spec_.origins.size(); ++k) {
    arrivals_.emplace_back(mix64(seed ^ spec_.origins[k]), spec_.rate,
                           spec_.poisson);
    schedule_next(k);
  }
  ClusterView view = c_->view();
  const Snapshot a = take_snapshot(view);
  run_virtual(stab::kTimeZero + spec_.horizon);
  drain(r);
  const Snapshot b = take_snapshot(view);

  Round out;
  out.delta = b - a;
  out.drops = c_->net->network().frames_dropped();
  out.writes = writes_.size();
  const double writes = static_cast<double>(writes_.size());
  out.speed = writes / (static_cast<double>(b.wall_ns - a.wall_ns) / 1e9);
  out.cpu_us = (b.cpu_s - a.cpu_s) * 1e6 / writes;
  out.rss_mib = rss_peak_;
  out.setup_s = setup_s;
  if (index < spec_.latency_rounds)
    for (const Write& w : writes_) {
      if (w.stable >= 0) stable_lat_.push_back(w.stable - w.sent);
      deliver_lat_.push_back(w.delivered_last - w.sent);
    }
  return out;
}

Result SimWorkload::run() {
  Result r;
  r_ = &r;
  const int64_t budget = static_cast<int64_t>(cfg_.seconds * 1e9);

  // Rounds of a fixed virtual horizon, each on a fresh cluster with its
  // own seed, until the wall budget is spent. Speed and CPU are medians over
  // the fastest quarter of the rounds; latencies pool the first latency_rounds
  // rounds, so the samples do not depend on host speed. Set-up is the
  // median of the fastest quarter of the rounds' cluster builds.
  const int64_t t0 = now_ns();
  const int64_t untraced_end = t0 + (cfg_.trace ? budget / 2 : budget);
  uint64_t index = 0;
  std::vector<Round> rounds, traced;
  Snapshot total;
  uint64_t writes = 0;
  while (now_ns() < untraced_end || (!cfg_.trace && index < spec_.latency_rounds)) {
    rounds.push_back(run_round(index++, r));
    total += rounds.back().delta;
    writes += rounds.back().writes;
  }
  auto med = [](const std::vector<Round>& rs, double Round::*field) {
    return rounds_median(rs, field);
  };
  auto by_speed = [](const Round& a, const Round& b) { return a.speed > b.speed; };
  auto by_setup = [](const Round& a, const Round& b) { return a.setup_s < b.setup_s; };
  r.attempted = writes;

  if (!cfg_.trace) {
    const std::vector<Round> fast = fastest_quarter(rounds, by_speed);
    r.metric("setup_s", med(fastest_quarter(rounds, by_setup), &Round::setup_s),
             "s");
    r.metric("throughput_msgs_s", med(fast, &Round::speed), "1/s");
    r.metric("stable_p50_us", percentile(stable_lat_, 50) / 1e3, "us");
    r.metric("stable_p95_us", percentile(stable_lat_, 95) / 1e3, "us");
    r.metric("deliver_p50_us", percentile(deliver_lat_, 50) / 1e3, "us");
    r.metric("deliver_p95_us", percentile(deliver_lat_, 95) / 1e3, "us");
    r.metric("cpu_us_per_msg", med(fast, &Round::cpu_us), "us");
    r.metric("wan_bytes_per_msg",
             static_cast<double>(total.wire.total_bytes()) /
                 static_cast<double>(writes),
             "B");
    r.metric("peak_rss_mib", med(rounds, &Round::rss_mib), "MiB");
    return r;
  }

  g_tracing = true;
  set_frame_capture(true);
  Snapshot traced_total;
  LayerInputs in;
  std::vector<SpanStats> spans;
  do {
    reset_spans();
    Round rd = run_round(index++, r);
    r.attempted += rd.writes;
    if (spans_dropped() > 0) {
      std::fprintf(stderr, "perfbench: round %llu ran out of span budget\n",
                   static_cast<unsigned long long>(index - 1));
      continue;
    }
    spans.push_back(analyze_spans());
    traced_total += rd.delta;
    in.writes += static_cast<double>(rd.writes);
    in.frames_dropped += rd.drops;
    traced.push_back(std::move(rd));
  } while (now_ns() < t0 + budget);
  g_tracing = false;
  set_frame_capture(false);
  if (traced.empty())
    throw std::runtime_error("every traced round ran out of span budget");

  in.send_buffer_peak_bytes = static_cast<double>(send_buffer_peak_);
  in.eval_ns_p50 = eval_ns_p50(c_->view(), spec_.origins.front(),
                               spec_.origins.front());
  in.trace_overhead_frac =
      1.0 - med(fastest_quarter(traced, by_speed), &Round::speed) /
                med(fastest_quarter(rounds, by_speed), &Round::speed);
  in.simulated = true;
  report_layers(r, traced_total, in, combine_span_stats(spans));
  write_spans(cfg_.trace_path);
  return r;
}

}  // namespace

// Fleet control plane: 16 origins, 7 predicates at every node, custom
// "persisted" reports beside the automatic acks, broadcast acks.
Result run_sim_fleet(const RunConfig& cfg) {
  SimSpec s;
  s.topo = stab::fleet_topology(4, 4, 1.0, 10.0, 0.0);
  for (NodeId n = 0; n < s.topo.num_nodes(); ++n) s.origins.push_back(n);
  s.rate = 200;
  s.payload = 256;
  s.predicates_everywhere = true;
  s.persisted = true;
  s.strict = "Persisted";
  s.horizon = stab::seconds(1);
  s.latency_rounds = 4;
  return SimWorkload(cfg, std::move(s)).run();
}

// The paper's EC2 deployment (Table I) with 0.1% loss on every link: node
// "1" streams 8 KiB writes at about 18% of its 37 Mbps links. At twice the
// rate, go-back-N collapses about once in 110 rounds (README.md).
Result run_sim_wan_lossy(const RunConfig& cfg) {
  SimSpec s;
  s.topo = stab::ec2_topology();
  s.origins = {0};
  s.rate = 100;
  s.poisson = false;
  s.payload = 8 * 1024;
  s.base.retransmit_timeout = stab::millis(100);
  s.base.broadcast_acks = false;
  s.loss = 0.001;
  s.strict = "AllWNodes";
  s.horizon = stab::seconds(60);
  s.latency_rounds = 8;
  return SimWorkload(cfg, std::move(s)).run();
}

}  // namespace perfbench
