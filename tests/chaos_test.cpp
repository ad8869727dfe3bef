// Chaos campaigns: seed-replayable WAN fault injection over whole clusters,
// with crash-restart rejoin via the snapshot + RESUME path.
//
// ChaosInvariantChecker (folded into the ChaosCluster harness) asserts,
// across scripted and random campaigns:
//   * frontier monotonicity — every monitor callback must advance strictly,
//     including across a crash-restart of the observing node;
//   * lossless FIFO delivery once faults heal — every live node's delivery
//     log of every origin is exactly 0,1,2,...,last_sent(origin);
//   * exactly-once stall/recover episode accounting — stall and recover
//     handlers alternate per (observer, peer) pair, recover counts are
//     bounded by stall counts plus observed restarts, and handler counts
//     equal the StabilizerStats episode counters;
//   * agreement between post-heal frontiers under kIndexed dispatch and the
//     kLegacyScan baseline, and determinism of a whole campaign per seed.
//
// A failing random campaign prints "CHAOS REPLAY SEED: <seed>" so the run
// can be reproduced exactly; scripts/ci.sh greps for that marker.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/stabilizer.hpp"
#include "failover/failover.hpp"
#include "net/sim_transport.hpp"
#include "obs/obs.hpp"
#include "shard/sharded_stabilizer.hpp"
#include "sim/chaos.hpp"

namespace stab {
namespace {

using sim::ChaosScript;
using sim::ChaosEvent;
using DispatchMode = FrontierEngine::DispatchMode;

Topology chaos_mesh(size_t n, const std::vector<std::string>& regions,
                    double lat_ms = 5) {
  Topology t;
  for (size_t i = 0; i < n; ++i)
    t.add_node("n" + std::to_string(i),
               i < regions.size() ? regions[i] : "r" + std::to_string(i % 2));
  LinkSpec s;
  s.latency = from_ms(lat_ms);
  s.bandwidth_bps = mbps(100);
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = 0; b < n; ++b)
      if (a != b) t.set_link(a, b, s);
  return t;
}

/// Cluster under chaos: per-node Stabilizers on a SimCluster, with the
/// ChaosSchedule's crash/restart handlers wired to the §III-E restart path
/// (control-state snapshot at crash, restore + RESUME rejoin at restart)
/// and every invariant continuously checked.
struct ChaosCluster {
  ChaosCluster(Topology topo, StabilizerOptions base, uint64_t seed,
               DispatchMode mode,
               std::vector<std::pair<std::string, std::string>> predicates)
      : topo_(std::move(topo)),
        base_(std::move(base)),
        mode_(mode),
        predicates_(std::move(predicates)) {
    const size_t n = topo_.num_nodes();
    cluster = std::make_unique<SimCluster>(topo_, sim);
    cluster->network().set_drop_rng_seed(seed);
    chaos = std::make_unique<sim::ChaosSchedule>(sim, cluster->network());
    chaos->set_crash_handler([this](NodeId node) { crash(node); });
    chaos->set_restart_handler([this](NodeId node) { restart(node); });

    logs.assign(n, std::vector<std::vector<SeqNum>>(n));
    cursors.assign(n, std::vector<std::map<std::string, SeqNum>>(n));
    stall_count.assign(n, std::vector<uint64_t>(n, 0));
    recover_count.assign(n, std::vector<uint64_t>(n, 0));
    open_stall.assign(n, std::vector<bool>(n, false));
    lost_stalls.assign(n, std::vector<uint64_t>(n, 0));
    restart_count.assign(n, 0);
    snapshots.resize(n);
    nodes.resize(n);
    for (NodeId id = 0; id < n; ++id) boot(id, nullptr);
  }

  Stabilizer& node(NodeId id) { return *nodes.at(id); }
  size_t num_nodes() const { return topo_.num_nodes(); }

  void boot(NodeId id, const Bytes* snapshot) {
    StabilizerOptions opts = base_;
    opts.topology = topo_;
    opts.self = id;
    auto n = std::make_unique<Stabilizer>(opts, cluster->transport(id));
    n->set_delivery_handler(
        [this, id](NodeId origin, SeqNum seq, BytesView, uint64_t) {
          logs[id][origin].push_back(seq);
        });
    n->set_peer_stall_handler([this, id](NodeId peer) {
      EXPECT_FALSE(open_stall[id][peer])
          << "double stall without recovery: observer " << id << " peer "
          << peer;
      open_stall[id][peer] = true;
      ++stall_count[id][peer];
    });
    n->set_peer_recovered_handler([this, id](NodeId peer) {
      open_stall[id][peer] = false;
      ++recover_count[id][peer];
    });
    if (snapshot) {
      EXPECT_TRUE(n->restore_control_state(*snapshot));
    } else {
      for (const auto& [key, source] : predicates_)
        EXPECT_TRUE(n->register_predicate(key, source)) << key;
    }
    for (NodeId origin = 0; origin < topo_.num_nodes(); ++origin) {
      n->engine(origin).set_dispatch_mode(mode_);
      for (const auto& [key, source] : predicates_) {
        EXPECT_TRUE(n->monitor_stability_frontier(
            key,
            [this, id, origin, key = key](SeqNum frontier, BytesView) {
              auto [it, fresh] =
                  cursors[id][origin].try_emplace(key, kNoSeq);
              EXPECT_GT(frontier, it->second)
                  << "frontier regressed: node " << id << " origin " << origin
                  << " key " << key;
              it->second = frontier;
              (void)fresh;
            },
            origin));
      }
    }
    nodes[id] = std::move(n);
  }

  // ChaosSchedule crash handler: the network already marks the node down.
  // Snapshot at the crash instant models the paper's synchronously
  // persisted frontier state; the process (volatile state) then dies.
  void crash(NodeId id) {
    snapshots[id] = nodes[id]->snapshot_control_state();
    nodes[id].reset();
    cluster->transport(id).detach();
    // Stall state is volatile: episodes the observer had open die with its
    // process and never see a matching recover. The restarted instance
    // re-detects a still-stalled peer as a fresh episode.
    for (NodeId p = 0; p < topo_.num_nodes(); ++p)
      if (open_stall[id][p]) {
        open_stall[id][p] = false;
        ++lost_stalls[id][p];
      }
  }

  void restart(NodeId id) {
    ++restart_count[id];
    cluster->transport(id).reattach();
    boot(id, &snapshots[id]);
  }

  /// Every node sends one message each `interval` of virtual time (skipping
  /// intervals where it is crashed) until `until`.
  void start_traffic(Duration interval, TimePoint until) {
    for (NodeId id = 0; id < topo_.num_nodes(); ++id)
      schedule_send(id, interval, until);
  }

  void schedule_send(NodeId id, Duration interval, TimePoint until) {
    sim.schedule_after(interval, [this, id, interval, until] {
      if (sim.now() > until) return;
      if (nodes[id]) nodes[id]->send(to_bytes("chaos"));
      schedule_send(id, interval, until);
    });
  }

  /// Post-heal invariants: complete lossless FIFO logs, frontier agreement
  /// with every origin's stream end, and episode accounting.
  void check_converged() {
    const size_t n = topo_.num_nodes();
    for (NodeId o = 0; o < n; ++o) {
      ASSERT_TRUE(nodes[o]) << "node " << o << " not live after heal";
      for (NodeId g = 0; g < n; ++g) {
        if (o == g) continue;
        SeqNum last = nodes[g]->last_sent();
        const auto& log = logs[o][g];
        ASSERT_EQ(log.size(), static_cast<size_t>(last + 1))
            << "node " << o << " missed messages of origin " << g;
        for (size_t i = 0; i < log.size(); ++i)
          ASSERT_EQ(log[i], static_cast<SeqNum>(i))
              << "FIFO violation at node " << o << " origin " << g;
      }
      for (NodeId g = 0; g < n; ++g)
        for (const auto& [key, source] : predicates_)
          EXPECT_EQ(nodes[o]->get_stability_frontier(key, g),
                    nodes[g]->last_sent())
              << "node " << o << " key " << key << " origin " << g;
    }
    for (NodeId o = 0; o < n; ++o) {
      uint64_t stalls = 0, recovers = 0;
      for (NodeId p = 0; p < n; ++p) {
        stalls += stall_count[o][p];
        recovers += recover_count[o][p];
        EXPECT_FALSE(open_stall[o][p])
            << "unrecovered stall after heal: observer " << o << " peer " << p;
        // Episodes lost to the observer's own crash close without a recover;
        // every surviving episode closes exactly once, and RESUME may add
        // one stall-less recover per observed restart of the peer.
        uint64_t surviving = stall_count[o][p] - lost_stalls[o][p];
        EXPECT_GE(recover_count[o][p], surviving)
            << "observer " << o << " peer " << p;
        EXPECT_LE(recover_count[o][p], surviving + restart_count[p])
            << "recover episodes beyond stalls+restarts: observer " << o
            << " peer " << p;
      }
#if STAB_OBS_ENABLED
      if (restart_count[o] == 0) {
        // A restarted observer's stats reset with its process; for everyone
        // else the stats counters must equal the handler-firing counts.
        // (Registry-backed stats read zero under -DSTAB_OBS=OFF, so the
        // cross-check only exists in instrumented builds.)
        StabilizerStats s = nodes[o]->stats();
        EXPECT_EQ(s.peer_stall_episodes, stalls) << "observer " << o;
        EXPECT_EQ(s.peer_recover_episodes, recovers) << "observer " << o;
      }
#else
      (void)stalls;
      (void)recovers;
#endif
    }
  }

  /// Mode-independent state: frontiers, delivery logs, cursors. Equal across
  /// kIndexed and kLegacyScan runs of the same campaign.
  std::string core_digest() const {
    std::ostringstream os;
    const size_t n = topo_.num_nodes();
    for (NodeId o = 0; o < n; ++o) {
      os << "n" << o << " last=" << nodes[o]->last_sent();
      for (NodeId g = 0; g < n; ++g) {
        os << " [" << g << " d=" << nodes[o]->delivered_through(g);
        for (const auto& [key, source] : predicates_)
          os << " " << key << "=" << nodes[o]->get_stability_frontier(key, g);
        uint64_t h = 1469598103934665603ULL;  // FNV-1a over the delivery log
        for (SeqNum s : logs[o][g])
          h = (h ^ static_cast<uint64_t>(s)) * 1099511628211ULL;
        os << " log=" << logs[o][g].size() << ":" << h << "]";
      }
      os << "\n";
    }
    return os.str();
  }

  /// Full state including stats — equal across two runs of the same
  /// (seed, script, mode): the determinism guarantee.
  std::string digest() const {
    std::ostringstream os;
    os << core_digest();
    for (NodeId o = 0; o < topo_.num_nodes(); ++o) {
      StabilizerStats s = nodes[o]->stats();
      os << "stats" << o << " tx=" << s.frames_transmitted
         << " rtx=" << s.retransmits_sent << " dup=" << s.duplicates_dropped
         << " gap=" << s.gaps_detected << " stall=" << s.peer_stall_episodes
         << " rec=" << s.peer_recover_episodes << " rs=" << s.resumes_sent
         << " rr=" << s.resumes_received << " epoch=" << nodes[o]->session_epoch();
      for (NodeId p = 0; p < topo_.num_nodes(); ++p)
        os << " e" << p << "=" << nodes[o]->peer_session_epoch(p);
      os << "\n";
    }
    const auto& c = chaos->counters();
    os << "chaos down=" << c.links_downed << " up=" << c.links_restored
       << " part=" << c.partitions << " heal=" << c.heals
       << " crash=" << c.crashes << " restart=" << c.restarts << "\n";
    return os.str();
  }

  Topology topo_;
  StabilizerOptions base_;
  DispatchMode mode_;
  std::vector<std::pair<std::string, std::string>> predicates_;

  sim::Simulator sim;
  std::unique_ptr<SimCluster> cluster;
  std::unique_ptr<sim::ChaosSchedule> chaos;

  // Checker state — lives outside the Stabilizers so it survives restarts.
  std::vector<std::vector<std::vector<SeqNum>>> logs;  // [node][origin]
  std::vector<std::vector<std::map<std::string, SeqNum>>> cursors;
  std::vector<std::vector<uint64_t>> stall_count;    // [observer][peer]
  std::vector<std::vector<uint64_t>> recover_count;  // [observer][peer]
  std::vector<std::vector<bool>> open_stall;
  std::vector<std::vector<uint64_t>> lost_stalls;  // open at observer crash
  std::vector<int> restart_count;
  std::vector<Bytes> snapshots;
  std::vector<std::unique_ptr<Stabilizer>> nodes;  // last: destroyed first
};

StabilizerOptions chaos_base_options() {
  StabilizerOptions base;
  base.ack_interval = millis(2);
  base.retransmit_timeout = millis(150);
  base.peer_stall_timeout = millis(1500);
  base.broadcast_acks = true;
  return base;
}

std::vector<std::pair<std::string, std::string>> chaos_predicates() {
  return {{"all", "MIN($ALLWNODES)"}, {"one", "MAX($ALLWNODES-$MYWNODE)"}};
}

// --- the ISSUE's scripted acceptance campaign ---------------------------------
//
// 4 nodes in regions r0={n0,n1}, r1={n2}, r2={n3}; 2% loss on every link
// throughout; node 2 crashes at t=5s and restarts at t=20s; regions
// {r0,r1} | {r2} partition from t=8s for 10s. Traffic from every live node
// until t=24s; campaign judged at t=40s.

ChaosScript scripted_campaign() {
  ChaosScript script;
  ChaosEvent loss;
  loss.at = kTimeZero;
  loss.kind = ChaosEvent::Kind::kLossSet;
  loss.a = kInvalidNode;
  loss.value = 0.02;
  script.push_back(loss);
  sim::add_crash_restart(script, seconds(5), seconds(15), 2);
  sim::add_partition(script, seconds(8), seconds(10),
                     {{0, 1, 2}, {3}});
  sim::finalize_script(script);
  return script;
}

std::unique_ptr<ChaosCluster> run_scripted(
    uint64_t seed, DispatchMode mode,
    StabilizerOptions base = chaos_base_options()) {
  auto c = std::make_unique<ChaosCluster>(
      chaos_mesh(4, {"r0", "r0", "r1", "r2"}), std::move(base), seed, mode,
      chaos_predicates());
  c->chaos->arm(scripted_campaign());
  c->start_traffic(millis(100), seconds(24));
  c->sim.run_until(seconds(40));
  return c;
}

TEST(ChaosCampaign, ScriptedCrashPartitionLossCampaignConverges) {
  auto c = run_scripted(0xC0FFEE, DispatchMode::kIndexed);
  c->check_converged();

  // Node 2 rejoined via RESUME: one epoch announced, seen by every peer.
  EXPECT_EQ(c->node(2).session_epoch(), 1u);
  for (NodeId o : {NodeId{0}, NodeId{1}, NodeId{3}}) {
    EXPECT_EQ(c->node(o).peer_session_epoch(2), 1u) << "observer " << o;
#if STAB_OBS_ENABLED
    EXPECT_GT(c->node(o).stats().resumes_received, 0u) << "observer " << o;
#endif
  }
#if STAB_OBS_ENABLED
  EXPECT_GT(c->node(2).stats().resumes_sent, 0u);
#endif

  // Exactly one stall -> recover episode per affected (observer, peer)
  // pair: 0,1 observe the crash of 2 and the partition of 3; 3 observes
  // the partition from everyone (2 already crashed when it begins).
  std::vector<std::pair<NodeId, NodeId>> expected = {
      {0, 2}, {1, 2}, {0, 3}, {1, 3}, {3, 0}, {3, 1}, {3, 2}};
  for (NodeId o = 0; o < c->num_nodes(); ++o)
    for (NodeId p = 0; p < c->num_nodes(); ++p) {
      bool hit = false;
      for (auto& [eo, ep] : expected) hit |= (eo == o && ep == p);
      EXPECT_EQ(c->stall_count[o][p], hit ? 1u : 0u)
          << "observer " << o << " peer " << p;
      EXPECT_EQ(c->recover_count[o][p], hit ? 1u : 0u)
          << "observer " << o << " peer " << p;
    }

  // The campaign stressed what it claims to stress: the partition forced
  // go-back-N re-sends, and node 2 received its peers' RESUME replies.
#if STAB_OBS_ENABLED
  EXPECT_GT(c->node(0).stats().retransmits_sent, 0u);
  EXPECT_GT(c->node(2).stats().resumes_received, 0u);
#endif
  for (NodeId o = 0; o < c->num_nodes(); ++o)
    EXPECT_FALSE(c->node(o).resume_pending(2)) << "observer " << o;
}

TEST(ChaosCampaign, ScriptedCampaignIsDeterministicPerSeed) {
  auto a = run_scripted(0xC0FFEE, DispatchMode::kIndexed);
  auto b = run_scripted(0xC0FFEE, DispatchMode::kIndexed);
  EXPECT_EQ(a->digest(), b->digest());

  auto other = run_scripted(0xBADF00D, DispatchMode::kIndexed);
  other->check_converged();  // different seed: same invariants...
#if STAB_OBS_ENABLED
  // ...different execution. The divergence shows up in the stats half of
  // the digest (retransmit/duplicate counts follow the loss RNG); the core
  // half converges to the same post-heal state by design, so this check
  // needs the instrumented build.
  EXPECT_NE(a->digest(), other->digest());
#endif
}

TEST(ChaosCampaign, LegacyScanAgreesWithIndexedPostHeal) {
  auto indexed = run_scripted(0xC0FFEE, DispatchMode::kIndexed);
  auto legacy = run_scripted(0xC0FFEE, DispatchMode::kLegacyScan);
  indexed->check_converged();
  legacy->check_converged();
  EXPECT_EQ(indexed->core_digest(), legacy->core_digest());
}

// --- deferred stability propagation (DESIGN.md §10) ---------------------------
//
// Deferred mode trades propagation latency for control bandwidth: mirrors
// accumulate cumulative report vectors and flush them as merged REPORTBATCH
// frames on a timer. The batching must be invisible to the application —
// the same campaign (loss + crash/restart rejoin + partition) lands on the
// same post-heal core digest as the immediate ACKBATCH path, per seed.
TEST(ChaosCampaign, DeferredAgreesWithImmediatePostHeal) {
  StabilizerOptions deferred = chaos_base_options();
  deferred.report_path = StabilizerOptions::ReportPath::kDeferred;
  deferred.deferred_flush_interval = millis(20);
  auto d = run_scripted(0xC0FFEE, DispatchMode::kIndexed, deferred);
  auto imm = run_scripted(0xC0FFEE, DispatchMode::kIndexed);
  d->check_converged();
  imm->check_converged();
  EXPECT_EQ(d->core_digest(), imm->core_digest());

  // Deferred campaigns replay deterministically per seed.
  auto again = run_scripted(0xC0FFEE, DispatchMode::kIndexed, deferred);
  EXPECT_EQ(d->core_digest(), again->core_digest());

#if STAB_OBS_ENABLED
  // The campaign genuinely ran on the deferred path: flush timers fired and
  // REPORTBATCH frames moved (surviving nodes only — a restart resets stats).
  uint64_t flushes = 0, batches = 0;
  for (NodeId o = 0; o < d->num_nodes(); ++o) {
    flushes += d->node(o).stats().deferred_flushes;
    batches += d->node(o).stats().report_batches_sent;
  }
  EXPECT_GT(flushes, 0u);
  EXPECT_GT(batches, 0u);
#endif
}

// The delta threshold flushes early when enough cumulative seq-advance has
// accumulated; semantics must stay byte-identical to timer-only flushing.
TEST(ChaosCampaign, DeferredDeltaThresholdAgreesPostHeal) {
  StabilizerOptions deferred = chaos_base_options();
  deferred.report_path = StabilizerOptions::ReportPath::kDeferred;
  deferred.deferred_flush_interval = millis(20);
  deferred.deferred_delta_threshold = 8;
  auto d = run_scripted(0xC0FFEE, DispatchMode::kIndexed, deferred);
  auto imm = run_scripted(0xC0FFEE, DispatchMode::kIndexed);
  d->check_converged();
  imm->check_converged();
  EXPECT_EQ(d->core_digest(), imm->core_digest());
}

// Aggregated mesh: r0={n0,n1} with n0 aggregating, r1={n2,n3} with n2
// aggregating. The scripted campaign crashes n2 — n3's aggregator — so the
// campaign covers both the AZ merge (n1 -> n0) and the fallback path (n3
// flushes directly while its aggregator is down or partitioned away).
std::unique_ptr<ChaosCluster> run_agg_scripted(uint64_t seed,
                                               StabilizerOptions base) {
  Topology topo = chaos_mesh(4, {"r0", "r0", "r1", "r1"});
  topo.set_az_aggregator("r0", 0);
  topo.set_az_aggregator("r1", 2);
  auto c = std::make_unique<ChaosCluster>(std::move(topo), std::move(base),
                                          seed, DispatchMode::kIndexed,
                                          chaos_predicates());
  c->chaos->arm(scripted_campaign());
  c->start_traffic(millis(100), seconds(24));
  c->sim.run_until(seconds(40));
  return c;
}

TEST(ChaosCampaign, DeferredAggregatedAgreesAndBypassesDeadAggregator) {
  StabilizerOptions agg = chaos_base_options();
  agg.report_path = StabilizerOptions::ReportPath::kDeferredAggregated;
  agg.deferred_flush_interval = millis(20);
  auto aggregated = run_agg_scripted(0xC0FFEE, agg);
  auto immediate = run_agg_scripted(0xC0FFEE, chaos_base_options());
  aggregated->check_converged();
  immediate->check_converged();
  EXPECT_EQ(aggregated->core_digest(), immediate->core_digest());

  auto again = run_agg_scripted(0xC0FFEE, agg);
  EXPECT_EQ(aggregated->core_digest(), again->core_digest());

#if STAB_OBS_ENABLED
  // n0 merged its member's (n1's) vectors into long-haul flushes.
  EXPECT_GT(aggregated->node(0).stats().agg_blocks_absorbed, 0u);
  // n3 kept reporting while its aggregator n2 was crashed (t=5s..20s) by
  // falling back to direct fan-out — reports bypass a dead aggregator.
  EXPECT_GT(aggregated->node(3).stats().agg_fallback_direct, 0u);
  // After n2's rejoin the AZ merge resumed: n2's post-restart stats count
  // fresh absorbed blocks from n3 (traffic runs until t=24s).
  EXPECT_GT(aggregated->node(2).stats().agg_blocks_absorbed, 0u);
#endif
}

// Small-frame coalescing changes the wire-level framing (kDataBatch) and the
// flush timing (deferred pump) but must not change what the application
// observes: lossless FIFO logs, frontier convergence, and the
// indexed-vs-legacy dispatch differential.
TEST(ChaosCampaign, CoalescedCampaignHoldsInvariantsAcrossDispatchModes) {
  StabilizerOptions coalesced = chaos_base_options();
  coalesced.coalesce_max_frames = 16;
  auto indexed = run_scripted(0xC0FFEE, DispatchMode::kIndexed, coalesced);
  auto legacy = run_scripted(0xC0FFEE, DispatchMode::kLegacyScan, coalesced);
  indexed->check_converged();  // FIFO + completeness + frontier agreement
  legacy->check_converged();
  EXPECT_EQ(indexed->core_digest(), legacy->core_digest());

  // The crash-rejoin's go-back-N rewind pumps a run of consecutive slots
  // through one flush, so the campaign genuinely exercises batching.
#if STAB_OBS_ENABLED
  uint64_t coalesced_frames = 0;
  for (NodeId o = 0; o < indexed->num_nodes(); ++o)
    coalesced_frames += indexed->node(o).stats().frames_coalesced;
  EXPECT_GT(coalesced_frames, 0u);
#endif

  // Post-convergence application state is framing-independent: the same
  // campaign without coalescing lands on the identical core digest.
  auto plain = run_scripted(0xC0FFEE, DispatchMode::kIndexed);
  EXPECT_EQ(indexed->core_digest(), plain->core_digest());
}

// --- observability of a campaign ----------------------------------------------

#if STAB_OBS_ENABLED

/// Deterministic observability artifacts of one scripted campaign: per-node
/// metrics (node<N>.-prefixed) plus a cluster-wide merged frontier-lag
/// histogram, and the shared message-lifecycle trace. Both strings are
/// byte-identical across runs of the same seed — the sim clock stamps every
/// record and the FIFO event order fixes the interleaving.
struct ObsArtifacts {
  std::string metrics;
  std::string trace;
  std::string probe;          // probe registry + windowed percentile views
  uint64_t lag_samples = 0;   // merged control.frontier_lag count
  uint64_t trace_records = 0;
  uint64_t trace_dropped = 0;
  uint64_t stable_spans = 0;  // probe send->stable closes, all type keys
};

ObsArtifacts run_observed_campaign(uint64_t seed) {
  // Subscribe to the span endpoints only: the 2ms ack heartbeat would flood
  // the buffer with kAckReport records that add nothing to the lifecycle
  // picture of a campaign.
  auto tracer = std::make_shared<obs::Tracer>(
      size_t{1} << 18, obs::event_bit(obs::SpanEvent::kBroadcast) |
                           obs::event_bit(obs::SpanEvent::kDeliver) |
                           obs::event_bit(obs::SpanEvent::kFrontierFire));
  // Cluster-shared latency probe (every node's stamps come from the one sim
  // clock): sample every sequence so the short campaign still closes spans
  // across the crash/partition schedule.
  obs::LatencyProbeOptions popt;
  popt.sample_every = 1;
  auto probe = std::make_shared<obs::LatencyProbe>(popt);
  StabilizerOptions base = chaos_base_options();
  base.tracer = tracer;
  base.probe = probe;
  auto c = run_scripted(seed, DispatchMode::kIndexed, std::move(base));

  ObsArtifacts out;
  std::ostringstream ms;
  obs::MetricsRegistry cluster;  // scratch home for merged histograms
  obs::Histogram& lag = cluster.histogram("cluster.control.frontier_lag");
  for (NodeId n = 0; n < c->num_nodes(); ++n) {
    c->node(n).metrics().dump_jsonl(ms, "node" + std::to_string(n) + ".");
    if (const obs::Histogram* h =
            c->node(n).metrics().find_histogram("control.frontier_lag"))
      lag.merge(*h);
  }
  cluster.dump_jsonl(ms);
  out.metrics = ms.str();
  out.lag_samples = lag.count();

  std::ostringstream ts;
  tracer->export_jsonl(ts);
  out.trace = ts.str();
  out.trace_records = tracer->size();
  out.trace_dropped = tracer->dropped();

  // Probe export: close every epoch the campaign's end time has passed,
  // then dump since-boot histograms + windowed views. Advancing off the
  // final sim clock keeps the windowed snapshot a pure function of the
  // seed.
  probe->advance_windows(c->sim.now() + seconds(60));
  std::ostringstream ps;
  probe->registry().dump_jsonl(ps, "cluster.");
  probe->export_windows_jsonl(ps);
  out.probe = ps.str();
  for (const std::string& name : probe->registry().names())
    if (name.rfind("probe.send_to_stable.", 0) == 0)
      if (const obs::Histogram* h = probe->registry().find_histogram(name))
        out.stable_spans += h->count();
  return out;
}

/// Write `body` to $STAB_CHAOS_OBS_DIR (or the cwd) for offline analysis.
void write_artifact(const std::string& name, const std::string& body) {
  std::string dir = ".";
  if (const char* env = std::getenv("STAB_CHAOS_OBS_DIR")) dir = env;
  std::ofstream f(dir + "/" + name, std::ios::trunc);
  f << body;
}

TEST(ChaosObs, CampaignEmitsFrontierLagAndByteIdenticalTracePerSeed) {
  ObsArtifacts a = run_observed_campaign(0xC0FFEE);
  ObsArtifacts b = run_observed_campaign(0xC0FFEE);

  // The determinism guarantee extends to the observability artifacts
  // themselves: same seed => byte-identical metrics, trace, and probe
  // exports (the windowed percentiles included — the probe advances its
  // epochs off the sim clock only).
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.probe, b.probe);

  // The campaign populated the frontier-lag histogram (crash + partition
  // force real lag) and produced a non-trivial lifecycle trace with no
  // records lost to the capacity bound.
  EXPECT_GT(a.lag_samples, 0u);
  EXPECT_GT(a.trace_records, 0u);
  EXPECT_EQ(a.trace_dropped, 0u);
  EXPECT_NE(a.metrics.find("cluster.control.frontier_lag"), std::string::npos);
  EXPECT_NE(a.trace.find("\"ev\":\"frontier_fire\""), std::string::npos);

  // The probe joined real spans across the fault schedule: per-type
  // send->stable percentiles exist both since-boot and windowed.
  EXPECT_GT(a.stable_spans, 0u);
  EXPECT_NE(a.probe.find("probe.send_to_stable."), std::string::npos);
  EXPECT_NE(a.probe.find("\"type\":\"windowed_histogram\""),
            std::string::npos);

  // A different seed follows a different schedule — the artifacts diverge.
  ObsArtifacts other = run_observed_campaign(0xBADF00D);
  EXPECT_NE(a.trace, other.trace);

  write_artifact("chaos_obs_metrics.jsonl", a.metrics);
  write_artifact("chaos_obs_trace.jsonl", a.trace);
  write_artifact("chaos_obs_probe.jsonl", a.probe);
}

#endif  // STAB_OBS_ENABLED

// --- random campaigns ---------------------------------------------------------

void run_random_campaign(uint64_t seed) {
  SCOPED_TRACE("chaos seed " + std::to_string(seed));
  const size_t n = 4 + seed % 3;  // 4..6 nodes
  std::vector<std::string> regions;
  for (size_t i = 0; i < n; ++i) regions.push_back("r" + std::to_string(i % 3));

  sim::RandomCampaignParams params;
  params.num_nodes = n;
  params.fault_window = seconds(12);
  params.heal_deadline = seconds(18);
  params.crashable = {static_cast<NodeId>(n - 1)};
  params.background_loss = 0.01;
  ChaosScript script = sim::make_random_script(seed, params);

  // The sweep runs with coalescing enabled: crash/restart, RESUME rewind and
  // loss-burst retransmits all reuse cached frames under batching. The
  // scripted campaigns above keep the uncoalesced path covered.
  StabilizerOptions base = chaos_base_options();
  base.coalesce_max_frames = 16;
  ChaosCluster c(chaos_mesh(n, regions), std::move(base), seed,
                 DispatchMode::kIndexed, chaos_predicates());
  c.chaos->arm(script);
  c.start_traffic(millis(100), seconds(22));
  c.sim.run_until(seconds(60));
  c.check_converged();
}

TEST(ChaosProperty, RandomCampaignsHoldInvariants) {
  std::vector<uint64_t> seeds = {11, 22, 33, 44};
  if (const char* env = std::getenv("STAB_CHAOS_SEEDS")) {
    seeds.clear();
    std::stringstream ss(env);
    std::string tok;
    while (std::getline(ss, tok, ','))
      if (!tok.empty()) seeds.push_back(std::stoull(tok));
  }
  for (uint64_t seed : seeds) {
    run_random_campaign(seed);
    if (::testing::Test::HasFailure()) {
      // The marker scripts/ci.sh greps for; replay with
      //   STAB_CHAOS_SEEDS=<seed> ./chaos_test
      std::cerr << "CHAOS REPLAY SEED: " << seed << std::endl;
      return;
    }
  }
}

TEST(ChaosProperty, RandomScriptGenerationIsDeterministic) {
  sim::RandomCampaignParams params;
  params.num_nodes = 5;
  params.crashable = {4};
  ChaosScript a = sim::make_random_script(42, params);
  ChaosScript b = sim::make_random_script(42, params);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(static_cast<int>(a[i].kind), static_cast<int>(b[i].kind));
    EXPECT_EQ(a[i].a, b[i].a);
    EXPECT_EQ(a[i].value, b[i].value);
  }
  ChaosScript other = sim::make_random_script(43, params);
  EXPECT_FALSE(a.size() == other.size() &&
               [&] {
                 for (size_t i = 0; i < a.size(); ++i)
                   if (a[i].at != other[i].at) return false;
                 return true;
               }());
  // Every fault heals by the deadline.
  for (const ChaosEvent& e : a)
    EXPECT_LE(e.at, params.heal_deadline);
}

// --- focused RESUME tests -----------------------------------------------------

TEST(ChaosResume, RejoinHasNoSequenceGap) {
  ChaosCluster c(chaos_mesh(3, {"r0", "r0", "r1"}), chaos_base_options(), 7,
                 DispatchMode::kIndexed, chaos_predicates());
  ChaosScript script;
  sim::add_crash_restart(script, seconds(2), seconds(3), 2);
  sim::finalize_script(script);
  c.chaos->arm(script);
  c.start_traffic(millis(50), seconds(8));
  c.sim.run_until(seconds(15));
  c.check_converged();
  // Node 2's pre-crash tail was restored from the snapshot's send buffer
  // and retransmitted — peers saw no gap in its stream (checked above) and
  // its own delivery cursors survived (no duplicate delivery).
  EXPECT_EQ(c.node(2).session_epoch(), 1u);
  EXPECT_EQ(c.node(0).peer_session_epoch(2), 1u);
  EXPECT_EQ(c.restart_count[2], 1);
}

TEST(ChaosResume, DuplicateAndSpoofedResumesAreIgnored) {
  ChaosCluster c(chaos_mesh(2, {"r0", "r1"}), chaos_base_options(), 7,
                 DispatchMode::kIndexed, chaos_predicates());
  c.node(0).send(to_bytes("x"));
  c.sim.run_until(seconds(1));

  data::ResumeFrame resume;
  resume.sender = 1;
  resume.epoch = 5;
  resume.receive_through = kNoSeq;
  // First announcement: epoch adopted, recover handler fires.
  c.cluster->transport(1).send(0, data::encode(resume));
  c.sim.run_until(seconds(2));
  EXPECT_EQ(c.node(0).peer_session_epoch(1), 5u);
  EXPECT_EQ(c.recover_count[0][1], 1u);
  // Duplicate (same epoch): counted as received, otherwise a no-op.
  c.cluster->transport(1).send(0, data::encode(resume));
  // Spoof (sender field != transport source): ignored entirely.
  resume.sender = 0;
  resume.epoch = 9;
  c.cluster->transport(1).send(0, data::encode(resume));
  c.sim.run_until(seconds(3));
  EXPECT_EQ(c.node(0).peer_session_epoch(1), 5u);
  EXPECT_EQ(c.node(0).peer_session_epoch(0), 0u);
  EXPECT_EQ(c.recover_count[0][1], 1u);
#if STAB_OBS_ENABLED
  EXPECT_EQ(c.node(0).stats().resumes_received, 3u);
#endif
}

// Satellite: retransmit_check surfaces the retransmits_sent /
// duplicates_dropped pair — a loss campaign must be debuggable from stats.
// Stats-only test: meaningless when the obs layer is compiled out.
#if STAB_OBS_ENABLED
TEST(ChaosStats, LossCampaignSurfacesRetransmitPair) {
  ChaosCluster c(chaos_mesh(2, {"r0", "r1"}), chaos_base_options(), 99,
                 DispatchMode::kIndexed, chaos_predicates());
  // Loss on both directions: losing acks leaves the sender's view stale,
  // so the probe re-sends frames the receiver already holds — the
  // duplicates_dropped half of the pair.
  c.cluster->network().set_drop_probability(0, 1, 0.3);
  c.cluster->network().set_drop_probability(1, 0, 0.3);
  c.start_traffic(millis(20), seconds(4));
  c.sim.run_until(seconds(30));
  c.check_converged();
  // Sender re-sent lost frames; go-back-N overshoot surfaced at the
  // receiver as dropped stale duplicates.
  EXPECT_GT(c.node(0).stats().retransmits_sent, 0u);
  EXPECT_GT(c.node(1).stats().duplicates_dropped, 0u);
  EXPECT_EQ(c.node(0).stats().peer_stall_episodes, 0u)
      << "plain loss must not look like a crash";
}
#endif  // STAB_OBS_ENABLED

// --- sharded campaigns (DESIGN.md §9) -----------------------------------------
//
// A sharded node is N full Stabilizer instances over N independent networks
// (the scale-out shape), each with its own primary epoch. These campaigns
// pin the two §9 guarantees chaos can threaten:
//   * per-shard failover domains — deposing one shard's primary fences
//     exactly that shard's waiters while the other shard's frontier keeps
//     advancing through the fault window, and
//   * per-shard digest stability — a seeded loss + partition campaign
//     replays to the same post-heal state on every shard.

/// 3 nodes x 2 shards in scale-out shape. Shard 1's network carries the
/// chaos schedule; shard 0's stays clean unless a second schedule is armed.
struct ShardedChaosCluster {
  ShardedChaosCluster(uint64_t seed, StabilizerOptions base,
                      bool with_failover) {
    topo_ = chaos_mesh(3, {"r0", "r1", "r2"});
    const size_t n = topo_.num_nodes();
    for (uint32_t s = 0; s < kShards; ++s) {
      clusters.push_back(std::make_unique<SimCluster>(topo_, sim));
      clusters.back()->network().set_drop_rng_seed(seed ^ s);
      schedules.push_back(std::make_unique<sim::ChaosSchedule>(
          sim, clusters.back()->network()));
    }
    logs.assign(n, std::vector<std::vector<std::vector<SeqNum>>>(
                       kShards, std::vector<std::vector<SeqNum>>(n)));
    for (NodeId id = 0; id < n; ++id) {
      shard::ShardedOptions opts;
      opts.base = base;
      opts.base.topology = topo_;
      opts.base.self = id;
      opts.num_shards = kShards;
      std::vector<Transport*> transports;
      for (auto& c : clusters) transports.push_back(&c->transport(id));
      nodes.push_back(std::make_unique<shard::ShardedStabilizer>(
          std::move(opts), transports));
      nodes.back()->set_delivery_handler(
          [this, id](shard::ShardId shard, NodeId origin, SeqNum seq,
                     BytesView, uint64_t) {
            logs[id][shard][origin].push_back(seq);
          });
      EXPECT_TRUE(
          nodes.back()->register_predicate("all", "MIN($ALLWNODES)").is_ok());
    }
    if (with_failover) {
      failover::FailoverOptions guard;
      guard.stream = 0;
      guard.lease_interval = millis(100);
      guard.lease_timeout = millis(500);
      guard.suspect_gather = millis(50);
      guard.reconcile_timeout = millis(200);
      guard.paxos_retry = millis(100);
      managers.resize(n);
      for (NodeId id = 0; id < n; ++id)
        for (uint32_t s = 0; s < kShards; ++s) {
          managers[id].push_back(std::make_unique<failover::FailoverManager>(
              guard, nodes[id]->shard(s)));
          managers[id].back()->start();
        }
    }
  }

  ~ShardedChaosCluster() {
    for (auto& per_node : managers)
      for (auto& m : per_node) m.reset();
  }

  shard::ShardedStabilizer& node(NodeId id) { return *nodes.at(id); }

  /// Node 0 drives both shards' streams every `interval` until `until`
  /// (sends into faults included; fenced sends return kFencedSeq and are
  /// intentionally ignored — the zombie keeps trying).
  void start_traffic(Duration interval, TimePoint until) {
    sim.schedule_after(interval, [this, interval, until] {
      if (sim.now() > until) return;
      for (uint32_t s = 0; s < kShards; ++s)
        nodes[0]->send_to_shard(s, to_bytes("m"));
      start_traffic(interval, until);
    });
  }

  /// Mode-independent post-heal state of one shard across the cluster.
  std::string shard_digest(uint32_t s) const {
    std::ostringstream os;
    const size_t n = topo_.num_nodes();
    for (NodeId o = 0; o < n; ++o) {
      os << "n" << o << " last=" << nodes[o]->shard(s).last_sent();
      for (NodeId g = 0; g < n; ++g) {
        os << " [" << g << " d=" << nodes[o]->shard(s).delivered_through(g)
           << " all=" << nodes[o]->shard(s).get_stability_frontier("all", g);
        uint64_t h = 1469598103934665603ULL;  // FNV-1a over the delivery log
        for (SeqNum q : logs[o][s][g])
          h = (h ^ static_cast<uint64_t>(q)) * 1099511628211ULL;
        os << " log=" << logs[o][s][g].size() << ":" << h << "]";
      }
      os << "\n";
    }
    return os.str();
  }

  static constexpr uint32_t kShards = 2;
  Topology topo_;
  sim::Simulator sim;
  std::vector<std::unique_ptr<SimCluster>> clusters;            // [shard]
  std::vector<std::unique_ptr<sim::ChaosSchedule>> schedules;   // [shard]
  // [node][shard][origin] -> delivered seqs, in order.
  std::vector<std::vector<std::vector<std::vector<SeqNum>>>> logs;
  std::vector<std::vector<std::unique_ptr<failover::FailoverManager>>>
      managers;  // [node][shard]
  std::vector<std::unique_ptr<shard::ShardedStabilizer>> nodes;
};

// Kill one shard's primary (partition node 0 away on shard 1's network long
// enough for the lease to lapse and the mirrors to elect): ONLY shard 1's
// waiters fail with kFenced; shard 0's stream, waiters, and frontier sail
// through the whole fault window untouched.
TEST(ShardedChaos, DeposedShardPrimaryFencesOnlyThatShard) {
  StabilizerOptions base = chaos_base_options();
  base.retransmit_timeout = millis(150);
  ShardedChaosCluster c(/*seed=*/0x51AD, base, /*with_failover=*/true);

  ChaosScript script;
  sim::add_partition(script, seconds(2), seconds(2), {{0}, {1, 2}});
  sim::finalize_script(script);
  c.schedules[1]->arm(script);  // shard 1's network only

  c.start_traffic(millis(10), seconds(7));

  // Parked at t=1.5s, before the fault: a cross-shard cut whose shard-1
  // member is unreachable, and a shard-0-only cut that must stay healthy.
  bool mixed_fired = false, clean_fired = false;
  auto mixed = Stabilizer::WaitStatus::kTimeout;
  auto clean = Stabilizer::WaitStatus::kTimeout;
  SeqNum frontier0_at_fault = kNoSeq;
  c.sim.schedule_at(from_sec(1.5), [&] {
    const SeqNum reachable0 = c.node(0).shard(0).last_sent() + 10;
    const SeqNum unreachable1 = c.node(0).shard(1).last_sent() + 100000;
    ASSERT_TRUE(c.node(0)
                    .waitfor_cut({reachable0, unreachable1}, "all",
                                 [&](Stabilizer::WaitStatus s) {
                                   mixed_fired = true;
                                   mixed = s;
                                 })
                    .is_ok());
    ASSERT_TRUE(c.node(0)
                    .waitfor_cut({reachable0, kNoSeq}, "all",
                                 [&](Stabilizer::WaitStatus s) {
                                   clean_fired = true;
                                   clean = s;
                                 })
                    .is_ok());
  });
  c.sim.schedule_at(from_sec(2.0), [&] {
    frontier0_at_fault = c.node(0).get_stability_frontier("all@0");
  });

  c.sim.run_until(seconds(16));

  // Exactly one mirror won shard 1's election; nobody touched shard 0.
  NodeId winner = kInvalidNode;
  for (NodeId id = 1; id < 3; ++id) {
    if (c.managers[id][1]->promoted()) {
      EXPECT_EQ(winner, kInvalidNode);
      winner = id;
    }
    EXPECT_FALSE(c.managers[id][0]->promoted()) << "node " << id;
  }
  ASSERT_NE(winner, kInvalidNode);

  // The healed zombie self-fenced on shard 1 alone: shard 1 refuses sends,
  // shard 0 still sequences.
  EXPECT_TRUE(c.node(0).shard(1).self_fenced());
  EXPECT_FALSE(c.node(0).shard(0).self_fenced());
  EXPECT_EQ(c.node(0).send_to_shard(1, to_bytes("zombie")).seq, kFencedSeq);
  EXPECT_GE(c.node(0).send_to_shard(0, to_bytes("alive")).seq, 0);

  // Waiter isolation: the cut spanning the deposed shard failed with
  // kFenced; the shard-0-only cut resolved kOk.
  EXPECT_TRUE(mixed_fired);
  EXPECT_EQ(mixed, Stabilizer::WaitStatus::kFenced);
  EXPECT_TRUE(clean_fired);
  EXPECT_EQ(clean, Stabilizer::WaitStatus::kOk);

  // Shard 0's frontier kept advancing through the fault window and
  // converged on everything node 0 sent before the post-run probe above.
  const SeqNum frontier0_final = c.node(0).get_stability_frontier("all@0");
  EXPECT_GT(frontier0_final, frontier0_at_fault);
  EXPECT_EQ(frontier0_final, c.node(0).shard(0).last_sent() - 1);

  // Shard 0's delivery logs are the complete FIFO prefix at every mirror.
  for (NodeId id = 1; id < 3; ++id) {
    const auto& log = c.logs[id][0][0];
    ASSERT_FALSE(log.empty());
    for (size_t i = 0; i < log.size(); ++i)
      ASSERT_EQ(log[i], static_cast<SeqNum>(i)) << "node " << id;
  }
}

// Per-shard digest stability: the same seeded loss + partition campaign
// replays to byte-identical post-heal state on every shard, and converges
// on real state, not on empty logs.
TEST(ShardedChaos, PerShardDigestReplaysPerSeed) {
  auto run = [](uint64_t seed) {
    auto c = std::make_unique<ShardedChaosCluster>(seed, chaos_base_options(),
                                                   /*with_failover=*/false);
    for (uint32_t s = 0; s < ShardedChaosCluster::kShards; ++s) {
      ChaosScript script;
      ChaosEvent loss;
      loss.at = kTimeZero;
      loss.kind = ChaosEvent::Kind::kLossSet;
      loss.a = kInvalidNode;
      loss.value = 0.05;
      script.push_back(loss);
      // Stagger the shards' partitions so the fault windows differ.
      sim::add_partition(script, seconds(1 + s), seconds(2), {{0}, {1, 2}});
      sim::finalize_script(script);
      c->schedules[s]->arm(script);
    }
    c->start_traffic(millis(25), seconds(6));
    c->sim.run_until(seconds(30));
    return c;
  };

  auto first = run(0xD15C);
  auto again = run(0xD15C);
  for (uint32_t s = 0; s < ShardedChaosCluster::kShards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EXPECT_EQ(first->shard_digest(s), again->shard_digest(s));
    EXPECT_GT(first->logs[1][s][0].size(), 0u);
  }
}

}  // namespace
}  // namespace stab
