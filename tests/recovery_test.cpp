// Fault-tolerance tests (paper §III-E): peer crash detection via the
// predicate-update (stall) timer, predicate adjustment, control-state
// snapshot/restore, and the full primary-restart flow combining the WAL
// store with Stabilizer recovery.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>

#include "counter_check.hpp"
#include "kv/wan_kv.hpp"
#include "net/sim_transport.hpp"

namespace stab {
namespace {

Topology mesh(size_t n, double lat_ms) {
  Topology t;
  for (size_t i = 0; i < n; ++i)
    t.add_node("r" + std::to_string(i), i < 2 ? "east" : "west");
  LinkSpec s;
  s.latency = from_ms(lat_ms);
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = 0; b < n; ++b)
      if (a != b) t.set_link(a, b, s);
  return t;
}

struct Fixture {
  explicit Fixture(Topology topo, StabilizerOptions base = {})
      : topo_(std::move(topo)) {
    cluster = std::make_unique<SimCluster>(topo_, sim);
    for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
      StabilizerOptions opts = base;
      opts.topology = topo_;
      opts.self = n;
      nodes.push_back(
          std::make_unique<Stabilizer>(opts, cluster->transport(n)));
    }
  }
  Stabilizer& node(NodeId n) { return *nodes.at(n); }

  Topology topo_;
  sim::Simulator sim;
  std::unique_ptr<SimCluster> cluster;
  std::vector<std::unique_ptr<Stabilizer>> nodes;
};

// --- peer stall detection -----------------------------------------------------

TEST(StallDetection, FiresOnceWhenPeerStopsAcking) {
  StabilizerOptions base;
  base.peer_stall_timeout = millis(100);
  Fixture f(mesh(3, 5), base);

  std::vector<NodeId> stalled;
  f.node(0).set_peer_stall_handler(
      [&](NodeId peer) { stalled.push_back(peer); });

  f.cluster->network().set_node_up(2, false);  // crash node 2
  f.node(0).send(to_bytes("x"));
  f.sim.run_until(seconds(2));
  // Node 2 never acks -> exactly one stall notification for it; node 1
  // acked normally and is never reported.
  EXPECT_EQ(stalled, (std::vector<NodeId>{2}));
}

TEST(StallDetection, NoFiringWhenAllHealthy) {
  StabilizerOptions base;
  base.peer_stall_timeout = millis(50);
  Fixture f(mesh(3, 5), base);
  int fired = 0;
  f.node(0).set_peer_stall_handler([&](NodeId) { ++fired; });
  for (int i = 0; i < 10; ++i) f.node(0).send(to_bytes("m"));
  f.sim.run_until(seconds(2));
  EXPECT_EQ(fired, 0);
}

TEST(StallDetection, RefiresAfterRecoveryAndSecondCrash) {
  StabilizerOptions base;
  base.peer_stall_timeout = millis(100);
  base.retransmit_timeout = millis(100);  // so the peer catches up on heal
  Fixture f(mesh(2, 5), base);
  std::vector<double> stall_times;
  f.node(0).set_peer_stall_handler(
      [&](NodeId) { stall_times.push_back(to_sec(f.sim.now())); });

  f.cluster->network().set_node_up(1, false);
  f.node(0).send(to_bytes("a"));
  f.sim.run_until(seconds(1));
  ASSERT_EQ(stall_times.size(), 1u);

  f.cluster->network().set_node_up(1, true);  // heal: retransmission catches up
  f.sim.run_until(seconds(2));
  f.cluster->network().set_node_up(1, false);  // crash again
  f.node(0).send(to_bytes("b"));
  f.sim.run_until(seconds(3));
  EXPECT_EQ(stall_times.size(), 2u);  // a new stall episode re-fires
}

TEST(StallDetection, RecoveredHandlerClosesEpisodesExactlyOnce) {
  StabilizerOptions base;
  base.peer_stall_timeout = millis(100);
  base.retransmit_timeout = millis(100);
  Fixture f(mesh(2, 5), base);
  std::vector<std::string> events;
  f.node(0).set_peer_stall_handler(
      [&](NodeId p) { events.push_back("stall" + std::to_string(p)); });
  f.node(0).set_peer_recovered_handler(
      [&](NodeId p) { events.push_back("recover" + std::to_string(p)); });

  f.cluster->network().set_node_up(1, false);
  f.node(0).send(to_bytes("a"));
  f.sim.run_until(seconds(1));
  f.cluster->network().set_node_up(1, true);  // ack progress resumes
  f.sim.run_until(seconds(2));
  f.cluster->network().set_node_up(1, false);
  f.node(0).send(to_bytes("b"));
  f.sim.run_until(seconds(3));
  f.cluster->network().set_node_up(1, true);
  f.sim.run_until(seconds(4));

  // Strict alternation, one recover per stall, nothing after quiescence.
  EXPECT_EQ(events, (std::vector<std::string>{"stall1", "recover1", "stall1",
                                              "recover1"}));
  // The episode counters mirror the handler counts.
  EXPECT_EQ(counter(f.node(0), "core.peer_stall_episodes"), 2u);
  EXPECT_EQ(counter(f.node(0), "core.peer_recover_episodes"), 2u);
}

TEST(StallDetection, TypicalReactionAdjustsPredicates) {
  // The §III-E recipe end to end: detect the crashed secondary, find the
  // affected predicates, exclude the peer, and weaken the predicate.
  StabilizerOptions base;
  base.peer_stall_timeout = millis(100);
  Fixture f(mesh(4, 5), base);
  Stabilizer& primary = f.node(0);
  ASSERT_TRUE(primary.register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));

  primary.set_peer_stall_handler([&](NodeId peer) {
    auto affected = primary.predicates_referencing(peer);
    EXPECT_EQ(affected, (std::vector<std::string>{"all"}));
    primary.set_peer_excluded(peer, true);
    primary.change_predicate(
        "all", "MIN($ALLWNODES-$MYWNODE-$" + std::to_string(peer + 1) + ")");
  });

  f.cluster->network().set_node_up(3, false);
  SeqNum seq = primary.send(to_bytes("x"));
  bool stable = false;
  primary.waitfor(seq, "all", [&](SeqNum) { stable = true; });
  f.sim.run_until(seconds(2));
  EXPECT_TRUE(stable);  // progress despite the dead node
  EXPECT_EQ(primary.send_buffer_bytes(), 0u);
}

// --- control-state snapshot / restore -------------------------------------------

TEST(Snapshot, RoundTripsControlState) {
  Fixture f(mesh(3, 5));
  Stabilizer& node = f.node(0);
  ASSERT_TRUE(node.register_predicate("maj", "KTH_MAX(2,$ALLWNODES)"));
  ASSERT_TRUE(
      node.register_predicate("ver", "MIN(($ALLWNODES-$MYWNODE).verified)"));
  for (int i = 0; i < 5; ++i) node.send(to_bytes("m"));
  f.sim.run();
  SeqNum frontier = node.get_stability_frontier("maj");
  ASSERT_EQ(frontier, 4);

  Bytes snapshot = node.snapshot_control_state();

  // A fresh instance (fresh transports too — simulating a process restart).
  Fixture g(mesh(3, 5));
  Stabilizer& reborn = g.node(0);
  ASSERT_TRUE(reborn.restore_control_state(snapshot));

  // Predicates are back, frontiers recomputed from the restored acks.
  EXPECT_TRUE(reborn.has_predicate("maj"));
  EXPECT_TRUE(reborn.has_predicate("ver"));
  EXPECT_EQ(reborn.get_stability_frontier("maj"), frontier);
  // The sequencer never reuses sequence numbers.
  EXPECT_EQ(reborn.send(to_bytes("after-restart")), 5);
}

TEST(Snapshot, RestoreIsMonotonicMerge) {
  Fixture f(mesh(2, 1));
  Stabilizer& node = f.node(0);
  node.register_predicate("one", "MAX($ALLWNODES-$MYWNODE)");
  node.send(to_bytes("a"));
  f.sim.run();
  Bytes old_snapshot = node.snapshot_control_state();
  node.send(to_bytes("b"));
  f.sim.run();
  SeqNum newer = node.get_stability_frontier("one");
  // Replaying the stale snapshot must not regress anything.
  ASSERT_TRUE(node.restore_control_state(old_snapshot));
  EXPECT_EQ(node.get_stability_frontier("one"), newer);
}

TEST(Snapshot, RejectsForeignAndCorruptSnapshots) {
  Fixture f(mesh(2, 1));
  Bytes snapshot = f.node(0).snapshot_control_state();

  EXPECT_FALSE(f.node(1).restore_control_state(snapshot).is_ok());

  Bytes corrupt = snapshot;
  corrupt.resize(corrupt.size() / 2);
  EXPECT_FALSE(f.node(0).restore_control_state(corrupt).is_ok());

  EXPECT_FALSE(
      f.node(0).restore_control_state(to_bytes("not a snapshot")).is_ok());

  // Topology mismatch.
  Fixture g(mesh(3, 1));
  EXPECT_FALSE(g.node(0).restore_control_state(snapshot).is_ok());
}

TEST(Snapshot, PreservesDeliveryCursors) {
  Fixture f(mesh(2, 1));
  f.node(1).send(to_bytes("m0"));
  f.node(1).send(to_bytes("m1"));
  f.sim.run();
  ASSERT_EQ(f.node(0).delivered_through(1), 1);
  Bytes snapshot = f.node(0).snapshot_control_state();

  Fixture g(mesh(2, 1));
  ASSERT_TRUE(g.node(0).restore_control_state(snapshot));
  EXPECT_EQ(g.node(0).delivered_through(1), 1);
}

TEST(Snapshot, V2RestoresSendBufferAcrossRestart) {
  StabilizerOptions base;
  base.retransmit_timeout = millis(50);
  Fixture f(mesh(2, 1), base);
  ASSERT_TRUE(f.node(0).register_predicate("one", "MAX($ALLWNODES-$MYWNODE)"));
  // Peer unreachable: the three messages stay unacknowledged in the send
  // buffer, so the snapshot must carry them (v2 format).
  f.cluster->network().set_node_up(1, false);
  for (int i = 0; i < 3; ++i) f.node(0).send(to_bytes("buffered"));
  f.sim.run_until(seconds(1));
  ASSERT_GT(f.node(0).send_buffer_bytes(), 0u);
  Bytes snapshot = f.node(0).snapshot_control_state();

  // Process restart (fresh transports, fresh peer). The restored instance
  // announces its new session epoch and retransmits the buffered tail —
  // without the send-buffer slots in the snapshot these messages would be
  // gone forever.
  Fixture g(mesh(2, 1), base);
  std::vector<SeqNum> got;
  g.node(1).set_delivery_handler(
      [&](NodeId, SeqNum s, BytesView, uint64_t) { got.push_back(s); });
  ASSERT_TRUE(g.node(0).restore_control_state(snapshot));
  EXPECT_EQ(g.node(0).session_epoch(), 1u);
  g.sim.run_until(seconds(2));
  EXPECT_EQ(got, (std::vector<SeqNum>{0, 1, 2}));
  EXPECT_EQ(g.node(1).peer_session_epoch(0), 1u);
  EXPECT_FALSE(g.node(0).resume_pending(1));  // reply confirmed the rejoin
  EXPECT_EQ(g.node(0).send_buffer_bytes(), 0u);  // acked and reclaimed
}

// --- full primary-restart flow (store WAL + control snapshot) -------------------

TEST(PrimaryRestart, KvStateAndStabilitySurvive) {
  std::string wal = (std::filesystem::temp_directory_path() /
                     ("stab_recovery_" + std::to_string(::getpid()) + ".wal"))
                        .string();
  std::remove(wal.c_str());

  Topology topo = mesh(3, 5);
  auto owner = [](const std::string&) { return NodeId{0}; };
  Bytes snapshot;
  SeqNum put_seq = kNoSeq;
  {
    Fixture f(topo);
    store::LocalStore store(wal);
    kv::WanKV kv(f.node(0), store, owner);
    ASSERT_TRUE(kv.register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));
    auto put = kv.put("k", to_bytes("durable"));
    ASSERT_TRUE(put.is_ok());
    put_seq = put.value().last_seq;
    f.sim.run();
    EXPECT_EQ(kv.get_stability_frontier("all"), put_seq);
    snapshot = f.node(0).snapshot_control_state();
  }  // primary "crashes"

  // Restart: recover the store from its WAL, then Stabilizer from the
  // snapshot (the integrated-system restart order of §III-E).
  auto recovered = store::LocalStore::recover(wal);
  ASSERT_TRUE(recovered.is_ok());
  Fixture g(topo);
  kv::WanKV kv(g.node(0), recovered.value(), owner);
  ASSERT_TRUE(g.node(0).restore_control_state(snapshot));

  auto v = kv.get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_string(v->value), "durable");
  EXPECT_EQ(g.node(0).get_stability_frontier("all"), put_seq);
  // New writes continue the sequence space.
  auto put2 = kv.put("k2", to_bytes("post-restart"));
  ASSERT_TRUE(put2.is_ok());
  EXPECT_GT(put2.value().first_seq, put_seq);
  std::remove(wal.c_str());
}

}  // namespace
}  // namespace stab
