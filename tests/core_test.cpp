// Integration tests for the Stabilizer core over the deterministic
// simulator: end-to-end delivery, predicate frontiers, waitfor timing,
// origin rule, custom stability levels, reconfiguration, buffer reclamation,
// fault injection with retransmission, and real-time blocking waits.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/stabilizer.hpp"
#include "net/inproc_transport.hpp"
#include "net/sim_transport.hpp"

namespace stab {
namespace {

/// An n-node Stabilizer cluster on the simulator.
struct SimFixture {
  explicit SimFixture(Topology topo, StabilizerOptions base = {}) {
    cluster = std::make_unique<SimCluster>(topo, sim);
    for (NodeId n = 0; n < topo.num_nodes(); ++n) {
      StabilizerOptions opts = base;
      opts.topology = topo;
      opts.self = n;
      nodes.push_back(
          std::make_unique<Stabilizer>(opts, cluster->transport(n)));
    }
  }
  Stabilizer& node(NodeId n) { return *nodes.at(n); }

  sim::Simulator sim;
  std::unique_ptr<SimCluster> cluster;
  std::vector<std::unique_ptr<Stabilizer>> nodes;
};

Topology tiny_topology(size_t n, double lat_ms = 10, double bw_mbps = 0) {
  Topology t;
  for (size_t i = 0; i < n; ++i)
    t.add_node("n" + std::to_string(i), i == 0 ? "az0" : "az1");
  LinkSpec s;
  s.latency = from_ms(lat_ms);
  s.bandwidth_bps = bw_mbps > 0 ? mbps(bw_mbps) : 0;
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = 0; b < n; ++b)
      if (a != b) t.set_link(a, b, s);
  return t;
}

TEST(Core, DeliversToAllPeersInOrder) {
  SimFixture f(tiny_topology(3));
  std::map<NodeId, std::vector<std::string>> got;
  for (NodeId n = 1; n < 3; ++n)
    f.node(n).set_delivery_handler(
        [&, n](NodeId origin, SeqNum seq, BytesView payload, uint64_t) {
          EXPECT_EQ(origin, 0u);
          EXPECT_EQ(seq, static_cast<SeqNum>(got[n].size()));
          got[n].push_back(to_string(payload));
        });
  f.node(0).send(to_bytes("one"));
  f.node(0).send(to_bytes("two"));
  f.sim.run();
  EXPECT_EQ(got[1], (std::vector<std::string>{"one", "two"}));
  EXPECT_EQ(got[2], (std::vector<std::string>{"one", "two"}));
  EXPECT_EQ(f.node(1).delivered_through(0), 1);
}

TEST(Core, SequenceNumbersAreDense) {
  SimFixture f(tiny_topology(2));
  EXPECT_EQ(f.node(0).send(to_bytes("a")), 0);
  EXPECT_EQ(f.node(0).send(to_bytes("b")), 1);
  EXPECT_EQ(f.node(0).last_sent(), 1);
}

TEST(Core, FrontierAdvancesViaAcks) {
  SimFixture f(tiny_topology(3, /*lat_ms=*/10));
  ASSERT_TRUE(f.node(0).register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));
  SeqNum seq = f.node(0).send(to_bytes("x"));
  EXPECT_EQ(f.node(0).get_stability_frontier("all"), kNoSeq);
  f.sim.run();
  EXPECT_EQ(f.node(0).get_stability_frontier("all"), seq);
}

TEST(Core, WaitforFiresAtRoundTripPlusAckDelay) {
  // one-way 10ms, ack_interval 2ms: frontier at sender ≈ 10 (data) + ≤2
  // (ack batching) + 10 (ack return) ms.
  SimFixture f(tiny_topology(2, 10));
  ASSERT_TRUE(f.node(0).register_predicate("one", "MAX($ALLWNODES-$MYWNODE)"));
  SeqNum seq = f.node(0).send(to_bytes("x"));
  TimePoint fired_at = kTimeZero;
  ASSERT_TRUE(f.node(0).waitfor(seq, "one",
                                [&](SeqNum) { fired_at = f.sim.now(); }));
  f.sim.run();
  EXPECT_GE(to_ms(fired_at), 20.0);
  EXPECT_LE(to_ms(fired_at), 23.0);
}

TEST(Core, OriginRuleSelfHasAllProperties) {
  SimFixture f(tiny_topology(3));
  ASSERT_TRUE(f.node(0).register_predicate(
      "self_verified", "MIN($MYWNODE.verified)"));
  SeqNum seq = f.node(0).send(to_bytes("x"));
  // No network round-trip needed: origin has every property immediately.
  EXPECT_EQ(f.node(0).get_stability_frontier("self_verified"), seq);
}

TEST(Core, BroadcastAcksLetEveryNodeEvaluate) {
  SimFixture f(tiny_topology(3));
  // Register at node 2 a predicate about node 0's stream.
  ASSERT_TRUE(f.node(2).register_predicate("all", "MIN($ALLWNODES)"));
  f.node(0).send(to_bytes("x"));
  f.sim.run();
  // Node 2 observes that everyone (including node 1) received seq 0 of
  // node 0's stream.
  EXPECT_EQ(f.node(2).get_stability_frontier("all", /*origin=*/0), 0);
}

TEST(Core, MonitorStreamsFrontiers) {
  SimFixture f(tiny_topology(2));
  ASSERT_TRUE(f.node(0).register_predicate("one", "MAX($ALLWNODES-$MYWNODE)"));
  std::vector<SeqNum> fronts;
  ASSERT_TRUE(f.node(0).monitor_stability_frontier(
      "one", [&](SeqNum s, BytesView) { fronts.push_back(s); }));
  for (int i = 0; i < 5; ++i) f.node(0).send(to_bytes("m"));
  f.sim.run();
  ASSERT_FALSE(fronts.empty());
  EXPECT_EQ(fronts.back(), 4);
  for (size_t i = 1; i < fronts.size(); ++i) EXPECT_GT(fronts[i], fronts[i - 1]);
}

TEST(Core, AckBatchingCoalesces) {
  // 100 messages sent back-to-back: receiver acks must be far fewer than
  // 100 thanks to monotonic coalescing.
  SimFixture f(tiny_topology(2, 5));
  for (int i = 0; i < 100; ++i) f.node(0).send(to_bytes("m"));
  f.sim.run();
  // Registry-backed stats read zero when the obs layer is compiled out
  // (-DSTAB_OBS=OFF), so stats introspection is gated; the semantic
  // assertions around it run in every build flavor.
#if STAB_OBS_ENABLED
  EXPECT_EQ(f.node(1).stats().messages_delivered, 100u);
  EXPECT_LT(f.node(1).stats().ack_batches_sent, 30u);
#endif
  // ... and the sender still learned the final frontier exactly.
  EXPECT_EQ(f.node(0)
                .engine()
                .acks()
                .get(StabilityTypeRegistry::kReceived, 1),
            99);
}

TEST(Core, SendBufferReclaimedAfterGlobalReceipt) {
  SimFixture f(tiny_topology(3));
  f.node(0).send(to_bytes("payload"));
  EXPECT_GT(f.node(0).send_buffer_bytes(), 0u);
  f.sim.run();
  EXPECT_EQ(f.node(0).send_buffer_bytes(), 0u);
}

TEST(Core, ExcludedPeerDoesNotBlockReclaim) {
  SimFixture f(tiny_topology(3));
  f.cluster->network().set_node_up(2, false);  // node 2 crashes
  f.node(0).send(to_bytes("x"));
  f.sim.run();
  EXPECT_GT(f.node(0).send_buffer_bytes(), 0u);  // pinned by dead node 2
  f.node(0).set_peer_excluded(2, true);
  EXPECT_EQ(f.node(0).send_buffer_bytes(), 0u);
  EXPECT_TRUE(f.node(0).peer_excluded(2));
}

TEST(Core, PredicatesReferencingAidsFaultHandling) {
  SimFixture f(tiny_topology(4));
  f.node(0).register_predicate("all", "MIN($ALLWNODES-$MYWNODE)");
  f.node(0).register_predicate("n2only", "MAX($3)");  // node index 3 = id 2
  f.node(0).register_predicate("n1only", "MAX($2)");
  auto keys = f.node(0).predicates_referencing(2);
  EXPECT_EQ(keys, (std::vector<std::string>{"all", "n2only"}));
}

TEST(Core, ChangePredicateMidStream) {
  SimFixture f(tiny_topology(4, 10));
  f.cluster->network().set_node_up(3, false);  // slowest/never acks
  ASSERT_TRUE(f.node(0).register_predicate("p", "MIN($ALLWNODES-$MYWNODE)"));
  SeqNum seq = f.node(0).send(to_bytes("x"));
  f.sim.run();
  EXPECT_EQ(f.node(0).get_stability_frontier("p"), kNoSeq);  // node 3 missing
  // Reconfigure to exclude the dead node (the §VI-D mechanism).
  ASSERT_TRUE(f.node(0).change_predicate("p", "MIN($ALLWNODES-$MYWNODE-$4)"));
  EXPECT_EQ(f.node(0).get_stability_frontier("p"), seq);
}

TEST(Core, CustomStabilityLevelRoundTrip) {
  SimFixture f(tiny_topology(2, 10));
  ASSERT_TRUE(f.node(0).register_predicate(
      "ver", "MIN(($ALLWNODES-$MYWNODE).verified)"));
  f.node(1).register_predicate("ver", "MIN(($ALLWNODES-$MYWNODE).verified)");

  SeqNum seq = f.node(0).send(to_bytes("x"));
  std::string extra_seen;
  f.node(0).monitor_stability_frontier(
      "ver", [&](SeqNum, BytesView extra) { extra_seen = to_string(extra); });

  // Node 1 verifies the message after delivery.
  f.node(1).set_delivery_handler(
      [&](NodeId origin, SeqNum s, BytesView, uint64_t) {
        f.node(1).report_stability("verified", origin, s, to_bytes("sig"));
      });
  f.sim.run();
  EXPECT_EQ(f.node(0).get_stability_frontier("ver"), seq);
  EXPECT_EQ(extra_seen, "sig");
}

TEST(Core, SendLargeSplitsAtEightKb) {
  SimFixture f(tiny_topology(2));
  Bytes big(20 * 1024, 0xab);
  auto [first, last] = f.node(0).send_large(big);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(last, 2);  // 20 KB -> 3 chunks of <= 8 KB

  std::vector<size_t> sizes;
  Bytes reassembled;
  f.node(1).set_delivery_handler(
      [&](NodeId, SeqNum, BytesView payload, uint64_t) {
        sizes.push_back(payload.size());
        reassembled.insert(reassembled.end(), payload.begin(), payload.end());
      });
  f.sim.run();
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 8192u);
  EXPECT_EQ(sizes[2], 20u * 1024 - 2 * 8192);
  EXPECT_EQ(reassembled, big);
}

TEST(Core, SendLargeVirtualPadding) {
  SimFixture f(tiny_topology(2));
  // 1 KB of real manifest + 100 KB virtual: 13 chunks, bandwidth charged
  // for the padding but no bytes materialized.
  Bytes manifest(1024, 1);
  auto [first, last] = f.node(0).send_large(manifest, 100 * 1024);
  EXPECT_EQ(last - first + 1, (1 + 100 + 7) / 8);
  uint64_t wire_total = 0;
  f.node(1).set_delivery_handler(
      [&](NodeId, SeqNum, BytesView, uint64_t wire) { wire_total += wire; });
  f.sim.run();
  EXPECT_GE(wire_total, 101u * 1024);
}

TEST(Core, MultipleConcurrentStreams) {
  SimFixture f(tiny_topology(3, 5));
  for (NodeId n = 0; n < 3; ++n)
    f.node(n).register_predicate("all", "MIN($ALLWNODES-$MYWNODE)");
  f.node(0).send(to_bytes("from0"));
  f.node(1).send(to_bytes("from1"));
  f.node(2).send(to_bytes("from2"));
  f.sim.run();
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(f.node(n).get_stability_frontier("all"), 0) << n;
    for (NodeId o = 0; o < 3; ++o)
      if (o != n) EXPECT_EQ(f.node(n).delivered_through(o), 0);
  }
}

TEST(Core, LossyLinkRecoveredByRetransmission) {
  Topology topo = tiny_topology(2, 5);
  StabilizerOptions base;
  base.retransmit_timeout = millis(50);
  SimFixture f(topo, base);
  f.cluster->network().set_drop_probability(0, 1, 0.3);
  f.cluster->network().set_drop_rng_seed(1234);

  std::vector<SeqNum> delivered;
  f.node(1).set_delivery_handler(
      [&](NodeId, SeqNum seq, BytesView, uint64_t) {
        delivered.push_back(seq);
      });
  const int kCount = 200;
  for (int i = 0; i < kCount; ++i) f.node(0).send(to_bytes("m"));
  f.sim.run_until(seconds(60));

  ASSERT_EQ(delivered.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(delivered[i], i);
#if STAB_OBS_ENABLED
  EXPECT_GT(f.node(0).stats().retransmits_sent, 0u);
#endif
  EXPECT_EQ(f.node(1).delivered_through(0), kCount - 1);
}

TEST(Core, LossyBothDirectionsStillConverges) {
  Topology topo = tiny_topology(3, 2);
  StabilizerOptions base;
  base.retransmit_timeout = millis(20);
  SimFixture f(topo, base);
  for (NodeId a = 0; a < 3; ++a)
    for (NodeId b = 0; b < 3; ++b)
      if (a != b) f.cluster->network().set_drop_probability(a, b, 0.2);
  f.cluster->network().set_drop_rng_seed(77);

  f.node(0).register_predicate("all", "MIN($ALLWNODES-$MYWNODE)");
  const int kCount = 50;
  for (int i = 0; i < kCount; ++i) f.node(0).send(to_bytes("m"));
  bool ok = f.sim.run_until_pred(
      [&] { return f.node(0).get_stability_frontier("all") == kCount - 1; },
      seconds(120));
  EXPECT_TRUE(ok) << "frontier stuck at "
                  << f.node(0).get_stability_frontier("all");
}

TEST(Core, EncodeOncePerBroadcastEvenUnderRetransmission) {
  // The data-plane fast path's core invariant: a 5-node broadcast encodes
  // each message exactly once, not once per peer, and go-back-N retransmits
  // reuse the cached frame instead of re-encoding.
  Topology topo = tiny_topology(5, 5);
  StabilizerOptions base;
  base.retransmit_timeout = millis(50);
  SimFixture f(topo, base);
  for (NodeId peer = 1; peer < 5; ++peer)
    f.cluster->network().set_drop_probability(0, peer, 0.25);
  f.cluster->network().set_drop_rng_seed(4242);

  const int kCount = 100;
  for (int i = 0; i < kCount; ++i) f.node(0).send(to_bytes("msg"));
  bool ok = f.sim.run_until_pred(
      [&] {
        for (NodeId peer = 1; peer < 5; ++peer)
          if (f.node(peer).delivered_through(0) != kCount - 1) return false;
        return true;
      },
      seconds(120));
  ASSERT_TRUE(ok);

#if STAB_OBS_ENABLED
  StabilizerStats s = f.node(0).stats();
  EXPECT_GT(s.retransmits_sent, 0u);  // the lossy links forced re-sends
  EXPECT_GT(s.frames_transmitted, static_cast<uint64_t>(kCount) * 4);
  EXPECT_EQ(s.data_encodes, static_cast<uint64_t>(kCount));
  EXPECT_GE(s.shared_sends, s.frames_transmitted);  // data + acks, all shared
#endif
}

/// Origin 0's stream as a data-path test input, streamed to `mirrors`
/// peers. The own-stream input is node 0 sending on its own stream. The
/// adopted input is the same stream after a failover: node 0 is down, and
/// node 1 won stream 0 under epoch 1 and sequences it with send_as. Both
/// run the same data path, so every data-path property holds for each.
struct StreamCase {
  StreamCase(bool adopted, size_t mirrors, double lat_ms,
             StabilizerOptions base)
      : adopted(adopted),
        f(tiny_topology(mirrors + (adopted ? 2 : 1), lat_ms), base) {
    if (!adopted) return;
    f.cluster->network().set_node_up(0, false);
    for (NodeId n = 1; n < f.nodes.size(); ++n)
      EXPECT_TRUE(f.node(n).observe_takeover(0, 1, 1, 0).is_ok());
    EXPECT_TRUE(f.node(1).adopt_stream(0, 0, 1).is_ok());
  }
  Stabilizer& sender() { return f.node(adopted ? 1 : 0); }
  SeqNum send(BytesView payload) {
    return adopted ? sender().send_as(0, payload) : sender().send(payload);
  }
  /// The i-th (0-based) mirror of stream 0.
  NodeId mirror(size_t i) const {
    return static_cast<NodeId>(i + (adopted ? 2 : 1));
  }
  /// A predicate over every live mirror of stream 0 ($1 is dead node 0).
  std::string all_mirrors() const {
    return adopted ? "MIN($ALLWNODES-$MYWNODE-$1)"
                   : "MIN($ALLWNODES-$MYWNODE)";
  }

  bool adopted;
  SimFixture f;
};

TEST(Core, CoalescingPreservesFifoAndFrontiers) {
  // A burst of small sends coalesces into DATABATCH frames; receivers must
  // see the identical per-message stream (FIFO order, dense seqs, same
  // frontier convergence).
  StabilizerOptions base;
  base.coalesce_max_frames = 16;
  for (bool adopted : {false, true}) {
    SCOPED_TRACE(adopted ? "adopted stream" : "own stream");
    StreamCase c(adopted, 2, 5, base);
    ASSERT_TRUE(c.sender().register_predicate("all", c.all_mirrors()));
    std::map<NodeId, std::vector<SeqNum>> got;
    for (size_t i = 0; i < 2; ++i)
      c.f.node(c.mirror(i))
          .set_delivery_handler([&got, n = c.mirror(i)](
                                    NodeId origin, SeqNum seq,
                                    BytesView payload, uint64_t) {
            EXPECT_EQ(origin, 0u);
            EXPECT_EQ(to_string(payload), "m" + std::to_string(seq));
            got[n].push_back(seq);
          });

    const int kCount = 100;
    for (int i = 0; i < kCount; ++i)
      c.send(to_bytes("m" + std::to_string(i)));
    c.f.sim.run();

    for (size_t i = 0; i < 2; ++i) {
      const std::vector<SeqNum>& log = got[c.mirror(i)];
      ASSERT_EQ(log.size(), static_cast<size_t>(kCount));
      for (int s = 0; s < kCount; ++s) EXPECT_EQ(log[s], s);
    }
    EXPECT_EQ(c.sender().get_stability_frontier("all", 0), kCount - 1);

#if STAB_OBS_ENABLED
    StabilizerStats s = c.sender().stats();
    // The burst was sent in one event-loop turn, so nearly everything rode
    // in batches; per-message accounting is unchanged.
    EXPECT_GT(s.frames_coalesced, static_cast<uint64_t>(kCount));
    EXPECT_EQ(s.frames_transmitted, static_cast<uint64_t>(kCount) * 2);
    // Far fewer encodes than messages: batches of up to 16, each encoded
    // once for both peers.
    EXPECT_LT(s.data_encodes, static_cast<uint64_t>(kCount) / 2);
#endif
  }
}

TEST(Core, CoalescingRespectsByteBoundAndLargePayloads) {
  // Messages too large for the batch byte budget ride alone, interleaved
  // with coalesced small ones, preserving order.
  StabilizerOptions base;
  base.coalesce_max_frames = 32;
  base.coalesce_max_bytes = 2048;
  SimFixture f(tiny_topology(2, 5), base);
  std::vector<size_t> sizes;
  f.node(1).set_delivery_handler(
      [&](NodeId, SeqNum, BytesView payload, uint64_t) {
        sizes.push_back(payload.size());
      });
  for (int i = 0; i < 30; ++i) {
    f.node(0).send(Bytes(64));           // coalescable
    if (i % 10 == 9) f.node(0).send(Bytes(4096));  // rides alone
  }
  f.sim.run();
  ASSERT_EQ(sizes.size(), 33u);
  size_t big_seen = 0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (sizes[i] == 4096) ++big_seen;
  }
  EXPECT_EQ(big_seen, 3u);
#if STAB_OBS_ENABLED
  StabilizerStats s = f.node(0).stats();
  EXPECT_GT(s.frames_coalesced, 0u);
  EXPECT_EQ(s.frames_transmitted, 33u);
#endif
}

TEST(Core, SendWindowLimitsInFlight) {
  StabilizerOptions base;
  base.send_window = 4;
  SimFixture f(tiny_topology(2, 10), base);
  for (int i = 0; i < 20; ++i) f.node(0).send(to_bytes("m"));
  // Only the window's worth of frames may be on the wire before any ack.
#if STAB_OBS_ENABLED
  EXPECT_EQ(f.node(0).stats().frames_transmitted, 4u);
#endif
  // As acks flow back the rest drain; everything is delivered in order.
  std::vector<SeqNum> got;
  f.node(1).set_delivery_handler(
      [&](NodeId, SeqNum seq, BytesView, uint64_t) { got.push_back(seq); });
  f.sim.run();
  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(got[i], i);
#if STAB_OBS_ENABLED
  EXPECT_EQ(f.node(0).stats().frames_transmitted, 20u);
#endif
}

TEST(Core, SendWindowIsPerPeer) {
  // A dead peer's full window must not stop the healthy peer's flow. The
  // window opens on receive acks, which reach the stream's sequencing
  // authority whether reports are broadcast or origin-scoped.
  for (bool adopted : {false, true}) {
    for (bool broadcast_acks : {true, false}) {
      SCOPED_TRACE(std::string(adopted ? "adopted stream" : "own stream") +
                   (broadcast_acks ? ", broadcast acks" : ", scoped acks"));
      StabilizerOptions base;
      base.send_window = 2;
      base.broadcast_acks = broadcast_acks;
      StreamCase c(adopted, 2, 5, base);
      c.f.cluster->network().set_node_up(c.mirror(1), false);
      size_t delivered = 0;
      c.f.node(c.mirror(0))
          .set_delivery_handler(
              [&](NodeId, SeqNum, BytesView, uint64_t) { ++delivered; });
      for (int i = 0; i < 10; ++i) c.send(to_bytes("m"));
      c.f.sim.run();
      EXPECT_EQ(delivered, 10u);  // the healthy mirror got everything
      // The sender transmitted all 10 DATA frames to the healthy mirror but
      // only the 2-message window toward the dead one (dropped frames also
      // include ack batches aimed at it, so count transmissions, not drops).
#if STAB_OBS_ENABLED
      EXPECT_EQ(c.sender().stats().frames_transmitted, 12u);
#endif
    }
  }
}

TEST(Core, NewTypesBackfillOriginRuleOnEveryStream) {
  // A predicate registered after sends may introduce a stability type; the
  // sequencing authority holds it for everything it already sequenced, on
  // its own stream and on the streams it adopted.
  for (bool adopted : {false, true}) {
    SCOPED_TRACE(adopted ? "adopted stream" : "own stream");
    StreamCase c(adopted, 2, 5, {});
    for (int i = 0; i < 3; ++i) c.send(to_bytes("m"));
    ASSERT_TRUE(c.sender().register_predicate("v", "MIN($MYWNODE.verified)"));
    EXPECT_EQ(c.sender().get_stability_frontier("v", 0), 2);
  }
}

TEST(Core, WindowedAndUnwindowedDeliverIdentically) {
  for (size_t window : {0u, 1u, 3u, 16u}) {
    StabilizerOptions base;
    base.send_window = window;
    SimFixture f(tiny_topology(3, 7), base);
    std::vector<SeqNum> got;
    f.node(2).set_delivery_handler(
        [&](NodeId, SeqNum seq, BytesView, uint64_t) { got.push_back(seq); });
    for (int i = 0; i < 30; ++i) f.node(0).send(to_bytes("x"));
    f.sim.run();
    ASSERT_EQ(got.size(), 30u) << "window " << window;
    for (int i = 0; i < 30; ++i) EXPECT_EQ(got[i], i);
  }
}

#if STAB_OBS_ENABLED
TEST(Core, StatsAreCoherent) {
  SimFixture f(tiny_topology(3));
  for (int i = 0; i < 10; ++i) f.node(0).send(to_bytes("x"));
  f.sim.run();
  const auto& st = f.node(0).stats();
  EXPECT_EQ(st.messages_sent, 10u);
  EXPECT_EQ(st.frames_transmitted, 20u);  // 10 msgs x 2 peers
  EXPECT_EQ(f.node(1).stats().messages_delivered, 10u);
  EXPECT_GT(st.ack_entries_applied, 0u);
}
#endif  // STAB_OBS_ENABLED

TEST(Core, SendLargeEdgeCases) {
  SimFixture f(tiny_topology(2));
  // Exact multiple of the split size: no ragged tail chunk.
  Bytes exact(16 * 1024, 1);
  auto [f1, l1] = f.node(0).send_large(exact);
  EXPECT_EQ(l1 - f1 + 1, 2);
  // Empty payload still produces one (empty) message.
  auto [f2, l2] = f.node(0).send_large({});
  EXPECT_EQ(f2, l2);
  std::vector<size_t> sizes;
  f.node(1).set_delivery_handler(
      [&](NodeId, SeqNum, BytesView p, uint64_t) { sizes.push_back(p.size()); });
  f.sim.run();
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 8192u);
  EXPECT_EQ(sizes[1], 8192u);
  EXPECT_EQ(sizes[2], 0u);
}

TEST(Core, SingleNodeClusterIsTriviallyStable) {
  Topology topo;
  topo.add_node("solo", "az");
  sim::Simulator sim;
  SimCluster cluster(topo, sim);
  StabilizerOptions opts;
  opts.topology = topo;
  opts.self = 0;
  Stabilizer node(opts, cluster.transport(0));
  ASSERT_TRUE(node.register_predicate("all", "MIN($ALLWNODES)"));
  SeqNum seq = node.send(to_bytes("solo"));
  // Origin rule: instantly stable; buffer instantly reclaimed.
  EXPECT_EQ(node.get_stability_frontier("all"), seq);
  EXPECT_EQ(node.send_buffer_bytes(), 0u);
}

TEST(Core, WaitforBeforeAnySendFiresImmediately) {
  SimFixture f(tiny_topology(2));
  ASSERT_TRUE(f.node(0).register_predicate("one", "MAX($ALLWNODES)"));
  // Frontier starts at kNoSeq; waiting for kNoSeq is already satisfied.
  int fired = 0;
  ASSERT_TRUE(f.node(0).waitfor(kNoSeq, "one", [&](SeqNum) { ++fired; }));
  EXPECT_EQ(fired, 1);
}

TEST(Core, SendRawValidatesKindSpace) {
  SimFixture f(tiny_topology(2));
  EXPECT_THROW(f.node(0).send_raw(1, Bytes{0x01}), std::invalid_argument);
  f.node(0).send_raw(1, Bytes{0x41});  // application space: fine
}

/// Hands every newly installed receive handler one ACKBATCH from node 1
/// before set_receive_handler returns, as a transport may when a peer is
/// already running; everything else goes to the wrapped sim transport.
class EagerTransport final : public Transport {
 public:
  explicit EagerTransport(SimTransport& inner) : inner_(inner) {}
  NodeId self() const override { return inner_.self(); }
  size_t cluster_size() const override { return inner_.cluster_size(); }
  void set_receive_handler(ReceiveHandler handler) override {
    if (handler) {
      data::AckBatchFrame ack;
      ack.reporter = 1;
      ack.entries.push_back(
          data::AckEntry{1, StabilityTypeRegistry::kReceived, 5, {}});
      Bytes frame = data::encode(ack);
      handler(1, frame, frame.size());
    }
    inner_.set_receive_handler(std::move(handler));
  }
  void send(NodeId dst, Bytes frame, uint64_t wire_size) override {
    inner_.send(dst, std::move(frame), wire_size);
  }
  void send_shared(NodeId dst, std::shared_ptr<const Bytes> frame,
                   uint64_t wire_size) override {
    inner_.send_shared(dst, std::move(frame), wire_size);
  }
  Env& env() override { return inner_.env(); }
  bool single_threaded() const override { return inner_.single_threaded(); }

 private:
  SimTransport& inner_;
};

/// A frame that reaches node 0's handler inside its constructor is applied
/// like any other, and the node then streams normally.
TEST(Core, FrameDuringConstruction) {
  Topology topo = tiny_topology(2, 5);
  sim::Simulator sim;
  SimCluster cluster(topo, sim);
  EagerTransport eager(cluster.transport(0));
  StabilizerOptions opts;
  opts.topology = topo;
  opts.send_window = 4;
  Stabilizer node0(opts, eager);
  opts.self = 1;
  Stabilizer node1(opts, cluster.transport(1));
  EXPECT_EQ(node0.engine(1).acks().get(StabilityTypeRegistry::kReceived, 1),
            5);
  for (int i = 0; i < 10; ++i) node0.send(to_bytes("m"));
  sim.run();
  EXPECT_EQ(node1.delivered_through(0), 9);
}

TEST(Core, ErrorsPropagate) {
  SimFixture f(tiny_topology(2));
  EXPECT_FALSE(f.node(0).register_predicate("bad", "NOPE($1)").is_ok());
  EXPECT_FALSE(f.node(0).change_predicate("missing", "MAX($1)").is_ok());
  EXPECT_FALSE(f.node(0)
                   .monitor_stability_frontier("missing",
                                               [](SeqNum, BytesView) {})
                   .is_ok());
  EXPECT_FALSE(
      f.node(0).waitfor(1, "missing", [](SeqNum) {}).is_ok());
  EXPECT_EQ(f.node(0).get_stability_frontier("missing"), kNoSeq);
}

// An origin outside the topology is refused, never used as an index: the
// status-returning calls fail and never call the waiter, the frontier read
// answers kNoSeq, and the accessors throw std::out_of_range.
TEST(Core, OutOfRangeOriginIsRefused) {
  SimFixture f(tiny_topology(2));
  Stabilizer& s = f.node(0);
  ASSERT_TRUE(s.register_predicate("all", "MIN($ALLWNODES)"));
  const NodeId bad = 2;  // == num_nodes
  EXPECT_EQ(s.get_stability_frontier("all", bad), kNoSeq);
  EXPECT_FALSE(
      s.monitor_stability_frontier("all", [](SeqNum, BytesView) {}, bad)
          .is_ok());
  bool called = false;
  EXPECT_FALSE(
      s.waitfor(0, "all", [&](SeqNum) { called = true; }, bad).is_ok());
  EXPECT_FALSE(s.waitfor_blocking(0, "all", millis(10), bad));
  EXPECT_EQ(s.waitfor_blocking_status(0, "all", millis(10), bad),
            Stabilizer::WaitStatus::kNoSeq);
  EXPECT_FALSE(s.report_stability("verified", bad, 0).is_ok());
  EXPECT_THROW(s.stream_epoch(bad), std::out_of_range);
  EXPECT_THROW(s.stream_primary(bad), std::out_of_range);
  EXPECT_THROW(s.engine(bad), std::out_of_range);
  s.send(to_bytes("m"));
  f.sim.run();
  EXPECT_FALSE(called);
  EXPECT_EQ(s.get_stability_frontier("all"), 0);
}

// --- real-time (in-process) ----------------------------------------------------

TEST(CoreRealtime, BlockingWaitforOverInProc) {
  Topology topo = tiny_topology(3, 1);
  InProcCluster cluster(3, &topo);
  std::vector<std::unique_ptr<Stabilizer>> nodes;
  for (NodeId n = 0; n < 3; ++n) {
    StabilizerOptions opts;
    opts.topology = topo;
    opts.self = n;
    opts.ack_interval = millis(1);
    nodes.push_back(std::make_unique<Stabilizer>(opts, cluster.transport(n)));
  }
  ASSERT_TRUE(nodes[0]->register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));
  SeqNum seq = nodes[0]->send(to_bytes("rt"));
  EXPECT_TRUE(nodes[0]->waitfor_blocking(seq, "all", seconds(10)));
  EXPECT_EQ(nodes[0]->get_stability_frontier("all"), seq);
  nodes.clear();
  cluster.shutdown();
}

// --- re-entrant callback paths (why the API mutex is recursive) ---------------

TEST(Core, ReentrantDeliveryHandlerCallsBackIn) {
  // The delivery upcall runs under the API lock; applications (e.g. the
  // backup service) call report_stability / send / get_stability_frontier
  // from it. A non-recursive mutex would deadlock here.
  SimFixture f(tiny_topology(3));
  ASSERT_TRUE(f.node(1).register_predicate(
      "ver", "MIN(($ALLWNODES-$MYWNODE).verified)"));
  int delivered = 0;
  f.node(1).set_delivery_handler(
      [&](NodeId origin, SeqNum seq, BytesView, uint64_t) {
        ++delivered;
        f.node(1).report_stability("verified", origin, seq, to_bytes("ok"));
        f.node(1).get_stability_frontier("ver", origin);
        if (delivered == 1) f.node(1).send(to_bytes("echo"));
      });
  f.node(0).send(to_bytes("a"));
  f.node(0).send(to_bytes("b"));
  f.sim.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(f.node(1).last_sent(), 0);  // the echo went out
}

TEST(Core, ReentrantMonitorCallsBackIn) {
  // Monitor and waitfor callbacks fire under the lock from the control
  // plane's batch apply; frontier-chasing state machines re-enter the API.
  SimFixture f(tiny_topology(3));
  Stabilizer& s = f.node(0);
  ASSERT_TRUE(s.register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));
  int monitor_fired = 0, waiter_fired = 0;
  ASSERT_TRUE(s.monitor_stability_frontier("all", [&](SeqNum f_, BytesView) {
    ++monitor_fired;
    EXPECT_EQ(s.get_stability_frontier("all"), f_);
    s.waitfor(f_, "all", [&](SeqNum) { ++waiter_fired; });  // re-entrant
    if (monitor_fired == 1) s.send(to_bytes("chained"));    // nested batch
  }));
  s.send(to_bytes("x"));
  f.sim.run();
  EXPECT_GE(monitor_fired, 2);  // original + chained send both stabilized
  EXPECT_EQ(waiter_fired, monitor_fired);  // already-covered fires inline
}

TEST(Core, StatsExposeControlPlaneEvalCounters) {
  SimFixture f(tiny_topology(3));
  ASSERT_TRUE(f.node(0).register_predicate("all", "MIN($ALLWNODES)"));
  ASSERT_TRUE(f.node(0).register_predicate("one", "MAX($1)"));
  for (int i = 0; i < 20; ++i) f.node(0).send(to_bytes("m"));
  f.sim.run();
  StabilizerStats st = f.node(0).stats();
  EXPECT_GT(st.predicate_evals, 0u);
  // "one" references only node 1's cell: every report about other nodes is
  // index-skipped for it.
  EXPECT_GT(st.evals_skipped_index, 0u);
  // MAX predicates bound by the frontier skip provably no-op evals.
  EXPECT_GT(st.evals_skipped_binding, 0u);
  EXPECT_EQ(f.node(0).get_stability_frontier("all"), 19);
}

TEST(CoreRealtime, BlockingWaitforTimesOut) {
  Topology topo = tiny_topology(2, 1);
  InProcCluster cluster(2, &topo);
  StabilizerOptions opts;
  opts.topology = topo;
  opts.self = 0;
  Stabilizer node0(opts, cluster.transport(0));
  // No Stabilizer on node 1: acks never come back.
  ASSERT_TRUE(node0.register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));
  SeqNum seq = node0.send(to_bytes("x"));
  EXPECT_FALSE(node0.waitfor_blocking(seq, "all", millis(100)));
}

TEST(CoreRealtime, TimedOutWaitDuringPartitionNeverCompletesLater) {
  Topology topo = tiny_topology(2, 1);
  InProcCluster cluster(2, &topo);
  StabilizerOptions opts;
  opts.topology = topo;
  opts.self = 0;
  opts.ack_interval = millis(1);
  opts.retransmit_timeout = millis(20);
  Stabilizer node0(opts, cluster.transport(0));
  ASSERT_TRUE(node0.register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));
  // Node 1 is unreachable ("partitioned": nothing consumes its frames), so
  // the wait can only end by timeout.
  SeqNum seq = node0.send(to_bytes("x"));
  EXPECT_FALSE(node0.waitfor_blocking(seq, "all", millis(100)));

  // The partition heals: node 1 appears, go-back-N delivers the message,
  // the frontier advances past seq. The timed-out call's internal waiter
  // now fires against its own kept-alive state — it must neither crash nor
  // complete anything a second time, and fresh waits keep working.
  StabilizerOptions opts1 = opts;
  opts1.self = 1;
  Stabilizer node1(opts1, cluster.transport(1));
  EXPECT_TRUE(node0.waitfor_blocking(seq, "all", seconds(10)));
  EXPECT_GE(node0.get_stability_frontier("all"), seq);
}

TEST(CoreRealtime, RemovePredicateFailsBlockedWaitPromptly) {
  Topology topo = tiny_topology(2, 1);
  InProcCluster cluster(2, &topo);
  StabilizerOptions opts;
  opts.topology = topo;
  opts.self = 0;
  Stabilizer node0(opts, cluster.transport(0));
  ASSERT_TRUE(node0.register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));
  SeqNum seq = node0.send(to_bytes("x"));  // never stabilizes: peer absent

  std::atomic<bool> result{true};
  std::thread waiter(
      [&] { result = node0.waitfor_blocking(seq, "all", seconds(30)); });
  // Let the waiter register, then pull the predicate out from under it:
  // the pending waiter fails with kNoSeq, which waitfor_blocking must
  // report as false (not as "stabilized") — and immediately, not after the
  // 30 s timeout.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(node0.remove_predicate("all"));
  waiter.join();
  EXPECT_FALSE(result);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  EXPECT_FALSE(node0.has_predicate("all"));
  // The key is gone for the timeout path too: a new wait fails fast.
  EXPECT_FALSE(node0.waitfor_blocking(seq, "all", seconds(30)));
}

// waitfor_blocking collapses every failure to `false`; the status-returning
// overload distinguishes covered / timeout / unsatisfiable / fenced.
TEST(CoreRealtime, BlockingWaitStatusDistinguishesOutcomes) {
  using WaitStatus = Stabilizer::WaitStatus;
  Topology topo = tiny_topology(2, 1);
  InProcCluster cluster(2, &topo);
  StabilizerOptions opts;
  opts.topology = topo;
  opts.self = 0;
  opts.ack_interval = millis(1);
  opts.retransmit_timeout = millis(20);  // heal leg: go-back-N redelivers
  Stabilizer node0(opts, cluster.transport(0));
  ASSERT_TRUE(node0.register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));

  // Peer absent: the frontier cannot advance -> kTimeout (retriable).
  SeqNum seq = node0.send(to_bytes("x"));
  EXPECT_EQ(node0.waitfor_blocking_status(seq, "all", millis(100)),
            WaitStatus::kTimeout);
  // Unknown key: unsatisfiable, immediately -> kNoSeq.
  EXPECT_EQ(node0.waitfor_blocking_status(seq, "nokey", seconds(30)),
            WaitStatus::kNoSeq);

  // Peer appears: the wait completes -> kOk.
  StabilizerOptions opts1 = opts;
  opts1.self = 1;
  Stabilizer node1(opts1, cluster.transport(1));
  EXPECT_EQ(node0.waitfor_blocking_status(seq, "all", seconds(10)),
            WaitStatus::kOk);

  // §III-E adjust: the predicate removed under a parked waiter -> kNoSeq.
  SeqNum far = node0.send(to_bytes("y")) + 1000;  // unreachable target
  std::atomic<WaitStatus> removed{WaitStatus::kOk};
  std::thread remove_waiter([&] {
    removed = node0.waitfor_blocking_status(far, "all", seconds(30));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(node0.remove_predicate("all"));
  remove_waiter.join();
  EXPECT_EQ(removed.load(), WaitStatus::kNoSeq);

  ASSERT_TRUE(node0.register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));
  // Failover fencing: node 0 is deposed as its own stream's primary while a
  // waiter is parked -> the waiter fails with kFenced (never hangs).
  std::atomic<WaitStatus> fenced{WaitStatus::kOk};
  std::thread fence_waiter([&] {
    fenced = node0.waitfor_blocking_status(far, "all", seconds(30));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(node0.observe_takeover(/*origin=*/0, /*new_primary=*/1,
                                     /*epoch=*/1, kNoSeq)
                  .is_ok());
  fence_waiter.join();
  EXPECT_EQ(fenced.load(), WaitStatus::kFenced);
  EXPECT_TRUE(node0.self_fenced());
  // Post-fence waits on the dead sequence space fail fast with the same
  // status, and send() refuses outright.
  EXPECT_EQ(node0.waitfor_blocking_status(far, "all", seconds(30)),
            WaitStatus::kFenced);
  EXPECT_EQ(node0.send(to_bytes("z")), kFencedSeq);
}

}  // namespace
}  // namespace stab
