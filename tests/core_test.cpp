// Integration tests for the Stabilizer core over the deterministic
// simulator: end-to-end delivery, predicate frontiers, waitfor timing,
// origin rule, custom stability levels, reconfiguration, buffer reclamation,
// fault injection with retransmission, and real-time blocking waits.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

#include "core/stabilizer.hpp"
#include "counter_check.hpp"
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
  // Plain reports ride REPORTBATCH; only reports with extra bytes would
  // need ACKBATCH.
  EXPECT_EQ(counter(f.node(1), "core.messages_delivered"), 100u);
  EXPECT_EQ(counter(f.node(1), "control.ack_batches_sent"), 0u);
  EXPECT_GT(counter(f.node(1), "control.report_batches_sent"), 0u);
  EXPECT_LT(counter(f.node(1), "control.report_batches_sent"), 30u);
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
  EXPECT_GT(counter(f.node(0), "data.retransmits_sent"), 0u);
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
  // each message exactly once, not once per peer, and retransmits
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

  const Stabilizer& n0 = f.node(0);
  // The lossy links forced re-sends.
  EXPECT_GT(counter(n0, "data.retransmits_sent"), 0u);
  EXPECT_GT(counter(n0, "data.frames_transmitted"),
            static_cast<uint64_t>(kCount) * 4);
  EXPECT_EQ(counter(n0, "data.encodes"), static_cast<uint64_t>(kCount));
  // Data and acks, all shared.
  EXPECT_GE(counter(n0, "data.shared_sends"),
            counter(n0, "data.frames_transmitted"));
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

    // The burst was sent in one event-loop turn, so nearly everything rode
    // in batches; per-message accounting is unchanged.
    EXPECT_GT(counter(c.sender(), "data.frames_coalesced"),
              static_cast<uint64_t>(kCount));
    EXPECT_EQ(counter(c.sender(), "data.frames_transmitted"),
              static_cast<uint64_t>(kCount) * 2);
    // Far fewer encodes than messages: batches of up to 16, each encoded
    // once for both peers.
    EXPECT_LT(counter(c.sender(), "data.encodes"),
              static_cast<uint64_t>(kCount) / 2);
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
  EXPECT_GT(counter(f.node(0), "data.frames_coalesced"), 0u);
  EXPECT_EQ(counter(f.node(0), "data.frames_transmitted"), 33u);
}

TEST(Core, SendWindowLimitsInFlight) {
  StabilizerOptions base;
  base.send_window = 4;
  SimFixture f(tiny_topology(2, 10), base);
  for (int i = 0; i < 20; ++i) f.node(0).send(to_bytes("m"));
  // Only the window's worth of frames may be on the wire before any ack.
  EXPECT_EQ(counter(f.node(0), "data.frames_transmitted"), 4u);
  // As acks flow back the rest drain; everything is delivered in order.
  std::vector<SeqNum> got;
  f.node(1).set_delivery_handler(
      [&](NodeId, SeqNum seq, BytesView, uint64_t) { got.push_back(seq); });
  f.sim.run();
  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(got[i], i);
  EXPECT_EQ(counter(f.node(0), "data.frames_transmitted"), 20u);
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
      EXPECT_EQ(counter(c.sender(), "data.frames_transmitted"), 12u);
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

TEST(Core, CountersAreCoherent) {
  SimFixture f(tiny_topology(3));
  for (int i = 0; i < 10; ++i) f.node(0).send(to_bytes("x"));
  f.sim.run();
  EXPECT_EQ(counter(f.node(0), "core.messages_sent"), 10u);
  // 10 msgs x 2 peers.
  EXPECT_EQ(counter(f.node(0), "data.frames_transmitted"), 20u);
  EXPECT_EQ(counter(f.node(1), "core.messages_delivered"), 10u);
  EXPECT_GT(counter(f.node(0), "control.report_entries_applied"), 0u);
}

// The strict counter() helper fails on a name the registry does not hold,
// so every core counter must exist from construction on, reading 0, not
// only once its first event has happened.
TEST(Core, RegistryRegistersEveryCounterAtConstruction) {
  SimFixture f(tiny_topology(2));
  const obs::MetricsRegistry& m = f.node(0).metrics();
  for (const char* name :
       {"core.messages_sent", "core.messages_delivered",
        "core.peer_stall_episodes", "core.peer_recover_episodes",
        "core.resumes_sent", "core.resumes_received", "core.frames_malformed",
        "data.frames_transmitted", "data.duplicates_dropped",
        "data.gaps_detected", "data.retransmits_sent", "data.nacks_sent",
        "data.nacks_dropped", "data.encodes", "data.shared_sends",
        "data.frames_coalesced", "control.ack_batches_sent",
        "control.ack_bytes_sent", "control.ack_entries_applied",
        "control.report_batches_sent", "control.report_bytes_sent",
        "control.report_entries_applied", "control.deferred_flushes",
        "control.agg_blocks_absorbed", "control.agg_fallback_direct",
        "control.report_blocks_fenced", "failover.fenced_frames",
        "failover.epoch_ahead_drops", "failover.takeovers_observed",
        "failover.seqs_skipped", "failover.seqs_rolled_back",
        "failover.waiters_fenced"}) {
    const obs::Counter* c = m.find_counter(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_EQ(c->value(), 0u) << name;
  }
  for (const char* name : {"data.batch_frames", "control.ack_flush_entries",
                           "control.report_flush_entries"})
    EXPECT_NE(m.find_histogram(name), nullptr) << name;
}

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

// --- hostile frame contents ------------------------------------------------------

/// Frames a connected peer can send that must not decode: every core kind
/// cut to its 3-byte {kind, 0, 0} prefix and to one byte short of a valid
/// encoding, an ACKBATCH whose count claims 2^32-1 entries in 13 bytes,
/// well-formed ACKBATCH and REPORTBATCH frames naming type id 0xFFFFFFF0,
/// and a NACK whose range runs backwards.
std::vector<Bytes> malformed_frames() {
  data::DataFrame d;
  d.origin = 1;
  d.seq = 0;
  d.payload = to_bytes("x");
  const Bytes payload = to_bytes("y");
  data::DataBatchFrame b;
  b.origin = 1;
  b.first_seq = 0;
  b.entries.push_back({payload, 0});
  data::AckBatchFrame a;
  a.reporter = 1;
  a.entries.push_back(data::AckEntry{0, StabilityTypeRegistry::kReceived, 3, {}});
  data::ReportBatchFrame r;
  r.forwarder = 1;
  r.blocks.push_back(data::ReportBlock{1, 0, {data::ReportEntry{0, 0, 3}}});
  data::ResumeFrame resume;
  resume.sender = 1;
  data::NackFrame nack;
  nack.origin = 0;
  nack.from = 0;
  nack.to = 0;
  std::vector<Bytes> out;
  for (Bytes f : {data::encode(d), data::encode(b), data::encode(a),
                  data::encode(r), data::encode(resume), data::encode(nack)}) {
    out.push_back(Bytes{f[0], 0, 0});
    f.pop_back();
    out.push_back(std::move(f));
  }
  Writer lying;  // ACKBATCH: reporter 1, epoch 0, count 0xFFFFFFFF
  lying.u8(static_cast<uint8_t>(data::FrameKind::kAckBatch));
  lying.u32(1);
  lying.u32(0);
  lying.u32(0xFFFFFFFF);
  out.push_back(std::move(lying).take());
  a.entries[0].type = 0xFFFFFFF0;
  out.push_back(data::encode(a));
  r.blocks[0].entries[0].type = 0xFFFFFFF0;
  out.push_back(data::encode(r));
  nack.from = 1;  // from > to
  out.push_back(data::encode(nack));
  return out;
}

// A peer's malformed frames are dropped and counted at the decode boundary:
// the node survives, its ack tables and frontiers do not move, and it keeps
// serving afterwards.
TEST(Core, MalformedFramesAreDroppedAndCounted) {
  SimFixture f(tiny_topology(3));
  Stabilizer& s = f.node(0);
  ASSERT_TRUE(s.register_predicate("all", "MIN($ALLWNODES)"));
  for (NodeId n = 0; n < 3; ++n) f.node(n).send(to_bytes("m"));
  f.sim.run();
  auto state = [&] {
    std::vector<SeqNum> out;
    for (NodeId o = 0; o < 3; ++o) {
      out.push_back(s.get_stability_frontier("all", o));
      const AckTable& acks = s.engine(o).acks();
      out.push_back(static_cast<SeqNum>(acks.num_types()));
      for (StabilityTypeId t = 0; t < acks.num_types(); ++t)
        for (NodeId n = 0; n < 3; ++n) out.push_back(acks.get(t, n));
    }
    return out;
  };
  const std::vector<SeqNum> before = state();
  const std::vector<Bytes> frames = malformed_frames();
  for (const Bytes& frame : frames) f.cluster->transport(1).send(0, frame);
  f.sim.run();
  EXPECT_EQ(state(), before);
  EXPECT_EQ(counter(s, "core.frames_malformed"), frames.size());
  s.send(to_bytes("after"));
  f.sim.run();
  EXPECT_EQ(s.get_stability_frontier("all"), 1);
}

// --- the report plane (DESIGN.md §10) ------------------------------------------

/// One node whose transport records what it sends and delivers nothing; a
/// test hands frames to the node's receive handler itself.
class RecordingTransport final : public Transport {
 public:
  RecordingTransport(sim::Simulator& sim, NodeId self, size_t nodes)
      : sim_(sim), self_(self), nodes_(nodes) {}
  NodeId self() const override { return self_; }
  size_t cluster_size() const override { return nodes_; }
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }
  void send(NodeId dst, Bytes frame, uint64_t) override {
    sent.push_back({dst, std::move(frame)});
  }
  void send_shared(NodeId dst, std::shared_ptr<const Bytes> frame,
                   uint64_t) override {
    sent.push_back({dst, *frame});
  }
  Env& env() override { return sim_; }
  bool single_threaded() const override { return true; }

  void deliver(NodeId src, const Bytes& frame) {
    handler_(src, frame, frame.size());
  }

  std::vector<std::pair<NodeId, Bytes>> sent;

 private:
  sim::Simulator& sim_;
  NodeId self_;
  size_t nodes_;
  ReceiveHandler handler_;
};

/// Node `self` of four: az0 = {n0, n1, n2} with n0 its aggregator, az1 =
/// {n3}. The flush runs when the test advances the simulator.
struct PlaneCase {
  explicit PlaneCase(NodeId self, StabilizerOptions opts = {})
      : wire(sim, self, 4) {
    Topology topo;
    for (const char* az : {"az0", "az0", "az0", "az1"})
      topo.add_node("n" + std::to_string(topo.num_nodes()), az);
    topo.set_az_aggregator("az0", 0);
    opts.topology = topo;
    opts.self = self;
    node = std::make_unique<Stabilizer>(opts, wire);
  }
  static StabilizerOptions aggregating() {
    StabilizerOptions o;
    o.aggregate_reports = true;
    return o;
  }
  /// Advances past one flush and returns the frames it sent to `dst`.
  std::vector<Bytes> flush_to(NodeId dst) {
    wire.sent.clear();
    sim.run_until(sim.now() + millis(5));
    std::vector<Bytes> out;
    for (auto& [to, frame] : wire.sent)
      if (to == dst) out.push_back(frame);
    return out;
  }
  /// A member's REPORTBATCH carrying one block of its own.
  void absorb(NodeId member, PrimaryEpoch epoch,
              std::vector<data::ReportEntry> entries) {
    data::ReportBatchFrame f;
    f.forwarder = member;
    f.blocks.push_back(data::ReportBlock{member, epoch, std::move(entries)});
    wire.deliver(member, data::encode(f));
  }

  sim::Simulator sim;
  RecordingTransport wire;
  std::unique_ptr<Stabilizer> node;
};

using Entries = std::vector<std::tuple<NodeId, StabilityTypeId, SeqNum>>;
Entries entries_of(const data::ReportBlock& b) {
  Entries out;
  for (const data::ReportEntry& e : b.entries)
    out.emplace_back(e.about_origin, e.type, e.seq);
  return out;
}

TEST(ReportPlane, NoteIsMonotonicPerCell) {
  PlaneCase c(1);
  const StabilityTypeId v = c.node->types().get_or_register("verified");
  for (SeqNum seq : {5, 5, 3, 7, 6})
    ASSERT_TRUE(c.node->report_stability("verified", 0, seq));
  const std::vector<Bytes> frames = c.flush_to(0);
  ASSERT_EQ(frames.size(), 1u);  // one REPORTBATCH, no ACKBATCH
  const data::ReportBatchFrame f = data::decode_report_batch(frames[0]);
  EXPECT_EQ(f.forwarder, 1u);
  ASSERT_EQ(f.blocks.size(), 1u);
  EXPECT_EQ(f.blocks[0].reporter, 1u);
  EXPECT_EQ(entries_of(f.blocks[0]), (Entries{{0, v, 7}}));
  EXPECT_TRUE(c.flush_to(0).empty());  // the flush drained the grid
}

// A report with extra bytes leaves as ACKBATCH, and a higher report replaces
// a lower one together with its extra bytes.
TEST(ReportPlane, ExtraBytesRideAckBatchUntilAHigherReport) {
  PlaneCase c(1);
  const StabilityTypeId v = c.node->types().get_or_register("verified");
  ASSERT_TRUE(c.node->report_stability("verified", 0, 4, to_bytes("x")));
  ASSERT_TRUE(c.node->report_stability("verified", 2, 1));
  std::vector<Bytes> frames = c.flush_to(3);
  ASSERT_EQ(frames.size(), 2u);  // plain cells first, then the extra
  EXPECT_EQ(entries_of(data::decode_report_batch(frames[0]).blocks.at(0)),
            (Entries{{2, v, 1}}));
  const data::AckBatchFrame ack = data::decode_ack_batch(frames[1]);
  ASSERT_EQ(ack.entries.size(), 1u);
  EXPECT_EQ(ack.entries[0].seq, 4);
  EXPECT_EQ(to_string(ack.entries[0].extra), "x");

  ASSERT_TRUE(c.node->report_stability("verified", 0, 5, to_bytes("y")));
  ASSERT_TRUE(c.node->report_stability("verified", 0, 6));
  frames = c.flush_to(3);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(entries_of(data::decode_report_batch(frames[0]).blocks.at(0)),
            (Entries{{0, v, 6}}));
}

// An aggregator's flush carries its own block and its members' blocks in
// reporter order, each scanned in (about, type) order; its own block is
// stamped with its epoch at flush time, a member's with the epoch it sent.
TEST(ReportPlane, FlushDrainsDeterministically) {
  PlaneCase c(0, PlaneCase::aggregating());
  c.absorb(2, 7, {{1, 1, 3}, {1, 0, 4}});
  c.absorb(1, 2, {{3, 0, 8}});
  ASSERT_TRUE(c.node->report_stability("persisted", 3, 9));
  const StabilityTypeId p = c.node->types().get_or_register("persisted");
  const std::vector<Bytes> frames = c.flush_to(3);
  ASSERT_EQ(frames.size(), 1u);
  const data::ReportBatchFrame f = data::decode_report_batch(frames[0]);
  ASSERT_EQ(f.blocks.size(), 3u);
  EXPECT_EQ(f.blocks[0].reporter, 0u);
  EXPECT_EQ(f.blocks[0].primary_epoch, 0u);
  EXPECT_EQ(entries_of(f.blocks[0]), (Entries{{3, p, 9}}));
  EXPECT_EQ(f.blocks[1].reporter, 1u);
  EXPECT_EQ(f.blocks[1].primary_epoch, 2u);
  EXPECT_EQ(f.blocks[2].reporter, 2u);
  EXPECT_EQ(f.blocks[2].primary_epoch, 7u);
  EXPECT_EQ(entries_of(f.blocks[2]), (Entries{{1, 0, 4}, {1, 1, 3}}));
  EXPECT_TRUE(c.flush_to(3).empty());
}

// Healing: the heartbeat re-notes what a flush already sent, so a lost
// frame's cumulative reports leave again.
TEST(ReportPlane, RenoteAfterFlushReEnters) {
  StabilizerOptions opts;
  opts.retransmit_timeout = millis(20);
  PlaneCase c(1, opts);
  ASSERT_TRUE(c.node->report_stability("persisted", 0, 6));
  const StabilityTypeId p = c.node->types().get_or_register("persisted");
  ASSERT_EQ(c.flush_to(0).size(), 1u);  // t = 5 ms
  c.sim.run_until(c.sim.now() + millis(14));
  const std::vector<Bytes> frames = c.flush_to(0);  // heartbeat at 20 ms
  ASSERT_EQ(frames.size(), 1u);
  const Entries again =
      entries_of(data::decode_report_batch(frames[0]).blocks.at(0));
  EXPECT_NE(std::find(again.begin(), again.end(),
                      std::make_tuple(NodeId{0}, p, SeqNum{6})),
            again.end());
}

TEST(ReportPlane, AbsorbMaxMerges) {
  PlaneCase c(0, PlaneCase::aggregating());
  c.absorb(2, 3, {{0, 0, 10}});
  c.absorb(2, 5, {{0, 0, 8}, {0, 0, 12}, {1, 1, 2}});  // behind, ahead, new
  const std::vector<Bytes> frames = c.flush_to(3);
  ASSERT_EQ(frames.size(), 1u);
  const data::ReportBatchFrame f = data::decode_report_batch(frames[0]);
  ASSERT_EQ(f.blocks.size(), 1u);
  EXPECT_EQ(f.blocks[0].reporter, 2u);
  EXPECT_EQ(f.blocks[0].primary_epoch, 5u);  // epoch max-merged too
  EXPECT_EQ(entries_of(f.blocks[0]), (Entries{{0, 0, 12}, {1, 1, 2}}));
  EXPECT_EQ(counter(*c.node, "control.agg_blocks_absorbed"), 2u);
}

// Hostile input at the aggregator: a member's block may name a type this
// node never registered (legal on the wire) and a stream outside the
// topology. The first is merged and forwarded like any other; the second is
// dropped, and nothing reads or writes outside the grid.
TEST(ReportPlane, AggregatorForwardsOnlyEntriesAboutKnownStreams) {
  PlaneCase c(0, PlaneCase::aggregating());
  c.absorb(1, 0, {{2, 0, 5}, {2, 255, 6}, {4, 0, 7}});
  const std::vector<Bytes> frames = c.flush_to(3);
  ASSERT_EQ(frames.size(), 1u);
  const data::ReportBatchFrame f = data::decode_report_batch(frames[0]);
  ASSERT_EQ(f.blocks.size(), 1u);
  EXPECT_EQ(f.blocks[0].reporter, 1u);
  EXPECT_EQ(entries_of(f.blocks[0]), (Entries{{2, 0, 5}, {2, 255, 6}}));
  // The node keeps working: its own reports still leave.
  ASSERT_TRUE(c.node->report_stability("persisted", 3, 1));
  EXPECT_EQ(c.flush_to(3).size(), 1u);
}

// A mirror of an aggregating AZ flushes to its aggregator alone, and sends
// directly while the aggregator is excluded.
TEST(ReportPlane, MirrorRoutesThroughUsableAggregator) {
  PlaneCase c(1, PlaneCase::aggregating());
  ASSERT_TRUE(c.node->report_stability("persisted", 3, 1));
  c.flush_to(0);
  ASSERT_EQ(c.wire.sent.size(), 1u);
  EXPECT_EQ(c.wire.sent[0].first, 0u);
  c.node->set_peer_excluded(0, true);
  ASSERT_TRUE(c.node->report_stability("persisted", 3, 2));
  c.flush_to(0);
  EXPECT_EQ(c.wire.sent.size(), 2u);  // to n2 and n3
  EXPECT_EQ(counter(*c.node, "control.agg_fallback_direct"), 1u);
}

// --- selective-repeat receive stream (DESIGN.md §4d) ----------------------------

using Log = std::vector<std::string>;

/// Node 1 receiving origin 0's stream from frames written by hand, so a test
/// picks every frame's seq, epoch and sender. Each frame is delivered before
/// the call returns. Node 1's NACKs go to node 0, whose own stream holds
/// nothing, so no resend answers them: only the test fills holes. The
/// retransmit probe is off.
struct RxCase {
  explicit RxCase(size_t window = 256, size_t nodes = 2)
      : f(tiny_topology(nodes), options(window)) {
    f.node(1).set_delivery_handler(
        [this](NodeId origin, SeqNum, BytesView payload, uint64_t) {
          if (origin == 0) log.push_back(to_string(payload));
        });
  }
  static StabilizerOptions options(size_t window) {
    StabilizerOptions o;
    o.retransmit_window = window;
    return o;
  }
  static std::string tag(SeqNum seq) { return "m" + std::to_string(seq); }
  /// DATA seq of stream 0, sent by `from` under `epoch`.
  void data(SeqNum seq, PrimaryEpoch epoch = 0, NodeId from = 0,
            std::string payload = "") {
    if (payload.empty()) payload = tag(seq);
    f.cluster->transport(from).send(
        1, data::encode_data(0, seq, to_bytes(payload), 0, epoch));
    f.sim.run();
  }
  /// One DATABATCH of stream 0 carrying seqs [first, first + count).
  void batch(SeqNum first, size_t count) {
    std::vector<Bytes> payloads;
    for (size_t i = 0; i < count; ++i)
      payloads.push_back(to_bytes(tag(first + static_cast<SeqNum>(i))));
    data::DataBatchFrame b;
    b.origin = 0;
    b.first_seq = first;
    for (const Bytes& p : payloads) b.entries.push_back({BytesView(p), 0});
    f.cluster->transport(0).send(1, data::encode(b));
    f.sim.run();
  }
  SimFixture f;
  Log log;
};

TEST(InStream, HeldFramesDeliverInOrderWhenTheHoleFills) {
  RxCase c;
  c.data(0);
  c.data(2);
  c.data(3);
  EXPECT_EQ(c.log, (Log{"m0"}));
  EXPECT_EQ(c.f.node(1).delivered_through(0), 0);
  c.data(1);
  EXPECT_EQ(c.log, (Log{"m0", "m1", "m2", "m3"}));
  EXPECT_EQ(c.f.node(1).delivered_through(0), 3);
}

TEST(InStream, DataBatchSpanningTheHoleFillsItAndIsHeldPastIt) {
  RxCase c;
  c.data(0);
  c.data(3);
  // Seqs 1 and 2 fill the hole, the held 3 follows, the batch's own 3 is a
  // duplicate of it, and 4 is new.
  c.batch(1, 4);
  EXPECT_EQ(c.log, (Log{"m0", "m1", "m2", "m3", "m4"}));
  // A batch wholly past a hole is held, entry by entry.
  c.batch(6, 2);
  EXPECT_EQ(c.log.size(), 5u);
  c.data(5);
  EXPECT_EQ(c.log, (Log{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7"}));
  EXPECT_EQ(counter(c.f.node(1), "data.duplicates_dropped"), 1u);
}

TEST(InStream, NothingIsHeldPastRetransmitWindow) {
  RxCase c(/*window=*/4);
  c.data(0);
  // Within 4 of the prefix (seq 0): 2, 3 and 4 are held; 5..7 are dropped.
  for (SeqNum s = 2; s <= 7; ++s) c.data(s);
  c.data(1);
  EXPECT_EQ(c.log, (Log{"m0", "m1", "m2", "m3", "m4"}));
  EXPECT_EQ(c.f.node(1).delivered_through(0), 4);
  for (SeqNum s = 5; s <= 7; ++s) c.data(s);
  EXPECT_EQ(c.f.node(1).delivered_through(0), 7);
}

TEST(InStream, DuplicateOfAHeldFrameIsDroppedAndCounted) {
  RxCase c;
  c.data(0);
  c.data(2);
  c.data(2);
  c.data(1);
  EXPECT_EQ(c.log, (Log{"m0", "m1", "m2"}));
  EXPECT_EQ(counter(c.f.node(1), "data.duplicates_dropped"), 1u);
  EXPECT_EQ(counter(c.f.node(1), "data.gaps_detected"), 1u);
}

// Held frames came from the old authority: a takeover discards them, so the
// new primary's messages with the same seqs are the ones delivered. Here
// the takeover also moves the cursor, forward or back.
TEST(InStream, TakeoverCursorDiscardsHeldFrames) {
  {
    // Fast-forward: the new primary (node 2) starts at 2, past the hole at 1.
    RxCase c(256, 3);
    EXPECT_FALSE(c.f.node(1).observe_takeover(0, 2, 1, -2).is_ok());
    c.data(0);
    c.data(3, 0, 0, "old3");
    c.data(4, 0, 0, "old4");
    ASSERT_TRUE(c.f.node(1).observe_takeover(0, 2, 1, 2).is_ok());
    EXPECT_EQ(c.f.node(1).delivered_through(0), 1);
    for (SeqNum s = 2; s <= 4; ++s) c.data(s, 1, 2, "new" + std::to_string(s));
    EXPECT_EQ(c.log, (Log{"m0", "new2", "new3", "new4"}));
  }
  {
    // Rollback: the new primary restarts the stream at 1, below what node 1
    // delivered, and node 1 re-delivers from 1 under the new authority.
    RxCase c(256, 3);
    for (SeqNum s = 0; s <= 2; ++s) c.data(s);
    c.data(4, 0, 0, "old4");
    ASSERT_TRUE(c.f.node(1).observe_takeover(0, 2, 1, 1).is_ok());
    EXPECT_EQ(c.f.node(1).delivered_through(0), 0);
    for (SeqNum s = 1; s <= 4; ++s) c.data(s, 1, 2, "new" + std::to_string(s));
    EXPECT_EQ(c.log,
              (Log{"m0", "m1", "m2", "new1", "new2", "new3", "new4"}));
  }
}

// Every learn of a new epoch discards held frames and the NACKed range,
// whether or not the takeover moves the cursor: the first learn may carry
// no start seq, a start seq right after the prefix moves nothing, and a
// re-announcement never rolls the cursor back.
TEST(InStream, NewEpochDiscardsHeldFramesWhateverTheCursorDoes) {
  const SeqNum starts[][2] = {
      {1, 1}, {kNoSeq, 1}, {kNoSeq, kNoSeq}, {kNoSeq, 0}};
  for (const auto& start : starts) {
    SCOPED_TRACE(std::to_string(start[0]) + "," + std::to_string(start[1]));
    RxCase c(256, 3);
    c.data(0);
    c.data(2, 0, 0, "old2");  // held; NACKs 1 to node 0
    ASSERT_TRUE(c.f.node(1).observe_takeover(0, 2, 1, start[0]).is_ok());
    ASSERT_TRUE(c.f.node(1).observe_takeover(0, 2, 1, start[1]).is_ok());
    EXPECT_EQ(c.f.node(1).delivered_through(0), 0);
    // The new primary's 2 is no duplicate of the old one, and the hole it
    // leaves is NACKed afresh, to node 2.
    c.data(2, 1, 2, "new2");
    c.data(1, 1, 2, "new1");
    EXPECT_EQ(c.log, (Log{"m0", "new1", "new2"}));
    EXPECT_EQ(counter(c.f.node(1), "data.duplicates_dropped"), 0u);
    EXPECT_EQ(counter(c.f.node(1), "data.nacks_sent"), 2u);
  }
}

TEST(InStream, SnapshotRestoreDiscardsHeldFrames) {
  RxCase c;
  c.data(0);
  const Bytes snapshot = c.f.node(1).snapshot_control_state();
  c.data(2);
  ASSERT_TRUE(c.f.node(1).restore_control_state(snapshot).is_ok());
  c.data(1);
  EXPECT_EQ(c.log, (Log{"m0", "m1"}));  // the held 2 went with the restore
  c.data(2);
  EXPECT_EQ(c.log, (Log{"m0", "m1", "m2"}));
}

// The NACK alone repairs each hole, with the retransmit probe off: one NACK
// per hole, and the primary resends exactly the missing range.
TEST(InStream, OneNackPerNewHoleAndTheResendFillsIt) {
  SimFixture f(tiny_topology(3));
  std::vector<SeqNum> log;
  f.node(1).set_delivery_handler(
      [&](NodeId, SeqNum seq, BytesView, uint64_t) { log.push_back(seq); });
  auto send = [&](int count, bool lost) {
    f.cluster->network().set_drop_probability(0, 1, lost ? 1.0 : 0.0);
    for (int i = 0; i < count; ++i) f.node(0).send(to_bytes("m"));
  };
  send(1, true);  // hole at 0
  send(2, false);
  send(2, true);  // hole at 3..4
  send(2, false);
  f.sim.run();
  EXPECT_EQ(log, (std::vector<SeqNum>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(f.node(2).delivered_through(0), 6);
  EXPECT_EQ(counter(f.node(1), "data.nacks_sent"), 2u);
  EXPECT_EQ(counter(f.node(2), "data.nacks_sent"), 0u);
  EXPECT_EQ(counter(f.node(0), "data.retransmits_sent"), 3u);
  EXPECT_EQ(counter(f.node(0), "data.nacks_dropped"), 0u);
}

TEST(InStream, LosslessRunSendsNoNack) {
  StabilizerOptions base;
  base.coalesce_max_frames = 16;
  base.retransmit_timeout = millis(50);
  SimFixture f(tiny_topology(3), base);
  for (int i = 0; i < 50; ++i)
    for (NodeId n = 0; n < 3; ++n) f.node(n).send(to_bytes("m"));
  f.sim.run_until(seconds(2));
  for (NodeId n = 0; n < 3; ++n)
    for (NodeId o = 0; o < 3; ++o) {
      if (o != n) {
        EXPECT_EQ(f.node(n).delivered_through(o), 49);
      }
    }
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(counter(f.node(n), "data.nacks_sent"), 0u) << "node " << n;
    EXPECT_EQ(counter(f.node(n), "data.gaps_detected"), 0u) << "node " << n;
    EXPECT_EQ(counter(f.node(n), "data.retransmits_sent"), 0u)
        << "node " << n;
  }
}

// A NACK resends only from a stream this node sequences, under its current
// epoch, to one of its destinations, and never more than the buffer, what
// the peer was sent and retransmit_window allow.
TEST(InStream, NackHandlerRefusesAndClampsHostileRanges) {
  StabilizerOptions base;
  base.retransmit_window = 4;
  SimFixture f(tiny_topology(3), base);
  // Node 2 never receives stream 0, so node 0 keeps all ten messages.
  f.cluster->network().set_drop_probability(0, 2, 1.0);
  for (int i = 0; i < 10; ++i) f.node(0).send(to_bytes("m"));
  f.sim.run();
  auto nack = [&](NodeId from, NodeId origin, PrimaryEpoch epoch, SeqNum lo,
                  SeqNum hi) {
    f.cluster->transport(from).send(
        0, data::encode(data::NackFrame{origin, epoch, lo, hi}));
    f.sim.run();
  };
  auto dropped = [&] { return counter(f.node(0), "data.nacks_dropped"); };
  auto resent = [&] { return counter(f.node(0), "data.retransmits_sent"); };
  nack(1, 2, 0, 0, 0);  // a stream node 0 does not sequence
  nack(1, 7, 0, 0, 0);  // no such stream
  nack(1, 0, 1, 0, 0);  // another epoch of stream 0
  EXPECT_EQ(dropped(), 3u);
  EXPECT_EQ(resent(), 0u);
  constexpr SeqNum kMax = std::numeric_limits<SeqNum>::max();
  nack(1, 0, 0, kMax - 1, kMax);  // past the buffer: nothing to resend
  EXPECT_EQ(resent(), 0u);
  nack(1, 0, 0, std::numeric_limits<SeqNum>::min(), kMax);
  EXPECT_EQ(resent(), 4u);  // the buffer's first retransmit_window
  EXPECT_EQ(dropped(), 3u);
  f.node(0).set_peer_excluded(2, true);
  nack(2, 0, 0, 0, 3);  // an excluded peer is no destination
  EXPECT_EQ(dropped(), 4u);
  EXPECT_EQ(resent(), 4u);
  EXPECT_EQ(f.node(1).delivered_through(0), 9);
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

// Callbacks that reshape the engine mid-dispatch. A monitor fired from a
// batch's eval phase, while that batch still has "twin" to evaluate,
// registers predicates on a brand-new stability type (growing every
// engine's dense index), reports that type (a single-report dispatch) and
// sends twice. The second send's origin rule is a nested batch on the same
// engine that dirties the three new-type predicates, more entries than any
// batch before it. The new predicate's monitor, fired from inside the
// single-report dispatch, registers a second new type while that dispatch
// is still walking its bucket. Final frontiers must equal the legacy scan's
// on the same script, and every monitor must see monotone values. Firing
// counts differ by design: the legacy scan fires per report.
TEST(Core, ReentrantRegistrationMatchesLegacyScan) {
  using Fires = std::map<std::string, std::vector<SeqNum>>;
  const char* keys[] = {"all", "twin", "v1", "v1self", "v1min", "v2"};
  auto run = [&keys](FrontierEngine::DispatchMode mode, Fires& fires) {
    SimFixture f(tiny_topology(3));
    for (NodeId n = 0; n < 3; ++n)
      for (NodeId o = 0; o < 3; ++o) f.node(n).engine(o).set_dispatch_mode(mode);
    Stabilizer& s = f.node(0);
    auto record = [&fires](const std::string& key) {
      return [&fires, key](SeqNum v, BytesView) { fires[key].push_back(v); };
    };
    EXPECT_TRUE(s.register_predicate("all", "MIN($ALLWNODES)"));
    EXPECT_TRUE(s.register_predicate("twin", "MIN($ALLWNODES)"));
    EXPECT_TRUE(s.monitor_stability_frontier("twin", record("twin")));
    EXPECT_TRUE(s.monitor_stability_frontier("all", [&](SeqNum v, BytesView) {
      fires["all"].push_back(v);
      if (s.has_predicate("v1")) return;
      EXPECT_TRUE(s.register_predicate("v1", "MAX($ALLWNODES.v1)"));
      EXPECT_TRUE(s.register_predicate("v1self", "MAX($MYWNODE.v1)"));
      EXPECT_TRUE(s.register_predicate("v1min", "MIN($MYWNODE.v1)"));
      EXPECT_TRUE(s.monitor_stability_frontier("v1", [&](SeqNum w, BytesView) {
        fires["v1"].push_back(w);
        if (s.has_predicate("v2")) return;
        EXPECT_TRUE(s.register_predicate("v2", "MAX($ALLWNODES.v2)"));
        EXPECT_TRUE(s.monitor_stability_frontier("v2", record("v2")));
        EXPECT_TRUE(s.report_stability("v2", 0, w + 1));
      }));
      // Past the origin rule's cell, so the report dispatches.
      EXPECT_TRUE(s.report_stability("v1", 0, s.last_sent() + 1));
      s.send(to_bytes("chained"));
      s.send(to_bytes("chained"));
    }));
    for (int i = 0; i < 3; ++i)
      for (NodeId n = 0; n < 3; ++n) f.node(n).send(to_bytes("m"));
    f.sim.run();
    std::map<std::string, SeqNum> frontiers;
    for (NodeId n = 0; n < 3; ++n)
      for (NodeId o = 0; o < 3; ++o)
        for (const char* key : keys)
          frontiers[std::to_string(n) + "/" + std::to_string(o) + "/" + key] =
              f.node(n).get_stability_frontier(key, o);
    return frontiers;
  };
  Fires indexed_fires, legacy_fires;
  const auto indexed = run(FrontierEngine::DispatchMode::kIndexed, indexed_fires);
  const auto legacy = run(FrontierEngine::DispatchMode::kLegacyScan, legacy_fires);
  EXPECT_EQ(indexed, legacy);
  for (const char* key : keys)  // the whole script ran
    EXPECT_GE(indexed.at(std::string("0/0/") + key), 0) << key;
  for (const Fires* fires : {&indexed_fires, &legacy_fires}) {
    EXPECT_EQ(fires->size(), 4u);
    for (const auto& [key, values] : *fires)
      EXPECT_TRUE(std::is_sorted(values.begin(), values.end())) << key;
  }
}

TEST(Core, EngineExposesControlPlaneEvalCounters) {
  SimFixture f(tiny_topology(3));
  ASSERT_TRUE(f.node(0).register_predicate("all", "MIN($ALLWNODES)"));
  ASSERT_TRUE(f.node(0).register_predicate("one", "MAX($1)"));
  for (int i = 0; i < 20; ++i) f.node(0).send(to_bytes("m"));
  f.sim.run();
  const FrontierEngine& engine = f.node(0).engine();
  EXPECT_GT(engine.predicate_evals(), 0u);
  // "one" references only node 1's cell: every report about other nodes is
  // index-skipped for it.
  EXPECT_GT(engine.evals_skipped_index(), 0u);
  // MAX predicates bound by the frontier skip provably no-op evals.
  EXPECT_GT(engine.evals_skipped_binding(), 0u);
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

  // The partition heals: node 1 appears, the probe delivers the message,
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
  opts.retransmit_timeout = millis(20);  // heal leg: the probe redelivers
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
