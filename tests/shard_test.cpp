// Sharded multi-primary facade tests (DESIGN.md §9): ShardRouter placement,
// ShardMux envelope demultiplexing over one link, and the ShardedStabilizer
// end-to-end on the simulator — per-shard FIFO delivery, composite
// (min-combine) cross-shard frontiers, the sharded stability suffix,
// waitfor_cut resolution, per-shard fencing isolation, and the muxed
// single-link configuration.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "control/composite_frontier.hpp"
#include "core/stabilizer.hpp"
#include "counter_check.hpp"
#include "data/wire.hpp"
#include "dsl/shard_ref.hpp"
#include "net/sim_transport.hpp"
#include "pubsub/broker.hpp"
#include "shard/shard_mux.hpp"
#include "shard/shard_router.hpp"
#include "shard/sharded_stabilizer.hpp"

namespace stab {
namespace {

using shard::ShardedOptions;
using shard::ShardedStabilizer;
using shard::ShardId;
using shard::ShardMux;
using shard::ShardRouter;
using shard::ShardSeq;
using WaitStatus = Stabilizer::WaitStatus;

// --- ShardRouter --------------------------------------------------------------

TEST(ShardRouter, HashModeIsDeterministicAndInRange) {
  ShardRouter r(4);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key/" + std::to_string(i);
    const uint32_t s = r.shard_of(std::string_view(key));
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, r.shard_of(std::string_view(key)));  // pure function
  }
}

TEST(ShardRouter, HashModeSpreadsAcrossEveryShard) {
  ShardRouter r(4);
  std::set<uint32_t> hit;
  for (int i = 0; i < 1000; ++i)
    hit.insert(r.shard_of(std::string_view("key/" + std::to_string(i))));
  EXPECT_EQ(hit.size(), 4u);
}

TEST(ShardRouter, StringAndByteViewsAgree) {
  ShardRouter r(8);
  const std::string key = "some/topic";
  BytesView bytes(reinterpret_cast<const uint8_t*>(key.data()), key.size());
  EXPECT_EQ(r.shard_of(std::string_view(key)), r.shard_of(bytes));
}

TEST(ShardRouter, ZeroShardsClampsToOne) {
  ShardRouter r(0);
  EXPECT_EQ(r.num_shards(), 1u);
  EXPECT_EQ(r.shard_of(std::string_view("anything")), 0u);
}

TEST(ShardRouter, RangeModePreservesKeyOrder) {
  ShardRouter r(4, ShardRouter::Mode::kRange);
  uint32_t prev = 0;
  for (int c = 0; c < 256; ++c) {
    const std::string key(1, static_cast<char>(c));
    const uint32_t s = r.shard_of(std::string_view(key));
    EXPECT_LT(s, 4u);
    EXPECT_GE(s, prev) << "lexicographic order broken at byte " << c;
    prev = s;
  }
  EXPECT_EQ(prev, 3u);  // the top of the keyspace reaches the last shard
}

// --- SHARD wire envelope -------------------------------------------------------

TEST(ShardEnvelope, RoundTrips) {
  const Bytes inner = to_bytes("payload bytes");
  const Bytes framed = data::encode_shard_frame(3, inner);
  ASSERT_TRUE(data::is_shard_frame(framed));
  const data::ShardFrameView v = data::decode_shard_view(framed);
  EXPECT_EQ(v.shard, 3u);
  EXPECT_EQ(to_string(v.inner), "payload bytes");
  EXPECT_EQ(framed.size(), data::kShardEnvelopeBytes + inner.size());
}

TEST(ShardEnvelope, RejectsOverflowAndForeignFrames) {
  EXPECT_THROW(data::encode_shard_frame(0x10000, to_bytes("x")), CodecError);
  EXPECT_FALSE(data::is_shard_frame(to_bytes("")));
  EXPECT_FALSE(data::is_shard_frame(to_bytes("\x01raw data frame")));
  EXPECT_THROW(data::decode_shard_view(to_bytes("\x01not a shard frame")),
               CodecError);
}

// --- ShardMux -----------------------------------------------------------------

Topology pair_topology() {
  Topology t;
  t.add_node("n0", "az0");
  t.add_node("n1", "az1");
  LinkSpec s;
  s.latency = from_ms(1);
  t.set_link(0, 1, s);
  t.set_link(1, 0, s);
  return t;
}

struct MuxFixture {
  MuxFixture() : cluster(pair_topology(), sim) {
    mux0 = std::make_unique<ShardMux>(cluster.transport(0), 2);
    mux1 = std::make_unique<ShardMux>(cluster.transport(1), 2);
  }
  sim::Simulator sim;
  SimCluster cluster;
  std::unique_ptr<ShardMux> mux0, mux1;
};

TEST(ShardMux, RoutesToExactlyTheTaggedFacet) {
  MuxFixture f;
  std::vector<std::pair<uint32_t, std::string>> got;
  for (uint32_t s = 0; s < 2; ++s)
    f.mux1->facet(s).set_receive_handler(
        [&got, s](NodeId src, BytesView frame, uint64_t) {
          EXPECT_EQ(src, 0u);
          got.emplace_back(s, to_string(frame));
        });
  f.mux0->facet(1).send(1, to_bytes("for shard one"));
  f.mux0->facet(0).send(1, to_bytes("for shard zero"));
  f.sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<uint32_t, std::string>{1, "for shard one"}));
  EXPECT_EQ(got[1], (std::pair<uint32_t, std::string>{0, "for shard zero"}));
  EXPECT_EQ(f.mux1->frames_demuxed(), 2u);
  EXPECT_EQ(f.mux1->unroutable_drops(), 0u);
}

TEST(ShardMux, CountsUnroutableFrames) {
  MuxFixture f;
  f.mux1->facet(0).set_receive_handler([](NodeId, BytesView, uint64_t) {});
  // Untagged frame straight onto the base link.
  f.cluster.transport(0).send(1, to_bytes("no envelope"));
  // Tagged for a shard beyond num_shards.
  f.cluster.transport(0).send(1, data::encode_shard_frame(7, to_bytes("x")));
  // Tagged for facet 1, which never armed a handler.
  f.mux0->facet(1).send(1, to_bytes("nobody home"));
  // Envelopes too short to hold the u16 shard id: dropped, not thrown.
  f.cluster.transport(0).send(1, Bytes{data::kShardEnvelopeKind});
  f.cluster.transport(0).send(1, Bytes{data::kShardEnvelopeKind, 0});
  f.sim.run();
  EXPECT_EQ(f.mux1->frames_demuxed(), 0u);
  EXPECT_EQ(f.mux1->unroutable_drops(), 5u);
}

TEST(ShardMux, SendSharedWrapsLikeSend) {
  MuxFixture f;
  std::string got;
  uint64_t got_wire = 0;
  f.mux1->facet(1).set_receive_handler(
      [&](NodeId, BytesView frame, uint64_t wire) {
        got = to_string(frame);
        got_wire = wire;
      });
  auto shared = std::make_shared<const Bytes>(to_bytes("shared payload"));
  f.mux0->facet(1).send_shared(1, shared, /*wire_size=*/100);
  f.sim.run();
  EXPECT_EQ(got, "shared payload");
  // The envelope's bytes are charged on the link, then stripped back off
  // before the facet handler sees the wire size.
  EXPECT_EQ(got_wire, 100u);
}

// --- ShardedStabilizer over per-shard sim networks ----------------------------

Topology shard_mesh(size_t n) {
  Topology t;
  for (size_t i = 0; i < n; ++i)
    t.add_node("n" + std::to_string(i), "r" + std::to_string(i));
  LinkSpec s;
  s.latency = from_ms(5);
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = 0; b < n; ++b)
      if (a != b) t.set_link(a, b, s);
  return t;
}

StabilizerOptions shard_base_options() {
  StabilizerOptions o;
  o.ack_interval = millis(2);
  o.broadcast_acks = true;
  return o;
}

/// N nodes x S shards in scale-out shape: one SimNetwork per shard over the
/// shared simulator, so shard s's traffic travels its own links.
struct ShardedSimFixture {
  ShardedSimFixture(size_t n, uint32_t num_shards,
                    StabilizerOptions base = shard_base_options())
      : topo(shard_mesh(n)) {
    for (uint32_t s = 0; s < num_shards; ++s)
      clusters.push_back(std::make_unique<SimCluster>(topo, sim));
    for (NodeId id = 0; id < n; ++id) {
      ShardedOptions opts;
      opts.base = base;
      opts.base.topology = topo;
      opts.base.self = id;
      opts.num_shards = num_shards;
      std::vector<Transport*> transports;
      for (auto& c : clusters) transports.push_back(&c->transport(id));
      nodes.push_back(
          std::make_unique<ShardedStabilizer>(std::move(opts), transports));
    }
  }
  ShardedStabilizer& node(NodeId id) { return *nodes.at(id); }

  /// A routing key that lands on shard `s` under node 0's router.
  std::string key_for_shard(uint32_t s) const {
    const ShardRouter& r = nodes.at(0)->router();
    for (int i = 0;; ++i) {
      std::string k = "k" + std::to_string(i);
      if (r.shard_of(std::string_view(k)) == s) return k;
    }
  }

  Topology topo;
  sim::Simulator sim;
  std::vector<std::unique_ptr<SimCluster>> clusters;
  std::vector<std::unique_ptr<ShardedStabilizer>> nodes;
};

TEST(ShardedStabilizer, RoutesByKeyWithPerShardFifoDelivery) {
  ShardedSimFixture f(2, 2);
  // [shard] -> seqs delivered at node 1, in arrival order.
  std::map<ShardId, std::vector<SeqNum>> got;
  f.node(1).set_delivery_handler(
      [&](ShardId shard, NodeId origin, SeqNum seq, BytesView, uint64_t) {
        EXPECT_EQ(origin, 0u);
        got[shard].push_back(seq);
      });

  const std::string k0 = f.key_for_shard(0), k1 = f.key_for_shard(1);
  std::map<ShardId, int> sent;
  for (int i = 0; i < 6; ++i) {
    const std::string& k = (i % 2 == 0) ? k0 : k1;
    const ShardSeq ss = f.node(0).send(k, to_bytes("m" + std::to_string(i)));
    EXPECT_EQ(ss.shard, f.node(0).shard_of(std::string_view(k)));
    EXPECT_EQ(ss.seq, sent[ss.shard]++);  // dense per-shard sequence space
  }
  f.sim.run();

  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::vector<SeqNum>{0, 1, 2}));
  EXPECT_EQ(got[1], (std::vector<SeqNum>{0, 1, 2}));
  EXPECT_EQ(counter(f.node(0).shard(0), "core.messages_sent") +
                counter(f.node(0).shard(1), "core.messages_sent"),
            6u);
}

TEST(ShardedStabilizer, CompositeFrontierMinCombinesAcrossShards) {
  ShardedSimFixture f(2, 2);
  ASSERT_TRUE(f.node(0).register_predicate("all", "MIN($ALLWNODES)").is_ok());

  // Uneven load: 3 messages on shard 0, 1 on shard 1.
  for (int i = 0; i < 3; ++i) f.node(0).send_to_shard(0, to_bytes("a"));
  f.node(0).send_to_shard(1, to_bytes("b"));
  f.sim.run();

  EXPECT_EQ(f.node(0).get_stability_frontier("all@0"), 2);
  EXPECT_EQ(f.node(0).get_stability_frontier("all@1"), 0);
  // Composite = min over shards; "all" and "all@all" are the same reference.
  EXPECT_EQ(f.node(0).get_stability_frontier("all"), 0);
  EXPECT_EQ(f.node(0).get_stability_frontier("all@all"), 0);
  EXPECT_EQ(f.node(0).frontier_vector("all"), (control::ShardCut{2, 0}));

  // Out-of-range shard and malformed references answer kNoSeq.
  EXPECT_EQ(f.node(0).get_stability_frontier("all@7"), kNoSeq);
  EXPECT_EQ(f.node(0).get_stability_frontier("all@@1"), kNoSeq);
  EXPECT_EQ(f.node(0).get_stability_frontier("@1"), kNoSeq);
}

TEST(ShardedStabilizer, CompositeNeverExceedsAnyMemberShard) {
  ShardedSimFixture f(2, 2);
  ASSERT_TRUE(f.node(0).register_predicate("all", "MIN($ALLWNODES)").is_ok());
  // Shard 1 never sends: its frontier stays kNoSeq, which must dominate.
  for (int i = 0; i < 4; ++i) f.node(0).send_to_shard(0, to_bytes("a"));
  f.sim.run();
  EXPECT_EQ(f.node(0).get_stability_frontier("all@0"), 3);
  EXPECT_EQ(f.node(0).get_stability_frontier("all"), kNoSeq);
}

TEST(ShardedStabilizer, WaitforCutResolvesOnceEveryShardCovers) {
  ShardedSimFixture f(2, 2);
  ASSERT_TRUE(f.node(0).register_predicate("all", "MIN($ALLWNODES)").is_ok());
  f.node(0).send_to_shard(0, to_bytes("a"));
  f.node(0).send_to_shard(0, to_bytes("b"));
  f.node(0).send_to_shard(1, to_bytes("c"));

  int fired = 0;
  WaitStatus result = WaitStatus::kTimeout;
  ASSERT_TRUE(f.node(0)
                  .waitfor_cut(f.node(0).cut(), "all",
                               [&](WaitStatus s) {
                                 ++fired;
                                 result = s;
                               })
                  .is_ok());
  EXPECT_EQ(fired, 0);  // nothing acked yet
  f.sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(result, WaitStatus::kOk);
}

TEST(ShardedStabilizer, EmptyOrSentinelOnlyCutResolvesImmediately) {
  ShardedSimFixture f(2, 2);
  ASSERT_TRUE(f.node(0).register_predicate("all", "MIN($ALLWNODES)").is_ok());
  int fired = 0;
  WaitStatus result = WaitStatus::kTimeout;
  auto fn = [&](WaitStatus s) {
    ++fired;
    result = s;
  };
  ASSERT_TRUE(f.node(0).waitfor_cut({}, "all", fn).is_ok());
  ASSERT_TRUE(f.node(0).waitfor_cut({kNoSeq, kNoSeq}, "all", fn).is_ok());
  EXPECT_EQ(fired, 2);  // both vacuous, both kOk, no network needed
  EXPECT_EQ(result, WaitStatus::kOk);
}

TEST(ShardedStabilizer, PredicateFanoutAndAtSignRejection) {
  ShardedSimFixture f(2, 2);
  EXPECT_FALSE(f.node(0).register_predicate("bad@key", "MIN($ALLWNODES)")
                   .is_ok());
  EXPECT_FALSE(f.node(0).register_predicate("nonsense", "MIN(")
                   .is_ok());
  EXPECT_FALSE(f.node(0).has_predicate("nonsense"));

  ASSERT_TRUE(f.node(0).register_predicate("ok", "MIN($ALLWNODES)").is_ok());
  EXPECT_TRUE(f.node(0).has_predicate("ok"));
  // The fanout reached every shard instance, not just shard 0.
  for (uint32_t s = 0; s < 2; ++s)
    EXPECT_TRUE(f.node(0).shard(s).has_predicate("ok")) << "shard " << s;
  ASSERT_TRUE(f.node(0).remove_predicate("ok").is_ok());
  for (uint32_t s = 0; s < 2; ++s)
    EXPECT_FALSE(f.node(0).shard(s).has_predicate("ok")) << "shard " << s;
}

// Deposing one shard's primary fences exactly that shard: its composite
// waiters fail with kFenced while the other shard keeps sending and its
// frontier keeps advancing (the per-shard failover domain of DESIGN.md §9;
// the full protocol drives this same transition in chaos_test's sharded
// campaign).
TEST(ShardedStabilizer, FencedShardFailsCutWaitersWithoutTouchingOthers) {
  ShardedSimFixture f(2, 2);
  ASSERT_TRUE(f.node(0).register_predicate("all", "MIN($ALLWNODES)").is_ok());
  f.node(0).send_to_shard(0, to_bytes("a"));
  f.node(0).send_to_shard(1, to_bytes("b"));
  f.sim.run();

  // A committed takeover of node 0's stream lands on shard 1 only.
  for (NodeId id = 0; id < 2; ++id)
    ASSERT_TRUE(f.node(id)
                    .shard(1)
                    .observe_takeover(/*origin=*/0, /*new_primary=*/1,
                                      /*epoch=*/1, /*start_seq=*/1)
                    .is_ok());
  EXPECT_TRUE(f.node(0).shard(1).self_fenced());
  EXPECT_FALSE(f.node(0).shard(0).self_fenced());

  // The fenced shard refuses sends; the healthy shard does not.
  EXPECT_EQ(f.node(0).send_to_shard(1, to_bytes("zombie")).seq, kFencedSeq);
  const ShardSeq ok = f.node(0).send_to_shard(0, to_bytes("alive"));
  EXPECT_EQ(ok.seq, 1);

  // A cut spanning both shards fails fast with kFenced (shard 1's waiter),
  // even though shard 0's member could still be satisfied.
  int fired = 0;
  WaitStatus result = WaitStatus::kTimeout;
  ASSERT_TRUE(f.node(0)
                  .waitfor_cut({ok.seq, 5}, "all",
                               [&](WaitStatus s) {
                                 ++fired;
                                 result = s;
                               })
                  .is_ok());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(result, WaitStatus::kFenced);

  // Shard 0 alone still reaches stability: the fence did not leak across.
  f.sim.run();
  EXPECT_EQ(f.node(0).get_stability_frontier("all@0"), ok.seq);
}

// --- muxed single-link configuration ------------------------------------------

TEST(ShardedStabilizer, MuxedConfigurationMatchesScaleOutSemantics) {
  sim::Simulator sim;
  Topology topo = shard_mesh(2);
  SimCluster cluster(topo, sim);
  std::vector<std::unique_ptr<ShardedStabilizer>> nodes;
  for (NodeId id = 0; id < 2; ++id) {
    ShardedOptions opts;
    opts.base = shard_base_options();
    opts.base.topology = topo;
    opts.base.self = id;
    opts.num_shards = 2;
    nodes.push_back(std::make_unique<ShardedStabilizer>(
        std::move(opts), cluster.transport(id)));
  }
  ASSERT_NE(nodes[0]->mux(), nullptr);
  ASSERT_TRUE(nodes[0]->register_predicate("all", "MIN($ALLWNODES)").is_ok());

  std::map<ShardId, std::vector<SeqNum>> got;
  nodes[1]->set_delivery_handler(
      [&](ShardId shard, NodeId, SeqNum seq, BytesView, uint64_t) {
        got[shard].push_back(seq);
      });
  for (int i = 0; i < 3; ++i) nodes[0]->send_to_shard(0, to_bytes("a"));
  for (int i = 0; i < 3; ++i) nodes[0]->send_to_shard(1, to_bytes("b"));
  sim.run();

  EXPECT_EQ(got[0], (std::vector<SeqNum>{0, 1, 2}));
  EXPECT_EQ(got[1], (std::vector<SeqNum>{0, 1, 2}));
  // Both shards' streams (and their ack traffic) traveled SHARD-enveloped
  // through each node's mux; nothing arrived untagged or misaddressed.
  EXPECT_GT(nodes[1]->mux()->frames_demuxed(), 0u);
  EXPECT_EQ(nodes[1]->mux()->unroutable_drops(), 0u);
  EXPECT_EQ(nodes[0]->mux()->unroutable_drops(), 0u);
  // Acks flowed back through the mux: the composite frontier converged.
  EXPECT_EQ(nodes[0]->get_stability_frontier("all"), 2);
}

// --- satellite integrations ---------------------------------------------------

TEST(ShardedStabilizer, BrokerTopicRoutingAgreesWithRouter) {
  ShardRouter router(4);
  for (const std::string topic : {"orders", "telemetry", "audit/eu", ""}) {
    EXPECT_EQ(pubsub::Broker::shard_of_topic(topic, router),
              router.shard_of(std::string_view(topic)))
        << topic;
  }
}

TEST(ShardedStabilizer, EachShardRegistryCountsItsOwnStream) {
  ShardedSimFixture f(2, 2);
  f.node(0).send_to_shard(0, to_bytes("a"));
  f.node(0).send_to_shard(1, to_bytes("b"));
  f.node(0).send_to_shard(1, to_bytes("c"));
  f.sim.run();
  // A sharded node's counters live in one registry per shard, labelled
  // with the shard id.
  for (ShardId s = 0; s < 2; ++s)
    EXPECT_EQ(f.node(0).shard(s).metrics().shard(), static_cast<int>(s));
  EXPECT_EQ(counter(f.node(0).shard(0), "core.messages_sent"), 1u);
  EXPECT_EQ(counter(f.node(0).shard(1), "core.messages_sent"), 2u);
}

}  // namespace
}  // namespace stab
