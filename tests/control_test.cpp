// Control plane tests: stability-type registry, AckTable monotonic merge,
// FrontierEngine (register/change/monitor/waitfor, incremental re-eval,
// predicate-gap semantics), and property tests on monotonicity.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "config/topology.hpp"
#include "control/ack_cells.hpp"
#include "control/composite_frontier.hpp"
#include "control/frontier_board.hpp"
#include "control/frontier_engine.hpp"

namespace stab {
namespace {

TEST(StabilityTypes, BuiltinsPreRegistered) {
  StabilityTypeRegistry reg;
  EXPECT_EQ(reg.find("received"), StabilityTypeRegistry::kReceived);
  EXPECT_EQ(reg.find("persisted"), StabilityTypeRegistry::kPersisted);
  EXPECT_EQ(reg.find("delivered"), StabilityTypeRegistry::kDelivered);
  EXPECT_EQ(reg.count(), 3u);
}

TEST(StabilityTypes, RegistersNewTypesIdempotently) {
  StabilityTypeRegistry reg;
  StabilityTypeId a = reg.get_or_register("verified");
  StabilityTypeId b = reg.get_or_register("verified");
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.name(a), "verified");
  EXPECT_EQ(reg.count(), 4u);
  EXPECT_FALSE(reg.find("countersigned").has_value());
}

TEST(AckTable, MonotonicMerge) {
  AckTable t(4);
  EXPECT_TRUE(t.update(0, 1, 10));
  EXPECT_EQ(t.get(0, 1), 10);
  EXPECT_FALSE(t.update(0, 1, 10));  // no change
  EXPECT_FALSE(t.update(0, 1, 5));   // stale report ignored
  EXPECT_EQ(t.get(0, 1), 10);
  EXPECT_TRUE(t.update(0, 1, 11));
  EXPECT_EQ(t.get(0, 1), 11);
}

TEST(AckTable, UnsetCellsReadNoSeq) {
  AckTable t(4);
  EXPECT_EQ(t.get(0, 0), kNoSeq);
  EXPECT_EQ(t.get(7, 2), kNoSeq);  // unknown type
  EXPECT_TRUE(t.row(9).empty());
}

TEST(AckTable, OutOfRangeNodeIgnored) {
  AckTable t(2);
  EXPECT_FALSE(t.update(0, 5, 3));
}

TEST(AckTable, RowsGrowPerType) {
  AckTable t(3);
  t.update(4, 2, 9);
  EXPECT_EQ(t.num_types(), 5u);
  auto row = t.row(4);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[2], 9);
  EXPECT_EQ(row[0], kNoSeq);
}

// --- FrontierEngine -----------------------------------------------------------

class FrontierTest : public ::testing::Test {
 protected:
  FrontierTest()
      : topo_(ec2_topology()), engine_(topo_, 0, types_) {}
  Topology topo_;
  StabilityTypeRegistry types_;
  FrontierEngine engine_;
};

TEST_F(FrontierTest, RegisterAndEvaluate) {
  ASSERT_TRUE(engine_.register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));
  EXPECT_TRUE(engine_.has_predicate("all"));
  EXPECT_EQ(engine_.frontier("all"), kNoSeq);

  for (NodeId n = 1; n < 8; ++n) engine_.on_ack(0, n, 5);
  EXPECT_EQ(engine_.frontier("all"), 5);
}

TEST_F(FrontierTest, DuplicateRegisterFails) {
  ASSERT_TRUE(engine_.register_predicate("p", "MAX($ALLWNODES)"));
  Status st = engine_.register_predicate("p", "MIN($ALLWNODES)");
  EXPECT_FALSE(st.is_ok());
  EXPECT_NE(st.message().find("already registered"), std::string::npos);
}

TEST_F(FrontierTest, BadSourceFails) {
  EXPECT_FALSE(engine_.register_predicate("p", "NOPE($1)").is_ok());
  EXPECT_FALSE(engine_.has_predicate("p"));
}

TEST_F(FrontierTest, UnknownKeyOperations) {
  EXPECT_FALSE(engine_.change_predicate("x", "MAX($1)").is_ok());
  EXPECT_FALSE(engine_.remove_predicate("x").is_ok());
  EXPECT_FALSE(engine_.monitor("x", [](SeqNum, BytesView) {}).is_ok());
  EXPECT_FALSE(engine_.waitfor("x", 1, [](SeqNum) {}).is_ok());
  EXPECT_EQ(engine_.frontier("x"), kNoSeq);
}

TEST_F(FrontierTest, MonitorFiresOnAdvance) {
  ASSERT_TRUE(engine_.register_predicate("one", "MAX($ALLWNODES-$MYWNODE)"));
  std::vector<SeqNum> seen;
  ASSERT_TRUE(engine_.monitor(
      "one", [&](SeqNum f, BytesView) { seen.push_back(f); }));

  engine_.on_ack(0, 3, 2);
  engine_.on_ack(0, 4, 1);  // MAX already 2: no advance, no fire
  engine_.on_ack(0, 4, 7);
  EXPECT_EQ(seen, (std::vector<SeqNum>{2, 7}));
}

TEST_F(FrontierTest, MonitorReceivesExtraBytes) {
  ASSERT_TRUE(engine_.register_predicate("one", "MAX($ALLWNODES-$MYWNODE)"));
  std::string got;
  ASSERT_TRUE(engine_.monitor("one", [&](SeqNum, BytesView extra) {
    got = to_string(extra);
  }));
  Bytes extra = to_bytes("app-data");
  engine_.on_ack(0, 2, 1, extra);
  EXPECT_EQ(got, "app-data");
}

// A monitor that adds monitors on its own key while it runs must not pull
// its own storage out from under itself; the added ones fire from the next
// advance on. The monitor's one capture is stored inside its std::function,
// so when the monitors lived in a vector that reallocated mid-call, the
// capture read after the additions was a heap-use-after-free under ASan.
TEST_F(FrontierTest, MonitorAddingMonitorsOnItsOwnKeyIsSafe) {
  ASSERT_TRUE(engine_.register_predicate("any", "MAX($ALLWNODES-$MYWNODE)"));
  struct State {
    FrontierEngine* engine;
    std::vector<SeqNum> seen;
    int added_fired = 0;
  } st{&engine_, {}, 0};
  ASSERT_TRUE(engine_.monitor("any", [&st](SeqNum f, BytesView) {
    if (st.seen.empty())
      for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(st.engine
                        ->monitor("any",
                                  [&st](SeqNum, BytesView) {
                                    ++st.added_fired;
                                  })
                        .is_ok());
    st.seen.push_back(f);
  }));
  engine_.on_ack(0, 1, 1);
  EXPECT_EQ(st.seen, (std::vector<SeqNum>{1}));
  EXPECT_EQ(st.added_fired, 0);
  engine_.on_ack(0, 1, 2);
  EXPECT_EQ(st.seen, (std::vector<SeqNum>{1, 2}));
  EXPECT_EQ(st.added_fired, 8);
}

TEST_F(FrontierTest, WaitforFiresOnceAtCoverage) {
  ASSERT_TRUE(engine_.register_predicate("maj",
      "KTH_MAX(SIZEOF($ALLWNODES)/2+1,($ALLWNODES-$MYWNODE))"));
  int fired = 0;
  SeqNum at = kNoSeq;
  ASSERT_TRUE(engine_.waitfor("maj", 10, [&](SeqNum f) {
    ++fired;
    at = f;
  }));
  // majority = 5 of the 7 remote nodes
  for (NodeId n = 1; n <= 4; ++n) engine_.on_ack(0, n, 12);
  EXPECT_EQ(fired, 0);  // only 4 remotes at 12
  engine_.on_ack(0, 5, 12);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(at, 12);
  engine_.on_ack(0, 6, 50);
  EXPECT_EQ(fired, 1);  // never re-fires
}

TEST_F(FrontierTest, WaitforAlreadySatisfiedFiresImmediately) {
  ASSERT_TRUE(engine_.register_predicate("one", "MAX($ALLWNODES-$MYWNODE)"));
  engine_.on_ack(0, 2, 9);
  int fired = 0;
  ASSERT_TRUE(engine_.waitfor("one", 5, [&](SeqNum f) {
    ++fired;
    EXPECT_EQ(f, 9);
  }));
  EXPECT_EQ(fired, 1);
}

TEST_F(FrontierTest, WaitersWakeInSeqOrder) {
  ASSERT_TRUE(engine_.register_predicate("one", "MAX($ALLWNODES-$MYWNODE)"));
  std::vector<int> order;
  engine_.waitfor("one", 30, [&](SeqNum) { order.push_back(30); });
  engine_.waitfor("one", 10, [&](SeqNum) { order.push_back(10); });
  engine_.waitfor("one", 20, [&](SeqNum) { order.push_back(20); });
  engine_.on_ack(0, 1, 25);
  EXPECT_EQ(order, (std::vector<int>{10, 20}));
  engine_.on_ack(0, 1, 30);
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
}

TEST_F(FrontierTest, ChangePredicateRecomputesAndMayRegress) {
  // §VI-D dynamic reconfiguration: all_sites <-> three_sites.
  ASSERT_TRUE(engine_.register_predicate(
      "p", "KTH_MAX(3,($ALLWNODES-$MYWNODE))"));
  engine_.on_ack(0, 1, 100);
  engine_.on_ack(0, 2, 100);
  engine_.on_ack(0, 3, 100);
  EXPECT_EQ(engine_.frontier("p"), 100);

  // Switch to all-sites: only 3 of 7 remotes have acked -> regress to kNoSeq.
  ASSERT_TRUE(engine_.change_predicate("p", "MIN($ALLWNODES-$MYWNODE)"));
  EXPECT_EQ(engine_.frontier("p"), kNoSeq);

  // Remaining sites catch up; frontier recovers.
  for (NodeId n = 4; n < 8; ++n) engine_.on_ack(0, n, 90);
  EXPECT_EQ(engine_.frontier("p"), 90);
}

TEST_F(FrontierTest, ChangePredicateKeepsWaiters) {
  ASSERT_TRUE(engine_.register_predicate("p", "MIN($ALLWNODES-$MYWNODE)"));
  int fired = 0;
  engine_.waitfor("p", 5, [&](SeqNum) { ++fired; });
  // Weaken the predicate: now a single remote ack suffices.
  ASSERT_TRUE(engine_.change_predicate("p", "MAX($ALLWNODES-$MYWNODE)"));
  engine_.on_ack(0, 6, 7);
  EXPECT_EQ(fired, 1);
}

TEST_F(FrontierTest, RemovePredicate) {
  ASSERT_TRUE(engine_.register_predicate("p", "MAX($ALLWNODES)"));
  ASSERT_TRUE(engine_.remove_predicate("p"));
  EXPECT_FALSE(engine_.has_predicate("p"));
  EXPECT_EQ(engine_.frontier("p"), kNoSeq);
}

TEST_F(FrontierTest, AutoRegistersCustomTypes) {
  ASSERT_TRUE(
      engine_.register_predicate("v", "MIN(($ALLWNODES-$MYWNODE).verified)"));
  auto id = types_.find("verified");
  ASSERT_TRUE(id.has_value());
  for (NodeId n = 1; n < 8; ++n) engine_.on_ack(*id, n, 3);
  EXPECT_EQ(engine_.frontier("v"), 3);
  // received acks don't move a verified-only predicate
  for (NodeId n = 1; n < 8; ++n) engine_.on_ack(0, n, 99);
  EXPECT_EQ(engine_.frontier("v"), 3);
}

TEST_F(FrontierTest, IncrementalSkipsUnrelatedPredicates) {
  ASSERT_TRUE(engine_.register_predicate("oregon", "MAX($AZ_Oregon)"));
  uint64_t evals = engine_.predicate_evals();
  // Acks from a node the predicate doesn't reference: no evaluation.
  engine_.on_ack(0, 2, 5);
  EXPECT_EQ(engine_.predicate_evals(), evals);
  engine_.on_ack(0, 6, 5);  // node 7 = Oregon
  EXPECT_EQ(engine_.predicate_evals(), evals + 1);
}

TEST_F(FrontierTest, StaleAckDoesNothing) {
  ASSERT_TRUE(engine_.register_predicate("one", "MAX($ALLWNODES-$MYWNODE)"));
  EXPECT_TRUE(engine_.on_ack(0, 1, 10));
  uint64_t evals = engine_.predicate_evals();
  EXPECT_FALSE(engine_.on_ack(0, 1, 4));
  EXPECT_EQ(engine_.predicate_evals(), evals);
}

TEST_F(FrontierTest, MultipleMonitors) {
  ASSERT_TRUE(engine_.register_predicate("p", "MAX($ALLWNODES-$MYWNODE)"));
  int a = 0, b = 0;
  engine_.monitor("p", [&](SeqNum, BytesView) { ++a; });
  engine_.monitor("p", [&](SeqNum, BytesView) { ++b; });
  engine_.on_ack(0, 1, 1);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

TEST_F(FrontierTest, PredicateKeysListed) {
  engine_.register_predicate("a", "MAX($1)");
  engine_.register_predicate("b", "MAX($2)");
  auto keys = engine_.predicate_keys();
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
  EXPECT_NE(engine_.predicate("a"), nullptr);
  EXPECT_EQ(engine_.predicate("zz"), nullptr);
}

// --- indexed dispatch / batch apply (control-plane hot path) -----------------

TEST_F(FrontierTest, RemovePredicateFailsPendingWaiters) {
  ASSERT_TRUE(engine_.register_predicate("p", "MIN($ALLWNODES-$MYWNODE)"));
  std::vector<SeqNum> fired;
  engine_.waitfor("p", 10, [&](SeqNum f) { fired.push_back(f); });
  engine_.waitfor("p", 20, [&](SeqNum f) { fired.push_back(f); });
  ASSERT_TRUE(engine_.remove_predicate("p"));
  // Every pending waiter fires exactly once with kNoSeq ("predicate
  // removed"), so blocking callers cannot hang forever.
  EXPECT_EQ(fired, (std::vector<SeqNum>{kNoSeq, kNoSeq}));
  // Re-registering does not resurrect the failed waiters.
  ASSERT_TRUE(engine_.register_predicate("p", "MAX($ALLWNODES-$MYWNODE)"));
  engine_.on_ack(0, 1, 100);
  EXPECT_EQ(fired.size(), 2u);
}

TEST_F(FrontierTest, BatchAppliesWholeFrameWithOneEvalPerPredicate) {
  ASSERT_TRUE(engine_.register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));
  ASSERT_TRUE(engine_.register_predicate("any", "MAX($ALLWNODES-$MYWNODE)"));
  std::vector<SeqNum> monitor_all, monitor_any;
  engine_.monitor("all", [&](SeqNum f, BytesView) { monitor_all.push_back(f); });
  engine_.monitor("any", [&](SeqNum f, BytesView) { monitor_any.push_back(f); });

  std::vector<AckUpdate> batch;
  for (NodeId n = 1; n < 8; ++n) batch.push_back(AckUpdate{0, n, 5, {}});
  uint64_t evals0 = engine_.predicate_evals();
  EXPECT_EQ(engine_.on_ack_batch(batch), 7u);
  // The batch max-merges first, then each affected predicate evaluates at
  // most once (binding skips can reduce further; "any" is bound after the
  // first cell).
  EXPECT_LE(engine_.predicate_evals() - evals0, 2u);
  EXPECT_EQ(engine_.frontier("all"), 5);
  EXPECT_EQ(engine_.frontier("any"), 5);
  // Monitors observe the coalesced (final) frontier exactly once.
  EXPECT_EQ(monitor_all, (std::vector<SeqNum>{5}));
  EXPECT_EQ(monitor_any, (std::vector<SeqNum>{5}));
}

TEST_F(FrontierTest, BatchStaleEntriesDoNotDispatch) {
  ASSERT_TRUE(engine_.register_predicate("any", "MAX($ALLWNODES-$MYWNODE)"));
  engine_.on_ack(0, 1, 10);
  uint64_t evals0 = engine_.predicate_evals();
  std::vector<AckUpdate> batch{AckUpdate{0, 1, 4, {}},   // stale
                               AckUpdate{0, 1, 10, {}}};  // no advance
  EXPECT_EQ(engine_.on_ack_batch(batch), 0u);
  EXPECT_EQ(engine_.predicate_evals(), evals0);
}

TEST_F(FrontierTest, BindingCacheSkipsEvalsThatCannotRaise) {
  ASSERT_TRUE(engine_.register_predicate("any", "MAX($ALLWNODES-$MYWNODE)"));
  engine_.on_ack(0, 1, 10);
  EXPECT_EQ(engine_.frontier("any"), 10);
  uint64_t evals0 = engine_.predicate_evals();
  uint64_t skips0 = engine_.evals_skipped_binding();
  // Advances a cell, but 5 <= frontier 10: MAX provably unchanged.
  EXPECT_TRUE(engine_.on_ack(0, 2, 5));
  EXPECT_EQ(engine_.predicate_evals(), evals0);
  EXPECT_EQ(engine_.evals_skipped_binding(), skips0 + 1);
  EXPECT_EQ(engine_.frontier("any"), 10);
}

TEST_F(FrontierTest, BindingCacheSkipsNonBindingMinCells) {
  ASSERT_TRUE(engine_.register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));
  for (NodeId n = 1; n < 8; ++n) engine_.on_ack(0, n, n == 1 ? 3 : 10);
  EXPECT_EQ(engine_.frontier("all"), 3);
  uint64_t evals0 = engine_.predicate_evals();
  // Node 2 holds 10 > frontier 3: not the binding cell, raising it cannot
  // move the MIN.
  EXPECT_TRUE(engine_.on_ack(0, 2, 12));
  EXPECT_EQ(engine_.predicate_evals(), evals0);
  // The binding cell (node 1 at 3) advancing must re-evaluate.
  EXPECT_TRUE(engine_.on_ack(0, 1, 7));
  EXPECT_EQ(engine_.predicate_evals(), evals0 + 1);
  EXPECT_EQ(engine_.frontier("all"), 7);
}

TEST_F(FrontierTest, IndexFollowsChangePredicate) {
  ASSERT_TRUE(engine_.register_predicate("p", "MAX($AZ_Oregon)"));
  uint64_t evals0 = engine_.predicate_evals();
  engine_.on_ack(0, 1, 5);  // not Oregon: no dispatch
  EXPECT_EQ(engine_.predicate_evals(), evals0);
  ASSERT_TRUE(engine_.change_predicate("p", "MAX($AZ_North_Virginia)"));
  evals0 = engine_.predicate_evals();
  engine_.on_ack(0, 6, 50);  // Oregon: stale index would dispatch here
  EXPECT_EQ(engine_.predicate_evals(), evals0);
  engine_.on_ack(0, 2, 50);  // node 3 is in North Virginia
  EXPECT_GT(engine_.predicate_evals(), evals0);
  // Removal fully unlinks from the index (no dangling dispatch).
  ASSERT_TRUE(engine_.remove_predicate("p"));
  engine_.on_ack(0, 2, 60);
}

TEST_F(FrontierTest, BatchRoutesExtraToTheCarryingEntry) {
  // Regression for extra-byte routing: a batch carrying distinct extras for
  // different predicates must deliver each (frontier, extra) pair exactly
  // as the legacy per-entry path would.
  auto run = [&](FrontierEngine::DispatchMode mode,
                 bool batched) -> std::vector<std::pair<SeqNum, std::string>> {
    StabilityTypeRegistry types;
    FrontierEngine e(topo_, 0, types);
    e.set_dispatch_mode(mode);
    EXPECT_TRUE(e.register_predicate("va", "MAX($AZ_North_Virginia.verified)"));
    EXPECT_TRUE(e.register_predicate("or", "MAX($AZ_Oregon.verified)"));
    std::vector<std::pair<SeqNum, std::string>> fired;
    e.monitor("va", [&](SeqNum f, BytesView x) {
      fired.emplace_back(f, to_string(x));
    });
    e.monitor("or", [&](SeqNum f, BytesView x) {
      fired.emplace_back(f, to_string(x));
    });
    StabilityTypeId v = *types.find("verified");
    Bytes xa = to_bytes("alpha"), xb = to_bytes("beta");
    std::vector<AckUpdate> batch{
        AckUpdate{v, 2, 7, BytesView(xa)},   // node 3 (North Virginia) -> "va"
        AckUpdate{v, 6, 9, BytesView(xb)},   // node 7 (Oregon) -> "or"
    };
    if (batched) {
      e.on_ack_batch(batch);
    } else {
      for (const auto& u : batch) e.on_ack(u.type, u.node, u.seq, u.extra);
    }
    return fired;
  };
  auto legacy = run(FrontierEngine::DispatchMode::kLegacyScan, false);
  auto indexed = run(FrontierEngine::DispatchMode::kIndexed, true);
  ASSERT_EQ(legacy.size(), 2u);
  EXPECT_EQ(legacy[0], (std::pair<SeqNum, std::string>{7, "alpha"}));
  EXPECT_EQ(legacy[1], (std::pair<SeqNum, std::string>{9, "beta"}));
  EXPECT_EQ(indexed, legacy);
}

TEST_F(FrontierTest, BatchCoalescedExtraIsLastAdvancing) {
  // When several advancing reports for one predicate coalesce into a batch,
  // monitors fire once with the final frontier and the extra of the
  // highest-sequence report — the one that determined the coalesced MAX
  // frontier, i.e. the extra the legacy per-report path fires last.
  ASSERT_TRUE(engine_.register_predicate("any", "MAX($ALLWNODES-$MYWNODE)"));
  std::vector<std::pair<SeqNum, std::string>> fired;
  engine_.monitor("any", [&](SeqNum f, BytesView x) {
    fired.emplace_back(f, to_string(x));
  });
  Bytes x1 = to_bytes("one"), x2 = to_bytes("two"), x3 = to_bytes("three");
  std::vector<AckUpdate> batch{
      AckUpdate{0, 1, 5, BytesView(x1)},
      AckUpdate{0, 2, 9, BytesView(x2)},
      AckUpdate{0, 3, 2, BytesView(x3)},  // advances its cell, but seq 2 < 9
  };
  engine_.on_ack_batch(batch);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], (std::pair<SeqNum, std::string>{9, "two"}));
}

TEST_F(FrontierTest, BatchRoutesOnlyExtrasThatCrossTheFrontier) {
  // KTH_MAX(2) over nodes 1..7 sits at 5: node 1 at 10, nodes 2-6 at 5.
  // Node 1's report below does not cross the frontier (its cell was above
  // it already); node 2's does and moves the frontier to 7. The per-report
  // legacy path fires (7, "B"), so the batch must fire that too, although
  // node 1's report carries the higher sequence number.
  auto run = [&](FrontierEngine::DispatchMode mode) {
    StabilityTypeRegistry types;
    FrontierEngine e(topo_, 0, types);
    e.set_dispatch_mode(mode);
    EXPECT_TRUE(
        e.register_predicate("maj", "KTH_MAX(2,($ALLWNODES-$MYWNODE))"));
    e.on_ack(0, 1, 10);
    for (NodeId n = 2; n <= 6; ++n) e.on_ack(0, n, 5);
    EXPECT_EQ(e.frontier("maj"), 5);
    std::vector<std::pair<SeqNum, std::string>> fired;
    e.monitor("maj", [&](SeqNum f, BytesView x) {
      fired.emplace_back(f, to_string(x));
    });
    Bytes xa = to_bytes("A"), xb = to_bytes("B");
    std::vector<AckUpdate> batch{AckUpdate{0, 1, 20, BytesView(xa)},
                                 AckUpdate{0, 2, 7, BytesView(xb)}};
    e.on_ack_batch(batch);
    return fired;
  };
  auto legacy = run(FrontierEngine::DispatchMode::kLegacyScan);
  auto indexed = run(FrontierEngine::DispatchMode::kIndexed);
  ASSERT_EQ(legacy,
            (std::vector<std::pair<SeqNum, std::string>>{{7, "B"}}));
  EXPECT_EQ(indexed, legacy);
}

TEST_F(FrontierTest, TiedMinEvaluatesOncePerFrontierMove) {
  // Every cell tied at the frontier, then raised one report at a time: only
  // the last cell of each round moves the MIN, and only it evaluates.
  ASSERT_TRUE(engine_.register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));
  for (NodeId n = 1; n < 8; ++n) engine_.on_ack(0, n, 0);
  ASSERT_EQ(engine_.frontier("all"), 0);
  uint64_t moves = 0;
  engine_.monitor("all", [&](SeqNum, BytesView) { ++moves; });
  const uint64_t evals0 = engine_.predicate_evals();
  const uint64_t skips0 = engine_.evals_skipped_binding();
  for (SeqNum round = 1; round <= 5; ++round)
    for (NodeId n = 1; n < 8; ++n) EXPECT_TRUE(engine_.on_ack(0, n, round));
  EXPECT_EQ(engine_.frontier("all"), 5);
  EXPECT_EQ(moves, 5u);
  EXPECT_EQ(engine_.predicate_evals() - evals0, moves);
  EXPECT_EQ(engine_.evals_skipped_binding() - skips0, 5u * 6u);
}

// All three eval modes x both dispatch paths compute identical frontiers on
// random monotone batch streams.
TEST(FrontierProperty, EvalModesAndDispatchPathsAgree) {
  Topology topo = ec2_topology();
  const char* preds[] = {
      "MAX($ALLWNODES-$MYWNODE)",
      "MIN($ALLWNODES-$MYWNODE)",
      "KTH_MAX(SIZEOF($ALLWNODES)/2+1,($ALLWNODES-$MYWNODE))",
      "KTH_MIN(2,($ALLWNODES-$MYWNODE))",
      "KTH_MAX(2,MAX($AZ_North_Virginia),MAX($AZ_Oregon),MAX($AZ_Ohio))",
      "MIN(($ALLWNODES-$MYWNODE).persisted)",
      // Not a specialized shape: the crossing rule evaluates on every
      // crossing, counting nothing.
      "MAX(MIN($AZ_North_Virginia),KTH_MIN(2,$ALLWNODES.persisted))",
  };
  struct Variant {
    dsl::EvalMode eval;
    FrontierEngine::DispatchMode dispatch;
    std::unique_ptr<StabilityTypeRegistry> types;
    std::unique_ptr<FrontierEngine> engine;
  };
  std::vector<Variant> variants;
  for (auto eval : {dsl::EvalMode::kInterpreter, dsl::EvalMode::kBytecode,
                    dsl::EvalMode::kSpecialized})
    for (auto dispatch : {FrontierEngine::DispatchMode::kLegacyScan,
                          FrontierEngine::DispatchMode::kIndexed}) {
      Variant v;
      v.eval = eval;
      v.dispatch = dispatch;
      v.types = std::make_unique<StabilityTypeRegistry>();
      v.engine = std::make_unique<FrontierEngine>(topo, 0, *v.types, eval);
      v.engine->set_dispatch_mode(dispatch);
      for (size_t i = 0; i < std::size(preds); ++i)
        ASSERT_TRUE(v.engine->register_predicate("p" + std::to_string(i),
                                                 preds[i]));
      variants.push_back(std::move(v));
    }

  Rng rng(4242);
  std::vector<std::vector<int64_t>> state(2, std::vector<int64_t>(8, kNoSeq));
  for (int step = 0; step < 400; ++step) {
    std::vector<AckUpdate> batch;
    size_t batch_size = 1 + rng.next_below(12);
    for (size_t i = 0; i < batch_size; ++i) {
      StabilityTypeId t = static_cast<StabilityTypeId>(rng.next_below(2));
      NodeId n = static_cast<NodeId>(rng.next_below(8));
      state[t][n] += rng.next_range(0, 3);
      batch.push_back(AckUpdate{t, n, state[t][n], {}});
    }
    for (auto& v : variants) v.engine->on_ack_batch(batch);
    for (size_t i = 0; i < std::size(preds); ++i) {
      std::string key = "p" + std::to_string(i);
      SeqNum expected = variants[0].engine->frontier(key);
      for (auto& v : variants)
        ASSERT_EQ(v.engine->frontier(key), expected)
            << key << " eval=" << static_cast<int>(v.eval)
            << " dispatch=" << static_cast<int>(v.dispatch)
            << " step=" << step;
    }
  }
}

// Property: under random monotone ack streams, every predicate frontier is
// non-decreasing and consistent with a from-scratch evaluation.
TEST(FrontierProperty, IncrementalMatchesFromScratch) {
  Topology topo = ec2_topology();
  for (uint64_t seed : {11u, 22u, 33u}) {
    StabilityTypeRegistry types;
    FrontierEngine engine(topo, 0, types);
    const char* preds[] = {
        "MAX($ALLWNODES-$MYWNODE)",
        "MIN($ALLWNODES-$MYWNODE)",
        "KTH_MAX(SIZEOF($ALLWNODES)/2+1,($ALLWNODES-$MYWNODE))",
        "KTH_MAX(2,MAX($AZ_North_Virginia),MAX($AZ_Oregon),MAX($AZ_Ohio))",
        "MIN(MAX($AZ_North_Virginia),MAX($AZ_Oregon),MAX($AZ_Ohio))",
        "MIN(($ALLWNODES-$MYWNODE).persisted)",
    };
    std::vector<std::string> keys;
    for (size_t i = 0; i < std::size(preds); ++i) {
      keys.push_back("p" + std::to_string(i));
      ASSERT_TRUE(engine.register_predicate(keys.back(), preds[i]));
    }
    std::map<std::string, SeqNum> last;
    Rng rng(seed);
    std::vector<std::vector<int64_t>> state(
        2, std::vector<int64_t>(8, kNoSeq));  // types 0..1
    for (int step = 0; step < 1000; ++step) {
      StabilityTypeId t = static_cast<StabilityTypeId>(rng.next_below(2));
      NodeId n = static_cast<NodeId>(rng.next_below(8));
      state[t][n] += rng.next_range(0, 3);
      engine.on_ack(t, n, state[t][n]);
      for (const auto& key : keys) {
        SeqNum f = engine.frontier(key);
        auto it = last.find(key);
        if (it != last.end()) ASSERT_GE(f, it->second) << key;
        last[key] = f;
        // from-scratch check via a fresh eval of the same predicate
        ASSERT_EQ(f, engine.predicate(key)->eval(engine.acks())) << key;
      }
    }
  }
}

// The order-statistic shapes the crossing counts cover, in the corners
// where counting is easy to get wrong.
const char* const kCountedShapes[] = {
    "MIN($ALLWNODES-$MYWNODE)",
    "MAX($ALLWNODES-$MYWNODE)",
    "KTH_MAX(SIZEOF($ALLWNODES)/2+1,($ALLWNODES-$MYWNODE))",
    "KTH_MIN(3,$ALLWNODES.persisted)",
    // KTH_MIN over MIN groups.
    "KTH_MIN(2,MIN($AZ_North_California),MIN($AZ_North_Virginia),"
    "MIN($AZ_Oregon),MIN($AZ_Ohio))",
    // Overlapping inner lists: one cell feeds several groups.
    "MIN(MAX($ALLWNODES-$MYWNODE),MIN($AZ_North_Virginia),"
    "MAX($AZ_North_Virginia-$3))",
    "KTH_MAX(2,MIN($ALLWNODES),MAX($AZ_North_Virginia),"
    "MIN($AZ_North_Virginia),MAX($ALLWNODES-$AZ_Oregon))",
    // k out of range: the frontier never leaves kNoSeq.
    "KTH_MAX(9,$ALLWNODES)",
    "KTH_MIN(0,$ALLWNODES)",
    "KTH_MAX(5,MAX($AZ_Oregon),MAX($AZ_Ohio))",
    // Two stability types in one predicate.
    "MIN(MAX($AZ_North_Virginia.persisted),MIN($AZ_North_Virginia),"
    "MAX($AZ_Oregon.persisted),MAX($AZ_Ohio))",
    "KTH_MAX(2,MIN($ALLWNODES-$MYWNODE),MIN(($ALLWNODES-$MYWNODE).persisted),"
    "MAX($AZ_Ohio.persisted))",
};

/// A lockstep report stream over the 8-node EC2 topology: in each round
/// every received cell climbs one step of a common grid (seq = level * step
/// - 1, so level 0 is kNoSeq) in random order, and every persisted cell
/// does so in even rounds only, so the two types drift apart. Ties at the
/// frontier are the norm.
std::vector<AckUpdate> lockstep_stream(Rng& rng, int rounds) {
  constexpr int64_t kStep = 3;
  std::vector<std::vector<int64_t>> level(2, std::vector<int64_t>(8, 0));
  std::vector<AckUpdate> out;
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::pair<StabilityTypeId, NodeId>> cells;
    for (StabilityTypeId t = 0; t < 2; ++t) {
      if (t == StabilityTypeRegistry::kPersisted && round % 2 == 1) continue;
      for (NodeId n = 0; n < 8; ++n) cells.emplace_back(t, n);
    }
    for (size_t i = cells.size(); i > 1; --i)
      std::swap(cells[i - 1], cells[rng.next_below(i)]);
    for (auto [t, n] : cells)
      out.push_back(AckUpdate{t, n, ++level[t][n] * kStep - 1, {}});
  }
  return out;
}

// Lockstep streams cut into batches that raise each cell at most once, as
// one ACKBATCH frame does. Every item of an order statistic then climbs at
// most one grid step per batch, so a frontier does too, and the legacy
// per-report path fires at most once per batch: at the report that made
// enough items cross. Checked after every batch: each frontier equals a
// from-scratch interpreter eval, and the batch path and the single-report
// path fire exactly the (frontier, extra) sequences of the kLegacyScan run,
// with an extra of its own on every report. The indexed runs evaluate only
// when a frontier moves.
TEST(FrontierProperty, LockstepTiesMatchLegacyAndInterpreter) {
  Topology topo = ec2_topology();
  using Fired = std::vector<std::pair<SeqNum, std::string>>;
  for (uint64_t seed : {5u, 6u, 7u}) {
    StabilityTypeRegistry types;
    // Interpreter-mode predicates over the same type ids, evaluated from
    // scratch against the batch run's table.
    FrontierEngine scratch(topo, 0, types, dsl::EvalMode::kInterpreter);
    FrontierEngine legacy(topo, 0, types), batched(topo, 0, types),
        single(topo, 0, types);
    legacy.set_dispatch_mode(FrontierEngine::DispatchMode::kLegacyScan);
    std::vector<std::string> keys;
    std::map<std::string, Fired> fired_legacy, fired_batched, fired_single;
    for (size_t i = 0; i < std::size(kCountedShapes); ++i) {
      keys.push_back("p" + std::to_string(i));
      const std::string& key = keys.back();
      for (auto* e : {&scratch, &legacy, &batched, &single})
        ASSERT_TRUE(e->register_predicate(key, kCountedShapes[i])) << key;
      auto record = [](Fired& log) {
        return [&log](SeqNum f, BytesView x) {
          log.emplace_back(f, to_string(x));
        };
      };
      legacy.monitor(key, record(fired_legacy[key]));
      batched.monitor(key, record(fired_batched[key]));
      single.monitor(key, record(fired_single[key]));
    }
    const uint64_t batched_evals0 = batched.predicate_evals();
    const uint64_t single_evals0 = single.predicate_evals();

    Rng rng(seed);
    const std::vector<AckUpdate> stream = lockstep_stream(rng, 40);
    std::vector<Bytes> extras;
    for (const AckUpdate& u : stream)
      extras.push_back(to_bytes("n" + std::to_string(u.node) + "t" +
                                std::to_string(u.type) + "=" +
                                std::to_string(u.seq)));
    size_t next = 0;
    std::vector<AckUpdate> batch;
    while (next < stream.size()) {
      batch.clear();
      const size_t limit = 1 + rng.next_below(12);
      while (next < stream.size() && batch.size() < limit) {
        const AckUpdate& u = stream[next];
        bool repeat = false;
        for (const AckUpdate& b : batch)
          repeat |= b.type == u.type && b.node == u.node;
        if (repeat) break;
        batch.push_back(u);
        batch.back().extra = BytesView(extras[next++]);
      }
      legacy.on_ack_batch(batch);
      batched.on_ack_batch(batch);
      for (const AckUpdate& u : batch)
        single.on_ack(u.type, u.node, u.seq, u.extra);
      for (const std::string& key : keys) {
        const SeqNum expected = scratch.predicate(key)->eval(batched.acks());
        ASSERT_EQ(batched.frontier(key), expected) << key << " seed " << seed;
        ASSERT_EQ(single.frontier(key), expected) << key << " seed " << seed;
        ASSERT_EQ(legacy.frontier(key), expected) << key << " seed " << seed;
      }
    }
    uint64_t moves = 0;
    for (const std::string& key : keys) {
      EXPECT_EQ(fired_batched[key], fired_legacy[key]) << key;
      EXPECT_EQ(fired_single[key], fired_legacy[key]) << key;
      moves += fired_legacy[key].size();
    }
    EXPECT_GT(moves, 0u);
    EXPECT_EQ(batched.predicate_evals() - batched_evals0, moves);
    EXPECT_EQ(single.predicate_evals() - single_evals0, moves);
  }
}

// Monitors that re-enter the engine run nested batches while the outer
// batch still holds dirty entries, whose counts are relative to a frontier
// about to move. Counts may then run ahead of the table, never behind it,
// so a nested batch may evaluate an entry early but never misses an
// advance: after every outer call each frontier equals a from-scratch
// evaluation.
TEST(FrontierProperty, ReentrantBatchesNeverMissAnAdvance) {
  Topology topo = ec2_topology();
  for (uint64_t seed : {8u, 9u, 10u}) {
    StabilityTypeRegistry types;
    FrontierEngine scratch(topo, 0, types, dsl::EvalMode::kInterpreter);
    FrontierEngine engine(topo, 0, types);
    std::vector<std::string> keys;
    for (size_t i = 0; i < std::size(kCountedShapes); ++i) {
      keys.push_back("p" + std::to_string(i));
      ASSERT_TRUE(scratch.register_predicate(keys.back(), kCountedShapes[i]));
      ASSERT_TRUE(engine.register_predicate(keys.back(), kCountedShapes[i]));
    }
    Rng rng(seed);
    const std::vector<AckUpdate> stream = lockstep_stream(rng, 40);
    size_t next = 0;
    // Takes up to `n` reports off the stream, in order, so every cell still
    // only climbs.
    auto take = [&](size_t n) {
      const size_t end = std::min(stream.size(), next + n);
      std::span<const AckUpdate> out(stream.data() + next, end - next);
      next = end;
      return out;
    };
    std::map<std::string, SeqNum> last;
    for (size_t i = 0; i < keys.size(); i += 2)
      ASSERT_TRUE(engine.monitor(keys[i], [&, i](SeqNum f, BytesView) {
        // Monotone under nesting too.
        EXPECT_GE(f, last[keys[i]]) << keys[i];
        last[keys[i]] = f;
        if (rng.next_below(2) == 0) {
          engine.on_ack_batch(take(1 + rng.next_below(4)));
        } else {
          for (const AckUpdate& u : take(1 + rng.next_below(3)))
            engine.on_ack(u.type, u.node, u.seq);
        }
      }));
    while (next < stream.size()) {
      engine.on_ack_batch(take(1 + rng.next_below(12)));
      for (const std::string& key : keys)
        ASSERT_EQ(engine.frontier(key),
                  scratch.predicate(key)->eval(engine.acks()))
            << key << " seed " << seed;
    }
  }
}

// --- lock-free control-plane primitives (DESIGN.md §4f) -----------------------

TEST(StabilityTypes, FindFastMatchesFindAcrossRegistrations) {
  StabilityTypeRegistry reg;
  EXPECT_EQ(reg.find_fast("persisted"), StabilityTypeRegistry::kPersisted);
  EXPECT_FALSE(reg.find_fast("verified").has_value());
  StabilityTypeId id = reg.get_or_register("verified");
  // The new snapshot is visible immediately after get_or_register returns.
  ASSERT_TRUE(reg.find_fast("verified").has_value());
  EXPECT_EQ(*reg.find_fast("verified"), id);
  EXPECT_EQ(reg.find_fast("verified"), reg.find("verified"));
}

TEST(AckCellBlock, DrainCoalescesToFinalValue) {
  AckCellBlock block(2);
  bool adv = false;
  EXPECT_FALSE(block.dirty());
  ASSERT_TRUE(block.offer(1, 5, &adv));
  EXPECT_TRUE(adv);
  ASSERT_TRUE(block.offer(1, 9, &adv));  // overwrites 5 in place
  EXPECT_TRUE(adv);
  ASSERT_TRUE(block.offer(1, 7, &adv));  // regression: ignored
  EXPECT_FALSE(adv);
  EXPECT_TRUE(block.dirty());

  std::vector<std::pair<StabilityTypeId, SeqNum>> got;
  size_t n =
      block.drain([&](StabilityTypeId t, SeqNum s) { got.emplace_back(t, s); });
  EXPECT_EQ(n, 1u);  // two advances coalesce into one emitted cell
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], std::make_pair(StabilityTypeId(1), SeqNum(9)));
  EXPECT_FALSE(block.dirty());
  // A second drain with no new offers emits nothing.
  EXPECT_EQ(block.drain([&](StabilityTypeId, SeqNum) { FAIL(); }), 0u);
}

TEST(AckCellBlock, OutOfRowOffersRefused) {
  AckCellBlock block(2);
  bool adv = true;
  EXPECT_FALSE(block.offer(2, 1, &adv));  // type beyond the row
  EXPECT_FALSE(adv);
  EXPECT_FALSE(block.dirty());
}

TEST(AckCellBlock, ConcurrentOffersConvergeToMax) {
  AckCellBlock block(2);
  constexpr int kPerThread = 20000;
  auto hammer = [&](StabilityTypeId type) {
    bool adv;
    for (int i = 1; i <= kPerThread; ++i) block.offer(type, i, &adv);
  };
  std::thread a([&] { hammer(0); });
  std::thread b([&] { hammer(1); });
  std::thread c([&] { hammer(0); });  // contends with `a` on the same cell
  a.join();
  b.join();
  c.join();
  std::vector<SeqNum> final(2, kNoSeq);
  block.drain([&](StabilityTypeId t, SeqNum s) { final[t] = s; });
  EXPECT_EQ(final[0], kPerThread);
  EXPECT_EQ(final[1], kPerThread);
}

TEST(FrontierBoard, PublishReadUnpublish) {
  FrontierBoard board;
  EXPECT_FALSE(board.read("p").has_value());
  FrontierBoard::Slot* slot = board.publish("p", kNoSeq);
  ASSERT_NE(slot, nullptr);
  ASSERT_TRUE(board.read("p").has_value());
  EXPECT_EQ(*board.read("p"), kNoSeq);

  slot->frontier.store(42, std::memory_order_release);
  EXPECT_EQ(*board.read("p"), 42);

  // Re-publishing the same key reuses the slot (pointer stability).
  EXPECT_EQ(board.publish("p", 7), slot);
  EXPECT_EQ(*board.read("p"), 7);

  board.unpublish("p");
  EXPECT_FALSE(board.read("p").has_value());
  board.unpublish("p");  // idempotent
}

TEST(FrontierBoard, ReadersSurviveConcurrentRepublication) {
  FrontierBoard board;
  FrontierBoard::Slot* hot = board.publish("hot", 0);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> last_seen{0};
  std::thread reader([&] {
    int64_t prev = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto f = board.read("hot");
      ASSERT_TRUE(f.has_value());  // "hot" is never unpublished
      ASSERT_GE(*f, prev);         // monotone despite map churn
      prev = *f;
      last_seen.store(prev, std::memory_order_relaxed);
    }
  });
  // Writer: advance the hot slot while churning the map structure.
  for (int i = 1; i <= 2000; ++i) {
    hot->frontier.store(i, std::memory_order_release);
    std::string key = "k" + std::to_string(i % 17);
    if (i % 2 == 0)
      board.publish(key, i);
    else
      board.unpublish(key);
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(*board.read("hot"), 2000);
}

TEST_F(FrontierTest, BoardTracksFrontierAndUnpublishesOnRemove) {
  ASSERT_TRUE(engine_.register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));
  ASSERT_TRUE(engine_.board().read("all").has_value());
  EXPECT_EQ(*engine_.board().read("all"), kNoSeq);

  for (NodeId n = 1; n < 8; ++n) engine_.on_ack(0, n, 5);
  EXPECT_EQ(engine_.frontier("all"), 5);
  EXPECT_EQ(*engine_.board().read("all"), 5);  // published before monitors

  ASSERT_TRUE(engine_.change_predicate("all", "MAX($ALLWNODES-$MYWNODE)"));
  EXPECT_EQ(*engine_.board().read("all"), engine_.frontier("all"));

  ASSERT_TRUE(engine_.remove_predicate("all"));
  EXPECT_FALSE(engine_.board().read("all").has_value());
}

// --- CompositeFrontier (cross-shard min-combine, DESIGN.md §9) ----------------

TEST(CompositeFrontier, SnapshotReadsEveryBoardAndPadsMissingKeys) {
  FrontierBoard b0, b1, b2;
  b0.publish("k", 7);
  b2.publish("k", 3);  // b1 never publishes "k"
  control::CompositeFrontier cf({&b0, &b1, &b2});
  EXPECT_EQ(cf.num_shards(), 3u);
  EXPECT_EQ(cf.snapshot("k"), (control::ShardCut{7, kNoSeq, 3}));
  EXPECT_EQ(cf.combined("k"), kNoSeq);  // the unpublished shard dominates
  b1.publish("k", 5);
  EXPECT_EQ(cf.combined("k"), 3);
}

TEST(CompositeFrontier, CoversIsShardwiseWithVacuousSentinels) {
  using control::CompositeFrontier;
  using control::ShardCut;
  EXPECT_TRUE(CompositeFrontier::covers({5, 5}, {3, 5}));
  EXPECT_FALSE(CompositeFrontier::covers({5, 4}, {3, 5}));
  // kNoSeq cut entries impose nothing; kNoSeq frontiers satisfy nothing.
  EXPECT_TRUE(CompositeFrontier::covers({kNoSeq, 5}, {kNoSeq, 5}));
  EXPECT_FALSE(CompositeFrontier::covers({kNoSeq, 5}, {0, 5}));
  // Short vectors are kNoSeq-padded on both sides.
  EXPECT_TRUE(CompositeFrontier::covers({5}, {5, kNoSeq}));
  EXPECT_FALSE(CompositeFrontier::covers({5}, {5, 0}));
  EXPECT_TRUE(CompositeFrontier::covers({}, {}));
}

// Property: the combined frontier never exceeds any member shard's
// frontier, whatever the per-shard advance pattern.
TEST(CompositeFrontierProperty, CombinedNeverExceedsAnyMember) {
  Rng rng(0x5A4D);
  constexpr size_t kShards = 4;
  std::vector<std::unique_ptr<FrontierBoard>> boards;
  std::vector<const FrontierBoard*> views;
  std::vector<FrontierBoard::Slot*> slots;
  for (size_t s = 0; s < kShards; ++s) {
    boards.push_back(std::make_unique<FrontierBoard>());
    views.push_back(boards.back().get());
    slots.push_back(boards.back()->publish("k", kNoSeq));
  }
  control::CompositeFrontier cf(views);
  std::vector<SeqNum> truth(kShards, kNoSeq);
  for (int step = 0; step < 5000; ++step) {
    const size_t s = rng.next_below(kShards);
    truth[s] += static_cast<SeqNum>(1 + rng.next_below(3));
    slots[s]->frontier.store(truth[s], std::memory_order_release);
    const SeqNum combined = cf.combined("k");
    for (size_t m = 0; m < kShards; ++m)
      ASSERT_LE(combined, truth[m]) << "step " << step << " member " << m;
    ASSERT_EQ(combined, *std::min_element(truth.begin(), truth.end()));
  }
}

// Property: under concurrent per-shard advances the combined read is
// monotone — each board read is an atomic published lower bound, so the min
// over boards can only move forward. A reader thread min-combines while a
// writer advances shards in random order.
TEST(CompositeFrontierProperty, MonotoneUnderConcurrentAdvances) {
  constexpr size_t kShards = 3;
  std::vector<std::unique_ptr<FrontierBoard>> boards;
  std::vector<const FrontierBoard*> views;
  std::vector<FrontierBoard::Slot*> slots;
  for (size_t s = 0; s < kShards; ++s) {
    boards.push_back(std::make_unique<FrontierBoard>());
    views.push_back(boards.back().get());
    slots.push_back(boards.back()->publish("k", 0));
  }
  control::CompositeFrontier cf(views);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    SeqNum prev = kNoSeq;
    while (!stop.load(std::memory_order_relaxed)) {
      const SeqNum now = cf.combined("k");
      ASSERT_GE(now, prev) << "composite frontier regressed";
      prev = now;
    }
  });

  Rng rng(0xC0DE);
  std::vector<SeqNum> truth(kShards, 0);
  for (int step = 0; step < 20000; ++step) {
    const size_t s = rng.next_below(kShards);
    truth[s] += 1;
    slots[s]->frontier.store(truth[s], std::memory_order_release);
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(cf.combined("k"),
            *std::min_element(truth.begin(), truth.end()));
}

}  // namespace
}  // namespace stab
