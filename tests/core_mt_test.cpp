// Concurrent-facade tests over the in-process transport: real threads
// driving send / report_stability / waitfor / get_stability_frontier /
// monitor_stability_frontier against one node at once (DESIGN.md §4f).
// Plain reports from application threads fold into the lock-free report
// cells, frontier reads come from the wait-free board, and peers' frames
// arrive on each node's Env thread under the API mutex.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/stabilizer.hpp"
#include "net/inproc_transport.hpp"

namespace stab {
namespace {

Topology mesh_topology(size_t n, double lat_ms) {
  Topology t;
  for (size_t i = 0; i < n; ++i)
    t.add_node("n" + std::to_string(i), "az" + std::to_string(i % 2));
  LinkSpec s;
  s.latency = from_ms(lat_ms);
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = 0; b < n; ++b)
      if (a != b) t.set_link(a, b, s);
  return t;
}

/// An n-node real-time cluster with lat_ms links.
struct MtFixture {
  MtFixture(size_t n, double lat_ms = 0)
      : topo(mesh_topology(n, lat_ms)), cluster(n, &topo) {
    for (NodeId id = 0; id < n; ++id) {
      StabilizerOptions opts;
      opts.topology = topo;
      opts.self = id;
      opts.ack_interval = millis(1);
      opts.retransmit_timeout = millis(50);
      nodes.push_back(
          std::make_unique<Stabilizer>(opts, cluster.transport(id)));
    }
  }
  ~MtFixture() {
    nodes.clear();
    cluster.shutdown();
  }
  Stabilizer& node(NodeId id) { return *nodes.at(id); }

  /// Spin (with sleeps) until `key`'s frontier on node `id` reaches `seq`.
  bool await_frontier(NodeId id, const std::string& key, SeqNum seq,
                      NodeId origin = kInvalidNode,
                      std::chrono::seconds deadline = std::chrono::seconds(30)) {
    auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
      if (node(id).get_stability_frontier(key, origin) >= seq) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  Topology topo;
  InProcCluster cluster;
  std::vector<std::unique_ptr<Stabilizer>> nodes;
};

// Five concurrent client threads on one node — two senders, one frontier
// reader, one waiter, one reporter — plus the peers' ack traffic arriving
// on its Env thread. Checks: no lost messages, every frontier read
// monotone, monitor fires strictly increasing, and the cluster converges
// to full stability.
TEST(CoreMt, ConcurrentFacadeUseConvergesWithMonotoneFrontiers) {
  MtFixture f(3);
  Stabilizer& s = f.node(0);
  ASSERT_TRUE(s.register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));
  ASSERT_TRUE(s.register_predicate("one", "MAX($ALLWNODES-$MYWNODE)"));
  // Registering the predicate registers the "audited" type, so the
  // reporter thread's plain reports take the lock-free cells.
  ASSERT_TRUE(s.register_predicate("audited", "MAX(($MYWNODE).audited)"));

  std::atomic<SeqNum> monitor_last{kNoSeq};
  ASSERT_TRUE(s.monitor_stability_frontier("all", [&](SeqNum fr, BytesView) {
    // Monitors fire from the drain under the lock: strictly increasing.
    EXPECT_GT(fr, monitor_last.load(std::memory_order_relaxed));
    monitor_last.store(fr, std::memory_order_relaxed);
  }));

  constexpr int kPerSender = 150;
  std::atomic<bool> stop{false};
  std::atomic<int> waiter_ok{0};

  std::thread sender_a([&] {
    for (int i = 0; i < kPerSender; ++i) s.send(to_bytes("a"));
  });
  std::thread sender_b([&] {
    for (int i = 0; i < kPerSender; ++i) s.send(to_bytes("b"));
  });
  std::thread reader([&] {
    SeqNum prev_all = kNoSeq, prev_one = kNoSeq;
    while (!stop.load(std::memory_order_relaxed)) {
      SeqNum a = s.get_stability_frontier("all");
      SeqNum o = s.get_stability_frontier("one");
      ASSERT_GE(a, prev_all);  // wait-free reads never regress
      ASSERT_GE(o, prev_one);
      ASSERT_GE(o, a);  // MAX dominates MIN over the same cells
      prev_all = a;
      prev_one = o;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::thread waiter([&] {
    for (SeqNum seq : {SeqNum(10), SeqNum(100), SeqNum(2 * kPerSender - 1)})
      if (s.waitfor_blocking(seq, "all", seconds(30))) ++waiter_ok;
  });
  // An application thread reporting a custom level about node 1's stream,
  // racing the senders (only node 0's own reports move that cell).
  constexpr SeqNum kAudited = 2 * kPerSender - 1;
  std::thread reporter([&] {
    for (SeqNum q = 0; q <= kAudited; ++q)
      ASSERT_TRUE(s.report_stability("audited", 1, q));
  });

  sender_a.join();
  sender_b.join();
  reporter.join();
  const SeqNum last = s.last_sent();
  EXPECT_EQ(last, 2 * kPerSender - 1);  // dense seqs under concurrent send

  EXPECT_TRUE(f.await_frontier(0, "all", last));
  waiter.join();
  EXPECT_EQ(waiter_ok.load(), 3);
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(s.get_stability_frontier("all"), last);
  EXPECT_EQ(monitor_last.load(), last);
  // A plain report is visible once the drain has run: wait, then read.
  EXPECT_TRUE(s.waitfor_blocking(kAudited, "audited", seconds(30), 1));
  EXPECT_EQ(s.get_stability_frontier("audited", 1), kAudited);
  // Every peer delivered the full stream in order (FIFO counters).
  for (NodeId p : {NodeId{1}, NodeId{2}})
    EXPECT_EQ(f.node(p).delivered_through(0), last);

#if STAB_OBS_ENABLED
  // The reporter's plain reports took the lock-free path: they landed in
  // the cells and drains applied them.
  EXPECT_GT(s.metrics().counter("pipeline.cell_acks").value(), 0u);
  EXPECT_GT(s.metrics().counter("pipeline.drains").value(), 0u);
#endif
}

// Three nodes each send 60 messages concurrently over 0.2 ms links; every
// node converges on every stream: 60 sent (seqs 0..59), all delivered, and
// every (key, origin) frontier at 59.
TEST(CoreMt, ConcurrentSendersConvergeOnEveryStream) {
  MtFixture f(3, /*lat_ms=*/0.2);
  for (NodeId id = 0; id < 3; ++id)
    ASSERT_TRUE(
        f.node(id).register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));
  std::vector<std::thread> senders;
  for (NodeId id = 0; id < 3; ++id)
    senders.emplace_back([&f, id] {
      for (int i = 0; i < 60; ++i) f.node(id).send(to_bytes("m"));
    });
  for (auto& t : senders) t.join();
  for (NodeId o = 0; o < 3; ++o) {
    EXPECT_EQ(f.node(o).last_sent(), 59);
    for (NodeId g = 0; g < 3; ++g) {
      EXPECT_TRUE(f.await_frontier(o, "all", 59, g))
          << "node " << o << " origin " << g;
      if (o != g) {
        EXPECT_EQ(f.node(o).delivered_through(g), 59);
      }
      EXPECT_EQ(f.node(o).get_stability_frontier("all", g), 59)
          << "node " << o << " origin " << g;
    }
  }
}

// Custom stability levels through the lock-free report path: peers report
// "verified" for the origin's messages from their own threads; the origin's
// predicate over .verified converges. The first report per node takes the
// locked slow path (type not yet registered there), the rest fold into the
// cells — both routes must merge into the same frontier.
TEST(CoreMt, ConcurrentCustomReportsAdvanceVerifiedFrontier) {
  MtFixture f(3);
  Stabilizer& s = f.node(0);
  ASSERT_TRUE(
      s.register_predicate("ver", "MIN(($ALLWNODES-$MYWNODE).verified)"));

  constexpr SeqNum kLast = 99;
  for (SeqNum q = 0; q <= kLast; ++q) s.send(to_bytes("v"));

  // Wait until both peers delivered everything, then report from two
  // threads per peer, interleaved over the whole range.
  auto all_delivered = [&] {
    return f.node(1).delivered_through(0) == kLast &&
           f.node(2).delivered_through(0) == kLast;
  };
  auto until = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!all_delivered() && std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(all_delivered());

  std::vector<std::thread> reporters;
  for (NodeId p : {NodeId{1}, NodeId{2}})
    for (int half = 0; half < 2; ++half)
      reporters.emplace_back([&f, p, half] {
        for (SeqNum q = half; q <= kLast; q += 2)
          ASSERT_TRUE(f.node(p).report_stability("verified", 0, q));
      });
  for (auto& t : reporters) t.join();

  EXPECT_TRUE(f.await_frontier(0, "ver", kLast));
  EXPECT_EQ(s.get_stability_frontier("ver"), kLast);
}

// Regression pinned by the audit note in Stabilizer::waitfor_blocking: a
// thread parked in a blocking wait whose predicate is removed (the waiter is
// CANCELLED, fired with kNoSeq) must return false promptly — not complete,
// not crash, not sleep out its full timeout — and the facade must keep
// working afterwards.
TEST(CoreMt, WaitforBlockingCancelledWhileParked) {
  Topology topo = mesh_topology(2, 0);
  InProcCluster cluster(2, &topo);
  StabilizerOptions opts;
  opts.topology = topo;
  opts.self = 0;
  opts.ack_interval = millis(1);
  opts.retransmit_timeout = millis(20);  // node 1 boots late: needs the probe
  Stabilizer node0(opts, cluster.transport(0));
  ASSERT_TRUE(node0.register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));
  // No Stabilizer on node 1 yet: the wait can only end by cancellation.
  SeqNum seq = node0.send(to_bytes("x"));

  std::atomic<bool> result{true};
  std::thread parked([&] {
    result = node0.waitfor_blocking(seq, "all", seconds(60));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(node0.remove_predicate("all"));
  parked.join();
  EXPECT_FALSE(result.load());  // cancelled, not "stabilized"
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));

  // The facade survives: re-register, bring the peer up, and a fresh
  // blocking wait completes normally.
  ASSERT_TRUE(node0.register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));
  StabilizerOptions opts1 = opts;
  opts1.self = 1;
  Stabilizer node1(opts1, cluster.transport(1));
  EXPECT_TRUE(node0.waitfor_blocking(seq, "all", seconds(30)));
  EXPECT_GE(node0.get_stability_frontier("all"), seq);
}

// The waitfor already-stable fast path answers from the wait-free board
// without the lock: once the frontier covers seq, a waitfor from any thread
// fires inline with a frontier at least that fresh.
TEST(CoreMt, WaitforFastPathFiresInlineWhenAlreadyStable) {
  MtFixture f(2);
  Stabilizer& s = f.node(0);
  ASSERT_TRUE(s.register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));
  SeqNum seq = s.send(to_bytes("x"));
  ASSERT_TRUE(f.await_frontier(0, "all", seq));

  std::vector<std::thread> threads;
  std::atomic<int> fired{0};
  for (int i = 0; i < 4; ++i)
    threads.emplace_back([&] {
      for (int k = 0; k < 1000; ++k) {
        bool inline_fired = false;
        ASSERT_TRUE(s.waitfor(seq, "all", [&](SeqNum fr) {
          EXPECT_GE(fr, seq);
          inline_fired = true;
        }));
        ASSERT_TRUE(inline_fired);  // already stable: fires before returning
        ++fired;
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(fired.load(), 4000);
}

// get_stability_frontier and an already-stable waitfor never take the API
// lock, so a callback that holds it cannot stall them. Node 0's delivery
// upcall parks its Env thread, lock held, until a latch opens; meanwhile
// another thread reads the own stream's frontier and waits for a seq that
// is already stable. Both must return within 1 s. The latch opens after the
// timed wait either way, so a blocking read fails the test, not hangs it.
TEST(CoreMt, StableReadsDoNotWaitForTheApiLock) {
  struct Latch {
    std::mutex m;
    std::condition_variable cv;
    bool entered = false;
    bool open = false;
    void release() {
      {
        std::lock_guard<std::mutex> l(m);
        open = true;
      }
      cv.notify_all();
    }
  };
  auto latch = std::make_shared<Latch>();
  MtFixture f(2, /*lat_ms=*/1);
  Stabilizer& s = f.node(0);
  ASSERT_TRUE(s.register_predicate("all", "MIN($ALLWNODES-$MYWNODE)"));
  const SeqNum seq = s.send(to_bytes("x"));
  ASSERT_TRUE(s.waitfor_blocking(seq, "all", seconds(30)));

  s.set_delivery_handler([latch](NodeId, SeqNum, BytesView, uint64_t) {
    std::unique_lock<std::mutex> l(latch->m);
    latch->entered = true;
    latch->cv.notify_all();
    latch->cv.wait(l, [&] { return latch->open; });
  });
  f.node(1).send(to_bytes("y"));
  bool blocked;
  {
    std::unique_lock<std::mutex> l(latch->m);
    blocked = latch->cv.wait_for(l, std::chrono::seconds(30),
                                 [&] { return latch->entered; });
  }
  if (!blocked) latch->release();
  ASSERT_TRUE(blocked);

  std::promise<SeqNum> read, waited;
  std::future<SeqNum> read_done = read.get_future();
  std::future<SeqNum> wait_done = waited.get_future();
  std::thread client([&] {
    read.set_value(s.get_stability_frontier("all"));
    Status st = s.waitfor(seq, "all", [&](SeqNum fr) { waited.set_value(fr); });
    EXPECT_TRUE(st.is_ok());
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  const bool read_in_time =
      read_done.wait_until(deadline) == std::future_status::ready;
  const bool wait_in_time =
      wait_done.wait_until(deadline) == std::future_status::ready;
  latch->release();
  client.join();
  EXPECT_TRUE(read_in_time);
  EXPECT_TRUE(wait_in_time);
  EXPECT_EQ(read_done.get(), seq);
  EXPECT_EQ(wait_done.get(), seq);
}

}  // namespace
}  // namespace stab
