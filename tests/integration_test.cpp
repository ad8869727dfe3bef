// Cross-cutting integration tests: the full Stabilizer stack over the real
// TCP transport, config-file-driven cluster construction (including shared
// bandwidth pipes), and a KV + backup application stack on a parsed
// topology.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "backup/backup_service.hpp"
#include "counter_check.hpp"
#include "kv/wan_kv.hpp"
#include "net/sim_transport.hpp"
#include "net/tcp_transport.hpp"

namespace stab {
namespace {

TEST(TcpIntegration, FullStackOverRealSockets) {
  Topology topo;
  topo.add_node("a", "east");
  topo.add_node("b", "east");
  topo.add_node("c", "west");
  LinkSpec l;
  for (NodeId x = 0; x < 3; ++x)
    for (NodeId y = 0; y < 3; ++y)
      if (x != y) topo.set_link(x, y, l);

  auto addrs = free_loopback_addrs(3);
  std::vector<std::unique_ptr<TcpTransport>> transports;
  for (NodeId n = 0; n < 3; ++n)
    transports.push_back(std::make_unique<TcpTransport>(n, addrs));
  for (auto& t : transports) ASSERT_TRUE(t->wait_connected(seconds(10)));

  std::vector<std::unique_ptr<Stabilizer>> nodes;
  for (NodeId n = 0; n < 3; ++n) {
    StabilizerOptions opts;
    opts.topology = topo;
    opts.self = n;
    opts.ack_interval = millis(1);
    nodes.push_back(std::make_unique<Stabilizer>(opts, *transports[n]));
  }

  // Custom stability level over TCP: receivers verify each message.
  ASSERT_TRUE(nodes[0]->register_predicate(
      "verified_everywhere", "MIN(($ALLWNODES-$MYWNODE).verified)"));
  for (NodeId n = 1; n < 3; ++n) {
    Stabilizer* s = nodes[n].get();
    s->set_delivery_handler(
        [s](NodeId origin, SeqNum seq, BytesView, uint64_t) {
          s->report_stability("verified", origin, seq);
        });
  }
  for (int i = 0; i < 10; ++i)
    nodes[0]->send(to_bytes("tcp-" + std::to_string(i)));
  EXPECT_TRUE(
      nodes[0]->waitfor_blocking(9, "verified_everywhere", seconds(10)));
  EXPECT_EQ(nodes[0]->get_stability_frontier("verified_everywhere"), 9);
  // After each node's first report registered "verified", the upcalls'
  // plain reports rode the lock-free report cells.
  for (NodeId n = 1; n < 3; ++n)
    EXPECT_GT(counter(*nodes[n], "pipeline.cell_acks"), 0u);

  nodes.clear();
  for (auto& t : transports) t->shutdown();
}

// A connected peer's truncated DATA frame {kind 1, 0, 0} is dropped and
// counted by the receiving node, which keeps serving the same connection:
// the next message still stabilizes everywhere.
TEST(TcpIntegration, TruncatedFrameIsDroppedNotFatal) {
  Topology topo;
  topo.add_node("a", "east");
  topo.add_node("b", "west");
  topo.set_link(0, 1, LinkSpec{});
  topo.set_link(1, 0, LinkSpec{});
  auto addrs = free_loopback_addrs(2);
  TcpTransport t0(0, addrs), t1(1, addrs);
  ASSERT_TRUE(t0.wait_connected(seconds(10)));
  ASSERT_TRUE(t1.wait_connected(seconds(10)));
  std::vector<std::unique_ptr<Stabilizer>> nodes;
  for (NodeId n = 0; n < 2; ++n) {
    StabilizerOptions opts;
    opts.topology = topo;
    opts.self = n;
    opts.ack_interval = millis(1);
    nodes.push_back(std::make_unique<Stabilizer>(opts, n == 0 ? t0 : t1));
  }
  ASSERT_TRUE(nodes[0]->register_predicate("all", "MIN($ALLWNODES)"));
  t0.send(1, Bytes{1, 0, 0});
  const SeqNum seq = nodes[0]->send(to_bytes("after"));
  EXPECT_TRUE(nodes[0]->waitfor_blocking(seq, "all", seconds(10)));
  // Same connection, FIFO: node 1 read the bad frame before the message it
  // acknowledged.
  EXPECT_EQ(counter(*nodes[1], "core.frames_malformed"), 1u);
  nodes.clear();
  t0.shutdown();
  t1.shutdown();
}

TEST(TcpIntegration, NodeRestartHealsAndResumes) {
  // Kill one TCP node mid-run; peers buffer frames for it; a new transport
  // on the same port rejoins and the buffered frames flow.
  auto addrs = free_loopback_addrs(2);
  TcpTransport alpha(0, addrs);
  std::vector<std::string> got;
  std::mutex m;
  auto make_handler = [&](TcpTransport& t) {
    t.set_receive_handler([&](NodeId, BytesView frame, uint64_t) {
      std::lock_guard<std::mutex> l(m);
      got.push_back(to_string(frame));
    });
  };
  {
    TcpTransport beta(1, addrs);
    make_handler(beta);
    ASSERT_TRUE(alpha.wait_connected(seconds(10)));
    alpha.send(1, to_bytes("before-crash"));
    for (int i = 0; i < 2000; ++i) {
      {
        std::lock_guard<std::mutex> l(m);
        if (!got.empty()) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    beta.shutdown();
  }  // beta is gone

  alpha.send(1, to_bytes("while-down-1"));
  alpha.send(1, to_bytes("while-down-2"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  TcpTransport beta2(1, addrs);  // restart on the same port
  make_handler(beta2);
  for (int i = 0; i < 5000; ++i) {
    {
      std::lock_guard<std::mutex> l(m);
      if (got.size() >= 3) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> l(m);
  ASSERT_GE(got.size(), 3u);
  EXPECT_EQ(got[0], "before-crash");
  EXPECT_EQ(got[1], "while-down-1");
  EXPECT_EQ(got[2], "while-down-2");
}

TEST(ConfigIntegration, ParsedTopologyDrivesCluster) {
  auto parsed = parse_topology(R"(
# Two regions; the east-west long-haul path is one shared pipe.
node e1 az east
node e2 az east
node w1 az west

bilink e1 e2 lat_ms 1 bw_mbps 1000
link e1 w1 lat_ms 30 bw_mbps 8 pipe haul_out
link e2 w1 lat_ms 30 bw_mbps 8 pipe haul_out
link w1 e1 lat_ms 30 bw_mbps 8 pipe haul_in
link w1 e2 lat_ms 30 bw_mbps 8 pipe haul_in
)");
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  Topology topo = parsed.value();

  sim::Simulator sim;
  SimCluster cluster(topo, sim);
  // Both east nodes share the 8 Mbit/s haul: two concurrent 1 MB transfers
  // to w1 take ~2 s in total rather than ~1 s each in parallel.
  TimePoint first = kTimeZero, second = kTimeZero;
  int arrivals = 0;
  cluster.transport(2).set_receive_handler([&](NodeId, BytesView, uint64_t) {
    (++arrivals == 1 ? first : second) = sim.now();
  });
  cluster.transport(0).send(2, Bytes(), 1'000'000);
  cluster.transport(1).send(2, Bytes(), 1'000'000);
  sim.run();
  ASSERT_EQ(arrivals, 2);
  EXPECT_NEAR(to_sec(first), 1.03, 0.05);
  EXPECT_NEAR(to_sec(second), 2.03, 0.05);
}

TEST(ConfigIntegration, AppsRunOnParsedTopology) {
  auto parsed = parse_topology(R"(
node alpha az north
node beta az north
node gamma az south
node delta az south
bilink alpha beta lat_ms 2 bw_mbps 500
bilink alpha gamma lat_ms 40 bw_mbps 50
bilink alpha delta lat_ms 45 bw_mbps 50
bilink beta gamma lat_ms 40 bw_mbps 50
bilink beta delta lat_ms 45 bw_mbps 50
bilink gamma delta lat_ms 2 bw_mbps 500
)");
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  Topology topo = parsed.value();

  sim::Simulator sim;
  SimCluster cluster(topo, sim);
  auto owner = [&topo](const std::string& key) {
    auto id = topo.find_node(key.substr(0, key.find('/')));
    return id ? *id : kInvalidNode;
  };
  std::vector<std::unique_ptr<Stabilizer>> stabs;
  std::vector<std::unique_ptr<store::LocalStore>> stores;
  std::vector<std::unique_ptr<kv::WanKV>> kvs;
  std::vector<std::unique_ptr<backup::BackupService>> services;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    StabilizerOptions opts;
    opts.topology = topo;
    opts.self = n;
    stabs.push_back(std::make_unique<Stabilizer>(opts, cluster.transport(n)));
    stores.push_back(std::make_unique<store::LocalStore>());
    kvs.push_back(
        std::make_unique<kv::WanKV>(*stabs.back(), *stores.back(), owner));
    services.push_back(std::make_unique<backup::BackupService>(
        *kvs.back(), topo.node(n).name));
  }

  // The standard predicates derive the region structure from the parsed az
  // names: one remote region ("south") for node alpha.
  auto preds = backup::BackupService::standard_predicates(topo, 0);
  EXPECT_EQ(preds["AllRegions"], "MIN(MAX($AZ_south))");
  ASSERT_TRUE(services[0]->register_standard_predicates());

  auto result = services[0]->backup_file("doc.txt", to_bytes("content"));
  ASSERT_TRUE(result.is_ok()) << result.message();
  TimePoint az_done = kTimeZero, all_done = kTimeZero;
  services[0]->wait_stable(result.value(), "OneWNode",
                           [&](SeqNum) { az_done = sim.now(); });
  services[0]->wait_stable(result.value(), "AllWNodes",
                           [&](SeqNum) { all_done = sim.now(); });
  sim.run();
  EXPECT_LT(to_ms(az_done), 10.0);    // beta, 2 ms away
  EXPECT_GT(to_ms(all_done), 85.0);   // delta, 45 ms away, + ack return
  for (NodeId n = 1; n < 4; ++n)
    EXPECT_TRUE(services[n]->fetch("alpha", "doc.txt").has_value());
}

}  // namespace
}  // namespace stab
