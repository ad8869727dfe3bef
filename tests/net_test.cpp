// Tests for the transports: sim (with topology pipes), in-process threads,
// and real TCP sockets on loopback.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "config/topology.hpp"
#include "net/inproc_transport.hpp"
#include "net/metrics_endpoint.hpp"
#include "net/sim_transport.hpp"
#include "net/tcp_transport.hpp"

namespace stab {
namespace {

// --- SimCluster -------------------------------------------------------------

TEST(SimCluster, WiresTopologyLatency) {
  sim::Simulator sim;
  SimCluster cluster(cloudlab_topology(), sim);
  auto& t0 = cluster.transport(cloudlab::kUtah1);
  auto& t2 = cluster.transport(cloudlab::kWisconsin);

  TimePoint got = kTimeZero;
  t2.set_receive_handler(
      [&](NodeId src, BytesView, uint64_t) {
        EXPECT_EQ(src, cloudlab::kUtah1);
        got = sim.now();
      });
  t0.send(cloudlab::kWisconsin, to_bytes("ping"));
  sim.run();
  EXPECT_NEAR(to_ms(got), 35.612 / 2, 0.01);
}

TEST(SimCluster, PipeGroupsShareBandwidth) {
  Topology topo;
  NodeId a = topo.add_node("a", "az1");
  NodeId b = topo.add_node("b", "az2");
  NodeId c = topo.add_node("c", "az2");
  LinkSpec s;
  s.bandwidth_bps = 8e6;
  s.pipe_group = "to_az2";
  topo.set_link(a, b, s);
  topo.set_link(a, c, s);

  sim::Simulator sim;
  SimCluster cluster(topo, sim);
  TimePoint at_b = kTimeZero, at_c = kTimeZero;
  cluster.transport(b).set_receive_handler(
      [&](NodeId, BytesView, uint64_t) { at_b = sim.now(); });
  cluster.transport(c).set_receive_handler(
      [&](NodeId, BytesView, uint64_t) { at_c = sim.now(); });

  cluster.transport(a).send(b, Bytes(), 1'000'000);
  cluster.transport(a).send(c, Bytes(), 1'000'000);
  sim.run();
  EXPECT_EQ(at_b, seconds(1));
  EXPECT_EQ(at_c, seconds(2));  // shared pipe serialized the transfers
}

TEST(SimCluster, SelfDescribes) {
  sim::Simulator sim;
  SimCluster cluster(ec2_topology(), sim);
  EXPECT_EQ(cluster.transport(0).self(), 0u);
  EXPECT_EQ(cluster.transport(0).cluster_size(), 8u);
  EXPECT_EQ(&cluster.transport(3).env(), &sim);
}

// --- InProcCluster ----------------------------------------------------------

TEST(InProc, DeliversBetweenThreads) {
  InProcCluster cluster(3);
  std::atomic<int> got{0};
  cluster.transport(1).set_receive_handler(
      [&](NodeId src, BytesView frame, uint64_t) {
        EXPECT_EQ(src, 0u);
        EXPECT_EQ(to_string(frame), "hello");
        ++got;
      });
  cluster.transport(0).send(1, to_bytes("hello"));
  for (int i = 0; i < 500 && got == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(got.load(), 1);
}

TEST(InProc, FifoPerPeer) {
  InProcCluster cluster(2);
  std::mutex m;
  std::vector<uint32_t> got;
  cluster.transport(1).set_receive_handler(
      [&](NodeId, BytesView frame, uint64_t) {
        Reader r(frame);
        std::lock_guard<std::mutex> l(m);
        got.push_back(r.u32());
      });
  const int kCount = 200;
  for (int i = 0; i < kCount; ++i) {
    Writer w;
    w.u32(static_cast<uint32_t>(i));
    cluster.transport(0).send(1, std::move(w).take());
  }
  for (int i = 0; i < 2000; ++i) {
    {
      std::lock_guard<std::mutex> l(m);
      if (got.size() == kCount) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> l(m);
  ASSERT_EQ(got.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(got[i], static_cast<uint32_t>(i));
}

TEST(InProc, AppliesTopologyLatency) {
  Topology topo;
  topo.add_node("a", "x");
  topo.add_node("b", "y");
  LinkSpec s;
  s.latency = millis(50);
  topo.set_link(0, 1, s);
  InProcCluster cluster(2, &topo);
  std::atomic<bool> got{false};
  auto start = std::chrono::steady_clock::now();
  std::atomic<int64_t> elapsed_ms{0};
  cluster.transport(1).set_receive_handler([&](NodeId, BytesView, uint64_t) {
    elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    got = true;
  });
  cluster.transport(0).send(1, to_bytes("x"));
  for (int i = 0; i < 1000 && !got; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(got.load());
  EXPECT_GE(elapsed_ms.load(), 45);
}

// --- shared-frame fan-out ---------------------------------------------------

TEST(SimCluster, SharedFanOutDeliversWithoutCopy) {
  Topology topo;
  NodeId a = topo.add_node("a", "az1");
  NodeId b = topo.add_node("b", "az2");
  NodeId c = topo.add_node("c", "az3");
  topo.set_link(a, b, LinkSpec{});
  topo.set_link(a, c, LinkSpec{});

  sim::Simulator sim;
  SimCluster cluster(topo, sim);
  const uint8_t* seen_b = nullptr;
  const uint8_t* seen_c = nullptr;
  cluster.transport(b).set_receive_handler(
      [&](NodeId, BytesView frame, uint64_t) { seen_b = frame.data(); });
  cluster.transport(c).set_receive_handler(
      [&](NodeId, BytesView frame, uint64_t) { seen_c = frame.data(); });

  auto frame = std::make_shared<const Bytes>(to_bytes("refcounted fan-out"));
  cluster.transport(a).send_shared(b, frame);
  cluster.transport(a).send_shared(c, frame);
  sim.run();

  // Every receiver observed the single shared buffer, byte-for-byte in place.
  EXPECT_EQ(seen_b, frame->data());
  EXPECT_EQ(seen_c, frame->data());
}

TEST(InProc, SharedFanOutDeliversSameBuffer) {
  InProcCluster cluster(3);
  std::atomic<const uint8_t*> seen1{nullptr};
  std::atomic<const uint8_t*> seen2{nullptr};
  cluster.transport(1).set_receive_handler(
      [&](NodeId, BytesView frame, uint64_t) {
        EXPECT_EQ(to_string(frame), "one buffer, two threads");
        seen1 = frame.data();
      });
  cluster.transport(2).set_receive_handler(
      [&](NodeId, BytesView frame, uint64_t) {
        EXPECT_EQ(to_string(frame), "one buffer, two threads");
        seen2 = frame.data();
      });

  auto frame =
      std::make_shared<const Bytes>(to_bytes("one buffer, two threads"));
  cluster.transport(0).send_shared(1, frame);
  cluster.transport(0).send_shared(2, frame);
  for (int i = 0; i < 2000 && (!seen1.load() || !seen2.load()); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_NE(seen1.load(), nullptr);
  ASSERT_NE(seen2.load(), nullptr);
  EXPECT_EQ(seen1.load(), frame->data());
  EXPECT_EQ(seen2.load(), frame->data());
}

// --- TcpTransport -----------------------------------------------------------

TEST(Tcp, ConnectsAndDelivers) {
  auto addrs = free_loopback_addrs(2);
  TcpTransport a(0, addrs), b(1, addrs);
  ASSERT_TRUE(a.wait_connected(seconds(5)));
  ASSERT_TRUE(b.wait_connected(seconds(5)));

  std::atomic<int> got{0};
  b.set_receive_handler([&](NodeId src, BytesView frame, uint64_t) {
    EXPECT_EQ(src, 0u);
    EXPECT_EQ(to_string(frame), "over tcp");
    ++got;
  });
  a.send(1, to_bytes("over tcp"));
  for (int i = 0; i < 2000 && got == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(got.load(), 1);
}

TEST(Tcp, BidirectionalAndFifo) {
  auto addrs = free_loopback_addrs(3);
  TcpTransport a(0, addrs), b(1, addrs), c(2, addrs);
  ASSERT_TRUE(a.wait_connected(seconds(5)));
  ASSERT_TRUE(b.wait_connected(seconds(5)));
  ASSERT_TRUE(c.wait_connected(seconds(5)));

  std::mutex m;
  std::vector<uint32_t> at_c;
  c.set_receive_handler([&](NodeId src, BytesView frame, uint64_t) {
    Reader r(frame);
    uint32_t v = r.u32();
    std::lock_guard<std::mutex> l(m);
    if (src == 0) at_c.push_back(v);
  });
  std::atomic<int> at_a{0};
  a.set_receive_handler([&](NodeId src, BytesView, uint64_t) {
    if (src == 2) ++at_a;
  });

  const int kCount = 300;
  for (int i = 0; i < kCount; ++i) {
    Writer w;
    w.u32(static_cast<uint32_t>(i));
    a.send(2, std::move(w).take());
  }
  c.send(0, to_bytes("reply"));

  for (int i = 0; i < 5000; ++i) {
    {
      std::lock_guard<std::mutex> l(m);
      if (at_c.size() == kCount && at_a > 0) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> l(m);
  ASSERT_EQ(at_c.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(at_c[i], static_cast<uint32_t>(i));
  EXPECT_GE(at_a.load(), 1);
}

TEST(Tcp, BuffersWhilePeerDown) {
  auto addrs = free_loopback_addrs(2);
  TcpTransport a(0, addrs);
  // Peer 1 is not up yet; frames must be buffered, not lost.
  a.send(1, to_bytes("early-1"));
  a.send(1, to_bytes("early-2"));

  TcpTransport b(1, addrs);
  std::mutex m;
  std::vector<std::string> got;
  b.set_receive_handler([&](NodeId, BytesView frame, uint64_t) {
    std::lock_guard<std::mutex> l(m);
    got.push_back(to_string(frame));
  });
  for (int i = 0; i < 5000; ++i) {
    {
      std::lock_guard<std::mutex> l(m);
      if (got.size() == 2) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> l(m);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "early-1");
  EXPECT_EQ(got[1], "early-2");
}

TEST(Tcp, ReconnectBackoffGrowsCapsAndResetsOnConnect) {
  auto addrs = free_loopback_addrs(2);
  TcpTransportOptions opts;
  opts.reconnect_initial = millis(5);
  opts.reconnect_max = millis(40);
  opts.reconnect_jitter = 0.2;
  TcpTransport a(0, addrs, opts);  // peer 1 absent: every dial fails

  Duration max_seen = Duration::zero();
  for (int i = 0; i < 600; ++i) {
    max_seen = std::max(max_seen, a.current_backoff(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Grew beyond the initial delay and capped at reconnect_max (+ jitter).
  EXPECT_GT(max_seen, millis(5));
  EXPECT_LE(max_seen, millis(48));

  TcpTransport b(1, addrs);
  ASSERT_TRUE(a.wait_connected(seconds(5)));
  for (int i = 0; i < 1000 && a.current_backoff(1) != Duration::zero(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(a.current_backoff(1), Duration::zero());  // reset for next outage
}

TEST(Tcp, PendingBufferBoundDropsOldestFirst) {
  auto addrs = free_loopback_addrs(2);
  TcpTransportOptions opts;
  opts.max_pending_bytes = 4096;
  TcpTransport a(0, addrs, opts);

  const uint32_t kCount = 100;
  for (uint32_t i = 0; i < kCount; ++i) {
    Writer w;
    w.u32(i);
    w.blob(Bytes(100));  // ~100+ bytes per frame: far beyond the bound
    a.send(1, std::move(w).take());
  }
  EXPECT_LE(a.pending_bytes(1), opts.max_pending_bytes);
  EXPECT_GT(a.pending_dropped_frames(), 0u);

  TcpTransport b(1, addrs);
  std::mutex m;
  std::vector<uint32_t> got;
  b.set_receive_handler([&](NodeId, BytesView frame, uint64_t) {
    Reader r(frame);
    std::lock_guard<std::mutex> l(m);
    got.push_back(r.u32());
  });
  for (int i = 0; i < 5000; ++i) {
    {
      std::lock_guard<std::mutex> l(m);
      if (!got.empty() && got.back() == kCount - 1) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> l(m);
  // Oldest frames were dropped; what survived is the newest contiguous
  // tail, delivered in order and ending with the last send.
  ASSERT_FALSE(got.empty());
  EXPECT_LT(got.size(), static_cast<size_t>(kCount));
  EXPECT_EQ(got.back(), kCount - 1);
  for (size_t i = 1; i < got.size(); ++i) EXPECT_EQ(got[i], got[i - 1] + 1);
}

TEST(Tcp, LargeFrame) {
  auto addrs = free_loopback_addrs(2);
  TcpTransport a(0, addrs), b(1, addrs);
  ASSERT_TRUE(a.wait_connected(seconds(5)));

  Bytes big(512 * 1024);
  for (size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<uint8_t>(i * 31 + 7);
  std::atomic<bool> ok{false};
  b.set_receive_handler([&](NodeId, BytesView frame, uint64_t) {
    ok = std::equal(frame.begin(), frame.end(), big.begin(), big.end());
  });
  a.send(1, big);
  for (int i = 0; i < 5000 && !ok; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(ok.load());
}

TEST(Tcp, SendSharedScatterGathersPrefixAndBody) {
  auto addrs = free_loopback_addrs(2);
  TcpTransport a(0, addrs), b(1, addrs);
  ASSERT_TRUE(a.wait_connected(seconds(5)));

  // Mix shared and copied sends so the writev path interleaves two-iovec
  // (header + refcounted body) frames with plain single-buffer frames, and
  // verify FIFO survives partial-write bookkeeping.
  std::mutex m;
  std::vector<std::string> got;
  b.set_receive_handler([&](NodeId src, BytesView frame, uint64_t) {
    EXPECT_EQ(src, 0u);
    std::lock_guard<std::mutex> l(m);
    got.push_back(to_string(frame));
  });

  auto shared = std::make_shared<const Bytes>(to_bytes("shared body"));
  a.send_shared(1, shared);
  a.send(1, to_bytes("copied"));
  a.send_shared(1, shared);

  for (int i = 0; i < 5000; ++i) {
    {
      std::lock_guard<std::mutex> l(m);
      if (got.size() == 3) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> l(m);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "shared body");
  EXPECT_EQ(got[1], "copied");
  EXPECT_EQ(got[2], "shared body");
}

size_t thread_count() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

TEST(Tcp, ReceiveHandlerRunsOnTheEnvThreadAndANodeIsOneThread) {
  auto addrs = free_loopback_addrs(2);
  const size_t before = thread_count();
  TcpTransport a(0, addrs), b(1, addrs);
  EXPECT_EQ(thread_count(), before + 2);
  ASSERT_TRUE(a.wait_connected(seconds(5)));

  std::promise<std::thread::id> env_thread;
  b.env().post([&] { env_thread.set_value(std::this_thread::get_id()); });
  const std::thread::id env_id = env_thread.get_future().get();
  std::atomic<bool> got{false};
  std::thread::id handler_id;
  b.set_receive_handler([&](NodeId, BytesView, uint64_t) {
    handler_id = std::this_thread::get_id();
    got = true;
  });
  a.send(1, to_bytes("which thread"));
  for (int i = 0; i < 5000 && !got; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(got.load());
  EXPECT_EQ(handler_id, env_id);
  EXPECT_NE(handler_id, std::this_thread::get_id());
}

TEST(Tcp, UnhookedHandlerIsNeverCalledAgain) {
  auto addrs = free_loopback_addrs(2);
  TcpTransport a(0, addrs), b(1, addrs);
  ASSERT_TRUE(a.wait_connected(seconds(5)));

  // The handler's owner is freed right after the unhook while traffic keeps
  // flowing, as when a Stabilizer is destroyed and its peers keep sending.
  struct Owner {
    std::atomic<uint64_t> frames{0};
  };
  auto owner = std::make_unique<Owner>();
  std::atomic<bool> unhooked{false};
  std::atomic<uint64_t> late{0};
  b.set_receive_handler(
      [&unhooked, &late, o = owner.get()](NodeId, BytesView, uint64_t) {
        if (unhooked.load()) late.fetch_add(1);
        o->frames.fetch_add(1);
        // Slow enough that arriving frames queue up behind the handler.
        auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(2);
        while (std::chrono::steady_clock::now() < until) {
        }
      });
  std::atomic<bool> stop{false};
  std::thread sender([&] {
    while (!stop) {
      for (int i = 0; i < 64; ++i) a.send(1, to_bytes("flood"));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (int i = 0; i < 5000 && owner->frames.load() < 2000; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(owner->frames.load(), 2000u);
  b.set_receive_handler(nullptr);
  unhooked = true;
  owner.reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop = true;
  sender.join();
  EXPECT_EQ(late.load(), 0u);
}

// A raw client speaking the transport's framing, host byte order:
// u32 body_len | u32 kind (1 HELLO, 2 data) | u32 src | body.
Bytes raw_frame(uint32_t body_len, uint32_t kind, uint32_t src,
                const std::string& body = "") {
  Writer w;
  w.u32(body_len);
  w.u32(kind);
  w.u32(src);
  w.raw(body.data(), body.size());
  return std::move(w).take();
}

Bytes cat(Bytes a, const Bytes& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

int raw_connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// True once the other end closes the socket (EOF or reset) within 5 s.
bool closed_by_peer(int fd) {
  timeval tv{5, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  char buf[64];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) return true;
    if (n < 0) return errno == ECONNRESET;
  }
}

TEST(Tcp, HostileFramesCloseOnlyTheirConnection) {
  // Node 2 is under attack. Node 1 is a real peer; a raw socket plays node
  // 0, which node 2 accepts because the smaller id dials.
  auto addrs = free_loopback_addrs(3);
  TcpTransport victim(2, addrs), good(1, addrs);
  std::mutex m;
  std::vector<std::string> got;
  victim.set_receive_handler([&](NodeId src, BytesView frame, uint64_t) {
    std::lock_guard<std::mutex> l(m);
    got.push_back(std::to_string(src) + ":" + to_string(frame));
  });
  auto received = [&](const std::string& want) {
    for (int i = 0; i < 5000; ++i) {
      {
        std::lock_guard<std::mutex> l(m);
        if (std::find(got.begin(), got.end(), want) != got.end()) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };

  const Bytes hello = raw_frame(8, 1, 0);
  const struct {
    const char* what;
    Bytes wire;
  } cases[] = {
      {"length that wraps 32-bit arithmetic",
       cat(hello, raw_frame(0xFFFFFFFCu, 2, 0, "x"))},
      {"zero length", cat(hello, Bytes(4, 0))},
      {"length below the header", cat(hello, raw_frame(4, 2, 0))},
      {"length above the cap",
       cat(hello, raw_frame(TcpTransport::kMaxFrameBody + 1, 2, 0, "x"))},
      {"src differs from HELLO", cat(hello, raw_frame(8 + 5, 2, 1, "spoof"))},
      {"HELLO with the victim's own id", raw_frame(8, 1, 2)},
      {"HELLO with a bad length", raw_frame(0, 1, 0)},
  };
  int i = 0;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    int fd = raw_connect(addrs[2].port);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, c.wire.data(), c.wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(c.wire.size()));
    EXPECT_TRUE(closed_by_peer(fd));
    ::close(fd);
    // The transport survived and still delivers from the real peer.
    const std::string msg = "alive-" + std::to_string(i++);
    good.send(2, to_bytes(msg));
    EXPECT_TRUE(received("1:" + msg));
  }
  std::lock_guard<std::mutex> l(m);
  for (const std::string& g : got) EXPECT_EQ(g.rfind("0:", 0), std::string::npos) << g;
}

#if STAB_OBS_ENABLED

// --- MetricsEndpoint --------------------------------------------------------

// Minimal scrape client mirroring tools/stab_metrics_scrape: connect, send
// one GET, return the response body (empty on any failure).
std::string http_get(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return {};
  }
  std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), 0);
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) resp.append(buf, n);
  ::close(fd);
  size_t body = resp.find("\r\n\r\n");
  if (resp.rfind("HTTP/1.0 200", 0) != 0 || body == std::string::npos)
    return {};
  return resp.substr(body + 4);
}

TEST(MetricsEndpoint, ServesPrometheusAndJsonlWithMonotoneCounters) {
  obs::MetricsRegistry reg;
  reg.counter("core.messages_sent").inc(3);
  reg.gauge("pipeline.depth").set(-2);
  reg.histogram("data.frame_bytes").record(100);

  obs::LatencyProbeOptions popt;
  popt.sample_every = 1;
  obs::LatencyProbe probe(popt);
  probe.on_send(0, 0, TimePoint{millis(1)});
  probe.on_deliver(1, 0, 0, TimePoint{millis(2)});
  TimePoint scrape_clock = TimePoint{seconds(10)};

  MetricsEndpoint ep;
  ep.add_registry("node0.", &reg);
  ep.add_probe("", &probe, [&] { return scrape_clock; });
  int pre_scrapes = 0;
  ep.set_pre_scrape([&] { ++pre_scrapes; });
  ASSERT_TRUE(ep.start().is_ok());
  ASSERT_NE(ep.port(), 0);

  std::string prom = http_get(ep.port(), "/metrics");
  ASSERT_FALSE(prom.empty());
  EXPECT_EQ(pre_scrapes, 1);
  // Names sanitized '.' -> '_', "stab_" prefixed; types declared.
  EXPECT_NE(prom.find("# TYPE stab_node0_core_messages_sent counter\n"
                      "stab_node0_core_messages_sent 3"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("stab_node0_pipeline_depth -2"), std::string::npos);
  EXPECT_NE(prom.find("stab_node0_data_frame_bytes{quantile=\"0.999\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("stab_node0_data_frame_bytes_count 1"),
            std::string::npos);
  // Probe histograms and their windowed views (epoch aged in by the scrape
  // clock the endpoint was handed).
  EXPECT_NE(prom.find("stab_probe_send_to_deliver_count 1"),
            std::string::npos);
  EXPECT_NE(prom.find("stab_probe_send_to_deliver_window{quantile=\"0.5\"}"),
            std::string::npos);

  // Counters must be monotone across scrapes.
  reg.counter("core.messages_sent").inc(2);
  std::string prom2 = http_get(ep.port(), "/metrics");
  EXPECT_NE(prom2.find("stab_node0_core_messages_sent 5"),
            std::string::npos);
  EXPECT_EQ(pre_scrapes, 2);

  std::string jsonl = http_get(ep.port(), "/jsonl");
  EXPECT_NE(jsonl.find("{\"name\":\"node0.core.messages_sent\","
                       "\"type\":\"counter\",\"value\":5}"),
            std::string::npos)
      << jsonl;
  EXPECT_NE(jsonl.find("\"type\":\"windowed_histogram\""),
            std::string::npos);

  // Unknown paths 404 (http_get returns empty on non-200).
  EXPECT_TRUE(http_get(ep.port(), "/nope").empty());
  ep.stop();
  // Stopped endpoint refuses connections.
  EXPECT_TRUE(http_get(ep.port(), "/metrics").empty());
}

TEST(MetricsEndpoint, RendersDeterministicallyWithoutServing) {
  obs::MetricsRegistry reg;
  reg.counter("a.b-c d").inc(1);  // hostile name: sanitized in prometheus
  MetricsEndpoint ep;
  ep.add_registry("", &reg);
  std::string p1 = ep.render_prometheus();
  std::string p2 = ep.render_prometheus();
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1.find("stab_a_b_c_d 1"), std::string::npos) << p1;
  EXPECT_EQ(ep.render_jsonl(), ep.render_jsonl());
}

#endif  // STAB_OBS_ENABLED

}  // namespace
}  // namespace stab
