// Allocation budget of the control plane.
//
// This binary replaces the global operator new with one that counts calls on
// a thread-local counter. A node of a 16-node fleet (7 predicates and a
// monitor on each, for every origin stream) is driven straight through its
// transport receive handler: after warm-up, 1,000 ACKBATCH and 1,000
// REPORTBATCH frames must apply without a single allocation. The frames are
// read in place, their reports are grouped in reused per-depth scratch, and
// the engines dispatch through a dense index into reused dirty lists. The
// report plane keeps the same budget: an AZ aggregator absorbs its members'
// blocks into its flat grid without allocating, and a flush allocates only
// the frames it encodes (and, for a broadcast, one shared_ptr each).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/stabilizer.hpp"
#include "counter_check.hpp"
#include "net/sim_transport.hpp"

namespace {
thread_local uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  ++t_allocations;
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace stab {
namespace {

/// Wraps the node's simulated transport and keeps the receive handler, so
/// the test can call it the way a transport does.
class CaptureTransport final : public Transport {
 public:
  explicit CaptureTransport(Transport& inner) : inner_(inner) {}
  NodeId self() const override { return inner_.self(); }
  size_t cluster_size() const override { return inner_.cluster_size(); }
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
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

  void deliver(NodeId src, const Bytes& frame) {
    handler_(src, frame, frame.size());
  }

 private:
  Transport& inner_;
  ReceiveHandler handler_;
};

/// A transport with a hand-fired clock: it drops every send (counting the
/// frames), keeps the receive handler, and holds scheduled callbacks until
/// the test fires them, so neither a network nor a timer queue allocates
/// inside a counted window.
class ManualTransport final : public Transport, public Env {
 public:
  explicit ManualTransport(size_t nodes) : nodes_(nodes) {
    due_.reserve(16);
    firing_.reserve(16);
  }
  NodeId self() const override { return 0; }
  size_t cluster_size() const override { return nodes_; }
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }
  void send(NodeId, Bytes, uint64_t) override { ++frames; }
  void send_shared(NodeId, std::shared_ptr<const Bytes> frame,
                   uint64_t) override {
    // Holding the last frame keeps the next one from reusing its address.
    if (frame != last_shared_) ++shared_frames;
    last_shared_ = std::move(frame);
  }
  Env& env() override { return *this; }
  bool single_threaded() const override { return true; }

  TimePoint now() const override { return TimePoint{}; }
  TimerId schedule_after(Duration, std::function<void()> fn) override {
    due_.push_back(std::move(fn));
    return due_.size();
  }
  void cancel(TimerId) override {}

  void deliver(NodeId src, const Bytes& frame) {
    handler_(src, frame, frame.size());
  }
  /// Runs every callback scheduled so far.
  void fire() {
    firing_.swap(due_);
    for (auto& fn : firing_) fn();
    firing_.clear();
  }

  uint64_t frames = 0;         // frames handed to send()
  uint64_t shared_frames = 0;  // distinct frames handed to send_shared()

 private:
  size_t nodes_;
  ReceiveHandler handler_;
  std::vector<std::function<void()>> due_, firing_;
  std::shared_ptr<const Bytes> last_shared_;
};

constexpr NodeId kSelf = 1;  // az0's second node; az0's aggregator is node 0

// sim_fleet's predicate set, seen from an az0 node of fleet_topology(4, 4).
const std::vector<std::pair<std::string, std::string>> kPredicates = {
    {"OneWNode", "MAX($ALLWNODES-$MYWNODE)"},
    {"MajorityWNodes", "KTH_MAX(SIZEOF($ALLWNODES)/2+1,($ALLWNODES-$MYWNODE))"},
    {"AllWNodes", "MIN($ALLWNODES-$MYWNODE)"},
    {"OneRegion", "MAX(MAX($AZ_az1),MAX($AZ_az2),MAX($AZ_az3))"},
    {"MajorityRegions", "KTH_MAX(2,MAX($AZ_az1),MAX($AZ_az2),MAX($AZ_az3))"},
    {"AllRegions", "MIN(MAX($AZ_az1),MAX($AZ_az2),MAX($AZ_az3))"},
    {"Persisted", "MIN(($ALLWNODES-$MYWNODE).persisted)"},
};

/// Frame k comes from peer k mod 15 and raises that peer's reports about
/// every origin stream to seq k / 15, so every frame advances cells, dirties
/// predicates and moves frontiers. Even frames are ACKBATCH (entries about
/// origin 0 carry extra bytes), odd ones REPORTBATCH; 15 peers being odd,
/// each peer alternates between the two.
NodeId peer_of(size_t k, size_t num_nodes) {
  return static_cast<NodeId>((kSelf + 1 + k % (num_nodes - 1)) % num_nodes);
}

Bytes frame(size_t k, size_t num_nodes) {
  const NodeId peer = peer_of(k, num_nodes);
  const auto seq = static_cast<SeqNum>(k / (num_nodes - 1));
  if (k % 2 == 0) {
    data::AckBatchFrame f;
    f.reporter = peer;
    for (NodeId o = 0; o < num_nodes; ++o)
      for (StabilityTypeId t : {StabilityTypeRegistry::kReceived,
                                StabilityTypeRegistry::kPersisted,
                                StabilityTypeRegistry::kDelivered})
        f.entries.push_back(
            data::AckEntry{o, t, seq, o == 0 ? to_bytes("x") : Bytes{}});
    return data::encode(f);
  }
  data::ReportBatchFrame f;
  f.forwarder = peer;
  data::ReportBlock b{peer, 0, {}};
  for (NodeId o = 0; o < num_nodes; ++o)
    for (StabilityTypeId t : {StabilityTypeRegistry::kReceived,
                              StabilityTypeRegistry::kPersisted})
      b.entries.push_back(data::ReportEntry{o, t, seq});
  f.blocks.push_back(std::move(b));
  return data::encode(f);
}

TEST(AllocBudget, ControlFramesApplyWithoutAllocating) {
  StabilizerOptions opts;
  opts.topology = fleet_topology(4, 4);
  opts.self = kSelf;
  const Topology& topo = opts.topology;
  const size_t n = topo.num_nodes();
  ASSERT_NE(topo.az_aggregator(topo.az_of(kSelf)), kSelf);
  sim::Simulator sim;
  SimCluster cluster(topo, sim);
  CaptureTransport wire(cluster.transport(kSelf));
  Stabilizer node(opts, wire);
  uint64_t fires = 0;
  for (const auto& [key, source] : kPredicates) {
    ASSERT_TRUE(node.register_predicate(key, source)) << key;
    for (NodeId o = 0; o < n; ++o)
      ASSERT_TRUE(node.monitor_stability_frontier(
          key, [&fires](SeqNum, BytesView) { ++fires; }, o));
  }

  constexpr size_t kWarmup = 400, kMeasured = 2000;  // half of each kind
  std::vector<Bytes> frames;
  for (size_t k = 0; k < kWarmup + kMeasured; ++k) frames.push_back(frame(k, n));
  uint64_t fires_at_warmup = 0;
  SeqNum frontier_at_warmup = kNoSeq;
  uint64_t allocations[2] = {0, 0};  // ACKBATCH, REPORTBATCH
  for (size_t k = 0; k < frames.size(); ++k) {
    if (k == kWarmup) {
      fires_at_warmup = fires;
      frontier_at_warmup = node.get_stability_frontier("AllWNodes", 0);
    }
    const uint64_t before = t_allocations;
    wire.deliver(peer_of(k, n), frames[k]);
    if (k >= kWarmup) allocations[k % 2] += t_allocations - before;
  }
  EXPECT_EQ(allocations[0], 0u) << "ACKBATCH";
  EXPECT_EQ(allocations[1], 0u) << "REPORTBATCH";
  // The measured frames did real work: frontiers moved and monitors fired.
  EXPECT_GT(fires, fires_at_warmup);
  EXPECT_GT(node.get_stability_frontier("AllWNodes", 0), frontier_at_warmup);
}

/// Node 0, az0's aggregator, absorbs its members' REPORTBATCH frames. The
/// flush runs between frames, outside the counted window, so every measured
/// frame lands in a freshly drained grid.
TEST(AllocBudget, AggregatorAbsorbsWithoutAllocating) {
  StabilizerOptions opts;
  opts.topology = fleet_topology(4, 4);
  opts.self = 0;
  opts.aggregate_reports = true;
  const Topology& topo = opts.topology;
  const size_t n = topo.num_nodes();
  ASSERT_EQ(topo.az_aggregator(topo.az_of(0)), NodeId{0});
  const std::vector<NodeId> members = topo.nodes_in_az(topo.az_of(0));
  ManualTransport wire(n);
  Stabilizer node(opts, wire);
  for (const auto& [key, source] : kPredicates)
    ASSERT_TRUE(node.register_predicate(key, source)) << key;

  constexpr size_t kWarmup = 300, kMeasured = 1500;
  std::vector<std::pair<NodeId, Bytes>> frames;
  for (size_t k = 0; k < kWarmup + kMeasured; ++k) {
    const NodeId member = members[1 + k % (members.size() - 1)];
    data::ReportBatchFrame f;
    f.forwarder = member;
    data::ReportBlock b{member, 0, {}};
    for (NodeId o = 0; o < n; ++o)
      for (StabilityTypeId t : {StabilityTypeRegistry::kReceived,
                                StabilityTypeRegistry::kPersisted})
        b.entries.push_back(
            data::ReportEntry{o, t, static_cast<SeqNum>(k / 3)});
    f.blocks.push_back(std::move(b));
    frames.emplace_back(member, data::encode(f));
  }
  uint64_t absorbing = 0, flushing = 0, flushes = 0;
  for (size_t k = 0; k < frames.size(); ++k) {
    uint64_t before = t_allocations;
    wire.deliver(frames[k].first, frames[k].second);
    if (k >= kWarmup) absorbing += t_allocations - before;
    const uint64_t shared = wire.shared_frames;
    before = t_allocations;
    wire.fire();
    if (k >= kWarmup) {
      flushing += t_allocations - before;
      flushes += wire.shared_frames - shared;
    }
  }
  EXPECT_EQ(absorbing, 0u);
  // One broadcast REPORTBATCH per flush: its encode and its shared_ptr.
  EXPECT_EQ(flushes, kMeasured);
  EXPECT_LE(flushing, 2 * flushes);
  EXPECT_GE(counter(node, "control.agg_blocks_absorbed"), kWarmup + kMeasured);
}

/// A mirror's flush allocates only what it encodes: one frame and its
/// shared_ptr for a broadcast, one frame per stream authority when reports
/// are origin-scoped.
TEST(AllocBudget, FlushAllocatesOnlyItsFrames) {
  for (bool broadcast : {true, false}) {
    StabilizerOptions opts;
    opts.topology = fleet_topology(4, 4);
    const size_t n = opts.topology.num_nodes();
    ManualTransport wire(n);
    opts.self = kSelf;
    opts.broadcast_acks = broadcast;
    Stabilizer node(opts, wire);
    constexpr SeqNum kWarmup = 50, kRounds = 400;
    uint64_t allocations = 0, budget = 0;
    for (SeqNum round = 0; round < kWarmup + kRounds; ++round) {
      for (NodeId o = 0; o < n; ++o)
        for (const char* type : {"persisted", "verified"})
          ASSERT_TRUE(node.report_stability(type, o, round));
      const uint64_t frames = wire.frames, shared = wire.shared_frames;
      const uint64_t before = t_allocations;
      wire.fire();
      if (round >= kWarmup) {
        allocations += t_allocations - before;
        budget += (wire.frames - frames) + 2 * (wire.shared_frames - shared);
      }
    }
    EXPECT_GT(budget, 0u) << "broadcast " << broadcast;
    EXPECT_LE(allocations, budget) << "broadcast " << broadcast;
  }
}

}  // namespace
}  // namespace stab
