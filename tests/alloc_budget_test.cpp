// Allocation budget of the control-plane receive path.
//
// This binary replaces the global operator new with one that counts calls on
// a thread-local counter. A node of a 16-node fleet (7 predicates and a
// monitor on each, for every origin stream) is driven straight through its
// transport receive handler: after warm-up, 1,000 ACKBATCH and 1,000
// REPORTBATCH frames must apply without a single allocation. The frames are
// read in place, their reports are grouped in reused per-depth scratch, and
// the engines dispatch through a dense index into reused dirty lists. The
// node is not an AZ aggregator: an aggregator's DeferredReporter::absorb
// still allocates per cell it notes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/stabilizer.hpp"
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
  const Topology topo = fleet_topology(4, 4);
  const size_t n = topo.num_nodes();
  ASSERT_NE(topo.az_aggregator(topo.az_of(kSelf)), kSelf);
  sim::Simulator sim;
  SimCluster cluster(topo, sim);
  CaptureTransport wire(cluster.transport(kSelf));
  StabilizerOptions opts;
  opts.topology = topo;
  opts.self = kSelf;
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

}  // namespace
}  // namespace stab
