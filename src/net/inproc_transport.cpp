#include "net/inproc_transport.hpp"

#include <thread>

#include "obs/obs.hpp"

namespace stab {

InProcTransport::InProcTransport(InProcCluster& cluster, NodeId self)
    : cluster_(cluster), self_(self) {}

size_t InProcTransport::cluster_size() const { return cluster_.size(); }

void InProcTransport::set_receive_handler(ReceiveHandler handler) {
  // Disarm, then wait for an in-flight dispatch on the Env thread to finish
  // before touching the function object:
  // ~Stabilizer clears the handler while the rest of the cluster keeps
  // delivering, and an invocation racing the swap would call into freed
  // state. seq_cst pairs with the count-then-check in dispatch().
  handler_armed_.store(false, std::memory_order_seq_cst);
  while (dispatches_in_flight_.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();
  handler_ = std::move(handler);
  if (handler_) handler_armed_.store(true, std::memory_order_seq_cst);
}

void InProcTransport::dispatch(NodeId src, BytesView frame,
                               uint64_t wire_size) {
  // Dekker-style gate against set_receive_handler: the count bump must be
  // ordered before the armed check, so a concurrent teardown either sees
  // our count and waits, or we see it disarmed and skip. While the count
  // is nonzero the handler object is guaranteed not to be mutated.
  dispatches_in_flight_.fetch_add(1, std::memory_order_seq_cst);
  if (handler_armed_.load(std::memory_order_seq_cst))
    handler_(src, frame, wire_size);
  dispatches_in_flight_.fetch_sub(1, std::memory_order_release);
}

void InProcTransport::send(NodeId dst, Bytes frame, uint64_t wire_size) {
  cluster_.deliver(self_, dst,
                   std::make_shared<const Bytes>(std::move(frame)), wire_size);
}

void InProcTransport::send_shared(NodeId dst,
                                  std::shared_ptr<const Bytes> frame,
                                  uint64_t wire_size) {
  cluster_.deliver(self_, dst, std::move(frame), wire_size);
}

Env& InProcTransport::env() { return cluster_.env(self_); }

InProcCluster::InProcCluster(size_t num_nodes, const Topology* topology)
    : latency_(num_nodes * num_nodes, Duration::zero()) {
  envs_.reserve(num_nodes);
  transports_.reserve(num_nodes);
  for (NodeId id = 0; id < num_nodes; ++id) {
    envs_.push_back(std::make_unique<RealtimeEnv>());
    transports_.push_back(std::make_unique<InProcTransport>(*this, id));
  }
  if (topology) {
    for (NodeId a = 0; a < num_nodes; ++a)
      for (NodeId b = 0; b < num_nodes; ++b)
        if (const LinkSpec* l = topology->link(a, b))
          latency_[a * num_nodes + b] = l->latency;
  }
}

InProcCluster::~InProcCluster() { shutdown(); }

void InProcCluster::shutdown() {
  for (auto& env : envs_) env->shutdown();
}

void InProcCluster::deliver(NodeId src, NodeId dst,
                            std::shared_ptr<const Bytes> frame,
                            uint64_t wire_size) {
  if (dst >= size()) return;
  if (wire_size < frame->size()) wire_size = frame->size();
  Duration lat = latency_[src * size() + dst];
  InProcTransport* t = transports_[dst].get();
  // Queue-depth gauge: frames scheduled on a destination Env but not yet
  // handed to its receive handler, summed over the cluster.
  static obs::Gauge& inflight = obs::global().gauge("net.inproc.in_flight");
  inflight.add(1);
  // The queued event keeps a reference on the (possibly shared) buffer; a
  // broadcast's N deliveries all point at the same bytes.
  envs_[dst]->schedule_after(lat, [t, src, frame = std::move(frame),
                                   wire_size]() {
    inflight.add(-1);
    t->dispatch(src, BytesView(*frame), wire_size);
  });
}

}  // namespace stab
