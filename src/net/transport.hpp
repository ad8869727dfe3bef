// Transport abstraction.
//
// A Transport gives one WAN node FIFO, loss-reported point-to-point frame
// delivery to every other node in the cluster, plus the Env that drives its
// timers. Three implementations:
//   * SimTransport    — on SimNetwork, deterministic virtual time
//   * InProcTransport — threads + queues in one process, real time
//   * TcpTransport    — epoll sockets, real time (multi-process capable);
//                       sockets, timers and Stabilizer work share the node's
//                       one RealtimeEnv thread
//
// FIFO per (src,dst) pair is the transport contract the paper's data plane
// relies on ("a basic reliability mechanism that ensures lossless FIFO
// delivery", §I). SimNetwork can be configured lossy for fault-injection
// tests; the data plane's retransmission recovers losslessness on top.
#pragma once

#include <functional>
#include <memory>

#include "common/bytes.hpp"
#include "common/env.hpp"
#include "common/types.hpp"

namespace stab {

class Transport {
 public:
  /// Called on the transport's Env thread when a frame arrives. `wire_size`
  /// is the size the frame occupied on the (possibly simulated) wire; it is
  /// >= frame.size() when the sender attached virtual padding.
  ///
  /// `frame` is a view into a buffer the transport owns for the duration of
  /// the call only — handlers must decode (or copy) before returning. This
  /// is what lets a broadcast fan out one refcounted buffer with zero
  /// per-receiver copies.
  using ReceiveHandler =
      std::function<void(NodeId src, BytesView frame, uint64_t wire_size)>;

  virtual ~Transport() = default;

  /// This node's id in the cluster. Constant for the transport's lifetime;
  /// callable from any thread.
  virtual NodeId self() const = 0;

  /// Number of nodes in the configured cluster (valid NodeIds are
  /// [0, cluster_size)). Constant; callable from any thread.
  virtual size_t cluster_size() const = 0;

  /// Install (or, with nullptr, remove) the frame sink. At most one handler
  /// is active. InProc and Tcp gate delivery, so once this returns the old
  /// handler is never called again, even with traffic in flight (a
  /// destructing Stabilizer relies on this); never call it from inside the
  /// handler. SimTransport is single-threaded by construction.
  virtual void set_receive_handler(ReceiveHandler handler) = 0;

  /// Queue a frame to `dst`. Never blocks; safe from any thread (real
  /// transports lock internally; SimTransport is single-threaded by
  /// construction). `wire_size` (0 = frame.size()) models payload bytes
  /// that are accounted for bandwidth but not carried (trace replay); real
  /// transports ignore the padding.
  virtual void send(NodeId dst, Bytes frame, uint64_t wire_size = 0) = 0;

  /// Queue an already-encoded frame that the caller also keeps (encode-once
  /// fan-out: the same buffer goes to every peer and is retained for
  /// retransmits). The default copies for transports that predate the fast
  /// path; Sim/InProc enqueue the refcounted buffer directly and Tcp
  /// scatter-gathers it from the socket queue, so fan-out is zero-copy.
  /// Same blocking/threading contract as send(); the buffer must never be
  /// mutated after handoff (receivers may still be reading it).
  virtual void send_shared(NodeId dst, std::shared_ptr<const Bytes> frame,
                           uint64_t wire_size = 0) {
    send(dst, Bytes(*frame), wire_size);
  }

  /// The Env all of this node's Stabilizer work runs on — its clock stamps
  /// timers, trace records, and eval timings (virtual time on SimTransport,
  /// monotonic real time otherwise). The reference outlives the transport's
  /// users; scheduling into it is thread-safe per the Env contract.
  virtual Env& env() = 0;

  /// True when every ReceiveHandler invocation, and every other call into
  /// this node, is serialized on one thread (the simulator's single virtual
  /// thread). The Stabilizer then applies report_stability directly instead
  /// of through its lock-free report cells and posted drain, which keeps the
  /// simulator's schedule deterministic (DESIGN.md §4f).
  virtual bool single_threaded() const { return false; }

  /// No-op, kept declared because perfbench's ProbeTransport
  /// (perfbench/src/harness.hpp) still overrides it. Every transport hands
  /// received frames to the node's Env thread, and no implementation or
  /// caller in the library uses it.
  virtual void set_direct_dispatch(bool) {}
};

}  // namespace stab
