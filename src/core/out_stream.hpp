// The send side of one stream a node sequences (paper §III-B): its own, or
// one it adopted by winning a failover election (DESIGN.md §4d, §6.3). Its
// destinations are every peer except the node itself, the stream's origin
// and excluded peers. An OutStream is part of its Stabilizer: it reads the
// node's options, transport, ack tables, exclusion set, stream epochs and
// counters, and every call runs under the node's API mutex.
#pragma once

#include <memory>
#include <vector>

#include "data/out_buffer.hpp"

namespace stab {

class Stabilizer;

class OutStream {
 public:
  OutStream(const Stabilizer& node, NodeId origin, SeqNum start_seq);

  NodeId origin() const { return origin_; }
  SeqNum last_assigned() const { return sequencer_.last_assigned(); }
  uint64_t buffered_bytes() const { return out_.buffered_bytes(); }
  /// Highest seq reclaimed since construction (kNoSeq: none).
  SeqNum reclaimed_through() const { return reclaimed_; }
  // For the own stream's snapshot and restore.
  data::Sequencer& sequencer() { return sequencer_; }
  data::OutBuffer& buffer() { return out_; }
  const data::OutBuffer& buffer() const { return out_; }

  /// Sequences one message into the send buffer; returns its seq.
  SeqNum push(BytesView payload, uint64_t virtual_size);
  /// Transmits to each destination up to send_window beyond its receive
  /// ack, packing runs of small messages into DATABATCH frames if enabled.
  void pump();
  /// The fallback repair: resends what follows its receive ack to each
  /// destination whose ack has not moved since the last probe.
  void probe();
  /// Resends [from, to] to `peer` (its NACK, or the probe), clamped to what
  /// the buffer holds, what `peer` was sent and retransmit_window messages.
  /// False when `peer` is not a destination of this stream.
  bool resend(NodeId peer, SeqNum from, SeqNum to);
  /// Drops every message all destinations have received.
  void reclaim();
  /// `peer` restarted having delivered through `from - 1`: move its window
  /// back to `from` (never forward) and restart its probe progress.
  void rewind(NodeId peer, SeqNum from);
  /// After a restore: start each peer's window past what it acknowledged.
  void restart_cursors();

 private:
  bool is_destination(NodeId peer) const;
  /// True when the slot is small enough to ride inside a DATABATCH.
  bool coalescable(const data::OutBuffer::Slot& slot) const;
  void transmit(NodeId dst, const data::OutBuffer::Slot& slot);
  /// Transmits slots [first, first + count) to `dst` as one DATABATCH frame.
  void transmit_batch(NodeId dst, SeqNum first, size_t count);

  const Stabilizer& node_;
  NodeId origin_;
  data::Sequencer sequencer_;
  data::OutBuffer out_;
  std::vector<SeqNum> next_to_send_;    // per-peer window cursor
  std::vector<SeqNum> acked_at_probe_;  // per-peer ack at the last probe
  SeqNum reclaimed_ = kNoSeq;
  // Last encoded DATABATCH, keyed by (first_seq, count). Sequence numbers
  // are never reused and slots are immutable until reclaim, so a hit is
  // always valid — a broadcast encodes each batch once and every peer's
  // flush reuses it. Per stream: another stream's batch has the same keys.
  SeqNum batch_first_ = kNoSeq;
  size_t batch_count_ = 0;
  std::shared_ptr<const Bytes> batch_frame_;
  uint64_t batch_wire_ = 0;
};

}  // namespace stab
