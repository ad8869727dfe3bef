// The receive side of one origin's stream at a mirror (paper §III-B). It
// admits DATA and DATABATCH frames under the stream's learned authority
// and delivers their messages in FIFO order, repairing loss by selective
// repeat (DESIGN.md §4d):
//   * a frame past a hole is held, up to retransmit_window past the
//     contiguous prefix, and delivered once the hole fills; frames beyond
//     that bound are dropped;
//   * the first frame past a new hole sends one NACK for the missing range
//     to the stream's primary, which resends exactly that range;
//   * the retransmit probe stays the fallback for a lost NACK, a lost
//     resend and loss at the tail of the stream;
//   * held frames go when the stream's authority changes: the new primary
//     reissues their seqs with its own messages.
// The receipt this node reports is the contiguous prefix, never a held
// frame, so the primary cannot reclaim a message this node has not
// delivered. Like OutStream, an InStream is part of its Stabilizer: it
// reads and writes the node's state, and every call runs under the node's
// API mutex.
#pragma once

#include <map>

#include "data/wire.hpp"

namespace stab {

class Stabilizer;

class InStream {
 public:
  InStream(Stabilizer& node, NodeId origin);

  /// Highest seq delivered contiguously (kNoSeq if none).
  SeqNum received_through() const { return next_ - 1; }

  void on_data(NodeId src, const data::DataView& frame, uint64_t wire_size);
  /// Runs each message of the batch through the per-message path, in
  /// order: a batch that spans a hole fills it and is held past it.
  void on_batch(NodeId src, const data::DataBatchFrame& batch);

  /// Recovery: resume after `received_through` if that is ahead of the
  /// cursor (monotonic). Discards held frames.
  void restore(SeqNum received_through);
  /// Failover epoch boundary: move the cursor to exactly
  /// `received_through` + 1, downward included. Used when a new primary's
  /// takeover start overlaps a prefix this node already consumed under the
  /// old epoch: the overlapping seqs re-deliver under the new authority
  /// rather than being dropped as stale. Discards held frames, which the
  /// old authority sent. Returns how far the cursor moved down.
  SeqNum reset(SeqNum received_through);
  /// Drops every held frame and forgets the NACKed range, so the next frame
  /// past a hole NACKs it afresh. Runs whenever the stream's authority
  /// changes, whatever the takeover does to the cursor.
  void discard_held();

 private:
  struct Held {
    NodeId src = kInvalidNode;
    Bytes payload;
    uint64_t wire_size = 0;
  };

  /// Stale epoch or a sender that is not the stream's learned authority:
  /// drop (fenced). Newer epoch than learned: drop (ahead; the hole it
  /// leaves is repaired once the takeover announcement lands). This node's
  /// own stream: drop.
  bool admit(NodeId src, PrimaryEpoch epoch);
  /// The receive rule for one message.
  void accept(NodeId src, SeqNum seq, BytesView payload, uint64_t wire_size);
  /// Delivers held frames that the cursor has reached.
  void drain_held();
  /// Origin rule + receipt, the delivery upcall and the delivered report.
  void deliver(NodeId src, SeqNum seq, BytesView payload, uint64_t wire_size);
  void nack(SeqNum from, SeqNum to);

  Stabilizer& node_;
  NodeId origin_;
  SeqNum next_ = 0;                 // next seq to deliver
  SeqNum nacked_through_ = kNoSeq;  // highest seq held or NACKed
  std::map<SeqNum, Held> held_;     // out-of-order frames past a hole
};

}  // namespace stab
