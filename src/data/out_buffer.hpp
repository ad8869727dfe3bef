// Send-side sequencing and buffering.
//
// Sequencer: the primary-site sequence counter — only the owner of a data
// pool assigns sequence numbers (paper §III-A), so one monotone counter per
// origin suffices.
//
// OutBuffer: holds sent messages until every peer has acknowledged receipt,
// at which point "the buffer space is reclaimed" (§III-B). It also serves
// the resends that repair loss on lossy links (NACKed ranges and the
// retransmit probe).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace stab::data {

class Sequencer {
 public:
  /// Sequence numbers start at 0 (so frontier kNoSeq = -1 naturally means
  /// "nothing stable").
  SeqNum next() { return next_++; }
  SeqNum last_assigned() const { return next_ - 1; }

  /// Recovery: never hand out a number <= `last` again (monotonic; a
  /// smaller argument is a no-op).
  void fast_forward(SeqNum last) {
    if (last + 1 > next_) next_ = last + 1;
  }

 private:
  SeqNum next_ = 0;
};

class OutBuffer {
 public:
  struct Slot {
    SeqNum seq;
    Bytes payload;
    uint64_t virtual_size;
    /// Encoded wire frame, filled lazily on first transmission and reused by
    /// every peer fan-out and retransmit (encode-once). Shared so
    /// transports can hold the buffer refcounted after the slot is
    /// reclaimed. Not counted by buffered_bytes(): that figure models the
    /// paper's application buffer occupancy, and the cache is an encoding
    /// of the same payload, dropped with the slot on reclaim.
    mutable std::shared_ptr<const Bytes> encoded;
  };

  /// Appends a message; seq must be exactly last+1 (FIFO stream).
  void push(SeqNum seq, Bytes payload, uint64_t virtual_size);

  /// Message with this seq, or nullptr if reclaimed / never pushed.
  const Slot* get(SeqNum seq) const;

  /// Drops every message with seq <= upto (all peers have it).
  void reclaim_through(SeqNum upto);

  /// Recovery: restart the (empty) buffer at `base` so pushes continue a
  /// restored sequencer. Throws std::logic_error if messages are retained.
  void reset_base(SeqNum base);

  SeqNum base() const { return base_; }          // lowest retained seq
  SeqNum last() const { return base_ + static_cast<SeqNum>(slots_.size()) - 1; }
  size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }
  uint64_t buffered_bytes() const { return buffered_bytes_; }

 private:
  SeqNum base_ = 0;  // seq of slots_.front()
  std::deque<Slot> slots_;
  uint64_t buffered_bytes_ = 0;
};

}  // namespace stab::data
