// Deferred stability propagation: the mirror-side accumulator (DESIGN.md
// §10, after Gunawardhana et al.'s deferred update stabilization).
//
// In immediate mode every local stability advance is queued for the next
// ack_interval flush, which costs O(nodes × types) ACKBATCH traffic per
// interval across the fleet. In deferred mode the Stabilizer parks plain
// (extra-free) monotonic reports here instead; the accumulated cumulative
// vector is flushed as one REPORTBATCH frame when the deferred flush timer
// fires or the accumulated seq-advance delta crosses a threshold.
//
// The same object implements the AZ-aggregator merge: absorb() max-merges a
// *peer's* flushed block into that reporter's pending vector, so an
// aggregator's take_flush() emits one frame carrying every AZ member's
// vector merged since its last long-haul flush.
//
// Correctness leans on reports being cumulative maxima: merging is
// associative and commutative, re-noting an already-flushed seq after a
// flush simply re-emits it (which is exactly what the retransmit heartbeat
// needs to heal a lost flush frame), and duplicate application downstream
// is idempotent. take_flush() clears pending state — entries re-enter only
// when something advances them again (or the heartbeat re-notes them).
//
// Not thread-safe: the owning Stabilizer drives it under its own mutex.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "data/wire.hpp"

namespace stab::control {

class DeferredReporter {
 public:
  /// `num_nodes` bounds the reporter index space (one pending block per
  /// potential reporter: self plus, on an aggregator, every AZ member).
  explicit DeferredReporter(size_t num_nodes);

  /// Max-merges one plain report into `reporter`'s pending block. `epoch`
  /// is the reporter's own-stream primary epoch at note time. Returns true
  /// iff the pending cell advanced (new cell, or seq strictly above the
  /// pending value).
  bool note(NodeId reporter, PrimaryEpoch epoch, NodeId about,
            StabilityTypeId type, SeqNum seq);

  /// Aggregator path: max-merges every entry of a received block, read in
  /// place from its REPORTBATCH, into that reporter's pending vector.
  /// Returns the number of cells advanced.
  size_t absorb(const data::ReportBlockView& block);

  bool empty() const { return pending_cells_ == 0; }

  /// Total seq units advanced since the last take_flush() — the delta the
  /// flush threshold compares against. A cell first noted at seq s counts
  /// as s+1 units (seq numbers start at 0).
  uint64_t pending_delta() const { return pending_delta_; }

  /// Drains every pending block (reporter order; entries keyed by
  /// (about, type)) and resets pending state. Empty result iff empty().
  std::vector<data::ReportBlock> take_flush();

 private:
  struct Block {
    PrimaryEpoch epoch = 0;
    // Deterministically ordered so flush frames are reproducible per seed.
    std::map<std::pair<NodeId, StabilityTypeId>, SeqNum> cells;
  };
  std::vector<Block> blocks_;  // indexed by reporter
  size_t pending_cells_ = 0;
  uint64_t pending_delta_ = 0;
};

}  // namespace stab::control
