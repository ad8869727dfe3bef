// The one way a stability report leaves a node (paper §III-A, DESIGN.md §10).
//
// Every report this node makes (receipts and deliveries, application
// reports, the heartbeat's and RESUME's re-issue) is noted into a flat grid
// of pending cumulative seqs, and everything pending leaves in one flush per
// ack_interval:
//   * plain cells leave as one REPORTBATCH: this node's own block and, on an
//     AZ aggregator, the blocks it absorbed from its members since the last
//     flush;
//   * cells whose report carries extra bytes leave as ACKBATCH, the frame
//     that carries them.
// Reports are cumulative maxima, so coalescing a cell, merging a member's
// block into its row and re-sending a flushed seq all lose nothing
// (deferred update stabilization, Gunawardhana et al.). A REPORTBATCH goes
// to this node's AZ aggregator when reports are aggregated and the
// aggregator is usable, otherwise to every peer (broadcast_acks) or, per
// stream, to the stream's authority. ACKBATCH routes the same way but never
// through an aggregator, which relays plain blocks only.
//
// Cells are scanned in (about, type) order and blocks leave in reporter
// order, so per-seed runs are reproducible. Past warm-up, noting, absorbing
// and flushing allocate nothing but the encoded frame (and, for a
// broadcast, its shared_ptr). Like InStream and OutStream, the plane is part
// of its Stabilizer: it reads the node's state, and every call runs under
// the node's API mutex.
#pragma once

#include <vector>

#include "common/env.hpp"
#include "data/wire.hpp"

namespace stab {

class Stabilizer;

class ReportPlane {
 public:
  explicit ReportPlane(Stabilizer& node);
  // The flush timer holds this plane's address.
  ReportPlane(const ReportPlane&) = delete;
  ReportPlane& operator=(const ReportPlane&) = delete;

  /// Notes one of this node's own reports and arms the flush. A report
  /// above the pending one replaces it together with its extra bytes; one
  /// at or below it is already covered.
  void note(NodeId about, StabilityTypeId type, SeqNum seq,
            BytesView extra = {});
  /// Notes again the highest report this node has issued in every cell, so
  /// the next flush re-sends them: a lost frame heals, and a restarted peer
  /// rebuilds its ack tables.
  void renote_issued();
  /// True when this node is the aggregator of `src`'s AZ, so it absorbs
  /// `src`'s blocks.
  bool absorbs_from(NodeId src) const;
  /// Max-merges an AZ member's block, read in place from its frame, into
  /// that member's row for the next flush. Entries about a stream outside
  /// the topology are dropped. False when `block.reporter` has no row here.
  bool absorb(const data::ReportBlockView& block);
  /// Sends everything pending and clears the grid.
  void flush();
  /// Cancels the flush timer; the node is shutting down.
  void stop();

 private:
  /// One reporter's pending cumulative seqs (kNoSeq: nothing pending).
  struct Row {
    NodeId reporter = kInvalidNode;
    /// Own row: stamped at flush. A member's: the highest it reported.
    PrimaryEpoch epoch = 0;
    std::vector<SeqNum> pending;  // at cell(about, type)
    size_t count = 0;             // cells pending
    /// The row's block of the outgoing REPORTBATCH. Lent to the frame for
    /// the encode and handed back, so its buffer is reused.
    data::ReportBlock block;
  };
  static constexpr size_t kNoRow = static_cast<size_t>(-1);

  /// Type-major, so a new type appends cells without moving any.
  size_t cell(NodeId about, StabilityTypeId type) const {
    return static_cast<size_t>(type) * nodes_ + about;
  }
  /// Makes room for types below `types` in every row.
  void widen(size_t types);
  /// Raises a pending cell; false when `seq` is already covered.
  bool raise(Row& row, size_t c, SeqNum seq);
  void arm();
  /// The AZ aggregator this node's plain reports go through, or kInvalidNode
  /// to send them directly: not aggregating, this node is the aggregator,
  /// or the aggregator is unusable (excluded, stalled or deposed).
  NodeId route_aggregator();
  /// Moves the pending cells about streams [lo, hi) into the outgoing
  /// frames: every row's plain cells into reports_ (one block per row with
  /// any), the own row's cells with extra bytes into acks_. False when the
  /// frame is empty.
  bool take_plain(NodeId lo, NodeId hi);
  bool take_extra(NodeId lo, NodeId hi);
  /// Encodes reports_ (plain) or acks_ and sends it to `to`, or to every
  /// peer but excluded ones when `to` is kInvalidNode.
  void send(bool plain, NodeId to);
  void trace(NodeId about, StabilityTypeId type, SeqNum seq) const;

  Stabilizer& node_;
  const size_t nodes_;
  size_t types_ = 0;       // cells per stream in every row
  std::vector<Row> rows_;  // reporter order
  std::vector<size_t> row_of_;  // per node: its row, or kNoRow
  size_t own_ = 0;              // this node's row
  // Own row only, per cell: the highest report issued, and the pending
  // report's extra bytes.
  std::vector<SeqNum> issued_;
  std::vector<Bytes> extra_;
  NodeId aggregator_ = kInvalidNode;  // this AZ's, when aggregating
  bool armed_ = false;
  TimerId timer_ = kInvalidTimer;
  data::ReportBatchFrame reports_;
  data::AckBatchFrame acks_;
};

}  // namespace stab
