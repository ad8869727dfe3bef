// The message ACK recorder (Fig 1): per stability type, per WAN node, the
// highest sequence number that node has acknowledged.
//
// Inspired by Derecho's shared state table (SST): entries are monotonic
// counters, so a newer report may overwrite an older one and reports may be
// batched or reordered without losing information — "the upcall for Y
// implies the stability of messages prior to Y" (§III-A). update() is a
// max-merge and says whether anything changed, which drives incremental
// predicate re-evaluation.
//
// Cells never decrease: there is no reset and no other write path. The
// FrontierEngine that owns a table keeps, per predicate, a count of the
// cells above its frontier, current only because every change arrives
// through its dispatch (DESIGN.md §4c). A future reset (say, a peer's
// receipts at an epoch boundary) must go through the engine and re-bind
// every entry's counts (Predicate::bind) afterwards.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "dsl/resolved.hpp"

namespace stab {

class AckTable final : public dsl::AckSource {
 public:
  explicit AckTable(size_t num_nodes) : num_nodes_(num_nodes) {}

  size_t num_nodes() const { return num_nodes_; }

  /// Monotonic merge: row[type][node] = max(old, seq). Returns true iff the
  /// entry advanced. Out-of-range nodes and type ids at or above
  /// kMaxStabilityTypes are ignored (returns false), so no report can grow
  /// the table past the cap. When `old_value` is given it receives the
  /// cell's pre-merge value — the frontier engine's crossing rule needs it
  /// to decide whether the advance crossed a frontier.
  bool update(StabilityTypeId type, NodeId node, SeqNum seq,
              int64_t* old_value = nullptr) {
    if (node >= num_nodes_ || type >= kMaxStabilityTypes) return false;
    ensure_type(type);
    int64_t& cell = rows_[type][node];
    if (old_value) *old_value = cell;
    if (seq <= cell) return false;
    cell = seq;
    return true;
  }

  SeqNum get(StabilityTypeId type, NodeId node) const {
    if (type >= rows_.size() || node >= num_nodes_) return kNoSeq;
    return rows_[type][node];
  }

  std::span<const int64_t> row(StabilityTypeId type) const override {
    if (type >= rows_.size()) return {};
    return rows_[type];
  }

  void ensure_type(StabilityTypeId type) {
    if (type >= rows_.size())
      rows_.resize(type + 1, std::vector<int64_t>(num_nodes_, kNoSeq));
  }

  size_t num_types() const { return rows_.size(); }

 private:
  size_t num_nodes_;
  std::vector<std::vector<int64_t>> rows_;
};

}  // namespace stab
