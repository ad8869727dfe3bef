// Relaxed-atomic accumulation cells for monotonic stability reports
// (DESIGN.md §4f).
//
// One block per origin stream holds one cell per stability type: this
// node's own latest report about that stream at that level. Application
// threads calling report_stability fold plain reports straight into the
// cells with a lock-free CAS-max — no mutex, no allocation — and the control
// drain later diffs the row against a consumer-owned shadow copy to emit one
// coalesced AckUpdate per advanced cell into FrontierEngine::on_ack_batch.
//
// Why coalescing is lossless: reports are monotonic max-merges (paper
// §III-A), so only the final value of a cell matters; intermediate values
// produce the same frontier the moment the final one lands. Reports that
// carry extra bytes are NOT routed here (the extra must reach the matching
// eval), nor are types beyond the block's fixed capacity — both take the
// locked report path instead. offer() refuses the latter by returning false.
//
// Ordering: cell CAS loops are relaxed (each cell is an independent
// monotonic word); the block-level dirty flag is release-set after the cell
// write and acquire-consumed by drain(), so a drain that observes the flag
// also observes the advance that set it. A drain racing an in-flight offer
// may miss that value, but the offer re-sets the flag, so the next drain
// picks it up — nothing is lost, only deferred.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/types.hpp"

namespace stab {

class AckCellBlock {
 public:
  explicit AckCellBlock(size_t num_types)
      : num_types_(num_types),
        cells_(std::make_unique<std::atomic<int64_t>[]>(num_types)),
        shadow_(std::make_unique<int64_t[]>(num_types)) {
    for (size_t i = 0; i < num_types; ++i) {
      cells_[i].store(kNoSeq, std::memory_order_relaxed);
      shadow_[i] = kNoSeq;
    }
  }

  /// Producer side, any thread. Max-merges `seq` into the cell of `type`.
  /// Returns false when `type` is outside the block — the caller must take
  /// the locked path instead. `*advanced` is set true iff this call moved
  /// the cell forward (drain-arming hint).
  bool offer(StabilityTypeId type, SeqNum seq, bool* advanced) {
    *advanced = false;
    if (type >= num_types_) return false;
    std::atomic<int64_t>& cell = cells_[type];
    int64_t cur = cell.load(std::memory_order_relaxed);
    while (seq > cur) {
      if (cell.compare_exchange_weak(cur, seq, std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
        *advanced = true;
        dirty_.store(true, std::memory_order_release);
        break;
      }
      // cur reloaded by the failed CAS; loop exits once someone else
      // published an equal-or-higher seq.
    }
    return true;
  }

  /// True when an offer advanced a cell since the last drain.
  bool dirty() const { return dirty_.load(std::memory_order_acquire); }

  /// Consumer side (caller-serialized): diff the row against the shadow and
  /// invoke `fn(type, seq)` once per advanced cell. Returns the number of
  /// cells emitted.
  template <typename Fn>
  size_t drain(Fn&& fn) {
    if (!dirty_.exchange(false, std::memory_order_acq_rel)) return 0;
    size_t emitted = 0;
    for (size_t t = 0; t < num_types_; ++t) {
      const int64_t v = cells_[t].load(std::memory_order_acquire);
      if (v > shadow_[t]) {
        shadow_[t] = v;
        fn(static_cast<StabilityTypeId>(t), v);
        ++emitted;
      }
    }
    return emitted;
  }

 private:
  const size_t num_types_;
  std::unique_ptr<std::atomic<int64_t>[]> cells_;
  std::unique_ptr<int64_t[]> shadow_;  // consumer-owned last-drained values
  std::atomic<bool> dirty_{false};
};

}  // namespace stab
