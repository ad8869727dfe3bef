// Lock-free report cells of the control plane (DESIGN.md §4f).
//
// Every received frame is applied under the Stabilizer's API mutex on the
// node's Env thread. What stays off that mutex is the application-facing
// side: a plain report_stability (no extra bytes) from any thread folds into
// a per-origin row of atomic cells, one per stability type, and a posted
// drain applies everything that accumulated under the mutex:
//
//   application thread         ControlPipeline              control drain
//   ------------------         ---------------              -------------
//   report_stability  ---->    per-origin AckCellBlock ---> on_ack_batch
//   (plain, own report)        (relaxed CAS-max cells)      + ack flush
//                                                           (one coalesced
//                                                            batch, locked)
//
// The Stabilizer builds the cells only on multi-threaded transports; on a
// single_threaded() transport (the simulator) reports apply directly.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "control/ack_cells.hpp"
#include "obs/obs.hpp"

namespace stab {

class ControlPipeline {
 public:
  /// Stability types with a lock-free cell; reports of later-registered
  /// types take the locked path (correctness is unaffected).
  static constexpr size_t kCellTypes = 16;

  /// The pipeline.* metrics live in the owning node's `registry`.
  ControlPipeline(size_t num_origins, obs::MetricsRegistry& registry)
      : drain_batch_(registry.histogram("pipeline.drain_batch")),
        drains_(registry.counter("pipeline.drains")),
        cell_acks_(registry.counter("pipeline.cell_acks")) {
    cells_.reserve(num_origins);
    for (size_t i = 0; i < num_origins; ++i)
      cells_.push_back(std::make_unique<AckCellBlock>(kCellTypes));
  }

  // --- producer side (lock-free, any thread) ---------------------------------

  /// Fold one plain monotonic report of this node into the cells. Returns
  /// false if `type` has no cell — take the locked path instead.
  bool offer(NodeId origin, StabilityTypeId type, SeqNum seq,
             bool* advanced) {
    bool ok = cells_[origin]->offer(type, seq, advanced);
    if (*advanced) cell_acks_.inc();
    return ok;
  }

  /// One-shot drain arming: the first producer to make the cells dirty
  /// wins and schedules the drain task; the rest skip.
  bool try_arm() {
    return !armed_.exchange(true, std::memory_order_acq_rel);
  }

  // --- consumer side (externally serialized: the facade mutex) ---------------

  /// Re-allow arming. Called by the drain before it reads the cells, so a
  /// producer racing the drain re-arms and nothing is stranded.
  void disarm() { armed_.store(false, std::memory_order_release); }

  bool has_pending() const {
    for (const auto& c : cells_)
      if (c->dirty()) return true;
    return false;
  }

  /// fn(type, seq) per advanced cell of `origin`. Returns cells emitted.
  template <typename Fn>
  size_t drain(NodeId origin, Fn&& fn) {
    return cells_[origin]->drain(std::forward<Fn>(fn));
  }

  void record_drain(size_t batch) {
    drains_.inc();
    drain_batch_.record(batch);
  }

 private:
  std::vector<std::unique_ptr<AckCellBlock>> cells_;  // per origin
  std::atomic<bool> armed_{false};
  obs::Histogram& drain_batch_;
  obs::Counter& drains_;
  obs::Counter& cell_acks_;
};

}  // namespace stab
