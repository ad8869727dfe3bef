// Control-plane ingestion pipeline (DESIGN.md §4f).
//
// In PipelineMode::kPipelined the Stabilizer's receive path splits in two:
//
//   receive thread            ControlPipeline              control drain
//   --------------            ---------------              -------------
//   decode ACKBATCH   ---->   per-origin AckCellBlock ----> on_ack_batch
//   (plain entries)           (relaxed CAS-max cells)       (one coalesced
//                                                            batch, locked)
//   any other frame   ---->   per-source SPSC ring    ----> on_frame
//   (copied bytes)            (+ mutex-guarded overflow)    (locked)
//
// The producer side never touches the facade mutex: plain monotonic ack
// entries fold into atomic cells, everything else (data, resume, raw,
// ack entries carrying extras or out-of-grid types) is copied into a
// bounded SPSC ring indexed by source node. One ring per source is sound
// because the transport contract already serializes each (src -> dst)
// stream: all of src's frames reach us from one thread at a time (TCP: the
// node's loop thread; InProc direct dispatch: under src's own API lock;
// sim: the simulator thread), and that external serialization provides the
// producer-side ordering the SPSC ring needs.
//
// Ring exhaustion must not block a producer that holds its own node's lock
// (two nodes spinning on each other's full rings while holding their own
// locks would deadlock), so a full ring diverts to a small mutex-guarded
// overflow queue. FIFO per source is preserved: once a source has
// overflowed, its later frames keep taking the overflow path until the
// consumer empties it (the `overflow_active` flag is only cleared by the
// consumer after the queue is drained, and only the single producer of that
// source consults it).
//
// Cross-lane ordering (cells vs rings) is deliberately relaxed: stability
// reports are monotonic max-merges, so an ack overtaking a data frame — or
// vice versa — converges to the same tables the strictly-ordered legacy
// path produces. The chaos differential tests pin this equivalence.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/bytes.hpp"
#include "common/spsc_ring.hpp"
#include "common/types.hpp"
#include "control/ack_cells.hpp"
#include "obs/obs.hpp"

namespace stab {

class ControlPipeline {
 public:
  struct FrameEvent {
    NodeId src = kInvalidNode;
    uint64_t wire_size = 0;
    Bytes frame;
  };

  // In the -DSTAB_OBS=OFF flavor the obs namespace does not exist at all;
  // callers pass nullptr through the same signature.
#if STAB_OBS_ENABLED
  using RegistryPtr = obs::MetricsRegistry*;
#else
  using RegistryPtr = std::nullptr_t;
#endif

  /// `cell_types` bounds the (type x node) ack grid per origin; reports of
  /// later-registered types fall back to the frame rings. `registry` may be
  /// null (obs compiled out or not wired).
  ControlPipeline(size_t num_nodes, size_t cell_types, size_t ring_capacity,
                  RegistryPtr registry) {
    cells_.reserve(num_nodes);
    lanes_.reserve(num_nodes);
    for (size_t i = 0; i < num_nodes; ++i) {
      cells_.push_back(std::make_unique<AckCellBlock>(cell_types, num_nodes));
      lanes_.push_back(std::make_unique<Lane>(ring_capacity));
    }
#if STAB_OBS_ENABLED
    if (registry) {
      ring_depth_ = &registry->histogram("pipeline.ring_depth");
      drain_batch_ = &registry->histogram("pipeline.drain_batch");
      ring_stalls_ = &registry->counter("pipeline.ring_stalls");
      drains_ = &registry->counter("pipeline.drains");
      cell_acks_ = &registry->counter("pipeline.cell_acks");
      ring_events_ = &registry->counter("pipeline.ring_events");
    }
#else
    (void)registry;
#endif
  }

  size_t cell_types() const { return cells_[0]->num_types(); }
  size_t num_nodes() const { return lanes_.size(); }

  // --- producer side (lock-free; one producer per source lane) ---------------

  /// Fold one plain monotonic report into the atomic grid. Returns false if
  /// (type, reporter) is outside the grid — route the frame via push_frame.
  bool offer_ack(NodeId origin, StabilityTypeId type, NodeId reporter,
                 SeqNum seq, bool* advanced) {
    if (origin >= cells_.size()) {
      *advanced = false;
      return false;
    }
    bool ok = cells_[origin]->offer(type, reporter, seq, advanced);
#if STAB_OBS_ENABLED
    if (ok && *advanced && cell_acks_) cell_acks_->inc();
#endif
    return ok;
  }

  /// Copy `frame` into src's ingestion lane. Never blocks: a full ring
  /// diverts to the overflow queue (brief dedicated mutex, no other lock
  /// held under it).
  void push_frame(NodeId src, BytesView frame, uint64_t wire_size) {
    if (src >= lanes_.size()) return;
    Lane& lane = *lanes_[src];
    FrameEvent ev{src, wire_size, Bytes(frame.begin(), frame.end())};
#if STAB_OBS_ENABLED
    if (ring_events_) ring_events_->inc();
    if (ring_depth_) ring_depth_->record(lane.ring.size_approx());
#endif
    // Once overflowed, stay on the overflow path until the consumer clears
    // the flag — otherwise a later ring push would overtake queued frames.
    if (!lane.overflow_active.load(std::memory_order_acquire) &&
        lane.ring.try_push(std::move(ev)))
      return;
#if STAB_OBS_ENABLED
    if (ring_stalls_) ring_stalls_->inc();
    // Back-pressure episode marker: the source's ring filled and this frame
    // (and, until the consumer drains, its successors) detours through the
    // mutexed overflow queue. The tracer's own lock makes the record safe
    // off this otherwise lock-free path; overflow is already the slow lane.
    if (STAB_TRACE_WANTS(trace_tracer_, obs::SpanEvent::kRingStall) &&
        trace_now_)
      trace_tracer_->record(trace_now_(), obs::SpanEvent::kRingStall,
                            trace_node_, src, kNoSeq, src);
#endif
    std::lock_guard<std::mutex> l(overflow_mu_);
    lane.overflow.push_back(std::move(ev));
    lane.overflow_active.store(true, std::memory_order_release);
  }

  /// One-shot drain arming: the first producer to make the pipeline
  /// non-empty wins and schedules the drain task; the rest skip.
  bool try_arm() {
    return !armed_.exchange(true, std::memory_order_acq_rel);
  }

  // --- consumer side (externally serialized: the facade mutex) ---------------

  /// Re-allow arming. Called by the drain before it starts popping, so a
  /// producer racing the drain re-arms and nothing is stranded.
  void disarm() { armed_.store(false, std::memory_order_release); }

  bool has_pending() const {
    for (const auto& c : cells_)
      if (c->dirty()) return true;
    for (const auto& l : lanes_)
      if (!l->ring.empty_approx() ||
          l->overflow_active.load(std::memory_order_acquire))
        return true;
    return false;
  }

  /// Diff every origin's cell grid; fn(origin, type, node, seq) per advanced
  /// cell. Returns cells emitted.
  template <typename Fn>
  size_t drain_cells(Fn&& fn) {
    size_t n = 0;
    for (NodeId origin = 0; origin < cells_.size(); ++origin)
      n += cells_[origin]->drain(
          [&](StabilityTypeId t, NodeId node, SeqNum seq) {
            fn(origin, t, node, seq);
          });
    return n;
  }

  /// Pop every lane dry (ring, then any overflow, preserving per-source
  /// FIFO); fn(FrameEvent&) per frame. Returns frames emitted.
  template <typename Fn>
  size_t drain_frames(Fn&& fn) {
    size_t n = 0;
    for (auto& lp : lanes_) {
      Lane& lane = *lp;
      for (;;) {
        FrameEvent ev;
        while (lane.ring.try_pop(ev)) {
          fn(ev);
          ++n;
        }
        if (!lane.overflow_active.load(std::memory_order_acquire)) break;
        std::deque<FrameEvent> ovf;
        {
          std::lock_guard<std::mutex> l(overflow_mu_);
          ovf.swap(lane.overflow);
          lane.overflow_active.store(false, std::memory_order_release);
        }
        for (FrameEvent& e : ovf) {
          fn(e);
          ++n;
        }
        // The producer may have switched back to the ring the moment the
        // flag cleared; loop to keep FIFO.
      }
    }
    return n;
  }

#if STAB_OBS_ENABLED
  void record_drain(size_t batch) {
    if (drains_) drains_->inc();
    if (drain_batch_) drain_batch_->record(batch);
  }

  /// Wire the owning node's tracer so ring-overflow episodes emit
  /// kRingStall spans (node = owner, origin/peer = the stalled source).
  /// `now` must read the active Env clock. Call before traffic starts.
  void set_trace(obs::Tracer* tracer, NodeId node,
                 std::function<TimePoint()> now) {
    trace_tracer_ = tracer;
    trace_node_ = node;
    trace_now_ = std::move(now);
  }
#else
  void record_drain(size_t) {}
#endif

 private:
  struct Lane {
    explicit Lane(size_t cap) : ring(cap) {}
    SpscRing<FrameEvent> ring;
    std::atomic<bool> overflow_active{false};
    std::deque<FrameEvent> overflow;  // guarded by overflow_mu_
  };

  std::vector<std::unique_ptr<AckCellBlock>> cells_;  // per origin
  std::vector<std::unique_ptr<Lane>> lanes_;          // per source
  std::mutex overflow_mu_;
  std::atomic<bool> armed_{false};

#if STAB_OBS_ENABLED
  obs::Histogram* ring_depth_ = nullptr;
  obs::Histogram* drain_batch_ = nullptr;
  obs::Counter* ring_stalls_ = nullptr;
  obs::Counter* drains_ = nullptr;
  obs::Counter* cell_acks_ = nullptr;
  obs::Counter* ring_events_ = nullptr;
  obs::Tracer* trace_tracer_ = nullptr;
  NodeId trace_node_ = kInvalidNode;
  std::function<TimePoint()> trace_now_;
#endif
};

}  // namespace stab
