// The control plane's predicate engine.
//
// Owns the AckTable and the registered stability-frontier predicates for one
// origin stream. Every incoming monotonic stability report re-evaluates the
// predicates that reference the updated (node, type) cell; when a
// predicate's frontier advances, registered monitors fire and pending
// waitfor() callbacks whose sequence number is now covered are woken
// (paper §III-D interfaces).
//
// Hot-path dispatch (DESIGN.md §4c): instead of scanning every registered
// predicate per report, the engine maintains a dense reverse dependency
// index, one bucket of entries per (type, node) cell, updated on
// register/change/remove. Whole ack batches are applied with on_ack_batch():
// the batch is max-merged into the AckTable first, the affected entries are
// collected (deduplicated) into engine-owned scratch, and each predicate
// re-evaluates exactly once per batch — monotonicity makes the coalescing
// lossless (§III-A). Specialized predicates evaluate only when the frontier
// can move: each entry counts the items of its order statistic above its
// cached frontier, and an advance that does not cross the frontier, or that
// leaves fewer items above it than the statistic's rank, skips the eval
// (Predicate::must_eval, the crossing rule of DESIGN.md §4c). Past warm-up,
// applying a batch allocates nothing and hashes nothing.
// set_dispatch_mode(kLegacyScan) restores the original
// scan-everything/eval-per-report behaviour for differential tests and the
// bench_control_hotpath baseline.
//
// The engine is synchronous and single-threaded by design: callers (the
// Stabilizer core, tests) drive it from their Env thread, which is what
// makes whole-cluster simulation deterministic. The AckTable changes only
// through on_ack / on_ack_batch, because dispatch keeps the crossing counts
// current; acks() hands out a read-only view. Monitor/waiter callbacks may
// re-enter the engine (register_predicate, on_ack, waitfor, ...);
// remove_predicate from inside a callback is not supported.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/depth_scratch.hpp"
#include "common/result.hpp"
#include "config/topology.hpp"
#include "control/ack_table.hpp"
#include "control/frontier_board.hpp"
#include "control/stability_types.hpp"
#include "dsl/predicate.hpp"
#include "obs/obs.hpp"

namespace stab {

/// One monotonic stability report — the unit of batched control-plane
/// application. `extra` must stay alive for the duration of the
/// on_ack_batch() call that consumes the update.
struct AckUpdate {
  StabilityTypeId type = 0;
  NodeId node = kInvalidNode;
  SeqNum seq = kNoSeq;
  BytesView extra{};
};

class FrontierEngine {
 public:
  /// Monitor callback: new frontier plus the uninterpreted extra bytes the
  /// triggering stability report carried (empty for plain ACKs). When a
  /// batch coalesces several reports for one predicate, monitors fire once
  /// with the final frontier and the extra of the highest-sequence report
  /// among those that crossed the pre-batch frontier (DESIGN.md §4c says
  /// when that is the extra the legacy per-report path fires last).
  using MonitorFn = std::function<void(SeqNum frontier, BytesView extra)>;
  using WaiterFn = std::function<void(SeqNum frontier)>;

  /// Dispatch strategy for incoming stability reports.
  enum class DispatchMode {
    kLegacyScan,  // seed behaviour: scan all entries, eval per report
    kIndexed,     // reverse-index dispatch + batch dedup + crossing rule
  };

  FrontierEngine(const Topology& topology, NodeId self,
                 StabilityTypeRegistry& types,
                 dsl::EvalMode mode = dsl::EvalMode::kSpecialized);

  // --- predicate management (paper: register_predicate / change_predicate) --
  using PredicatePtr = std::shared_ptr<const dsl::Predicate>;

  /// Compiles `source` for this engine's topology, node, type registry and
  /// eval mode. Unknown stability-type suffixes are auto-registered (they
  /// become reportable levels). Every engine that shares those four may
  /// register the result: a compiled predicate holds no per-engine state.
  Result<PredicatePtr> compile(const std::string& source);

  /// Compiles and registers a new predicate. Fails if the key exists or the
  /// source does not compile.
  Status register_predicate(const std::string& key, const std::string& source);
  /// Registers a predicate compile() made, here or on an engine sharing
  /// this one's context. Fails if the key exists.
  Status register_predicate(const std::string& key, PredicatePtr predicate);

  /// Replaces an existing predicate (dynamic reconfiguration, §VI-D). The
  /// frontier is recomputed immediately; it may move backward across the
  /// swap — "the user should be responsible for handling such a gap" — in
  /// which case monitors fire with the new (lower) value but waiters are
  /// only woken by coverage.
  Status change_predicate(const std::string& key, const std::string& source);
  Status change_predicate(const std::string& key, PredicatePtr predicate);

  /// Unregisters a predicate. Pending waiters are failed explicitly: each
  /// is invoked once with kNoSeq (never a covering frontier), so
  /// waitfor_blocking callers observe the removal instead of hanging
  /// forever. Waiter callbacks must treat kNoSeq as "predicate removed".
  Status remove_predicate(const std::string& key);

  /// Failover fencing: fires every parked waiter (across every predicate)
  /// once with `sentinel` — kFencedSeq when the local node was deposed as
  /// this stream's primary — and discards it. Predicates, frontiers, and
  /// monitors are untouched. Returns the number of waiters failed. Waiter
  /// callbacks may re-arm waitfor(); the re-armed waiters are kept.
  size_t fail_all_waiters(SeqNum sentinel);
  /// Parked (not yet fired) waitfor callbacks across every predicate — the
  /// "none left parked" failover invariant reads this.
  size_t pending_waiters() const;

  bool has_predicate(const std::string& key) const;
  std::vector<std::string> predicate_keys() const;
  const dsl::Predicate* predicate(const std::string& key) const;

  /// Last computed frontier for `key`; kNoSeq if unknown key or nothing
  /// stable yet.
  SeqNum frontier(const std::string& key) const;

  // --- observers -------------------------------------------------------------
  /// monitor_stability_frontier: fire `fn` whenever the predicate reports a
  /// new frontier. Multiple monitors per key are allowed.
  Status monitor(const std::string& key, MonitorFn fn);

  /// waitfor: invoke `fn` once, as soon as frontier(key) >= seq (immediately
  /// if already true). If the predicate is removed first, `fn` fires once
  /// with kNoSeq instead.
  Status waitfor(const std::string& key, SeqNum seq, WaiterFn fn);

  // --- control-plane input ----------------------------------------------------
  /// Apply a single stability report. Returns true iff the table advanced.
  /// Fires monitors/waiters for every affected predicate.
  bool on_ack(StabilityTypeId type, NodeId node, SeqNum seq,
              BytesView extra = {});

  /// Batch apply: max-merges every update into the AckTable first, then
  /// re-evaluates each affected predicate exactly once (kIndexed mode;
  /// kLegacyScan applies per entry). Returns the number of updates that
  /// advanced the table. Cost is O(affected predicates per batch), not
  /// O(predicates x updates).
  size_t on_ack_batch(std::span<const AckUpdate> updates);

  DispatchMode dispatch_mode() const { return dispatch_; }
  /// Switching to kIndexed re-binds every entry's crossing counts, which
  /// the legacy scan does not keep.
  void set_dispatch_mode(DispatchMode mode);

  const AckTable& acks() const { return acks_; }
  StabilityTypeRegistry& types() { return types_; }
  NodeId self() const { return self_; }

  /// Wait-free snapshot of every predicate's frontier (DESIGN.md §4f). The
  /// board outlives individual predicates; reads are safe from any thread
  /// while the engine mutates under its caller's lock.
  const FrontierBoard& board() const { return board_; }

  // --- hot-path observability ---------------------------------------------------
  /// Observability sinks, wired by the owning Stabilizer. Every field is
  /// optional (null/empty = not recorded). `now` must read the active Env
  /// clock so eval timing and kFrontierFire spans are deterministic under
  /// the simulator. Call from the engine's own thread (no internal locking;
  /// the sinks themselves are thread-safe).
  struct ObsSinks {
    obs::MetricsRegistry* registry = nullptr;  // owns the per-key lag gauges
    obs::Histogram* frontier_lag = nullptr;    // lag sample per frontier fire
    obs::Histogram* eval_ns = nullptr;         // sampled (1/16) eval latency
    obs::Tracer* tracer = nullptr;             // kFrontierFire spans
    obs::LatencyProbe* probe = nullptr;        // send→stable span closes
    NodeId node = kInvalidNode;                // evaluating node (trace id)
    NodeId origin = kInvalidNode;              // this engine's origin stream
    std::function<TimePoint()> now;
  };
  void set_obs(ObsSinks sinks);

  /// Total Predicate::eval calls performed.
  uint64_t predicate_evals() const { return predicate_evals_; }
  /// Evals avoided by dispatch: predicates not referencing an advanced cell
  /// (reverse index / legacy reference check) plus batch deduplication.
  uint64_t evals_skipped_index() const { return evals_skipped_index_; }
  /// Evals avoided by the crossing rule: dispatched advances that provably
  /// could not move the frontier, because they did not cross it or left
  /// fewer items above it than the order statistic's rank (lossless).
  uint64_t evals_skipped_binding() const { return evals_skipped_binding_; }

 private:
  struct Waiter {
    SeqNum seq;
    WaiterFn fn;
  };
  struct Entry {
    PredicatePtr predicate;  // shared by the node's engines
    SeqNum frontier = kNoSeq;
    // The crossing rule's counts against `frontier`; kept in kIndexed
    // dispatch, re-bound after every eval.
    dsl::Crossings crossings;
    // Each behind its own pointer: a monitor may add monitors on its own
    // key while it runs, and growing the vector must not move the one
    // being called.
    std::vector<std::unique_ptr<MonitorFn>> monitors;
    std::vector<Waiter> waiters;  // kept sorted by seq ascending
    std::vector<size_t> index_cells;   // index_ buckets this entry sits in
    uint64_t batch_stamp = 0;          // dedup marker (see on_ack_batch)
    BytesView pending_extra{};         // extra routed to this entry's eval
    SeqNum pending_extra_seq = kNoSeq; // seq of the report carrying it
    FrontierBoard::Slot* board_slot = nullptr;  // wait-free published copy
    std::string key;                   // registration key (trace detail)
    obs::Gauge* lag_gauge = nullptr;   // control.frontier_lag.oN.<key>
  };

  /// index_ position of (type, node): type-major, so adding types appends
  /// buckets and never renumbers a cell. Callers pass node < num_nodes.
  size_t cell(StabilityTypeId type, NodeId node) const {
    return static_cast<size_t>(type) * acks_.num_nodes() + node;
  }
  /// Entries indexed under `cell`; 0 for a cell past the index.
  size_t bucket_size(size_t cell) const {
    return cell < index_.size() ? index_[cell].size() : 0;
  }

  void reevaluate(Entry& entry, BytesView extra, bool allow_regress);
  /// Adds `entry` to the reverse index under every (type, node) cell its
  /// predicate references (the same cross product the legacy reference
  /// check tests, so both dispatch paths agree on which reports matter).
  void index_entry(Entry& entry);
  void deindex_entry(Entry& entry);
  /// Dispatches one advanced cell to the affected entries, evaluating
  /// immediately (single-report path).
  void dispatch_cell(StabilityTypeId type, NodeId node, int64_t old_value,
                     SeqNum seq, BytesView extra);

  const Topology& topology_;
  NodeId self_;
  StabilityTypeRegistry& types_;
  dsl::EvalMode mode_;
  DispatchMode dispatch_ = DispatchMode::kIndexed;
  AckTable acks_;
  FrontierBoard board_;
  std::map<std::string, std::unique_ptr<Entry>> entries_;
  // Dense reverse index: index_[cell(type, node)] lists, in registration
  // order, the entries whose predicate references that cell. A callback that
  // registers a predicate on a new type resizes it, so code that fires
  // callbacks while walking a bucket re-fetches the bucket by cell number on
  // every step instead of holding a reference.
  std::vector<std::vector<Entry*>> index_;
  // The dirty entries of an on_ack_batch call, one buffer per nesting depth:
  // a callback that re-enters the engine gets the next depth's buffer and
  // leaves its caller's untouched.
  DepthScratch<std::vector<Entry*>> dirty_scratch_;
  uint64_t batch_stamp_ = 0;
  uint64_t predicate_evals_ = 0;
  uint64_t evals_skipped_index_ = 0;
  uint64_t evals_skipped_binding_ = 0;
  std::string lag_gauge_name(const std::string& key) const;
  ObsSinks obs_;
  // Highest sequence any report has mentioned for this stream — the
  // "newest message we know of" reference point for frontier lag.
  SeqNum high_water_ = kNoSeq;
};

}  // namespace stab
