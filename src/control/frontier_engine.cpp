#include "control/frontier_engine.hpp"

#include <algorithm>

namespace stab {

FrontierEngine::FrontierEngine(const Topology& topology, NodeId self,
                               StabilityTypeRegistry& types,
                               dsl::EvalMode mode)
    : topology_(topology),
      self_(self),
      types_(types),
      mode_(mode),
      acks_(topology.num_nodes()) {}

#if STAB_OBS_ENABLED
std::string FrontierEngine::lag_gauge_name(const std::string& key) const {
  return "control.frontier_lag.o" + std::to_string(obs_.origin) + "." + key;
}

void FrontierEngine::set_obs(ObsSinks sinks) {
  obs_ = std::move(sinks);
  // Backfill gauges for predicates registered before the sinks arrived.
  if (obs_.registry)
    for (auto& [key, entry] : entries_)
      entry->lag_gauge = &obs_.registry->gauge(lag_gauge_name(key));
}
#endif

Result<FrontierEngine::PredicatePtr> FrontierEngine::compile(
    const std::string& source) {
  dsl::PredicateContext ctx;
  ctx.topology = &topology_;
  ctx.self = self_;
  ctx.resolve_type = [this](const std::string& name) {
    // Auto-register: a predicate mentioning .verified makes "verified" a
    // reportable level from now on — up to the cap peers accept on the wire.
    const StabilityTypeId id = types_.get_or_register(name);
    return id < kMaxStabilityTypes ? std::optional<StabilityTypeId>(id)
                                   : std::nullopt;
  };
  auto pred = dsl::Predicate::compile(source, ctx, mode_);
  if (!pred.is_ok()) return Result<PredicatePtr>::error(pred.message());
  return PredicatePtr(
      std::make_shared<const dsl::Predicate>(std::move(pred).value()));
}

void FrontierEngine::index_entry(Entry& entry) {
  const size_t num_nodes = acks_.num_nodes();
  for (StabilityTypeId t : entry.predicate->referenced_types()) {
    if (cell(t, 0) + num_nodes > index_.size())
      index_.resize(cell(t, 0) + num_nodes);
    for (NodeId n : entry.predicate->referenced_nodes()) {
      if (n >= num_nodes) continue;  // AckTable::update refuses such reports
      index_[cell(t, n)].push_back(&entry);
      entry.index_cells.push_back(cell(t, n));
    }
  }
}

void FrontierEngine::deindex_entry(Entry& entry) {
  for (size_t c : entry.index_cells) {
    auto& bucket = index_[c];
    bucket.erase(std::remove(bucket.begin(), bucket.end(), &entry),
                 bucket.end());
  }
  entry.index_cells.clear();
}

Status FrontierEngine::register_predicate(const std::string& key,
                                          const std::string& source) {
  if (entries_.count(key))
    return Status::error("predicate '" + key +
                         "' already registered (use change_predicate)");
  auto pred = compile(source);
  if (!pred.is_ok()) return Status::error(pred.message());
  return register_predicate(key, std::move(pred).value());
}

Status FrontierEngine::register_predicate(const std::string& key,
                                          PredicatePtr predicate) {
  if (entries_.count(key))
    return Status::error("predicate '" + key +
                         "' already registered (use change_predicate)");
  auto entry = std::make_unique<Entry>();
  entry->predicate = std::move(predicate);
  for (StabilityTypeId t : entry->predicate->referenced_types())
    acks_.ensure_type(t);
  Entry& ref = *entry;
  STAB_OBS({
    ref.key = key;
    if (obs_.registry)
      ref.lag_gauge = &obs_.registry->gauge(lag_gauge_name(key));
  });
  entries_.emplace(key, std::move(entry));
  index_entry(ref);
  // Publish the board slot before the initial evaluation so the wait-free
  // read path sees the freshly computed frontier, not a registration gap.
  ref.board_slot = board_.publish(key, kNoSeq);
  // Initial evaluation so frontier() is meaningful immediately.
  reevaluate(ref, {}, /*allow_regress=*/true);
  return Status::ok();
}

Status FrontierEngine::change_predicate(const std::string& key,
                                        const std::string& source) {
  if (!entries_.count(key))
    return Status::error("predicate '" + key + "' not registered");
  auto pred = compile(source);
  if (!pred.is_ok()) return Status::error(pred.message());
  return change_predicate(key, std::move(pred).value());
}

Status FrontierEngine::change_predicate(const std::string& key,
                                        PredicatePtr predicate) {
  auto it = entries_.find(key);
  if (it == entries_.end())
    return Status::error("predicate '" + key + "' not registered");
  deindex_entry(*it->second);
  it->second->predicate = std::move(predicate);
  for (StabilityTypeId t : it->second->predicate->referenced_types())
    acks_.ensure_type(t);
  index_entry(*it->second);
  // Recompute across the swap; the frontier may regress (predicate gap).
  reevaluate(*it->second, {}, /*allow_regress=*/true);
  return Status::ok();
}

Status FrontierEngine::remove_predicate(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end())
    return Status::error("predicate '" + key + "' not registered");
  std::unique_ptr<Entry> entry = std::move(it->second);
  deindex_entry(*entry);
  entries_.erase(it);
  board_.unpublish(key);
  // Fail pending waiters explicitly (removal can never cover their seq):
  // each fires once with kNoSeq so blocking callers don't hang forever.
  // The entry is already unlinked, so callbacks may re-register the key.
  for (auto& w : entry->waiters) w.fn(kNoSeq);
  return Status::ok();
}

size_t FrontierEngine::fail_all_waiters(SeqNum sentinel) {
  // Failover fencing: every parked waiter on this engine fires exactly once
  // with `sentinel` (kFencedSeq) and is discarded. Predicates, frontiers,
  // and monitors are untouched — only the one-shot waiters are unsatisfiable
  // once the stream's old sequence space is fenced. Waiters are moved out
  // before firing so a callback that re-arms a waitfor lands in the fresh
  // vector instead of being failed too.
  size_t failed = 0;
  for (auto& [key, entry] : entries_) {
    std::vector<Waiter> doomed;
    doomed.swap(entry->waiters);
    failed += doomed.size();
    for (auto& w : doomed) w.fn(sentinel);
  }
  return failed;
}

size_t FrontierEngine::pending_waiters() const {
  size_t n = 0;
  for (const auto& [key, entry] : entries_) n += entry->waiters.size();
  return n;
}

bool FrontierEngine::has_predicate(const std::string& key) const {
  return entries_.count(key) != 0;
}

std::vector<std::string> FrontierEngine::predicate_keys() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [k, _] : entries_) out.push_back(k);
  return out;
}

const dsl::Predicate* FrontierEngine::predicate(const std::string& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second->predicate.get();
}

SeqNum FrontierEngine::frontier(const std::string& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? kNoSeq : it->second->frontier;
}

Status FrontierEngine::monitor(const std::string& key, MonitorFn fn) {
  auto it = entries_.find(key);
  if (it == entries_.end())
    return Status::error("predicate '" + key + "' not registered");
  it->second->monitors.push_back(std::make_unique<MonitorFn>(std::move(fn)));
  return Status::ok();
}

Status FrontierEngine::waitfor(const std::string& key, SeqNum seq,
                               WaiterFn fn) {
  auto it = entries_.find(key);
  if (it == entries_.end())
    return Status::error("predicate '" + key + "' not registered");
  Entry& e = *it->second;
  if (e.frontier >= seq) {
    fn(e.frontier);  // already satisfied
    return Status::ok();
  }
  auto pos = std::lower_bound(
      e.waiters.begin(), e.waiters.end(), seq,
      [](const Waiter& w, SeqNum s) { return w.seq < s; });
  e.waiters.insert(pos, Waiter{seq, std::move(fn)});
  return Status::ok();
}

void FrontierEngine::dispatch_cell(StabilityTypeId type, NodeId node,
                                   int64_t old_value, SeqNum seq,
                                   BytesView extra) {
  if (dispatch_ == DispatchMode::kLegacyScan) {
    for (auto& [key, entry] : entries_) {
      // Skip predicates that cannot be affected by this cell.
      if (!entry->predicate->references_type(type) ||
          !entry->predicate->references_node(node)) {
        ++evals_skipped_index_;
        continue;
      }
      reevaluate(*entry, extra, /*allow_regress=*/false);
    }
    return;
  }
  const size_t c = cell(type, node);
  const size_t affected = bucket_size(c);
  evals_skipped_index_ += entries_.size() - affected;
  if (affected == 0) return;
  // Bucket re-fetched per step: monitor/waiter callbacks may re-enter and
  // grow or shrink it (register/change_predicate) or resize index_ (a
  // predicate on a new type).
  for (size_t i = 0; i < bucket_size(c); ++i) {
    Entry* e = index_[c][i];
    if (!e->predicate->must_eval(type, node, old_value, seq, e->frontier,
                                 e->crossings)) {
      ++evals_skipped_binding_;
      continue;
    }
    reevaluate(*e, extra, /*allow_regress=*/false);
  }
}

bool FrontierEngine::on_ack(StabilityTypeId type, NodeId node, SeqNum seq,
                            BytesView extra) {
  int64_t old_value = kNoSeq;
  if (!acks_.update(type, node, seq, &old_value)) return false;
  STAB_OBS(if (seq > high_water_) high_water_ = seq);
  dispatch_cell(type, node, old_value, seq, extra);
  return true;
}

size_t FrontierEngine::on_ack_batch(std::span<const AckUpdate> updates) {
  if (dispatch_ == DispatchMode::kLegacyScan) {
    // Differential baseline: the seed's per-report behaviour.
    size_t advanced = 0;
    for (const AckUpdate& u : updates)
      if (on_ack(u.type, u.node, u.seq, u.extra)) ++advanced;
    return advanced;
  }

  // Phase 1: max-merge the whole batch, counting every crossing and
  // collecting the deduplicated set of entries whose frontier can move.
  // `stamp` is captured locally so that re-entrant batches (a monitor
  // calling send/report_stability) cannot corrupt this invocation's dedup
  // marks — a re-entrant touch merely causes one extra idempotent eval.
  // `dirty` is this nesting depth's scratch, so a nested batch collects
  // into a buffer of its own. No callback runs in phase 1, so holding a
  // bucket reference across its inner loop is safe.
  const uint64_t stamp = ++batch_stamp_;
  auto dirty_lease = dirty_scratch_.acquire();
  std::vector<Entry*>& dirty = *dirty_lease;
  dirty.clear();
  size_t advanced = 0;
  for (const AckUpdate& u : updates) {
    int64_t old_value = kNoSeq;
    if (!acks_.update(u.type, u.node, u.seq, &old_value)) continue;
    ++advanced;
    STAB_OBS(if (u.seq > high_water_) high_water_ = u.seq);
    const size_t c = cell(u.type, u.node);
    const size_t affected = bucket_size(c);
    evals_skipped_index_ += entries_.size() - affected;
    if (affected == 0) continue;
    for (Entry* e : index_[c]) {
      // Crossing rule against the pre-batch frontier. Counting goes on after
      // the entry turns dirty, so its counts stay exact until phase 2
      // re-binds them; only the reports that crossed the frontier, from the
      // one that made the frontier movable on, route their extra.
      if (!e->predicate->must_eval(u.type, u.node, old_value, u.seq,
                                   e->frontier, e->crossings)) {
        ++evals_skipped_binding_;
        continue;
      }
      if (e->batch_stamp == stamp) {
        ++evals_skipped_index_;  // coalesced into this batch's one eval
        // The highest-sequence crossing report's extra wins: that report
        // decides a MAX frontier, matching the extra the legacy per-report
        // path fires last.
        if (u.seq > e->pending_extra_seq) {
          e->pending_extra = u.extra;
          e->pending_extra_seq = u.seq;
        }
        continue;
      }
      e->batch_stamp = stamp;
      e->pending_extra = u.extra;
      e->pending_extra_seq = u.seq;
      dirty.push_back(e);
    }
  }

  // Phase 2: one eval per affected predicate. Entries are stable across
  // callbacks (change_predicate swaps in place; remove_predicate from a
  // callback is unsupported, as in the legacy scan).
  for (Entry* e : dirty) {
    BytesView extra = e->pending_extra;
    e->pending_extra = {};
    e->pending_extra_seq = kNoSeq;
    reevaluate(*e, extra, /*allow_regress=*/false);
  }
  return advanced;
}

void FrontierEngine::set_dispatch_mode(DispatchMode mode) {
  if (mode == DispatchMode::kIndexed && dispatch_ != mode)
    for (auto& [key, entry] : entries_)
      entry->predicate->bind(acks_, entry->frontier, entry->crossings);
  dispatch_ = mode;
}

void FrontierEngine::reevaluate(Entry& entry, BytesView extra,
                                bool allow_regress) {
  ++predicate_evals_;
#if STAB_OBS_ENABLED
  SeqNum next;
  // 1-in-16 sampled eval latency, timed on the active Env clock (virtual
  // time under the simulator, where evals take zero virtual nanoseconds —
  // real latencies require a RealtimeEnv run; see docs/OBSERVABILITY.md).
  if (obs_.eval_ns != nullptr && obs_.now && (predicate_evals_ & 0xF) == 0) {
    TimePoint t0 = obs_.now();
    next = entry.predicate->eval(acks_);
    obs_.eval_ns->record(static_cast<uint64_t>((obs_.now() - t0).count()));
  } else {
    next = entry.predicate->eval(acks_);
  }
#else
  SeqNum next = entry.predicate->eval(acks_);
#endif
  [[maybe_unused]] const SeqNum prev_frontier = entry.frontier;
  // Monotonic guard: only a predicate swap may move the frontier back.
  const bool moved =
      next > entry.frontier || (next < entry.frontier && allow_regress);
  if (moved) entry.frontier = next;
  // Re-bind before any callback runs: a callback may re-enter and dispatch
  // advances against the frontier just set.
  if (dispatch_ == DispatchMode::kIndexed)
    entry.predicate->bind(acks_, entry.frontier, entry.crossings);
  if (!moved) return;
  // Publish to the wait-free board before user callbacks run, so a reader
  // woken by a monitor observes a frontier at least as new as the wake.
  if (entry.board_slot != nullptr)
    entry.board_slot->frontier.store(next, std::memory_order_release);
#if STAB_OBS_ENABLED
  if (next >= 0) {
    // Frontier lag: how far the newest known message on this stream is
    // ahead of the predicate's frontier at the moment it fires.
    uint64_t lag =
        high_water_ > next ? static_cast<uint64_t>(high_water_ - next) : 0;
    if (obs_.frontier_lag != nullptr) obs_.frontier_lag->record(lag);
    if (entry.lag_gauge != nullptr)
      entry.lag_gauge->set(static_cast<int64_t>(lag));
    if (STAB_TRACE_WANTS(obs_.tracer, obs::SpanEvent::kFrontierFire) &&
        obs_.now)
      obs_.tracer->record(obs_.now(), obs::SpanEvent::kFrontierFire, obs_.node,
                          obs_.origin, next, kInvalidNode, entry.key);
    // Close send→stable spans at the ORIGIN's own engine only: the paper's
    // send→stable latency is "when does the sender learn its message is
    // stable", and closing at the first node to fire (under a cluster-shared
    // probe) would understate it nondeterministically. Skip advances whose
    // covered range (prev, next] holds no sampled sequence — the probe has
    // nothing to close, and paying its mutex on every advance would charge
    // the full probe cost regardless of the sampling rate (the probe's own
    // frontier-lag view is sampled at the same rate as a result).
    if (obs_.probe != nullptr && obs_.node == obs_.origin && obs_.now) {
      const uint64_t every = obs_.probe->sample_every();
      const bool covers_sample =
          prev_frontier < 0 ||  // range includes seq 0, always sampled
          static_cast<uint64_t>(next) / every >
              static_cast<uint64_t>(prev_frontier) / every;
      if (covers_sample)
        obs_.probe->on_stable(obs_.origin, next, high_water_, entry.key,
                              obs_.now());
    }
  }
#endif
  // By index up to the count before the first call: a monitor that adds
  // monitors on this key appends to the vector, and those fire from the
  // next advance on.
  for (size_t i = 0, n = entry.monitors.size(); i < n; ++i)
    (*entry.monitors[i])(next, extra);
  // Wake waiters whose seq is now covered (sorted ascending).
  size_t fired = 0;
  while (fired < entry.waiters.size() && entry.waiters[fired].seq <= next)
    ++fired;
  if (fired > 0) {
    std::vector<Waiter> ready(
        std::make_move_iterator(entry.waiters.begin()),
        std::make_move_iterator(entry.waiters.begin() + fired));
    entry.waiters.erase(entry.waiters.begin(),
                        entry.waiters.begin() + fired);
    for (auto& w : ready) w.fn(next);
  }
}

}  // namespace stab
