#include "shard/sharded_stabilizer.hpp"

#include <condition_variable>
#include <mutex>
#include <stdexcept>

namespace stab::shard {

ShardedStabilizer::ShardedStabilizer(ShardedOptions options,
                                     const std::vector<Transport*>& transports)
    : options_(std::move(options)),
      router_(options_.num_shards, options_.routing) {
  if (transports.size() != router_.num_shards())
    throw std::invalid_argument(
        "ShardedStabilizer: scale-out construction needs exactly one "
        "transport per shard");
  build_shards(transports);
}

ShardedStabilizer::ShardedStabilizer(ShardedOptions options, Transport& link)
    : options_(std::move(options)),
      router_(options_.num_shards, options_.routing),
      mux_(std::make_unique<ShardMux>(link, options_.num_shards)) {
  std::vector<Transport*> facets;
  facets.reserve(mux_->num_shards());
  for (uint32_t s = 0; s < mux_->num_shards(); ++s)
    facets.push_back(&mux_->facet(s));
  build_shards(facets);
}

// Shards tear down before the mux so every facet handler disarms while the
// base link is still alive (the mux destructor then releases the link).
ShardedStabilizer::~ShardedStabilizer() {
  shards_.clear();
  mux_.reset();
}

void ShardedStabilizer::build_shards(const std::vector<Transport*>& transports) {
#if STAB_OBS_ENABLED
  if (!options_.shard_tracers.empty() &&
      options_.shard_tracers.size() != transports.size())
    throw std::invalid_argument(
        "ShardedStabilizer: shard_tracers must be empty or one per shard");
#endif
  shards_.reserve(transports.size());
  for (uint32_t s = 0; s < transports.size(); ++s) {
    StabilizerOptions o = options_.base;
    o.shard_label = static_cast<int>(s);
#if STAB_OBS_ENABLED
    if (!options_.shard_tracers.empty()) {
      o.tracer = options_.shard_tracers[s];
      if (o.tracer) o.tracer->set_shard(static_cast<int32_t>(s));
    }
#endif
    shards_.push_back(std::make_unique<Stabilizer>(std::move(o), *transports[s]));
  }
}

void ShardedStabilizer::set_delivery_handler(DeliveryHandler handler) {
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    if (!handler) {
      shards_[s]->set_delivery_handler(nullptr);
      continue;
    }
    auto h = handler;  // each shard owns its copy
    shards_[s]->set_delivery_handler(
        [h = std::move(h), s](NodeId origin, SeqNum seq, BytesView payload,
                              uint64_t wire_size) {
          h(s, origin, seq, payload, wire_size);
        });
  }
}

Status ShardedStabilizer::register_predicate(const std::string& key,
                                             const std::string& source) {
  if (key.find('@') != std::string::npos)
    return Status::error("predicate key '" + key +
                         "' may not contain '@' (the shard-suffix separator)");
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    Status rc = shards_[s]->register_predicate(key, source);
    if (!rc.is_ok()) {
      for (uint32_t r = 0; r < s; ++r) shards_[r]->remove_predicate(key);
      return rc;
    }
  }
  return Status::ok();
}

Status ShardedStabilizer::change_predicate(const std::string& key,
                                           const std::string& source) {
  for (auto& sh : shards_) {
    Status rc = sh->change_predicate(key, source);
    if (!rc.is_ok()) return rc;  // no rollback: change is not atomic anyway
  }
  return Status::ok();
}

Status ShardedStabilizer::remove_predicate(const std::string& key) {
  Status first = Status::ok();
  for (auto& sh : shards_) {
    Status rc = sh->remove_predicate(key);
    if (!rc.is_ok() && first.is_ok()) first = rc;
  }
  return first;
}

bool ShardedStabilizer::has_predicate(const std::string& key) const {
  return shards_[0]->has_predicate(key);
}

control::CompositeFrontier ShardedStabilizer::composite(NodeId origin) const {
  std::vector<const FrontierBoard*> boards;
  boards.reserve(shards_.size());
  for (const auto& sh : shards_) boards.push_back(&sh->engine(origin).board());
  return control::CompositeFrontier(std::move(boards));
}

SeqNum ShardedStabilizer::get_stability_frontier(const std::string& ref,
                                                 NodeId origin) const {
  auto parsed = dsl::parse_shard_ref(ref);
  if (!parsed) return kNoSeq;
  if (parsed->scope == dsl::ShardKeyRef::Scope::kOne) {
    if (parsed->shard >= shards_.size()) return kNoSeq;
    return shards_[parsed->shard]->get_stability_frontier(
        std::string(parsed->base), origin);
  }
  return composite(origin).combined(parsed->base);
}

control::ShardCut ShardedStabilizer::frontier_vector(const std::string& key,
                                                     NodeId origin) const {
  return composite(origin).snapshot(key);
}

control::ShardCut ShardedStabilizer::cut() const {
  control::ShardCut c;
  c.reserve(shards_.size());
  for (const auto& sh : shards_) c.push_back(sh->last_sent());
  return c;
}

namespace {

/// Shared resolution state of one composite wait. Waiters of every member
/// shard hold a reference; whoever resolves the cut fires the callback
/// (outside the state lock — the callback may re-enter that shard's API).
struct CutState {
  std::mutex m;
  size_t remaining = 0;
  bool resolved = false;
  ShardedStabilizer::CutWaiterFn fn;
};

}  // namespace

Status ShardedStabilizer::waitfor_cut(const control::ShardCut& cut,
                                      const std::string& key, CutWaiterFn fn,
                                      NodeId origin) {
  // Members: shards with a real requirement. Sentinel entries (kNoSeq = no
  // requirement, kFencedSeq = a fenced send() result) are skipped; entries
  // beyond num_shards are ignored.
  size_t members = 0;
  for (size_t s = 0; s < cut.size() && s < shards_.size(); ++s)
    if (cut[s] >= 0) ++members;
  if (members == 0) {
    fn(WaitStatus::kOk);
    return Status::ok();
  }

  auto st = std::make_shared<CutState>();
  st->remaining = members;
  st->fn = std::move(fn);

  for (size_t s = 0; s < cut.size() && s < shards_.size(); ++s) {
    if (cut[s] < 0) continue;
    Status rc = shards_[s]->waitfor(
        cut[s], key,
        [st](SeqNum frontier) {
          WaitStatus out;
          {
            std::lock_guard<std::mutex> lock(st->m);
            if (st->resolved) return;
            if (frontier == kFencedSeq) {
              out = WaitStatus::kFenced;
            } else if (frontier == kNoSeq) {
              out = WaitStatus::kNoSeq;
            } else if (--st->remaining == 0) {
              out = WaitStatus::kOk;
            } else {
              return;  // covered, but other shards still pending
            }
            st->resolved = true;
          }
          st->fn(out);
        },
        origin);
    if (!rc.is_ok()) {
      // Silence waiters already parked on earlier shards; the caller gets
      // the error instead of a callback.
      std::lock_guard<std::mutex> lock(st->m);
      st->resolved = true;
      return rc;
    }
  }
  return Status::ok();
}

ShardedStabilizer::WaitStatus ShardedStabilizer::waitfor_cut_blocking(
    const control::ShardCut& cut, const std::string& key, Duration timeout,
    NodeId origin) {
  struct Block {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    WaitStatus status = WaitStatus::kTimeout;
  };
  auto b = std::make_shared<Block>();
  Status rc = waitfor_cut(
      cut, key,
      [b](WaitStatus s) {
        {
          std::lock_guard<std::mutex> lock(b->m);
          b->status = s;
          b->done = true;
        }
        b->cv.notify_all();
      },
      origin);
  if (!rc.is_ok()) return WaitStatus::kNoSeq;
  std::unique_lock<std::mutex> lock(b->m);
  if (!b->cv.wait_for(lock, timeout, [&] { return b->done; }))
    return WaitStatus::kTimeout;
  return b->status;
}

ShardedStabilizer::WaitStatus ShardedStabilizer::waitfor_blocking(
    SeqNum seq, const std::string& ref, Duration timeout, NodeId origin) {
  auto parsed = dsl::parse_shard_ref(ref);
  if (!parsed) return WaitStatus::kNoSeq;
  if (parsed->scope == dsl::ShardKeyRef::Scope::kOne) {
    if (parsed->shard >= shards_.size()) return WaitStatus::kNoSeq;
    return shards_[parsed->shard]->waitfor_blocking_status(
        seq, std::string(parsed->base), timeout, origin);
  }
  control::ShardCut all(shards_.size(), seq);
  return waitfor_cut_blocking(all, std::string(parsed->base), timeout, origin);
}

StabilizerStats ShardedStabilizer::stats() const {
  StabilizerStats total;
  for (const auto& sh : shards_) {
    const StabilizerStats s = sh->stats();
    total.messages_sent += s.messages_sent;
    total.frames_transmitted += s.frames_transmitted;
    total.messages_delivered += s.messages_delivered;
    total.ack_batches_sent += s.ack_batches_sent;
    total.ack_entries_applied += s.ack_entries_applied;
    total.report_batches_sent += s.report_batches_sent;
    total.report_entries_applied += s.report_entries_applied;
    total.duplicates_dropped += s.duplicates_dropped;
    total.gaps_detected += s.gaps_detected;
    total.retransmits_sent += s.retransmits_sent;
    total.peer_stall_episodes += s.peer_stall_episodes;
    total.peer_recover_episodes += s.peer_recover_episodes;
    total.resumes_sent += s.resumes_sent;
    total.resumes_received += s.resumes_received;
    total.predicate_evals += s.predicate_evals;
    total.evals_skipped_index += s.evals_skipped_index;
    total.evals_skipped_binding += s.evals_skipped_binding;
    total.data_encodes += s.data_encodes;
    total.shared_sends += s.shared_sends;
    total.frames_coalesced += s.frames_coalesced;
    total.fenced_frames += s.fenced_frames;
    total.epoch_ahead_drops += s.epoch_ahead_drops;
    total.takeovers_observed += s.takeovers_observed;
    total.failover_seqs_skipped += s.failover_seqs_skipped;
    total.failover_seqs_rolled_back += s.failover_seqs_rolled_back;
    total.waiters_fenced += s.waiters_fenced;
  }
  return total;
}

}  // namespace stab::shard
