// Sharded multi-primary facade (DESIGN.md §9).
//
// One ShardedStabilizer per WAN node scales the single-sequencer core out
// across N keyspace shards. Each shard is a full Stabilizer instance — its
// own primary-site Sequencer, send ring (OutBuffer), AckTable +
// FrontierEngines, and its own primary epoch — so:
//
//   * N independent sequence spaces issue in parallel (the send path of
//     shard s contends only on shard s's lock),
//   * failover (src/failover) promotes per shard: losing one shard's
//     primary fences exactly that shard's waiters while the other shards'
//     frontiers keep advancing,
//   * mirrors demultiplex arriving frames into per-shard delivery FIFOs
//     (pre-separated per-shard transports, or a ShardMux over one link)
//     without touching other shards' locks.
//
// Keys route to shards with a ShardRouter (a pure function of the key, so
// senders and mirrors agree without coordination). A message's identity
// becomes the pair (shard, seq) — ShardSeq — and a *cross-shard cut* is a
// vector of seqs, one per shard (control/composite_frontier.hpp).
//
// Cross-shard predicates: register_predicate fans out to every shard, so
// each shard's engines evaluate the same program over their own streams.
// Reads and waits then scope with the DSL's sharded stability suffix
// (dsl/shard_ref.hpp): "k@3" reads shard 3's frontier, plain "k" (or
// "k@all") min-combines the per-shard frontier vector — wait-free
// FrontierBoard reads, never exceeding any member shard, monotone under
// concurrent per-shard advances. waitfor_cut() is the composite waitfor: it
// parks one waiter per involved shard and resolves once when every shard's
// frontier covers its cut entry (or once with kNoSeq/kFenced as soon as any
// member shard fails its waiter).
//
// Threading: each method delegates to per-shard Stabilizers and inherits
// their locking; methods touching a single shard contend only on that
// shard. waitfor_cut callbacks run on whichever shard's Env thread resolved
// the cut, under that shard's API lock — re-entering *that* shard is
// supported (the core's re-entrancy contract); calling into other shards'
// blocking APIs from the callback is not.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "control/composite_frontier.hpp"
#include "core/stabilizer.hpp"
#include "dsl/shard_ref.hpp"
#include "shard/shard_mux.hpp"
#include "shard/shard_router.hpp"

namespace stab::shard {

using ShardId = uint32_t;

/// A message's identity in a sharded deployment: shard + seq within that
/// shard's sequence space. seq is kFencedSeq when the shard's local
/// instance has been deposed as that shard's primary.
struct ShardSeq {
  ShardId shard = 0;
  SeqNum seq = kNoSeq;
};

struct ShardedOptions {
  /// Per-shard template: topology/self/tuning are copied into every shard
  /// instance. The facade overrides shard_label per shard (obs attribution).
  StabilizerOptions base;
  uint32_t num_shards = 1;
  ShardRouter::Mode routing = ShardRouter::Mode::kHash;
#if STAB_OBS_ENABLED
  /// Optional per-shard tracers (size must be num_shards when non-empty):
  /// each shard's instance records through its own tracer, stamped with the
  /// shard id so merged timelines attribute per shard. When empty, every
  /// shard shares base.tracer (if any) un-stamped.
  std::vector<std::shared_ptr<obs::Tracer>> shard_tracers;
#endif
};

class ShardedStabilizer {
 public:
  using WaitStatus = Stabilizer::WaitStatus;
  /// Delivery upcall with the shard dimension made explicit. Within one
  /// shard the (origin, seq) order is the core's FIFO delivery order;
  /// across shards there is no order — that is the point of sharding.
  using DeliveryHandler =
      std::function<void(ShardId shard, NodeId origin, SeqNum seq,
                         BytesView payload, uint64_t wire_size)>;
  /// Composite waiter: fired exactly once with the cut's outcome.
  using CutWaiterFn = std::function<void(WaitStatus)>;

  /// Scale-out configuration: one Transport per shard (all for the same
  /// node id / cluster). Shard s's traffic — data, acks, failover protocol —
  /// travels on transports[s], pre-separated, so no mux and no envelope.
  ShardedStabilizer(ShardedOptions options,
                    const std::vector<Transport*>& transports);

  /// Muxed configuration: every shard shares `link` through a ShardMux
  /// (frames travel SHARD-enveloped; see shard_mux.hpp for the tradeoff).
  ShardedStabilizer(ShardedOptions options, Transport& link);

  ~ShardedStabilizer();

  ShardedStabilizer(const ShardedStabilizer&) = delete;
  ShardedStabilizer& operator=(const ShardedStabilizer&) = delete;

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  NodeId self() const { return shards_[0]->self(); }
  const ShardRouter& router() const { return router_; }
  ShardId shard_of(std::string_view key) const { return router_.shard_of(key); }
  ShardId shard_of(BytesView key) const { return router_.shard_of(key); }

  /// Shard s's full core instance — per-shard APIs (failover adoption,
  /// report_stability, snapshots, raw frames) are used directly on it.
  Stabilizer& shard(ShardId s) { return *shards_[s]; }
  const Stabilizer& shard(ShardId s) const { return *shards_[s]; }
  /// The mux, when built over a single link (null in scale-out mode).
  ShardMux* mux() { return mux_.get(); }

  // --- data plane -------------------------------------------------------------
  /// Route by key, then sequence and stream on that shard's stream.
  ShardSeq send(std::string_view routing_key, BytesView payload,
                uint64_t virtual_size = 0) {
    return send_to_shard(router_.shard_of(routing_key), payload, virtual_size);
  }
  /// Explicit placement (callers that already routed, e.g. a per-topic
  /// broker pinned to its topic's shard).
  ShardSeq send_to_shard(ShardId s, BytesView payload,
                         uint64_t virtual_size = 0) {
    return {s, shards_[s]->send(payload, virtual_size)};
  }

  void set_delivery_handler(DeliveryHandler handler);

  // --- control plane ----------------------------------------------------------
  /// Fan out to every shard (all-or-error: on a failing shard the key is
  /// rolled back from shards already registered). Keys must not contain '@'
  /// — that is the shard-suffix separator in references.
  Status register_predicate(const std::string& key, const std::string& source);
  Status change_predicate(const std::string& key, const std::string& source);
  Status remove_predicate(const std::string& key);
  bool has_predicate(const std::string& key) const;

  /// Frontier of a suffixed reference (dsl/shard_ref.hpp): "k@<n>" = shard
  /// n's frontier, "k" / "k@all" = min-combine across every shard (wait-free
  /// board reads). kNoSeq on a malformed reference.
  SeqNum get_stability_frontier(const std::string& ref,
                                NodeId origin = kInvalidNode) const;

  /// The per-shard frontier vector of `key` for `origin`'s streams — entry
  /// s is shard s's frontier, each a wait-free published snapshot.
  control::ShardCut frontier_vector(const std::string& key,
                                    NodeId origin = kInvalidNode) const;

  /// A cut of this node's own streams: entry s = shard s's last issued seq
  /// (kNoSeq where nothing was sent). waitfor_cut on this = "everything I
  /// sent so far, on every shard, reached `key`-stability".
  control::ShardCut cut() const;

  /// Composite cross-shard waitfor: fires `fn` once with kOk when every
  /// shard s with cut[s] != kNoSeq reaches frontier(key) >= cut[s] on
  /// `origin`'s stream; with kNoSeq/kFenced as soon as any member shard
  /// fails its waiter (predicate removed / shard primary deposed). An empty
  /// cut resolves kOk immediately.
  Status waitfor_cut(const control::ShardCut& cut, const std::string& key,
                     CutWaiterFn fn, NodeId origin = kInvalidNode);

  /// Blocking composite waitfor. Must not be called from any shard's Env
  /// thread. kTimeout when the deadline expires with the cut unresolved.
  WaitStatus waitfor_cut_blocking(const control::ShardCut& cut,
                                  const std::string& key, Duration timeout,
                                  NodeId origin = kInvalidNode);

  /// Single-point blocking wait on a suffixed reference: "k@<n>" waits on
  /// shard n (seq in shard n's space); "k" / "k@all" waits for *every*
  /// shard's frontier to cover seq (the min-combined frontier).
  WaitStatus waitfor_blocking(SeqNum seq, const std::string& ref,
                              Duration timeout, NodeId origin = kInvalidNode);

  // --- introspection ----------------------------------------------------------
  /// Counters summed across every shard instance.
  StabilizerStats stats() const;

 private:
  void build_shards(const std::vector<Transport*>& transports);
  control::CompositeFrontier composite(NodeId origin) const;

  ShardedOptions options_;
  ShardRouter router_;
  std::unique_ptr<ShardMux> mux_;  // muxed configuration only
  std::vector<std::unique_ptr<Stabilizer>> shards_;
};

}  // namespace stab::shard
