// The Stabilizer library core — the paper's public API (§III).
//
// One Stabilizer instance runs per WAN node (data center). It owns:
//   * the data plane: primary-site sequencing of the local stream, eager
//     streaming of every message to every peer, send buffering until global
//     receipt, and selective-repeat repair for lossy links (out-of-order
//     frames held, each hole NACKed once, a retransmit probe as fallback);
//   * the control plane: one FrontierEngine per origin stream (an SST-style
//     AckTable plus the registered stability-frontier predicates), fed by a
//     continuous stream of monotonic reports that leaves each node through
//     one ReportPlane, batched per ack_interval;
//   * the paper's interfaces: send, register_predicate / change_predicate,
//     get_stability_frontier, monitor_stability_frontier, waitfor, and
//     report_stability for application-defined stability levels.
//
// Threading: the core is single-threaded (paper §III-A). All methods must be
// called from the transport's Env thread or with external synchronization;
// an internal mutex makes the public API safe to call from an application
// thread when running on the real-time transports. waitfor_blocking() is the
// only method that blocks, and must not be called from the Env thread.
//
// The mutex is deliberately a std::recursive_mutex: user callbacks run
// under the lock and are allowed to call back into this Stabilizer. The
// supported re-entrant paths, each pinned by a test, are:
//   * delivery handler -> send / report_stability / get_stability_frontier
//     (the backup service reports "persisted" from its delivery upcall) —
//     core_test ReentrantDeliveryHandlerCallsBackIn;
//   * monitor / waitfor callbacks -> get_stability_frontier / waitfor /
//     send / report_stability (frontier-chasing state machines) —
//     core_test ReentrantMonitorCallsBackIn;
//   * peer-stall handler -> change_predicate / set_peer_excluded
//     (§III-E fault reaction runs inside the stall probe) — recovery_test
//     StallDetection.TypicalReactionAdjustsPredicates.
// A plain std::mutex would deadlock on every one of these, since all
// callbacks are invoked while the API lock is held.
//
// Three application-facing calls stay off the mutex (DESIGN.md §4f):
// get_stability_frontier and the waitfor already-stable check read a
// wait-free frontier board (an already-stable waitfor fires its callback on
// the calling thread), and on a multi-threaded transport a report_stability
// with no extra bytes folds into lock-free cells that a posted drain applies
// under the mutex — such a report becomes visible at the next drain, not
// within the reporting call, so sequence against it with waitfor or a
// monitor. Every received frame, and every other callback, is processed
// under the mutex on the Env thread; the re-entrancy contract above holds.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/depth_scratch.hpp"
#include "config/topology.hpp"
#include "control/frontier_engine.hpp"
#include "core/in_stream.hpp"
#include "core/out_stream.hpp"
#include "core/pipeline.hpp"
#include "core/report_plane.hpp"
#include "data/wire.hpp"
#include "dsl/predicate.hpp"
#include "net/transport.hpp"
#include "obs/obs.hpp"

namespace stab {

struct StabilizerOptions {
  Topology topology;
  NodeId self = 0;

  /// Control-plane batching: the one flush period of the report plane
  /// (DESIGN.md §10). A stability report leaves this node at most this long
  /// after it is made; monotonicity makes coalescing lossless (§III-A).
  Duration ack_interval = millis(2);

  /// Retransmission probe period; zero disables (the default — the bundled
  /// transports are lossless FIFO). Enable on lossy links. The probe is the
  /// fallback repair: a mirror NACKs each hole it sees at once, and the
  /// probe resends when a peer's receive ack has stalled for a period.
  Duration retransmit_timeout = Duration::zero();
  /// Messages a probe resends to a stalled peer, messages one NACK may
  /// resend, and how far past its contiguous prefix a mirror holds
  /// out-of-order frames.
  size_t retransmit_window = 256;

  /// Crash detection (§III-E "The crashed secondary node can be observed by
  /// a predicate update timer"): if a peer's receive acknowledgment makes no
  /// progress for this long while data is outstanding to it, the peer-stall
  /// handler fires. Zero disables.
  Duration peer_stall_timeout = Duration::zero();

  /// Per-peer flow control: at most this many messages transmitted beyond
  /// the peer's receive acknowledgment; the rest stay in the send buffer
  /// and flow as acks come back (§III-B "it can also buffer data for later
  /// transmission if needed"). Zero = transmit aggressively with no cap
  /// (the paper's default behaviour).
  size_t send_window = 0;

  /// true: stability reports go to every node, so every WAN site evaluates
  /// predicates independently (Fig 1). false: reports go only to the
  /// message's origin — sufficient when only senders track stability, and
  /// what the large trace benches use.
  bool broadcast_acks = true;

  /// true: mirrors send their plain (extra-free) reports through their AZ's
  /// aggregator (Topology::set_az_aggregator), which max-merges its members'
  /// reports and forwards them in its own flush, one merged frame long-haul.
  /// A dead aggregator (excluded, stalled or deposed) is bypassed: mirrors
  /// send directly until it heals. An AZ without an aggregator, and every
  /// report with extra bytes, goes directly. Stability semantics are the
  /// same either way; a relayed report pays one more flush of lag.
  bool aggregate_reports = false;

  /// Large writes are split into messages of at most this size (§VI-B:
  /// "Stabilizer splits big writes into smaller packets whose upper bound is
  /// 8KB").
  size_t split_size = 8 * 1024;

  /// Execution strategy for compiled predicates.
  dsl::EvalMode eval_mode = dsl::EvalMode::kSpecialized;

  /// Small-frame coalescing: when > 1, a window flush that finds several
  /// consecutive pending messages for a peer packs up to this many into one
  /// DATABATCH frame, and send() defers its flush to the end of the current
  /// event-loop turn so a burst of sends coalesces. 0/1 = off (the default:
  /// every send() transmits synchronously before returning, which
  /// latency-sensitive callers rely on).
  size_t coalesce_max_frames = 0;
  /// Byte bound per DATABATCH (payloads + virtual padding + per-entry
  /// headers). Messages too large to fit ride alone: coalescing exists to
  /// amortize per-frame overhead that large payloads already amortize.
  size_t coalesce_max_bytes = 16 * 1024;

  /// Automatically report the "delivered" level after the application
  /// upcall returns.
  bool auto_report_delivered = true;

  /// Shard attribution (DESIGN.md §9): set by the sharded facade to the
  /// instance's shard id so this node's metrics registry (and through it
  /// the /metrics exposition and JSONL exports) labels every series with
  /// the shard. -1 = unsharded (the default; exports unchanged).
  int shard_label = -1;

#if STAB_OBS_ENABLED
  /// Opt-in message-lifecycle tracer (docs/OBSERVABILITY.md). Usually one
  /// Tracer is shared by every node of a cluster so a message's broadcast,
  /// per-peer transmits, deliveries, ack reports, and frontier fires land in
  /// one stream. Null (the default) records nothing and costs one branch
  /// per instrumentation site.
  std::shared_ptr<obs::Tracer> tracer;

  /// Opt-in online stability-latency probe (docs/OBSERVABILITY.md §6):
  /// sampled send→deliver / per-type send→stable histograms with windowed
  /// percentiles, joined online instead of from an exported trace. Shared
  /// across a sim cluster like the tracer (one clock ties the spans
  /// together); per-node on real transports. Null (the default) records
  /// nothing and costs one branch per instrumentation site.
  std::shared_ptr<obs::LatencyProbe> probe;
#endif
};

/// Point-in-time snapshot of a node's core counters. Since the obs layer
/// (src/obs) landed this struct is a *compatibility view*: the authoritative
/// values live in the node's obs::MetricsRegistry (relaxed atomics, safe to
/// bump from transport IO threads without the API lock) and
/// Stabilizer::stats() reads through it. In a -DSTAB_OBS=OFF build every
/// registry-backed field reads 0; the control-plane eval counters are
/// engine-owned plain fields and report in every build.
struct StabilizerStats {
  uint64_t messages_sent = 0;       // local stream messages
  uint64_t frames_transmitted = 0;  // DATA frames put on the wire
  uint64_t messages_delivered = 0;  // remote messages upcalled
  // The report plane (DESIGN.md §10). Plain reports travel in REPORTBATCH
  // frames, reports with extra bytes in ACKBATCH frames; *_batches_sent
  // count frames put on the wire (frames x destinations), *_entries_applied
  // the entries received. deferred_flushes counts report-plane flushes that
  // found reports pending.
  uint64_t ack_batches_sent = 0;
  uint64_t ack_entries_applied = 0;
  uint64_t report_batches_sent = 0;
  uint64_t report_entries_applied = 0;
  uint64_t deferred_flushes = 0;
  uint64_t agg_blocks_absorbed = 0;    // member blocks merged by an aggregator
  uint64_t agg_fallback_direct = 0;    // flushes that bypassed a dead aggregator
  uint64_t report_blocks_fenced = 0;   // blocks dropped: deposed reporter
  uint64_t duplicates_dropped = 0;
  uint64_t gaps_detected = 0;
  // DATA frames re-sent, for a NACK or by the retransmit probe.
  uint64_t retransmits_sent = 0;
  // §III-E failure-episode accounting. A stall episode opens when the
  // peer-stall handler fires and closes when the recovered handler fires;
  // both are exactly-once per episode, so after every fault has healed
  // peer_recover_episodes - peer_stall_episodes is the number of peer
  // restarts that were observed before their stall timer expired.
  uint64_t peer_stall_episodes = 0;
  uint64_t peer_recover_episodes = 0;
  // Crash-restart rejoin (RESUME handshake).
  uint64_t resumes_sent = 0;
  uint64_t resumes_received = 0;  // includes stale-epoch duplicates
  // Control-plane hot path (aggregated over every origin engine; see
  // FrontierEngine's counters of the same names).
  uint64_t predicate_evals = 0;
  uint64_t evals_skipped_index = 0;
  uint64_t evals_skipped_binding = 0;
  // Data-plane fast path. frames_transmitted above stays per message per
  // peer even when messages ride inside a DATABATCH; frames_coalesced counts
  // how many of those transmissions were coalesced.
  uint64_t data_encodes = 0;      // DATA/DATABATCH encode executions
  uint64_t shared_sends = 0;      // frames handed to Transport::send_shared
  uint64_t frames_coalesced = 0;  // message transmissions inside a batch
  // Primary failover (epoch fencing; DESIGN.md §6). fenced_frames counts
  // frames dropped for carrying a *stale* primary epoch (the zombie
  // ex-primary signature); epoch_ahead_drops counts frames from a *newer*
  // epoch than this node has learned (repaired by a NACK or the probe once
  // the takeover announcement lands).
  uint64_t fenced_frames = 0;
  uint64_t epoch_ahead_drops = 0;
  uint64_t takeovers_observed = 0;   // epoch bumps applied (adopt or observe)
  uint64_t failover_seqs_skipped = 0;      // cursor fast-forwards at takeover
  uint64_t failover_seqs_rolled_back = 0;  // cursor rewinds at takeover
  uint64_t waiters_fenced = 0;       // waitfor callbacks failed with kFencedSeq
};

class Stabilizer {
 public:
  /// Delivery upcall: a message of a remote origin's stream arrived in
  /// order. `wire_size` includes virtual padding.
  using DeliveryHandler = std::function<void(
      NodeId origin, SeqNum seq, BytesView payload, uint64_t wire_size)>;
  using MonitorFn = FrontierEngine::MonitorFn;
  using WaiterFn = FrontierEngine::WaiterFn;

  Stabilizer(StabilizerOptions options, Transport& transport);
  ~Stabilizer();

  Stabilizer(const Stabilizer&) = delete;
  Stabilizer& operator=(const Stabilizer&) = delete;

  /// This node's id within the topology. Constant; safe from any thread.
  NodeId self() const { return options_.self; }
  /// The cluster topology this node was constructed with. Constant; safe
  /// from any thread.
  const Topology& topology() const { return options_.topology; }
  /// The transport's execution environment (clock + timers). Safe from any
  /// thread; scheduling callbacks is the transport's thread-safety problem.
  Env& env() { return transport_.env(); }

#if STAB_OBS_ENABLED
  /// This node's metrics registry — counters/gauges/histograms the
  /// instrumented hot paths feed and stats() reads through. Thread-safe;
  /// takes the API lock briefly to fold batched transmit deltas into the
  /// registry so the returned view is current.
  obs::MetricsRegistry& metrics() const {
    std::lock_guard<std::recursive_mutex> lock(mutex_);
    ctr_.flush_pending();
    sync_trace_dropped();
    return metrics_;
  }

  /// The lifecycle tracer attached at construction (null when tracing is
  /// off). The failover manager records its episode spans through this.
  obs::Tracer* tracer() const { return tracer_; }

  /// The latency probe attached at construction (null when off).
  obs::LatencyProbe* probe() const { return probe_; }
#endif

  // --- data plane -------------------------------------------------------------
  /// Sequence and stream one message of the local pool to every peer.
  /// Returns its sequence number — or kFencedSeq, without sending, once this
  /// node has been deposed as its own stream's primary (see self_fenced()).
  /// `virtual_size` adds trace-replay padding that is charged to (simulated)
  /// bandwidth but not materialized.
  SeqNum send(BytesView payload, uint64_t virtual_size = 0);

  /// Split a large write into <= split_size messages (plus padding spread
  /// across them). Returns [first_seq, last_seq].
  std::pair<SeqNum, SeqNum> send_large(BytesView payload,
                                       uint64_t virtual_size = 0);

  void set_delivery_handler(DeliveryHandler handler);

  /// Frames whose leading kind byte is not a Stabilizer frame are passed
  /// through here — applications (e.g. the quorum protocol's read RPCs)
  /// multiplex their own messages onto the same links. Application kinds
  /// must be >= 0x40.
  using RawHandler =
      std::function<void(NodeId src, BytesView frame, uint64_t wire_size)>;
  void set_raw_frame_handler(RawHandler handler);

  /// Sends an application frame (kind byte >= 0x40) to one peer, outside the
  /// sequenced stream.
  void send_raw(NodeId dst, Bytes frame);

  // --- control plane (paper §III-D) --------------------------------------------
  /// Registers a new predicate under `key` on every origin stream's engine.
  Status register_predicate(const std::string& key, const std::string& source);
  /// Replaces an existing predicate at runtime (dynamic reconfiguration).
  Status change_predicate(const std::string& key, const std::string& source);
  /// Removes `key` from every origin stream's engine. Pending waiters on the
  /// key fail with kNoSeq (waitfor_blocking reports false). Must not be
  /// called from inside an engine callback.
  Status remove_predicate(const std::string& key);
  bool has_predicate(const std::string& key) const;

  /// Current frontier of `key` for `origin`'s stream (default: own stream).
  /// Wait-free: never takes the API lock. kNoSeq for an unregistered key or
  /// an origin outside the topology.
  SeqNum get_stability_frontier(const std::string& key,
                                NodeId origin = kInvalidNode) const;

  /// Calls `fn` every time `key`'s frontier advances on `origin`'s stream.
  /// Fails for an unregistered key or an origin outside the topology.
  Status monitor_stability_frontier(const std::string& key, MonitorFn fn,
                                    NodeId origin = kInvalidNode);

  /// One-shot: calls `fn` when frontier(key) >= seq — immediately, on the
  /// calling thread and without the API lock, if it already is. Fails, and
  /// never calls `fn`, for an unregistered key or an origin outside the
  /// topology.
  Status waitfor(SeqNum seq, const std::string& key, WaiterFn fn,
                 NodeId origin = kInvalidNode);

  /// Blocking waitfor for real-time deployments. Must not be called from the
  /// Env thread. Returns false on timeout.
  bool waitfor_blocking(SeqNum seq, const std::string& key, Duration timeout,
                        NodeId origin = kInvalidNode);

  /// Why a blocking wait ended. kOk: frontier covered seq. kTimeout: the
  /// deadline expired with the waiter still parked (it may fire later; the
  /// late fire is unheard). kNoSeq: the wait is unsatisfiable — the key is
  /// unknown, or the predicate was removed/adjusted out from under the
  /// waiter (the §III-E reaction to a dead mirror). kFenced: this node was
  /// deposed as the stream's primary, so the old sequence space it was
  /// waiting on no longer exists (failover fencing).
  enum class WaitStatus { kOk, kTimeout, kNoSeq, kFenced };

  /// Status-returning flavor of waitfor_blocking: same blocking semantics,
  /// but timeout / removed-predicate / fenced outcomes are distinguishable
  /// instead of all collapsing to `false`.
  WaitStatus waitfor_blocking_status(SeqNum seq, const std::string& key,
                                     Duration timeout,
                                     NodeId origin = kInvalidNode);

  /// Report that `origin`'s message `seq` reached an application-defined
  /// stability level locally (e.g. "verified"). The report joins the
  /// control-plane stream; `extra` rides along as uninterpreted bytes.
  Status report_stability(const std::string& type_name, NodeId origin,
                          SeqNum seq, BytesView extra = {});

  // --- fault tolerance / reconfiguration ---------------------------------------
  /// Predicates (keys) that reference `node` — the candidates to adjust when
  /// the node fails (§III-E: "The primary can adjust the predicate to
  /// eliminate the impact").
  std::vector<std::string> predicates_referencing(NodeId node) const;

  /// Fired (once per stall episode, on the Env thread) when
  /// peer_stall_timeout elapses without ack progress from a peer that still
  /// owes acknowledgments. Typical reaction: adjust predicates via
  /// change_predicate and/or set_peer_excluded.
  using PeerStallHandler = std::function<void(NodeId peer)>;
  void set_peer_stall_handler(PeerStallHandler handler);

  /// Symmetric complement of the stall handler: fired (on the Env thread,
  /// under the API lock — same re-entrancy rules) when a stalled peer makes
  /// ack progress again, and when a peer announces a new session epoch via
  /// RESUME (a crash-restart observed before the stall timer expired).
  /// Typical reaction: undo the stall reaction — re-include the peer via
  /// change_predicate / set_peer_excluded(node, false).
  using PeerRecoveredHandler = std::function<void(NodeId peer)>;
  void set_peer_recovered_handler(PeerRecoveredHandler handler);

  /// Serializes the control-plane state: stability-type names, registered
  /// predicates, every origin's AckTable, the local sequencer position, and
  /// per-origin delivery cursors. Together with the storage substrate's own
  /// recovery (e.g. LocalStore::recover) this implements §III-E's restart
  /// path: "the Derecho object store can also persist the stability
  /// frontier information, which can be used for Stabilizer recovery".
  Bytes snapshot_control_state() const;

  /// Restores a snapshot into a freshly constructed instance (same topology,
  /// same self). Re-registers predicates, merges ack state (monotonic, so
  /// replaying a stale snapshot is harmless), fast-forwards the sequencer so
  /// new sends never reuse sequence numbers, and refills the send buffer
  /// with the snapshot's unreclaimed slots so peers' gaps can heal.
  ///
  /// Rejoin: restoring bumps the session epoch and announces RESUME
  /// (epoch, receive_through) to every non-excluded peer; peers rewind their
  /// send cursor to our persisted delivery cursor and re-issue their
  /// cumulative stability reports and answer with a RESUME reply. The
  /// announcement is re-sent with every retransmit probe until that reply
  /// arrives — only a frame sent causally after the announcement proves it
  /// got through — so a RESUME lost to a partition or to packet loss is
  /// recovered (duplicates are ignored by epoch). Enable retransmit_timeout
  /// when crash-restart must be survivable.
  Status restore_control_state(BytesView snapshot);

  /// Excluded peers receive no further traffic and do not block send-buffer
  /// reclamation. Used after crash detection; predicates must be adjusted
  /// separately (they keep reading the excluded node's last acks).
  void set_peer_excluded(NodeId node, bool excluded);
  bool peer_excluded(NodeId node) const;

  // --- primary failover mechanism (DESIGN.md §6) -------------------------------
  // The core provides the *mechanism*: per-stream primary epochs, frame
  // fencing, adopted-stream sequencing, and waiter fencing. The election
  // *protocol* (leases, suspicion, the Paxos ballot, reconciliation) lives
  // in src/failover and drives these three calls.

  /// Epoch of `origin`'s stream as learned by this node (0 = the configured
  /// origin still holds it). Default origin: own stream. This and
  /// stream_primary() throw std::out_of_range for an origin outside the
  /// topology.
  PrimaryEpoch stream_epoch(NodeId origin = kInvalidNode) const;
  /// Node currently holding sequencing authority for `origin`'s stream.
  NodeId stream_primary(NodeId origin = kInvalidNode) const;
  /// True once this node was deposed as primary of its own stream: send()
  /// returns kFencedSeq, own-stream waiters have been failed with kFencedSeq,
  /// and every outgoing frame of ours is stamped with the stale epoch (so
  /// peers fence it — the zombie is silenced even if it keeps running).
  bool self_fenced() const;
  /// True when this node holds adopted sequencing authority for `origin`.
  bool is_acting_primary(NodeId origin) const;

  /// Election winner: become the acting primary of `origin`'s stream under
  /// `epoch` (must be > the currently learned epoch), issuing from
  /// `start_seq`. The caller (the failover manager) is responsible for
  /// having agreed on (epoch, winner) via consensus and for computing
  /// start_seq = max over live peers' contiguous prefixes + 1. Our own
  /// delivery cursor fast-forwards to start_seq - 1 if behind (the skipped
  /// seqs were never stable anywhere — counted in failover_seqs_skipped).
  Status adopt_stream(NodeId origin, SeqNum start_seq, PrimaryEpoch epoch);

  /// Sequence and stream one message on an adopted stream (the acting
  /// primary's send()). Returns its sequence number, or kFencedSeq if this
  /// node no longer holds the stream.
  SeqNum send_as(NodeId origin, BytesView payload, uint64_t virtual_size = 0);

  /// Learn a committed takeover: `new_primary` holds `origin`'s stream under
  /// `epoch` from `start_seq` (kNoSeq = not yet known — fence now, cursor
  /// later). Idempotent; stale epochs are ignored. When origin == self this
  /// node is being deposed: it self-fences, fails its own-stream waiters
  /// with kFencedSeq, and refuses further send()s. When we were the acting
  /// primary of `origin` and someone newer took over, the adoption is
  /// dropped the same way.
  Status observe_takeover(NodeId origin, NodeId new_primary, PrimaryEpoch epoch,
                          SeqNum start_seq);

  /// Last seq issued on an adopted stream (kNoSeq when not acting primary).
  SeqNum acting_last_sent(NodeId origin) const;

  // --- introspection ------------------------------------------------------------
  SeqNum last_sent() const;
  SeqNum delivered_through(NodeId origin) const;
  /// Highest seq of `origin`'s stream (default: own stream) that this node,
  /// as the stream's sequencer, has reclaimed from its send buffer. kNoSeq
  /// when it has reclaimed nothing or does not sequence that stream (a
  /// fenced own stream included).
  SeqNum reclaimed_through(NodeId origin = kInvalidNode) const;
  /// Snapshot of the counters, with the control-plane eval counters
  /// aggregated across every origin engine at call time.
  StabilizerStats stats() const;
  uint64_t send_buffer_bytes() const { return own_.buffered_bytes(); }
  /// 0 for a fresh instance; a restore bumps it to snapshot epoch + 1.
  uint64_t session_epoch() const;
  /// Highest session epoch announced by `peer` via RESUME (0 = never).
  uint64_t peer_session_epoch(NodeId peer) const;
  /// True while our RESUME announcement to `peer` awaits confirmation.
  bool resume_pending(NodeId peer) const;
  /// `origin`'s engine (default: own stream); throws std::out_of_range for
  /// an origin outside the topology.
  FrontierEngine& engine(NodeId origin = kInvalidNode);
  const FrontierEngine& engine(NodeId origin = kInvalidNode) const;
  StabilityTypeRegistry& types() { return types_; }

 private:
  /// The stream an API call names: `origin`, or this node's own stream
  /// for kInvalidNode. Not range-checked; callers check against
  /// engines_.size() or index with .at().
  NodeId resolve_origin(NodeId origin) const {
    return origin == kInvalidNode ? options_.self : origin;
  }
  void on_frame(NodeId src, BytesView frame, uint64_t wire_size);
  /// Resends the range a mirror NACKed, when it names a stream this node
  /// sequences under the current epoch and comes from one of its
  /// destinations; otherwise drops and counts it.
  void handle_nack(NodeId src, const data::NackFrame& nack);
  /// The stream this node sequences for `origin` — its own unless fenced,
  /// or an adopted one — or null.
  OutStream* sequenced_stream(NodeId origin);
  void handle_ack_batch(const data::AckBatchView& frame);
  void handle_report_batch(NodeId src, const data::ReportBatchView& frame);
  void handle_resume(NodeId src, const data::ResumeFrame& frame);
  void send_resume(NodeId peer, bool reply = false);
  void mark_peer_recovered(NodeId peer);
  void schedule_retransmit_timer();
  void retransmit_check();
  void schedule_stall_timer();
  void stall_check();
  void apply_origin_rule(NodeId origin, SeqNum seq);
  /// The body of send() and send_as() once the caller has picked the stream.
  SeqNum send_on(OutStream& stream, BytesView payload, uint64_t virtual_size);
  void backfill_origin_rule();
  void maybe_reclaim();
  void pump_all();
  /// Coalescing defers send()'s flush to the end of the event-loop turn so a
  /// burst of sends batches; this arms that (single) deferred pump.
  void arm_flush();

  // --- failover fencing / adopted streams (DESIGN.md §6) ---------------------
  /// Deposed as primary of our own stream: fail own-stream waiters with
  /// kFencedSeq and refuse further send()s. Caller holds mutex_.
  void fence_self();
  /// Learns `primary` as `origin`'s sequencing authority under the newer
  /// `epoch`. Discards the frames the receive stream holds past a hole: the
  /// old authority sent them, and the new one sequences its own messages
  /// under the same seqs.
  void learn_authority(NodeId origin, PrimaryEpoch epoch, NodeId primary);
  /// Move `origin`'s delivery cursor to exactly start_seq - 1 for an epoch
  /// boundary, counting skips (fast-forward) or rollbacks (re-delivery of an
  /// overlapping old-epoch suffix under the new authority).
  void apply_takeover_cursor(NodeId origin, SeqNum start_seq,
                             bool allow_rollback = true);

  // --- lock-free report cells (DESIGN.md §4f) ----------------------------------
  /// Schedules one drain task onto the Env thread (at most one outstanding).
  void arm_drain();
  /// Applies every report the cells hold, in one batch per origin, until
  /// they are clean. Caller must hold mutex_; re-entrant calls (a callback
  /// reading stats()) no-op and the outer drain loops until quiescent.
  void drain_pipeline();
  void drain_pipeline_locked();

  StabilizerOptions options_;
  Transport& transport_;
  StabilityTypeRegistry types_;
  std::vector<std::unique_ptr<FrontierEngine>> engines_;  // per origin
  // Receive-path scratch (DESIGN.md §4c): a control frame's reports grouped
  // per origin engine, and the flat update lists of the origin rule, a
  // delivery and a cell drain. One buffer per nesting depth (callbacks fired
  // by a batch re-enter these paths), reused across frames.
  DepthScratch<std::vector<std::vector<AckUpdate>>> per_origin_scratch_;
  DepthScratch<std::vector<AckUpdate>> updates_scratch_;
  std::vector<InStream> in_;  // per origin: receive cursor and held frames
  DeliveryHandler delivery_;
  RawHandler raw_handler_;
  std::vector<bool> excluded_;

  // Deferred-flush state (armed only while coalescing is enabled).
  bool flush_armed_ = false;
  TimerId flush_timer_ = kInvalidTimer;
  TimerId retransmit_timer_ = kInvalidTimer;
  TimerId stall_timer_ = kInvalidTimer;
  PeerStallHandler stall_handler_;
  PeerRecoveredHandler recovered_handler_;
  std::vector<SeqNum> stall_last_acked_;
  std::vector<bool> stalled_;
  // Crash-restart session state. session_epoch_ > 0 identifies an instance
  // reborn from a snapshot; peer_epoch_ dedupes RESUME announcements;
  // resume_pending_ drives their re-announcement from the retransmit probe.
  uint64_t session_epoch_ = 0;
  std::vector<uint64_t> peer_epoch_;
  std::vector<bool> resume_pending_;
  bool stopped_ = false;

  // Primary-failover state (under mutex_).
  // stream_epoch_[o] / stream_primary_[o]: the newest sequencing authority
  // this node has learned for origin o's stream (epoch 0, primary o at
  // construction).
  std::vector<PrimaryEpoch> stream_epoch_;
  std::vector<NodeId> stream_primary_;
  // Written under mutex_; waitfor reads it without the lock first, then
  // re-checks under the lock before parking a waiter.
  std::atomic<bool> self_fenced_{false};

  // Report cells and their drain (null on a single_threaded() transport,
  // where reports apply directly). The drain gate lets posted drain tasks
  // outlive the Stabilizer safely: tasks lock the gate and check `owner`
  // before touching `this`; the destructor nulls `owner` under the gate
  // mutex (lock order: gate -> mutex_, everywhere).
  struct DrainGate {
    std::mutex m;
    Stabilizer* owner = nullptr;
  };
  std::unique_ptr<ControlPipeline> pipeline_;
  std::shared_ptr<DrainGate> drain_gate_;
  bool draining_ = false;  // re-entrancy guard, under mutex_

#if STAB_OBS_ENABLED
  /// One relaxed-atomic counter per StabilizerStats field (plus the two core
  /// histograms), resolved from metrics_ once at construction so the hot
  /// paths bump references with no lookup. See docs/OBSERVABILITY.md for
  /// the name catalog.
  struct Counters {
    obs::Counter& messages_sent;
    obs::Counter& messages_delivered;
    obs::Counter& peer_stall_episodes;
    obs::Counter& peer_recover_episodes;
    obs::Counter& resumes_sent;
    obs::Counter& resumes_received;
    obs::Counter& frames_transmitted;
    obs::Counter& duplicates_dropped;
    obs::Counter& gaps_detected;
    obs::Counter& retransmits_sent;
    obs::Counter& nacks_sent;
    obs::Counter& nacks_dropped;
    obs::Counter& data_encodes;
    obs::Counter& shared_sends;
    obs::Counter& frames_coalesced;
    obs::Counter& ack_batches_sent;
    obs::Counter& ack_bytes_sent;
    obs::Counter& ack_entries_applied;
    obs::Counter& report_batches_sent;
    obs::Counter& report_bytes_sent;
    obs::Counter& report_entries_applied;
    obs::Counter& deferred_flushes;
    obs::Counter& agg_blocks_absorbed;
    obs::Counter& agg_fallback_direct;
    obs::Counter& report_blocks_fenced;
    obs::Counter& fenced_frames;
    obs::Counter& epoch_ahead_drops;
    obs::Counter& takeovers_observed;
    obs::Counter& failover_seqs_skipped;
    obs::Counter& failover_seqs_rolled_back;
    obs::Counter& waiters_fenced;
    obs::Counter& frames_malformed;
    obs::Histogram& batch_frames;       // messages per encoded DATABATCH
    obs::Histogram& ack_flush_entries;  // entries per flushed ACKBATCH
    obs::Histogram& report_flush_entries;  // entries per flushed REPORTBATCH

    // Per-frame transmit accounting is batched to keep atomic RMWs off the
    // hot path: transmit()/transmit_batch() bump these plain members (all
    // callers hold mutex_) and flush_pending() folds them into the
    // atomic counters once per pump/probe/stats read.
    uint64_t pending_messages_sent = 0;
    uint64_t pending_messages_delivered = 0;
    uint64_t pending_frames_transmitted = 0;
    uint64_t pending_data_encodes = 0;
    uint64_t pending_shared_sends = 0;
    uint64_t pending_frames_coalesced = 0;
    void flush_pending();

    explicit Counters(obs::MetricsRegistry& r);
  };
  mutable obs::MetricsRegistry metrics_;  // declared before ctr_ (init order)
  mutable Counters ctr_{metrics_};
  obs::Tracer* tracer_ = nullptr;        // cached from options_.tracer
  obs::LatencyProbe* probe_ = nullptr;   // cached from options_.probe

  /// Mirror Tracer::dropped() into the obs.trace_dropped counter so a
  /// capacity-clipped trace is visible in any metrics export/scrape, not
  /// just to whoever holds the Tracer. Counters are monotonic, so the sync
  /// folds only the delta since the last read. Caller holds mutex_.
  void sync_trace_dropped() const {
    if (tracer_ == nullptr) return;
    const uint64_t d = tracer_->dropped();
    if (d > trace_dropped_synced_) {
      metrics_.counter("obs.trace_dropped").inc(d - trace_dropped_synced_);
      trace_dropped_synced_ = d;
    }
  }
  mutable uint64_t trace_dropped_synced_ = 0;
#endif

  // The receive and send sides of the data plane and the way reports leave
  // are parts of this node: they read and write its state under mutex_.
  friend class InStream;
  friend class OutStream;
  friend class ReportPlane;
  // The streams this node sequences: its own, and by origin the ones it won
  // in failover elections.
  OutStream own_{*this, options_.self, 0};
  std::map<NodeId, OutStream> adopted_;
  ReportPlane reports_{*this};
  mutable std::recursive_mutex mutex_;
};

}  // namespace stab
