#include "core/stabilizer.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace stab {

Stabilizer::Counters::Counters(obs::MetricsRegistry& r)
    : messages_sent(r.counter("core.messages_sent")),
      messages_delivered(r.counter("core.messages_delivered")),
      peer_stall_episodes(r.counter("core.peer_stall_episodes")),
      peer_recover_episodes(r.counter("core.peer_recover_episodes")),
      resumes_sent(r.counter("core.resumes_sent")),
      resumes_received(r.counter("core.resumes_received")),
      frames_transmitted(r.counter("data.frames_transmitted")),
      duplicates_dropped(r.counter("data.duplicates_dropped")),
      gaps_detected(r.counter("data.gaps_detected")),
      retransmits_sent(r.counter("data.retransmits_sent")),
      nacks_sent(r.counter("data.nacks_sent")),
      nacks_dropped(r.counter("data.nacks_dropped")),
      data_encodes(r.counter("data.encodes")),
      shared_sends(r.counter("data.shared_sends")),
      frames_coalesced(r.counter("data.frames_coalesced")),
      ack_batches_sent(r.counter("control.ack_batches_sent")),
      ack_bytes_sent(r.counter("control.ack_bytes_sent")),
      ack_entries_applied(r.counter("control.ack_entries_applied")),
      report_batches_sent(r.counter("control.report_batches_sent")),
      report_bytes_sent(r.counter("control.report_bytes_sent")),
      report_entries_applied(r.counter("control.report_entries_applied")),
      deferred_flushes(r.counter("control.deferred_flushes")),
      agg_blocks_absorbed(r.counter("control.agg_blocks_absorbed")),
      agg_fallback_direct(r.counter("control.agg_fallback_direct")),
      report_blocks_fenced(r.counter("control.report_blocks_fenced")),
      fenced_frames(r.counter("failover.fenced_frames")),
      epoch_ahead_drops(r.counter("failover.epoch_ahead_drops")),
      takeovers_observed(r.counter("failover.takeovers_observed")),
      failover_seqs_skipped(r.counter("failover.seqs_skipped")),
      failover_seqs_rolled_back(r.counter("failover.seqs_rolled_back")),
      waiters_fenced(r.counter("failover.waiters_fenced")),
      frames_malformed(r.counter("core.frames_malformed")),
      batch_frames(r.histogram("data.batch_frames")),
      ack_flush_entries(r.histogram("control.ack_flush_entries")),
      report_flush_entries(r.histogram("control.report_flush_entries")) {}

void Stabilizer::Counters::flush_pending() {
  if (pending_messages_sent) {
    messages_sent.inc(pending_messages_sent);
    pending_messages_sent = 0;
  }
  if (pending_messages_delivered) {
    messages_delivered.inc(pending_messages_delivered);
    pending_messages_delivered = 0;
  }
  if (pending_frames_transmitted) {
    frames_transmitted.inc(pending_frames_transmitted);
    pending_frames_transmitted = 0;
  }
  if (pending_data_encodes) {
    data_encodes.inc(pending_data_encodes);
    pending_data_encodes = 0;
  }
  if (pending_shared_sends) {
    shared_sends.inc(pending_shared_sends);
    pending_shared_sends = 0;
  }
  if (pending_frames_coalesced) {
    frames_coalesced.inc(pending_frames_coalesced);
    pending_frames_coalesced = 0;
  }
}

namespace {
// Checked before any member is built: the streams and the report plane
// index by self.
StabilizerOptions checked(StabilizerOptions options) {
  if (options.self >= options.topology.num_nodes())
    throw std::invalid_argument("Stabilizer: self node out of range");
  return options;
}
}  // namespace

Stabilizer::Stabilizer(StabilizerOptions options, Transport& transport)
    : options_(checked(std::move(options))),
      transport_(transport),
      excluded_(options_.topology.num_nodes(), false) {
  const size_t n = options_.topology.num_nodes();
  engines_.reserve(n);
  in_.reserve(n);
  for (NodeId origin = 0; origin < n; ++origin) {
    engines_.push_back(std::make_unique<FrontierEngine>(
        options_.topology, options_.self, types_, options_.eval_mode));
    in_.emplace_back(*this, origin);
  }

  metrics_.set_shard(options_.shard_label);
  tracer_ = options_.tracer.get();
  probe_ = options_.probe.get();
  // All origin engines share the node-wide lag/eval histograms; per-key lag
  // gauges are engine-created inside metrics_. Timestamps come from the
  // transport's Env clock so sim traces are deterministic.
  obs::Histogram& frontier_lag = metrics_.histogram("control.frontier_lag");
  obs::Histogram& eval_ns = metrics_.histogram("control.eval_ns");
  for (NodeId origin = 0; origin < n; ++origin) {
    FrontierEngine::ObsSinks sinks;
    sinks.registry = &metrics_;
    sinks.frontier_lag = &frontier_lag;
    sinks.eval_ns = &eval_ns;
    sinks.tracer = tracer_;
    sinks.probe = probe_;
    sinks.node = options_.self;
    sinks.origin = origin;
    sinks.now = [this] { return transport_.env().now(); };
    engines_[origin]->set_obs(std::move(sinks));
  }

  // Lock-free report cells only where reports can come from threads other
  // than the Env thread; the simulator applies every report directly.
  if (!transport_.single_threaded()) {
    pipeline_ = std::make_unique<ControlPipeline>(n, metrics_);
    drain_gate_ = std::make_shared<DrainGate>();
    drain_gate_->owner = this;
  }
  stall_last_acked_.assign(n, kNoSeq);
  stalled_.assign(n, false);
  peer_epoch_.assign(n, 0);
  resume_pending_.assign(n, false);
  stream_epoch_.assign(n, 0);
  stream_primary_.resize(n);
  for (NodeId o = 0; o < n; ++o) stream_primary_[o] = o;
  if (options_.retransmit_timeout > Duration::zero())
    schedule_retransmit_timer();
  if (options_.peer_stall_timeout > Duration::zero()) schedule_stall_timer();

  // Last: a transport may call the handler before set_receive_handler
  // returns, and the handler touches everything above.
  transport_.set_receive_handler(
      [this](NodeId src, BytesView frame, uint64_t wire_size) {
        on_frame(src, frame, wire_size);
      });
}

Stabilizer::~Stabilizer() {
  // Unhook from the transport first: a crashed-and-destroyed node must not
  // receive callbacks into freed state while the rest of the cluster (and
  // the simulator's event queue) keeps running.
  transport_.set_receive_handler(nullptr);
  // Disarm any posted drain task: after `owner` is nulled under the gate
  // mutex, a task that fires later no-ops. A task already past the gate
  // check holds the gate mutex through its drain, so this store waits for
  // it to finish (lock order gate -> mutex_ keeps that deadlock-free).
  if (drain_gate_) {
    std::lock_guard<std::mutex> gate(drain_gate_->m);
    drain_gate_->owner = nullptr;
  }
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  stopped_ = true;
  reports_.stop();
  if (retransmit_timer_ != kInvalidTimer) env().cancel(retransmit_timer_);
  if (stall_timer_ != kInvalidTimer) env().cancel(stall_timer_);
  if (flush_timer_ != kInvalidTimer) env().cancel(flush_timer_);
  // Shutdown is the quiesce point end-of-run readers care about: fold the
  // wire codec's thread-batched deltas into the global registry and mirror
  // any trace drops, so post-mortem exports read exact values.
  data::flush_wire_counters();
  sync_trace_dropped();
}

// --- data plane ----------------------------------------------------------------

SeqNum Stabilizer::send(BytesView payload, uint64_t virtual_size) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  // Deposed primaries must not extend the old sequence space: another node
  // now owns it and would issue the same numbers with different content.
  if (self_fenced_) return kFencedSeq;
  return send_on(own_, payload, virtual_size);
}

SeqNum Stabilizer::send_as(NodeId origin, BytesView payload,
                           uint64_t virtual_size) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  auto it = adopted_.find(origin);
  if (it == adopted_.end()) return kFencedSeq;
  return send_on(it->second, payload, virtual_size);
}

OutStream* Stabilizer::sequenced_stream(NodeId origin) {
  if (origin == options_.self) return self_fenced_ ? nullptr : &own_;
  auto it = adopted_.find(origin);
  return it == adopted_.end() ? nullptr : &it->second;
}

SeqNum Stabilizer::send_on(OutStream& stream, BytesView payload,
                           uint64_t virtual_size) {
  const NodeId origin = stream.origin();
  SeqNum seq = stream.push(payload, virtual_size);
  ++ctr_.pending_messages_sent;
  if (tracer_)
    tracer_->record(env().now(), obs::SpanEvent::kBroadcast, options_.self,
                    origin, seq);
  // Gate on sampled() first so 15-in-16 sends skip the clock read too.
  if (probe_ && probe_->sampled(seq)) probe_->on_send(origin, seq, env().now());

  if (options_.coalesce_max_frames > 1)
    arm_flush();  // batch with the rest of this event-loop turn's sends
  else
    stream.pump();
  apply_origin_rule(origin, seq);
  maybe_reclaim();  // single-node clusters reclaim immediately
  return seq;
}

std::pair<SeqNum, SeqNum> Stabilizer::send_large(BytesView payload,
                                                 uint64_t virtual_size) {
  const uint64_t total = payload.size() + virtual_size;
  const uint64_t split = options_.split_size;
  const uint64_t chunks = std::max<uint64_t>(1, (total + split - 1) / split);
  SeqNum first = kNoSeq, last = kNoSeq;
  uint64_t offset = 0;
  for (uint64_t c = 0; c < chunks; ++c) {
    uint64_t len = std::min<uint64_t>(split, total - offset);
    // Real bytes are the prefix of the combined stream; the rest is padding.
    uint64_t real_begin = std::min<uint64_t>(offset, payload.size());
    uint64_t real_end = std::min<uint64_t>(offset + len, payload.size());
    BytesView real = payload.subspan(real_begin, real_end - real_begin);
    uint64_t pad = len - real.size();
    SeqNum seq = send(real, pad);
    if (first == kNoSeq) first = seq;
    last = seq;
    offset += len;
  }
  return {first, last};
}

void Stabilizer::set_delivery_handler(DeliveryHandler handler) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  delivery_ = std::move(handler);
}

void Stabilizer::set_raw_frame_handler(RawHandler handler) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  raw_handler_ = std::move(handler);
}

void Stabilizer::send_raw(NodeId dst, Bytes frame) {
  if (!frame.empty() && frame[0] < 0x40)
    throw std::invalid_argument(
        "send_raw: application frame kinds must be >= 0x40");
  transport_.send(dst, std::move(frame));
}

void Stabilizer::arm_flush() {
  if (flush_armed_ || stopped_) return;
  flush_armed_ = true;
  flush_timer_ = env().post([this] {
    std::lock_guard<std::recursive_mutex> lock(mutex_);
    flush_armed_ = false;
    flush_timer_ = kInvalidTimer;
    if (!stopped_) pump_all();
  });
}

void Stabilizer::pump_all() {
  for (auto& [origin, stream] : adopted_) stream.pump();
  own_.pump();
}

void Stabilizer::apply_origin_rule(NodeId origin, SeqNum seq) {
  // §III-C: "all stability properties hold for the WAN node that originated
  // a message" — advance every type's self cell, as one batch so predicates
  // spanning several types re-evaluate once. The list is depth scratch
  // because callbacks fired by the batch may re-enter send().
  auto lease = updates_scratch_.acquire();
  std::vector<AckUpdate>& updates = *lease;
  updates.clear();
  for (StabilityTypeId t = 0; t < types_.count(); ++t)
    updates.push_back(AckUpdate{t, options_.self, seq, {}});
  engines_[origin]->on_ack_batch(updates);
}

// --- receive path ----------------------------------------------------------------

void Stabilizer::on_frame(NodeId src, BytesView frame, uint64_t wire_size) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (stopped_) return;
  // Whole-node fence: once we have learned that `src` was deposed as primary
  // of its own stream, every frame it sends — data, acks, RESUME, raw — is
  // zombie output (the cluster elected its successor because it was presumed
  // dead) and is dropped and counted. Per-stream authority of *other* nodes'
  // adopted streams is checked per data frame below.
  if (src < stream_primary_.size() && stream_primary_[src] != src) {
    ctr_.fenced_frames.inc();
    if (tracer_)
      tracer_->record(env().now(), obs::SpanEvent::kFenceDrop, options_.self,
                      src, kNoSeq, src, "node_deposed");
    return;
  }
  auto kind = data::peek_kind(frame);
  if (!kind) {
    if (raw_handler_) {
      raw_handler_(src, frame, wire_size);
    } else {
      STAB_WARN("node " << options_.self << ": dropping unknown frame from "
                        << src);
    }
    return;
  }
  // Bytes from a peer must never take the node down: a frame that does not
  // decode (truncated, a count that overruns it, a type id at or above
  // kMaxStabilityTypes, a NACK range with from > to) is dropped and counted.
  // Only the decode is guarded; exceptions from handlers and user callbacks
  // propagate as before. The ACKBATCH and REPORTBATCH views read `frame` in
  // place, which the transport keeps alive until this handler returns.
  auto decodes = [&](auto&& decode) {
    try {
      decode();
      return true;
    } catch (const CodecError&) {
      ctr_.frames_malformed.inc();
      return false;
    }
  };
  switch (*kind) {
    case data::FrameKind::kData: {
      data::DataView v;
      if (decodes([&] { v = data::decode_data_view(frame); }) &&
          v.origin < in_.size())
        in_[v.origin].on_data(src, v, wire_size);
      break;
    }
    case data::FrameKind::kDataBatch: {
      data::DataBatchFrame batch;
      if (decodes([&] { batch = data::decode_data_batch(frame); }) &&
          batch.origin < in_.size())
        in_[batch.origin].on_batch(src, batch);
      break;
    }
    case data::FrameKind::kNack: {
      data::NackFrame nack;
      if (decodes([&] { nack = data::decode_nack(frame); }))
        handle_nack(src, nack);
      break;
    }
    case data::FrameKind::kAckBatch: {
      data::AckBatchView v;
      if (decodes([&] { v = data::decode_ack_batch_view(frame); }))
        handle_ack_batch(v);
      break;
    }
    case data::FrameKind::kReportBatch: {
      data::ReportBatchView v;
      if (decodes([&] { v = data::decode_report_batch_view(frame); }))
        handle_report_batch(src, v);
      break;
    }
    case data::FrameKind::kResume: {
      data::ResumeFrame r;
      if (decodes([&] { r = data::decode_resume(frame); }))
        handle_resume(src, r);
      break;
    }
  }
}

void Stabilizer::handle_nack(NodeId src, const data::NackFrame& nack) {
  OutStream* stream =
      nack.origin < stream_epoch_.size() ? sequenced_stream(nack.origin)
                                         : nullptr;
  // A NACK for another epoch names a sequence space this node does not
  // hold: an older authority's, or a newer one it has not learned yet.
  if (stream == nullptr || nack.primary_epoch != stream_epoch_[nack.origin] ||
      !stream->resend(src, nack.from, nack.to))
    ctr_.nacks_dropped.inc();
}

// --- lock-free report cells (DESIGN.md §4f) ----------------------------------

void Stabilizer::arm_drain() {
  if (!pipeline_->try_arm()) return;  // a drain task is already outstanding
  auto gate = drain_gate_;
  transport_.env().post([gate] {
    std::lock_guard<std::mutex> g(gate->m);
    if (gate->owner != nullptr) gate->owner->drain_pipeline_locked();
  });
}

void Stabilizer::drain_pipeline_locked() {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  drain_pipeline();
}

void Stabilizer::drain_pipeline() {
  if (stopped_ || !pipeline_) return;
  if (draining_) return;  // re-entered from a callback; the outer loop covers
  draining_ = true;
  do {
    // Disarm before reading the cells: a producer racing this drain re-arms
    // and posts a fresh task rather than stranding its report.
    pipeline_->disarm();
    // One coalesced batch per origin, applied exactly like a locked report:
    // into the engine, then out to peers. Depth scratch because callbacks
    // fired by the batch may report again.
    auto lease = updates_scratch_.acquire();
    std::vector<AckUpdate>& updates = *lease;
    size_t cells = 0;
    for (NodeId origin = 0; origin < engines_.size(); ++origin) {
      updates.clear();
      pipeline_->drain(origin, [&](StabilityTypeId type, SeqNum seq) {
        updates.push_back(AckUpdate{type, options_.self, seq, {}});
      });
      if (updates.empty()) continue;
      cells += updates.size();
      engines_[origin]->on_ack_batch(updates);
      for (const AckUpdate& u : updates) reports_.note(origin, u.type, u.seq);
    }
    pipeline_->record_drain(cells);
    // Re-check: producers kept offering while we applied, and a re-entrant
    // drain attempt from a callback no-op'd into this loop.
  } while (!stopped_ && pipeline_->has_pending());
  draining_ = false;
}

void Stabilizer::handle_ack_batch(const data::AckBatchView& frame) {
  // Group the batch per origin engine and batch-apply: the whole frame is
  // max-merged before any predicate re-evaluates, so each affected
  // predicate evaluates once per frame instead of once per entry. The
  // AckUpdates view the frame's extra bytes — valid for the duration of
  // on_ack_batch, which routes each extra to the entries it affects.
  // The groups are depth scratch, cleared before use, because monitors
  // fired by the batch may re-enter (send -> apply_origin_rule runs a
  // nested batch).
  auto lease = per_origin_scratch_.acquire();
  std::vector<std::vector<AckUpdate>>& per_origin = *lease;
  per_origin.resize(engines_.size());
  for (auto& group : per_origin) group.clear();
  uint64_t applied = 0;
  for (const data::AckEntryView& e : frame.entries) {
    if (e.about_origin >= engines_.size()) continue;
    per_origin[e.about_origin].push_back(
        AckUpdate{e.type, frame.reporter, e.seq, e.extra});
    ++applied;
  }
  if (applied) ctr_.ack_entries_applied.inc(applied);
  for (NodeId origin = 0; origin < per_origin.size(); ++origin)
    if (!per_origin[origin].empty())
      engines_[origin]->on_ack_batch(per_origin[origin]);
  if (options_.send_window > 0) pump_all();  // acks free window space
  maybe_reclaim();
}

void Stabilizer::handle_report_batch(NodeId src,
                                     const data::ReportBatchView& frame) {
  // The whole-node fence in on_frame already judged `src` (the forwarder).
  // Each block still carries its own reporter's credential: an aggregator
  // may innocently relay the vector of a member that was deposed after
  // flushing, and those receipts must stop influencing reclamation / flow
  // control exactly like a zombie's own ACKBATCH would.
  const bool absorbing = reports_.absorbs_from(src);
  auto lease = per_origin_scratch_.acquire();
  std::vector<std::vector<AckUpdate>>& per_origin = *lease;
  per_origin.resize(engines_.size());
  for (auto& group : per_origin) group.clear();
  uint64_t applied = 0;
  for (const data::ReportBlockView& b : frame.blocks) {
    // Our own vector echoed back (an aggregator broadcasts merged state to
    // everyone, including the mirrors it came from) carries nothing new.
    if (b.reporter >= engines_.size() || b.reporter == options_.self) continue;
    if (stream_primary_[b.reporter] != b.reporter) {
      ctr_.report_blocks_fenced.inc();
      continue;
    }
    for (const data::ReportEntry& e : b.entries) {
      if (e.about_origin >= engines_.size()) continue;
      per_origin[e.about_origin].push_back(
          AckUpdate{e.type, b.reporter, e.seq, {}});
      ++applied;
    }
    // Aggregator merge: blocks arriving from our own AZ's members fold into
    // their rows for the next long-haul flush. Blocks from outside the AZ
    // (another aggregator's forward, or a fallback mirror) are consumed
    // locally but never re-forwarded — one merge level, no loops.
    if (absorbing && reports_.absorb(b))
      ctr_.agg_blocks_absorbed.inc();
  }
  if (applied) ctr_.report_entries_applied.inc(applied);
  for (NodeId origin = 0; origin < per_origin.size(); ++origin)
    if (!per_origin[origin].empty())
      engines_[origin]->on_ack_batch(per_origin[origin]);
  if (options_.send_window > 0) pump_all();  // reports free window space
  maybe_reclaim();
}

// --- crash-restart rejoin (RESUME handshake) -----------------------------------

void Stabilizer::send_resume(NodeId peer, bool reply) {
  data::ResumeFrame frame;
  frame.sender = options_.self;
  frame.primary_epoch = stream_epoch_[options_.self];
  frame.epoch = session_epoch_;
  frame.receive_through = in_[peer].received_through();
  frame.reply = reply;
  transport_.send_shared(peer,
                         std::make_shared<const Bytes>(data::encode(frame)));
  ctr_.shared_sends.inc();
  ctr_.resumes_sent.inc();
}

void Stabilizer::handle_resume(NodeId src, const data::ResumeFrame& frame) {
  ctr_.resumes_received.inc();
  if (frame.sender != src || src >= peer_epoch_.size()) return;

  // Any RESUME from src was sent causally after src processed our own
  // announcement (a reply) or re-announces its session (in which case our
  // reply below carries everything our announcement did): either way our
  // announcement to src needs no further re-sends.
  resume_pending_[src] = false;

  if (frame.epoch > peer_epoch_[src]) {
    peer_epoch_[src] = frame.epoch;

    // Rewind our own stream's send cursor to the reborn peer's persisted
    // delivery cursor; frames it lost with its volatile state retransmit
    // from the send buffer. (Adopted streams heal through NACKs and the
    // probe.)
    own_.rewind(src, frame.receive_through + 1);

    // Re-issue every cumulative stability report so the peer rebuilds its
    // ack tables immediately instead of waiting for the heartbeat.
    reports_.renote_issued();

    mark_peer_recovered(src);
  }

  // Answer announcements (even stale duplicates — the announcer keeps
  // re-sending until a reply gets through); never answer replies, so a
  // concurrent restart of both ends converges instead of ping-ponging.
  if (!frame.reply && !excluded_[src]) send_resume(src, /*reply=*/true);
  own_.pump();
}

void Stabilizer::mark_peer_recovered(NodeId peer) {
  // Exactly-once per episode: a RESUME-driven recovery suppresses the
  // stall_check progress path (stalled_ already cleared) and vice versa.
  stalled_[peer] = false;
  ctr_.peer_recover_episodes.inc();
  if (recovered_handler_) recovered_handler_(peer);
}

void Stabilizer::maybe_reclaim() {
  for (auto& [origin, stream] : adopted_) stream.reclaim();
  own_.reclaim();
}

// --- retransmission ------------------------------------------------------------

void Stabilizer::schedule_retransmit_timer() {
  retransmit_timer_ =
      env().schedule_after(options_.retransmit_timeout, [this] {
        std::lock_guard<std::recursive_mutex> lock(mutex_);
        if (stopped_) return;
        retransmit_check();
        schedule_retransmit_timer();
      });
}

void Stabilizer::retransmit_check() {
  // Control-plane heartbeat: re-issue the latest cumulative reports in case
  // a previous report frame was lost (receivers max-merge, so this is
  // idempotent).
  reports_.renote_issued();

  // Unconfirmed session announcements ride the same probe cadence (a RESUME
  // lost to a partition must eventually land; duplicates are epoch-deduped).
  for (NodeId peer = 0; peer < options_.topology.num_nodes(); ++peer)
    if (resume_pending_[peer] && peer != options_.self && !excluded_[peer])
      send_resume(peer);

  for (auto& [origin, stream] : adopted_) stream.probe();
  own_.probe();
  ctr_.flush_pending();
}

// --- peer stall detection (§III-E) --------------------------------------------

void Stabilizer::set_peer_stall_handler(PeerStallHandler handler) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  stall_handler_ = std::move(handler);
}

void Stabilizer::set_peer_recovered_handler(PeerRecoveredHandler handler) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  recovered_handler_ = std::move(handler);
}

void Stabilizer::schedule_stall_timer() {
  stall_timer_ = env().schedule_after(options_.peer_stall_timeout, [this] {
    std::lock_guard<std::recursive_mutex> lock(mutex_);
    if (stopped_) return;
    stall_check();
    schedule_stall_timer();
  });
}

void Stabilizer::stall_check() {
  const AckTable& acks = engines_[options_.self]->acks();
  SeqNum last = own_.last_assigned();
  for (NodeId peer = 0; peer < options_.topology.num_nodes(); ++peer) {
    if (peer == options_.self || excluded_[peer]) continue;
    SeqNum acked = acks.get(StabilityTypeRegistry::kReceived, peer);
    bool owes = last >= 0 && acked < last;
    if (!owes || acked > stall_last_acked_[peer]) {
      stall_last_acked_[peer] = acked;
      // Progress (or nothing outstanding) closes an open stall episode;
      // a RESUME may have closed it already, keeping the pair exactly-once.
      if (stalled_[peer]) mark_peer_recovered(peer);
      continue;
    }
    if (!stalled_[peer]) {
      stalled_[peer] = true;  // one notification per stall episode
      ctr_.peer_stall_episodes.inc();
      if (stall_handler_) stall_handler_(peer);
    }
  }
}

// --- control-state snapshot / recovery (§III-E) -------------------------------

Bytes Stabilizer::snapshot_control_state() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  // Fold any undrained report cells into the tables first, so the snapshot
  // includes reports already made (logically const: draining only applies
  // input the node already accepted).
  const_cast<Stabilizer*>(this)->drain_pipeline();
  Writer w(1024);
  w.u32(0x53544142);  // "STAB"
  w.u32(3);           // snapshot format version
  w.u32(options_.self);
  w.u64(session_epoch_);
  // v3: per-stream failover state (epoch + current sequencing authority), so
  // a reborn instance rejects zombie frames from primaries deposed before its
  // crash instead of re-admitting them. Adopted-stream state (this node
  // acting as primary for another stream) is deliberately NOT persisted: a
  // restart drops the adoption and the fleet re-elects.
  w.u32(static_cast<uint32_t>(stream_epoch_.size()));
  for (size_t i = 0; i < stream_epoch_.size(); ++i) {
    w.u32(stream_epoch_[i]);
    w.u32(stream_primary_[i]);
  }
  w.i64(own_.last_assigned());
  // Unreclaimed send-buffer slots: messages some peer has not yet
  // acknowledged. Persisting them lets a reborn instance serve the
  // retransmissions that heal peers' gaps (v1 snapshots dropped them,
  // leaving permanent holes at any peer that was behind at crash time).
  const data::OutBuffer& out = own_.buffer();
  w.i64(out.base());
  w.u32(static_cast<uint32_t>(out.size()));
  for (size_t i = 0; i < out.size(); ++i) {
    const auto* slot = out.get(out.base() + static_cast<SeqNum>(i));
    w.blob(slot->payload);
    w.u64(slot->virtual_size);
  }
  // Stability type names (dense ids).
  w.u32(static_cast<uint32_t>(types_.count()));
  for (StabilityTypeId t = 0; t < types_.count(); ++t) w.str(types_.name(t));
  // Registered predicates (identical across engines; take the self one).
  const FrontierEngine& self_engine = *engines_[options_.self];
  auto keys = self_engine.predicate_keys();
  w.u32(static_cast<uint32_t>(keys.size()));
  for (const auto& key : keys) {
    w.str(key);
    w.str(self_engine.predicate(key)->source());
  }
  // Per-origin: delivery cursor + the full AckTable.
  const size_t n = options_.topology.num_nodes();
  w.u32(static_cast<uint32_t>(n));
  for (NodeId origin = 0; origin < n; ++origin) {
    w.i64(in_[origin].received_through());
    const AckTable& acks = engines_[origin]->acks();
    w.u32(static_cast<uint32_t>(acks.num_types()));
    for (StabilityTypeId t = 0; t < acks.num_types(); ++t)
      for (NodeId node = 0; node < n; ++node) w.i64(acks.get(t, node));
  }
  return std::move(w).take();
}

Status Stabilizer::restore_control_state(BytesView snapshot) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  try {
    Reader r(snapshot);
    if (r.u32() != 0x53544142)
      return Status::error("restore: not a Stabilizer snapshot");
    uint32_t version = r.u32();
    if (version < 1 || version > 3)
      return Status::error("restore: unknown snapshot version");
    if (r.u32() != options_.self)
      return Status::error("restore: snapshot was taken by another node");
    uint64_t snap_epoch = version >= 2 ? r.u64() : 0;
    if (version >= 3) {
      // Merge persisted failover state on higher epoch (live state wins
      // otherwise — a stale snapshot must never resurrect a deposed
      // primary's authority).
      uint32_t nstreams = r.u32();
      for (uint32_t i = 0; i < nstreams; ++i) {
        PrimaryEpoch epoch = r.u32();
        NodeId primary = r.u32();
        if (i >= stream_epoch_.size()) continue;
        if (epoch > stream_epoch_[i]) learn_authority(i, epoch, primary);
      }
      if (stream_primary_[options_.self] != options_.self && !self_fenced_)
        fence_self();
    }
    SeqNum last_assigned = r.i64();
    own_.sequencer().fast_forward(last_assigned);
    data::OutBuffer& out = own_.buffer();
    if (version >= 2) {
      SeqNum snap_base = r.i64();
      uint32_t count = r.u32();
      // Refill the send buffer so the reborn instance can serve the
      // retransmissions for peers that were behind at crash time. Skipped
      // when restoring a stale snapshot into an instance that has already
      // advanced past it (monotonic-merge semantics: live state wins).
      bool adopt = out.empty() && out.base() <= snap_base;
      if (adopt) out.reset_base(snap_base);
      for (uint32_t i = 0; i < count; ++i) {
        Bytes payload = r.blob();
        uint64_t virtual_size = r.u64();
        if (adopt)
          out.push(snap_base + static_cast<SeqNum>(i), std::move(payload),
                   virtual_size);
      }
    } else {
      out.reset_base(last_assigned + 1);  // v1 kept no slots: pre-crash
                                          // messages are unretransmittable
    }

    uint32_t ntypes = r.u32();
    for (uint32_t t = 0; t < ntypes; ++t) types_.get_or_register(r.str());

    uint32_t npreds = r.u32();
    for (uint32_t p = 0; p < npreds; ++p) {
      std::string key = r.str();
      std::string source = r.str();
      Status st = has_predicate(key) ? change_predicate(key, source)
                                     : register_predicate(key, source);
      if (!st.is_ok()) return st;
    }

    uint32_t n = r.u32();
    if (n != options_.topology.num_nodes())
      return Status::error("restore: topology size mismatch");
    for (NodeId origin = 0; origin < n; ++origin) {
      in_[origin].restore(r.i64());
      uint32_t ntypes_origin = r.u32();
      for (StabilityTypeId t = 0; t < ntypes_origin; ++t)
        for (NodeId node = 0; node < n; ++node) {
          SeqNum seq = r.i64();
          if (seq != kNoSeq)
            engines_[origin]->on_ack(t, node, seq);  // monotonic merge
        }
    }

    // Rejoin: adopt a fresh session epoch and announce it to every peer.
    // (max() also covers restoring a stale snapshot into a live instance —
    // the epoch must never regress.)
    session_epoch_ = std::max(session_epoch_ + 1, snap_epoch + 1);
    // Start each peer's window past what it acknowledged before the crash;
    // its RESUME-triggered acks rewind us further if needed.
    own_.restart_cursors();
    for (NodeId peer = 0; peer < n; ++peer) {
      if (peer == options_.self || excluded_[peer]) continue;
      resume_pending_[peer] = true;
      send_resume(peer);
    }
    // Re-announce the restored delivery cursors so peers rebuild their ack
    // tables about us without waiting for new traffic.
    for (NodeId origin = 0; origin < n; ++origin) {
      SeqNum cursor = in_[origin].received_through();
      if (origin == options_.self || cursor == kNoSeq) continue;
      reports_.note(origin, StabilityTypeRegistry::kReceived, cursor);
      if (options_.auto_report_delivered)
        reports_.note(origin, StabilityTypeRegistry::kDelivered, cursor);
    }
  } catch (const CodecError& e) {
    return Status::error(std::string("restore: corrupt snapshot: ") +
                         e.what());
  }
  return Status::ok();
}

// --- control plane API -----------------------------------------------------------

// The origin engines share the topology, the node, the type registry and
// the eval mode, so one compile serves them all. A key that is already
// taken (or, for a change, missing) fails before anything compiles, so a
// refused call registers no stability type.
Status Stabilizer::register_predicate(const std::string& key,
                                      const std::string& source) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  FrontierEngine& first = *engines_[options_.self];
  if (first.has_predicate(key)) return first.register_predicate(key, source);
  auto pred = first.compile(source);
  if (!pred.is_ok()) return Status::error(pred.message());
  for (auto& engine : engines_) {
    Status st = engine->register_predicate(key, pred.value());
    if (!st.is_ok()) return st;  // identical context: fails on the first
  }
  backfill_origin_rule();
  return Status::ok();
}

Status Stabilizer::change_predicate(const std::string& key,
                                    const std::string& source) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  FrontierEngine& first = *engines_[options_.self];
  if (!first.has_predicate(key)) return first.change_predicate(key, source);
  auto pred = first.compile(source);
  if (!pred.is_ok()) return Status::error(pred.message());
  for (auto& engine : engines_) {
    Status st = engine->change_predicate(key, pred.value());
    if (!st.is_ok()) return st;
  }
  backfill_origin_rule();
  return Status::ok();
}

void Stabilizer::backfill_origin_rule() {
  // New types may have been auto-registered: backfill the origin rule for
  // everything already sent on every stream this node sequences. Copied
  // first: callbacks fired by a batch may re-enter and adopt or drop one.
  std::vector<std::pair<NodeId, SeqNum>> ends{
      {options_.self, own_.last_assigned()}};
  for (auto& [origin, stream] : adopted_)
    ends.emplace_back(origin, stream.last_assigned());
  for (auto [origin, last] : ends)
    if (last >= 0) apply_origin_rule(origin, last);
}

Status Stabilizer::remove_predicate(const std::string& key) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  for (auto& engine : engines_) {
    Status st = engine->remove_predicate(key);
    if (!st.is_ok()) return st;  // identical context: fails on the first
  }
  return Status::ok();
}

bool Stabilizer::has_predicate(const std::string& key) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return engines_[options_.self]->has_predicate(key);
}

SeqNum Stabilizer::get_stability_frontier(const std::string& key,
                                          NodeId origin) const {
  // Wait-free: one atomic snapshot load + one hash lookup + one atomic read,
  // no mutex — a callback holding the lock cannot delay this. An unpublished
  // key means the predicate isn't registered: kNoSeq.
  origin = resolve_origin(origin);
  if (origin >= engines_.size()) return kNoSeq;
  auto f = engines_[origin]->board().read(key);
  return f ? *f : kNoSeq;
}

Status Stabilizer::monitor_stability_frontier(const std::string& key,
                                              MonitorFn fn, NodeId origin) {
  origin = resolve_origin(origin);
  if (origin >= engines_.size())
    return Status::error("monitor_stability_frontier: bad origin");
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return engines_[origin]->monitor(key, std::move(fn));
}

Status Stabilizer::waitfor(SeqNum seq, const std::string& key, WaiterFn fn,
                           NodeId origin) {
  origin = resolve_origin(origin);
  if (origin >= engines_.size()) return Status::error("waitfor: bad origin");
  // Fenced fast-fail: once this node is deposed as its own stream's
  // primary, no waitfor on that stream can ever be satisfied through us —
  // the new authority re-sequences the suffix. Fire the fencing sentinel
  // instead of parking a waiter that would hang forever.
  auto fenced = [&] {
    if (origin != options_.self || !self_fenced_.load()) return false;
    ctr_.waiters_fenced.inc();
    fn(kFencedSeq);
    return true;
  };
  if (fenced()) return Status::ok();
  // Already-stable fast path: wait-free board read; fire immediately with
  // no lock. Not yet stable (or key unpublished) falls through to the
  // locked path, which re-checks the fence and the authoritative frontier
  // under the mutex before parking the waiter — fence_self and every
  // frontier advance fire waiters under that same mutex, so there is no
  // lost-wakeup window between the check and the registration.
  auto f = engines_[origin]->board().read(key);
  if (f && *f >= seq) {
    fn(*f);
    return Status::ok();
  }
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (fenced()) return Status::ok();
  return engines_[origin]->waitfor(key, seq, std::move(fn));
}

bool Stabilizer::waitfor_blocking(SeqNum seq, const std::string& key,
                                  Duration timeout, NodeId origin) {
  return waitfor_blocking_status(seq, key, timeout, origin) == WaitStatus::kOk;
}

Stabilizer::WaitStatus Stabilizer::waitfor_blocking_status(SeqNum seq,
                                                           const std::string& key,
                                                           Duration timeout,
                                                           NodeId origin) {
  // Lifetime: the registered waiter callback co-owns `state` via the
  // shared_ptr, so the engine firing it AFTER this frame returned (a timeout
  // here does not deregister the waiter; neither coverage nor
  // remove_predicate has consumed it yet) writes into live, private memory —
  // never into a dangling stack frame. The late fire is then simply unheard.
  //
  // No lost wakeup: waitfor() re-checks coverage and registers the waiter
  // under the API mutex (its lock-free check only ever fires the callback
  // early, here on this thread), and every waiter fire
  // (coverage from a drain/ack, cancellation via remove_predicate, or a
  // failover fence via fail_all_waiters) runs under that same mutex. A fire
  // that races this thread between registration and wait_for() lands before
  // wait_for re-checks `done` under state->m — wait_for's predicate sees
  // done == true and returns without sleeping.
  //
  // Cancellation while parked: remove_predicate fails pending waiters with
  // kNoSeq and a takeover of the local stream fails them with kFencedSeq, so
  // the callback wakes us with the sentinel and we report the distinct
  // status immediately instead of burning the whole timeout
  // (core_mt_test.WaitforBlockingCancelledWhileParked pins the kNoSeq leg).
  struct State {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    SeqNum frontier = kNoSeq;
  };
  auto state = std::make_shared<State>();
  Status st = waitfor(seq, key,
                      [state](SeqNum frontier) {
                        std::lock_guard<std::mutex> l(state->m);
                        state->frontier = frontier;
                        state->done = true;
                        state->cv.notify_all();
                      },
                      origin);
  if (!st.is_ok()) return WaitStatus::kNoSeq;
  std::unique_lock<std::mutex> l(state->m);
  if (!state->cv.wait_for(l, timeout, [&] { return state->done; }))
    return WaitStatus::kTimeout;
  if (state->frontier >= seq) return WaitStatus::kOk;
  // A failed waiter fires with a sentinel, never a covering frontier:
  // kFencedSeq when the local node was deposed as the stream's primary,
  // kNoSeq when the predicate was removed (or adjusted away, §III-E).
  return state->frontier == kFencedSeq ? WaitStatus::kFenced
                                       : WaitStatus::kNoSeq;
}

Status Stabilizer::report_stability(const std::string& type_name,
                                    NodeId origin, SeqNum seq,
                                    BytesView extra) {
  origin = resolve_origin(origin);
  if (origin >= engines_.size())
    return Status::error("report_stability: bad origin");
  if (pipeline_ && extra.empty()) {
    // Lock-free: resolve the type against the registry's published snapshot
    // and fold the report into the atomic cells; the drain applies it and
    // flushes it to peers. Unknown types (registration needed), types
    // beyond the cells, and reports carrying extra bytes take the locked
    // path below.
    if (auto type = types_.find_fast(type_name)) {
      bool advanced = false;
      if (pipeline_->offer(origin, *type, seq, &advanced)) {
        if (advanced) arm_drain();
        return Status::ok();
      }
    }
  }
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  StabilityTypeId type = types_.get_or_register(type_name);
  // Peers refuse frames naming such a type, so reporting it would make them
  // drop every report frame this node sends.
  if (type >= kMaxStabilityTypes)
    return Status::error("report_stability: more than kMaxStabilityTypes "
                         "stability types");
  engines_[origin]->on_ack(type, options_.self, seq, extra);
  reports_.note(origin, type, seq, extra);
  return Status::ok();
}

// --- fault tolerance ---------------------------------------------------------------

std::vector<std::string> Stabilizer::predicates_referencing(
    NodeId node) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  std::vector<std::string> out;
  const FrontierEngine& engine = *engines_[options_.self];
  for (const std::string& key : engine.predicate_keys())
    if (engine.predicate(key)->references_node(node)) out.push_back(key);
  return out;
}

void Stabilizer::set_peer_excluded(NodeId node, bool excluded) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (node >= excluded_.size() || node == options_.self) return;
  excluded_[node] = excluded;
  if (excluded) maybe_reclaim();  // the dead peer no longer pins the buffer
}

bool Stabilizer::peer_excluded(NodeId node) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return node < excluded_.size() && excluded_[node];
}

// --- primary failover (DESIGN.md §6) -------------------------------------------

PrimaryEpoch Stabilizer::stream_epoch(NodeId origin) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return stream_epoch_.at(resolve_origin(origin));
}

NodeId Stabilizer::stream_primary(NodeId origin) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return stream_primary_.at(resolve_origin(origin));
}

bool Stabilizer::self_fenced() const { return self_fenced_.load(); }

bool Stabilizer::is_acting_primary(NodeId origin) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return adopted_.count(origin) > 0;
}

SeqNum Stabilizer::acting_last_sent(NodeId origin) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  auto it = adopted_.find(origin);
  return it == adopted_.end() ? kNoSeq : it->second.last_assigned();
}

Status Stabilizer::adopt_stream(NodeId origin, SeqNum start_seq,
                                PrimaryEpoch epoch) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (origin >= stream_epoch_.size())
    return Status::error("adopt_stream: bad origin");
  if (origin == options_.self)
    return Status::error("adopt_stream: cannot adopt own stream");
  if (start_seq < 0) return Status::error("adopt_stream: bad start_seq");
  // Accept the epoch when it is new, or when we already learned our own
  // committed takeover (observe_takeover from the Paxos commit handler runs
  // on the winner too) and are now installing the sequencing machinery.
  if (epoch < stream_epoch_[origin] ||
      (epoch == stream_epoch_[origin] &&
       stream_primary_[origin] != options_.self))
    return Status::error("adopt_stream: stale epoch");
  if (epoch > stream_epoch_[origin]) {
    learn_authority(origin, epoch, options_.self);
    ctr_.takeovers_observed.inc();
  }
  adopted_.erase(origin);
  adopted_.try_emplace(origin, *this, origin, start_seq);

  // Position our delivery cursor at the takeover boundary: the reconciled
  // start may exceed our own delivered prefix (another peer saw more); the
  // gap seqs were never everywhere-stable and are skipped, counted.
  apply_takeover_cursor(origin, start_seq);
  return Status::ok();
}

Status Stabilizer::observe_takeover(NodeId origin, NodeId new_primary,
                                    PrimaryEpoch epoch, SeqNum start_seq) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (origin >= stream_epoch_.size() ||
      new_primary >= options_.topology.num_nodes())
    return Status::error("observe_takeover: bad node id");
  // A peer's TAKEOVER carries start_seq; the receive cursor it sets must
  // stay non-negative.
  if (start_seq < kNoSeq)
    return Status::error("observe_takeover: bad start_seq");
  if (epoch < stream_epoch_[origin])
    return Status::error("observe_takeover: stale epoch");
  if (epoch == stream_epoch_[origin]) {
    if (new_primary != stream_primary_[origin])
      return Status::error("observe_takeover: conflicting primary for epoch");
    // Idempotent re-application (the winner rebroadcasts TAKEOVER until the
    // fleet confirms): only the cursor catch-up can be new information, and
    // only the forward direction — a re-announcement must never roll back a
    // cursor that has already progressed under the new authority.
    if (start_seq != kNoSeq && origin != options_.self &&
        new_primary != options_.self)
      apply_takeover_cursor(origin, start_seq, /*allow_rollback=*/false);
    return Status::ok();
  }

  learn_authority(origin, epoch, new_primary);
  ctr_.takeovers_observed.inc();

  if (origin == options_.self) {
    // We are the one being deposed. Silence ourselves: no new sends, and
    // every parked own-stream waiter fails with the fencing sentinel now
    // rather than hanging on a frontier that will never advance through us.
    if (new_primary != options_.self) fence_self();
    return Status::ok();
  }

  // A newer takeover supersedes any adoption we held for this stream (a
  // cascaded failover deposed us as acting primary; our node identity —
  // and own stream — are untouched).
  if (new_primary != options_.self) adopted_.erase(origin);

  if (start_seq != kNoSeq && new_primary != options_.self)
    apply_takeover_cursor(origin, start_seq);
  return Status::ok();
}

void Stabilizer::fence_self() {
  if (self_fenced_) return;
  self_fenced_ = true;
  size_t failed = engines_[options_.self]->fail_all_waiters(kFencedSeq);
  if (failed) ctr_.waiters_fenced.inc(failed);
}

void Stabilizer::learn_authority(NodeId origin, PrimaryEpoch epoch,
                                 NodeId primary) {
  stream_epoch_[origin] = epoch;
  stream_primary_[origin] = primary;
  in_[origin].discard_held();
}

void Stabilizer::apply_takeover_cursor(NodeId origin, SeqNum start_seq,
                                       bool allow_rollback) {
  const SeqNum target = start_seq - 1;  // new authority resumes AT start_seq
  const SeqNum cur = in_[origin].received_through();
  if (target > cur) {
    // Fast-forward: seqs in (cur, target] are lost to this node (the dead
    // primary's buffer is gone; nobody can retransmit them). Cumulative
    // stability reports jump the gap — frontier semantics are "through seq",
    // so waiters at gap seqs complete once post-takeover traffic stabilizes.
    in_[origin].restore(target);
    ctr_.failover_seqs_skipped.inc(static_cast<uint64_t>(target - cur));
    FrontierEngine& engine = *engines_[origin];
    engine.on_ack(StabilityTypeRegistry::kReceived, options_.self, target);
    reports_.note(origin, StabilityTypeRegistry::kReceived, target);
    if (options_.auto_report_delivered) {
      engine.on_ack(StabilityTypeRegistry::kDelivered, options_.self, target);
      reports_.note(origin, StabilityTypeRegistry::kDelivered, target);
    }
  } else if (target < cur && allow_rollback) {
    // Rollback: we consumed an old-epoch suffix the reconciliation round
    // never saw (we were partitioned from the winner's quorum). The new
    // primary re-issues those numbers with its own content; re-deliver them
    // under the new authority. Our earlier cumulative acks cannot retract —
    // delivery across the boundary is at-least-once here, by design. Only
    // the FIRST learn of the epoch may rewind: later re-announcements of
    // the same takeover see a cursor that has legitimately progressed under
    // the new authority (observe_takeover passes allow_rollback=false).
    SeqNum down = in_[origin].reset(target);
    if (down) ctr_.failover_seqs_rolled_back.inc(static_cast<uint64_t>(down));
  }
}

// --- introspection ------------------------------------------------------------------

SeqNum Stabilizer::last_sent() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return own_.last_assigned();
}

SeqNum Stabilizer::delivered_through(NodeId origin) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return in_.at(origin).received_through();
}

SeqNum Stabilizer::reclaimed_through(NodeId origin) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  const OutStream* stream =
      const_cast<Stabilizer*>(this)->sequenced_stream(resolve_origin(origin));
  return stream ? stream->reclaimed_through() : kNoSeq;
}

uint64_t Stabilizer::session_epoch() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return session_epoch_;
}

uint64_t Stabilizer::peer_session_epoch(NodeId peer) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return peer < peer_epoch_.size() ? peer_epoch_[peer] : 0;
}

bool Stabilizer::resume_pending(NodeId peer) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return peer < resume_pending_.size() && resume_pending_[peer];
}

FrontierEngine& Stabilizer::engine(NodeId origin) {
  return *engines_.at(resolve_origin(origin));
}
const FrontierEngine& Stabilizer::engine(NodeId origin) const {
  return *engines_.at(resolve_origin(origin));
}

}  // namespace stab
