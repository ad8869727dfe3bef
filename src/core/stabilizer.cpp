#include "core/stabilizer.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace stab {

#if STAB_OBS_ENABLED
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
      deferred_delta_flushes(r.counter("control.deferred_delta_flushes")),
      agg_blocks_absorbed(r.counter("control.agg_blocks_absorbed")),
      agg_fallback_direct(r.counter("control.agg_fallback_direct")),
      report_blocks_fenced(r.counter("control.report_blocks_fenced")),
      fenced_frames(r.counter("failover.fenced_frames")),
      epoch_ahead_drops(r.counter("failover.epoch_ahead_drops")),
      takeovers_observed(r.counter("failover.takeovers_observed")),
      failover_seqs_skipped(r.counter("failover.seqs_skipped")),
      failover_seqs_rolled_back(r.counter("failover.seqs_rolled_back")),
      waiters_fenced(r.counter("failover.waiters_fenced")),
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
#endif

Stabilizer::Stabilizer(StabilizerOptions options, Transport& transport)
    : options_(std::move(options)),
      transport_(transport),
      rx_(options_.topology.num_nodes()),
      excluded_(options_.topology.num_nodes(), false),
      dirty_(options_.topology.num_nodes()),
      reported_(options_.topology.num_nodes()) {
  const size_t n = options_.topology.num_nodes();
  if (options_.self >= n)
    throw std::invalid_argument("Stabilizer: self node out of range");
  engines_.reserve(n);
  for (NodeId origin = 0; origin < n; ++origin)
    engines_.push_back(std::make_unique<FrontierEngine>(
        options_.topology, options_.self, types_, options_.eval_mode));

#if STAB_OBS_ENABLED
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
#endif

  // Lock-free report cells only where reports can come from threads other
  // than the Env thread; the simulator applies every report directly.
  if (!transport_.single_threaded()) {
    ControlPipeline::RegistryPtr reg = nullptr;
    STAB_OBS(reg = &metrics_);
    pipeline_ = std::make_unique<ControlPipeline>(n, reg);
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
  if (deferred_mode()) {
    deferred_ = std::make_unique<control::DeferredReporter>(n);
    same_az_.assign(n, false);
    const std::string& az = options_.topology.az_of(options_.self);
    for (NodeId m : options_.topology.nodes_in_az(az)) same_az_[m] = true;
    if (options_.report_path ==
        StabilizerOptions::ReportPath::kDeferredAggregated) {
      // Aggregator roles come from the topology; an AZ with no designated
      // aggregator simply runs kDeferred semantics (direct fan-out).
      if (auto agg = options_.topology.az_aggregator(az)) {
        my_aggregator_ = *agg;
        agg_self_ = (*agg == options_.self);
      }
    }
  }
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
  if (ack_timer_ != kInvalidTimer) env().cancel(ack_timer_);
  if (deferred_timer_ != kInvalidTimer) env().cancel(deferred_timer_);
  if (retransmit_timer_ != kInvalidTimer) env().cancel(retransmit_timer_);
  if (stall_timer_ != kInvalidTimer) env().cancel(stall_timer_);
  if (flush_timer_ != kInvalidTimer) env().cancel(flush_timer_);
  // Shutdown is the quiesce point end-of-run readers care about: fold the
  // wire codec's thread-batched deltas into the global registry and mirror
  // any trace drops, so post-mortem exports read exact values.
  STAB_OBS(data::flush_wire_counters());
  STAB_OBS(sync_trace_dropped());
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

SeqNum Stabilizer::send_on(OutStream& stream, BytesView payload,
                           uint64_t virtual_size) {
  const NodeId origin = stream.origin();
  SeqNum seq = stream.push(payload, virtual_size);
  STAB_OBS(++ctr_.pending_messages_sent);
  STAB_TRACE(tracer_, env().now(), obs::SpanEvent::kBroadcast, options_.self,
             origin, seq);
  // Gate on sampled() first so 15-in-16 sends skip the clock read too.
  if (STAB_PROBE_SAMPLED(probe_, seq))
    STAB_PROBE(probe_, on_send(origin, seq, env().now()));

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
  // spanning several types re-evaluate once. The vector is local because
  // callbacks fired by the batch may re-enter send().
  std::vector<AckUpdate> updates;
  updates.reserve(types_.count());
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
    STAB_OBS(ctr_.fenced_frames.inc());
    STAB_TRACE(tracer_, env().now(), obs::SpanEvent::kFenceDrop, options_.self,
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
  switch (*kind) {
    case data::FrameKind::kData: {
      data::DataView v = data::decode_data_view(frame);
      if (!admit_data(src, v.origin, v.primary_epoch)) break;
      handle_data(src, v, wire_size);
      break;
    }
    case data::FrameKind::kDataBatch: {
      data::DataBatchFrame batch = data::decode_data_batch(frame);
      if (!admit_data(src, batch.origin, batch.primary_epoch)) break;
      handle_data_batch(src, batch);
      break;
    }
    case data::FrameKind::kAckBatch:
      handle_ack_batch(data::decode_ack_batch(frame));
      break;
    case data::FrameKind::kReportBatch:
      handle_report_batch(src, data::decode_report_batch(frame));
      break;
    case data::FrameKind::kResume:
      handle_resume(src, data::decode_resume(frame));
      break;
  }
}

bool Stabilizer::admit_data(NodeId src, NodeId origin, PrimaryEpoch epoch) {
  if (origin >= stream_epoch_.size()) return false;
  const PrimaryEpoch known = stream_epoch_[origin];
  if (epoch < known || (epoch == known && src != stream_primary_[origin])) {
    // Stale authority: a zombie ex-primary (or an impostor) extending a
    // sequence space the cluster has moved past. Counted, never delivered.
    STAB_OBS(ctr_.fenced_frames.inc());
    STAB_TRACE(tracer_, env().now(), obs::SpanEvent::kFenceDrop, options_.self,
               origin, kNoSeq, src, "stale_epoch");
    return false;
  }
  if (epoch > known) {
    // The new primary's traffic raced its takeover announcement here. Drop —
    // we cannot authenticate the authority yet — and count; the announcement
    // arrives (the winner re-broadcasts it) and the go-back-N probe then
    // retransmits everything we refused.
    STAB_OBS(ctr_.epoch_ahead_drops.inc());
    STAB_TRACE(tracer_, env().now(), obs::SpanEvent::kFenceDrop, options_.self,
               origin, kNoSeq, src, "epoch_ahead");
    return false;
  }
  return true;
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
    // into the engine, then out to peers. Local because callbacks fired by
    // the batch may report again.
    std::vector<AckUpdate> updates;
    size_t cells = 0;
    for (NodeId origin = 0; origin < engines_.size(); ++origin) {
      updates.clear();
      pipeline_->drain(origin, [&](StabilityTypeId type, SeqNum seq) {
        updates.push_back(AckUpdate{type, options_.self, seq, {}});
      });
      if (updates.empty()) continue;
      cells += updates.size();
      engines_[origin]->on_ack_batch(updates);
      for (const AckUpdate& u : updates) mark_dirty(origin, u.type, u.seq, {});
    }
    pipeline_->record_drain(cells);
    // Re-check: producers kept offering while we applied, and a re-entrant
    // drain attempt from a callback no-op'd into this loop.
  } while (!stopped_ && pipeline_->has_pending());
  draining_ = false;
}

void Stabilizer::handle_data_batch(NodeId src,
                                   const data::DataBatchFrame& batch) {
  // Unpack and run each message through the ordinary per-message path, in
  // order — the receive tracker, acks, session semantics, and the delivery
  // handler cannot tell coalesced messages from singles. Per-message wire
  // accounting reconstructs the batch's footprint: 12 bytes of entry header
  // plus payload and padding each, with the 21-byte frame header charged to
  // the first message.
  for (size_t i = 0; i < batch.entries.size(); ++i) {
    const data::DataBatchFrame::Entry& e = batch.entries[i];
    data::DataView m;
    m.origin = batch.origin;
    m.primary_epoch = batch.primary_epoch;
    m.seq = batch.first_seq + static_cast<SeqNum>(i);
    m.payload = e.payload;
    m.virtual_size = e.virtual_size;
    uint64_t wire =
        12 + e.payload.size() + e.virtual_size + (i == 0 ? 21 : 0);
    handle_data(src, m, wire);
  }
}

void Stabilizer::handle_data(NodeId src, const data::DataView& frame,
                             uint64_t wire_size) {
  (void)src;
  if (frame.origin >= options_.topology.num_nodes()) return;
  // Our own stream never re-delivers to us — after a takeover of our stream
  // the acting primary skips us anyway, but a retransmit raced against the
  // fence could still arrive; delivering our own messages back would corrupt
  // the origin rule.
  if (frame.origin == options_.self) return;
  switch (rx_.on_frame(frame.origin, frame.seq)) {
    case data::ReceiveTracker::Verdict::kStaleDuplicate:
      STAB_OBS(ctr_.duplicates_dropped.inc());
      return;
    case data::ReceiveTracker::Verdict::kGap:
      STAB_OBS(ctr_.gaps_detected.inc());
      return;  // go-back-N: wait for the retransmitted tail
    case data::ReceiveTracker::Verdict::kAccept:
      break;
  }
  STAB_OBS(++ctr_.pending_messages_delivered);
  STAB_TRACE(tracer_, env().now(), obs::SpanEvent::kDeliver, options_.self,
             frame.origin, frame.seq, src);
  if (STAB_PROBE_SAMPLED(probe_, frame.seq))
    STAB_PROBE(probe_, on_deliver(options_.self, frame.origin, frame.seq,
                                  env().now()));

  FrontierEngine& engine = *engines_[frame.origin];
  // Origin rule for the remote stream (the stream's sequencing authority has
  // every property for the messages it sequenced) plus our own receipt,
  // applied as one batch. After a failover the authority is the acting
  // primary, not the origin node — crediting the dead origin would wedge
  // MIN-over-all predicates forever.
  const NodeId authority = stream_primary_[frame.origin];
  std::vector<AckUpdate> updates;
  updates.reserve(types_.count() + 1);
  for (StabilityTypeId t = 0; t < types_.count(); ++t)
    updates.push_back(AckUpdate{t, authority, frame.seq, {}});
  updates.push_back(AckUpdate{StabilityTypeRegistry::kReceived, options_.self,
                              frame.seq, {}});
  engine.on_ack_batch(updates);
  mark_dirty(frame.origin, StabilityTypeRegistry::kReceived, frame.seq, {});

  if (delivery_)
    delivery_(frame.origin, frame.seq, frame.payload, wire_size);

  if (options_.auto_report_delivered) {
    engine.on_ack(StabilityTypeRegistry::kDelivered, options_.self,
                  frame.seq);
    mark_dirty(frame.origin, StabilityTypeRegistry::kDelivered, frame.seq,
               {});
  }
}

void Stabilizer::handle_ack_batch(const data::AckBatchFrame& frame) {
  // Group the batch per origin engine and batch-apply: the whole frame is
  // max-merged before any predicate re-evaluates, so each affected
  // predicate evaluates once per frame instead of once per entry. The
  // AckUpdates view the frame's extra bytes — valid for the duration of
  // on_ack_batch, which routes each extra to the entries it affects.
  // Buckets are local because monitors fired by the batch may re-enter
  // (send -> apply_origin_rule runs a nested batch).
  std::vector<std::vector<AckUpdate>> per_origin(engines_.size());
  uint64_t applied = 0;
  for (const data::AckEntry& e : frame.entries) {
    if (e.about_origin >= engines_.size()) continue;
    per_origin[e.about_origin].push_back(
        AckUpdate{e.type, frame.reporter, e.seq, BytesView(e.extra)});
    ++applied;
  }
  STAB_OBS(if (applied) ctr_.ack_entries_applied.inc(applied));
  (void)applied;
  for (NodeId origin = 0; origin < per_origin.size(); ++origin)
    if (!per_origin[origin].empty())
      engines_[origin]->on_ack_batch(per_origin[origin]);
  if (options_.send_window > 0) pump_all();  // acks free window space
  maybe_reclaim();
}

void Stabilizer::handle_report_batch(NodeId src,
                                     const data::ReportBatchFrame& frame) {
  // The whole-node fence in on_frame already judged `src` (the forwarder).
  // Each block still carries its own reporter's credential: an aggregator
  // may innocently relay the vector of a member that was deposed after
  // flushing, and those receipts must stop influencing reclamation / flow
  // control exactly like a zombie's own ACKBATCH would.
  const bool absorbing = deferred_ && agg_self_ && src != options_.self &&
                         src < same_az_.size() && same_az_[src];
  std::vector<std::vector<AckUpdate>> per_origin(engines_.size());
  uint64_t applied = 0;
  bool absorbed_any = false;
  for (const data::ReportBlock& b : frame.blocks) {
    // Our own vector echoed back (an aggregator broadcasts merged state to
    // everyone, including the mirrors it came from) carries nothing new.
    if (b.reporter >= engines_.size() || b.reporter == options_.self) continue;
    if (stream_primary_[b.reporter] != b.reporter) {
      STAB_OBS(ctr_.report_blocks_fenced.inc());
      continue;
    }
    for (const data::ReportEntry& e : b.entries) {
      if (e.about_origin >= engines_.size()) continue;
      per_origin[e.about_origin].push_back(
          AckUpdate{e.type, b.reporter, e.seq, {}});
      ++applied;
    }
    // Aggregator merge: blocks arriving from our own AZ's members fold into
    // the accumulator for the next long-haul flush. Blocks from outside the
    // AZ (another aggregator's forward, or a fallback mirror) are consumed
    // locally but never re-forwarded — one merge level, no loops.
    if (absorbing) {
      deferred_->absorb(b);
      absorbed_any = true;
      STAB_OBS(ctr_.agg_blocks_absorbed.inc());
    }
  }
  STAB_OBS(if (applied) ctr_.report_entries_applied.inc(applied));
  (void)applied;
  for (NodeId origin = 0; origin < per_origin.size(); ++origin)
    if (!per_origin[origin].empty())
      engines_[origin]->on_ack_batch(per_origin[origin]);
  if (absorbed_any) schedule_deferred_timer();
  if (options_.send_window > 0) pump_all();  // reports free window space
  maybe_reclaim();
}

// --- crash-restart rejoin (RESUME handshake) -----------------------------------

void Stabilizer::send_resume(NodeId peer, bool reply) {
  data::ResumeFrame frame;
  frame.sender = options_.self;
  frame.primary_epoch = stream_epoch_[options_.self];
  frame.epoch = session_epoch_;
  frame.receive_through = rx_.received_through(peer);
  frame.reply = reply;
  transport_.send_shared(peer,
                         std::make_shared<const Bytes>(data::encode(frame)));
  STAB_OBS({
    ctr_.shared_sends.inc();
    ctr_.resumes_sent.inc();
  });
}

void Stabilizer::handle_resume(NodeId src, const data::ResumeFrame& frame) {
  STAB_OBS(ctr_.resumes_received.inc());
  if (frame.sender != src || src >= peer_epoch_.size()) return;

  // Any RESUME from src was sent causally after src processed our own
  // announcement (a reply) or re-announces its session (in which case our
  // reply below carries everything our announcement did): either way our
  // announcement to src needs no further re-sends.
  resume_pending_[src] = false;

  if (frame.epoch > peer_epoch_[src]) {
    peer_epoch_[src] = frame.epoch;

    // Rewind our own stream's go-back-N to the reborn peer's persisted
    // delivery cursor; frames it lost with its volatile state retransmit
    // from the send buffer. (Adopted streams heal through the probe.)
    own_.rewind(src, frame.receive_through + 1);

    // Re-issue every cumulative stability report so the peer rebuilds its
    // ack tables immediately instead of waiting for the heartbeat.
    for (NodeId about = 0; about < reported_.size(); ++about)
      for (StabilityTypeId t = 0; t < reported_[about].size(); ++t)
        if (reported_[about][t] != kNoSeq)
          mark_dirty(about, t, reported_[about][t], {});

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
  STAB_OBS(ctr_.peer_recover_episodes.inc());
  if (recovered_handler_) recovered_handler_(peer);
}

void Stabilizer::maybe_reclaim() {
  for (auto& [origin, stream] : adopted_) stream.reclaim();
  own_.reclaim();
}

// --- control-plane output ---------------------------------------------------------

void Stabilizer::mark_dirty(NodeId about, StabilityTypeId type, SeqNum seq,
                            Bytes extra) {
  auto& reported = reported_[about];
  if (reported.size() <= type) reported.resize(type + 1, kNoSeq);
  reported[type] = std::max(reported[type], seq);
  // Deferred propagation: plain reports park in the accumulator and ride a
  // REPORTBATCH flush. Reports with extra bytes stay on the immediate
  // ACKBATCH path in every mode — extras are per-report payloads that a
  // max-merge would drop. reported_ was updated above either way, so the
  // heartbeat re-issue and RESUME re-announce cover deferred reports too.
  if (deferred_ && extra.empty()) {
    note_deferred(about, type, seq);
    return;
  }
  auto& per_type = dirty_[about];
  if (per_type.size() <= type) per_type.resize(type + 1);
  DirtyAck& d = per_type[type];
  if (seq <= d.seq) return;  // monotonic coalescing
  d.seq = seq;
  d.extra = std::move(extra);
  any_dirty_ = true;
  schedule_ack_timer();
}

void Stabilizer::schedule_ack_timer() {
  if (ack_timer_armed_ || stopped_) return;
  if (options_.ack_interval <= Duration::zero()) {
    flush_acks();
    return;
  }
  ack_timer_armed_ = true;
  ack_timer_ = env().schedule_after(options_.ack_interval, [this] {
    std::lock_guard<std::recursive_mutex> lock(mutex_);
    ack_timer_armed_ = false;
    ack_timer_ = kInvalidTimer;
    if (!stopped_) flush_acks();
  });
}

void Stabilizer::flush_acks() {
  if (!any_dirty_) return;
  any_dirty_ = false;

  if (options_.broadcast_acks) {
    data::AckBatchFrame batch;
    batch.reporter = options_.self;
    batch.primary_epoch = stream_epoch_[options_.self];
    for (NodeId about = 0; about < dirty_.size(); ++about) {
      for (StabilityTypeId t = 0; t < dirty_[about].size(); ++t) {
        DirtyAck& d = dirty_[about][t];
        if (d.seq == kNoSeq) continue;
        batch.entries.push_back(
            data::AckEntry{about, t, d.seq, std::move(d.extra)});
        d = DirtyAck{};
      }
    }
    if (batch.entries.empty()) return;
    STAB_OBS(ctr_.ack_flush_entries.record(batch.entries.size()));
#if STAB_OBS_ENABLED
    if (STAB_TRACE_WANTS(tracer_, obs::SpanEvent::kAckReport)) {
      TimePoint now = env().now();
      for (const data::AckEntry& e : batch.entries)
        tracer_->record(now, obs::SpanEvent::kAckReport, options_.self,
                        e.about_origin, e.seq, kInvalidNode,
                        types_.name(e.type));
    }
#endif
    // One encode, fanned out refcounted — the ack broadcast rides the same
    // zero-copy path as the data plane.
    auto encoded = std::make_shared<const Bytes>(data::encode(batch));
    for (NodeId peer = 0; peer < options_.topology.num_nodes(); ++peer) {
      if (peer == options_.self || excluded_[peer]) continue;
      transport_.send_shared(peer, encoded);
      STAB_OBS({
        ++ctr_.pending_shared_sends;
        ctr_.ack_batches_sent.inc();
        ctr_.ack_bytes_sent.inc(encoded->size());
      });
    }
  } else {
    // Origin-scoped: each stream's authority (its origin, or its acting
    // primary after a failover) gets only the reports about that stream.
    for (NodeId about = 0; about < dirty_.size(); ++about) {
      data::AckBatchFrame batch;
      batch.reporter = options_.self;
      batch.primary_epoch = stream_epoch_[options_.self];
      for (StabilityTypeId t = 0; t < dirty_[about].size(); ++t) {
        DirtyAck& d = dirty_[about][t];
        if (d.seq == kNoSeq) continue;
        batch.entries.push_back(
            data::AckEntry{about, t, d.seq, std::move(d.extra)});
        d = DirtyAck{};
      }
      if (batch.entries.empty()) continue;
      const NodeId to = stream_primary_[about];
      if (about == options_.self || to == options_.self || excluded_[to])
        continue;
      STAB_OBS(ctr_.ack_flush_entries.record(batch.entries.size()));
#if STAB_OBS_ENABLED
      if (STAB_TRACE_WANTS(tracer_, obs::SpanEvent::kAckReport)) {
        TimePoint now = env().now();
        for (const data::AckEntry& e : batch.entries)
          tracer_->record(now, obs::SpanEvent::kAckReport, options_.self,
                          e.about_origin, e.seq, kInvalidNode,
                          types_.name(e.type));
      }
#endif
      Bytes enc = data::encode(batch);
      STAB_OBS({
        ctr_.ack_batches_sent.inc();
        ctr_.ack_bytes_sent.inc(enc.size());
      });
      transport_.send(to, std::move(enc));
    }
  }
  // The periodic control flush doubles as the fold point for the batched
  // data-plane deltas, so receive-side counters stay at most one
  // ack_interval stale (stats()/metrics() fold on read anyway).
  STAB_OBS(ctr_.flush_pending());
}

// --- deferred propagation (DESIGN.md §10) ----------------------------------------

void Stabilizer::note_deferred(NodeId about, StabilityTypeId type,
                               SeqNum seq) {
  deferred_->note(options_.self, stream_epoch_[options_.self], about, type,
                  seq);
  if (options_.deferred_delta_threshold > 0 &&
      deferred_->pending_delta() >= options_.deferred_delta_threshold) {
    // Burst: enough has accumulated that waiting out the timer only adds
    // lag without saving frames. Flush now; the armed timer (if any) finds
    // an empty accumulator and no-ops.
    STAB_OBS(ctr_.deferred_delta_flushes.inc());
    flush_deferred();
    return;
  }
  schedule_deferred_timer();
}

void Stabilizer::schedule_deferred_timer() {
  if (deferred_timer_armed_ || stopped_) return;
  if (options_.deferred_flush_interval <= Duration::zero()) {
    flush_deferred();
    return;
  }
  deferred_timer_armed_ = true;
  deferred_timer_ =
      env().schedule_after(options_.deferred_flush_interval, [this] {
        std::lock_guard<std::recursive_mutex> lock(mutex_);
        deferred_timer_armed_ = false;
        deferred_timer_ = kInvalidTimer;
        if (!stopped_) flush_deferred();
      });
}

NodeId Stabilizer::usable_aggregator() const {
  const NodeId g = my_aggregator_;
  if (g == kInvalidNode || g == options_.self) return kInvalidNode;
  // A dead or deposed aggregator must not become a control-plane black
  // hole: excluded (crash reaction), stalled (no ack progress), or fenced
  // (lost its own stream — everything it forwards would be dropped as
  // zombie output) all mean "bypass and fan out directly". The stall /
  // RESUME machinery flips these back when the aggregator heals.
  if (excluded_[g] || stalled_[g]) return kInvalidNode;
  if (stream_primary_[g] != g) return kInvalidNode;
  return g;
}

void Stabilizer::flush_deferred() {
  if (!deferred_ || deferred_->empty()) return;
  data::ReportBatchFrame frame;
  frame.forwarder = options_.self;
  frame.blocks = deferred_->take_flush();
  STAB_OBS({
    ctr_.deferred_flushes.inc();
    size_t entries = 0;
    for (const data::ReportBlock& b : frame.blocks) entries += b.entries.size();
    ctr_.report_flush_entries.record(entries);
  });
#if STAB_OBS_ENABLED
  if (STAB_TRACE_WANTS(tracer_, obs::SpanEvent::kAckReport)) {
    TimePoint now = env().now();
    for (const data::ReportBlock& b : frame.blocks) {
      if (b.reporter != options_.self) continue;  // relays traced at source
      for (const data::ReportEntry& e : b.entries)
        tracer_->record(now, obs::SpanEvent::kAckReport, options_.self,
                        e.about_origin, e.seq, kInvalidNode,
                        types_.name(e.type));
    }
  }
#endif

  // Routing. A mirror in aggregated mode hands its vector to the AZ
  // aggregator (one intra-AZ frame; the aggregator merges and forwards
  // long-haul). Everything else — kDeferred mode, the aggregator's own
  // merged flush, or a mirror whose aggregator is currently unusable —
  // fans out directly.
  NodeId agg = kInvalidNode;
  if (options_.report_path ==
          StabilizerOptions::ReportPath::kDeferredAggregated &&
      !agg_self_ && my_aggregator_ != kInvalidNode) {
    agg = usable_aggregator();
    if (agg == kInvalidNode) STAB_OBS(ctr_.agg_fallback_direct.inc());
  }

  if (agg != kInvalidNode) {
    Bytes enc = data::encode(frame);
    STAB_OBS({
      ctr_.report_batches_sent.inc();
      ctr_.report_bytes_sent.inc(enc.size());
    });
    transport_.send(agg, std::move(enc));
  } else if (options_.broadcast_acks) {
    // One encode, refcounted fan-out — same zero-copy shape as flush_acks.
    auto encoded = std::make_shared<const Bytes>(data::encode(frame));
    for (NodeId peer = 0; peer < options_.topology.num_nodes(); ++peer) {
      if (peer == options_.self || excluded_[peer]) continue;
      transport_.send_shared(peer, encoded);
      STAB_OBS({
        ++ctr_.pending_shared_sends;
        ctr_.report_batches_sent.inc();
        ctr_.report_bytes_sent.inc(encoded->size());
      });
    }
  } else {
    // Origin-scoped: each stream's authority receives only the blocks'
    // entries about that stream (mirrors flush-to-aggregator still send the
    // full vector above; it is the direct fan-out that scopes).
    for (NodeId about = 0; about < options_.topology.num_nodes(); ++about) {
      const NodeId to = stream_primary_[about];
      if (about == options_.self || to == options_.self || excluded_[to])
        continue;
      data::ReportBatchFrame scoped;
      scoped.forwarder = options_.self;
      for (const data::ReportBlock& b : frame.blocks) {
        data::ReportBlock nb;
        nb.reporter = b.reporter;
        nb.primary_epoch = b.primary_epoch;
        for (const data::ReportEntry& e : b.entries)
          if (e.about_origin == about) nb.entries.push_back(e);
        if (!nb.entries.empty()) scoped.blocks.push_back(std::move(nb));
      }
      if (scoped.blocks.empty()) continue;
      Bytes enc = data::encode(scoped);
      STAB_OBS({
        ctr_.report_batches_sent.inc();
        ctr_.report_bytes_sent.inc(enc.size());
      });
      transport_.send(to, std::move(enc));
    }
  }
  STAB_OBS(ctr_.flush_pending());
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
  // a previous ACK frame was lost (receivers max-merge, so this is
  // idempotent).
  for (NodeId about = 0; about < reported_.size(); ++about)
    for (StabilityTypeId t = 0; t < reported_[about].size(); ++t)
      if (reported_[about][t] != kNoSeq)
        mark_dirty(about, t, reported_[about][t], {});

  // Unconfirmed session announcements ride the same probe cadence (a RESUME
  // lost to a partition must eventually land; duplicates are epoch-deduped).
  for (NodeId peer = 0; peer < options_.topology.num_nodes(); ++peer)
    if (resume_pending_[peer] && peer != options_.self && !excluded_[peer])
      send_resume(peer);

  for (auto& [origin, stream] : adopted_) stream.probe();
  own_.probe();
  STAB_OBS(ctr_.flush_pending());
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
      STAB_OBS(ctr_.peer_stall_episodes.inc());
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
    w.i64(rx_.received_through(origin));
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
        if (epoch > stream_epoch_[i]) {
          stream_epoch_[i] = epoch;
          stream_primary_[i] = primary;
        }
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
      // Refill the send buffer so the reborn instance can serve go-back-N
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
      rx_.restore(origin, r.i64());
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
      SeqNum cursor = rx_.received_through(origin);
      if (origin == options_.self || cursor == kNoSeq) continue;
      mark_dirty(origin, StabilityTypeRegistry::kReceived, cursor, {});
      if (options_.auto_report_delivered)
        mark_dirty(origin, StabilityTypeRegistry::kDelivered, cursor, {});
    }
  } catch (const CodecError& e) {
    return Status::error(std::string("restore: corrupt snapshot: ") +
                         e.what());
  }
  return Status::ok();
}

// --- control plane API -----------------------------------------------------------

Status Stabilizer::register_predicate(const std::string& key,
                                      const std::string& source) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  for (auto& engine : engines_) {
    Status st = engine->register_predicate(key, source);
    if (!st.is_ok()) return st;  // identical context: fails on the first
  }
  backfill_origin_rule();
  return Status::ok();
}

Status Stabilizer::change_predicate(const std::string& key,
                                    const std::string& source) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  for (auto& engine : engines_) {
    Status st = engine->change_predicate(key, source);
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
    STAB_OBS(ctr_.waiters_fenced.inc());
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
  engines_[origin]->on_ack(type, options_.self, seq,
                           BytesView(extra.data(), extra.size()));
  mark_dirty(origin, type, seq, Bytes(extra.begin(), extra.end()));
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
    stream_epoch_[origin] = epoch;
    stream_primary_[origin] = options_.self;
    STAB_OBS(ctr_.takeovers_observed.inc());
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

  stream_epoch_[origin] = epoch;
  stream_primary_[origin] = new_primary;
  STAB_OBS(ctr_.takeovers_observed.inc());

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
  STAB_OBS(if (failed) ctr_.waiters_fenced.inc(failed));
  (void)failed;
}

void Stabilizer::apply_takeover_cursor(NodeId origin, SeqNum start_seq,
                                       bool allow_rollback) {
  const SeqNum target = start_seq - 1;  // new authority resumes AT start_seq
  const SeqNum cur = rx_.received_through(origin);
  if (target > cur) {
    // Fast-forward: seqs in (cur, target] are lost to this node (the dead
    // primary's buffer is gone; nobody can retransmit them). Cumulative
    // stability reports jump the gap — frontier semantics are "through seq",
    // so waiters at gap seqs complete once post-takeover traffic stabilizes.
    rx_.restore(origin, target);
    STAB_OBS(
        ctr_.failover_seqs_skipped.inc(static_cast<uint64_t>(target - cur)));
    FrontierEngine& engine = *engines_[origin];
    engine.on_ack(StabilityTypeRegistry::kReceived, options_.self, target);
    mark_dirty(origin, StabilityTypeRegistry::kReceived, target, {});
    if (options_.auto_report_delivered) {
      engine.on_ack(StabilityTypeRegistry::kDelivered, options_.self, target);
      mark_dirty(origin, StabilityTypeRegistry::kDelivered, target, {});
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
    SeqNum down = rx_.reset(origin, target);
    STAB_OBS(
        if (down) ctr_.failover_seqs_rolled_back.inc(
            static_cast<uint64_t>(down)));
    (void)down;
  }
}

// --- introspection ------------------------------------------------------------------

SeqNum Stabilizer::last_sent() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return own_.last_assigned();
}

StabilizerStats Stabilizer::stats() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  // Same logically-const fold as snapshot_control_state: apply undrained
  // report cells so the eval counters reflect every report made.
  const_cast<Stabilizer*>(this)->drain_pipeline();
  StabilizerStats s;
  STAB_OBS({
    ctr_.flush_pending();
    s.messages_sent = ctr_.messages_sent.value();
    s.frames_transmitted = ctr_.frames_transmitted.value();
    s.messages_delivered = ctr_.messages_delivered.value();
    s.ack_batches_sent = ctr_.ack_batches_sent.value();
    s.ack_entries_applied = ctr_.ack_entries_applied.value();
    s.report_batches_sent = ctr_.report_batches_sent.value();
    s.report_entries_applied = ctr_.report_entries_applied.value();
    s.deferred_flushes = ctr_.deferred_flushes.value();
    s.agg_blocks_absorbed = ctr_.agg_blocks_absorbed.value();
    s.agg_fallback_direct = ctr_.agg_fallback_direct.value();
    s.report_blocks_fenced = ctr_.report_blocks_fenced.value();
    s.duplicates_dropped = ctr_.duplicates_dropped.value();
    s.gaps_detected = ctr_.gaps_detected.value();
    s.retransmits_sent = ctr_.retransmits_sent.value();
    s.peer_stall_episodes = ctr_.peer_stall_episodes.value();
    s.peer_recover_episodes = ctr_.peer_recover_episodes.value();
    s.resumes_sent = ctr_.resumes_sent.value();
    s.resumes_received = ctr_.resumes_received.value();
    s.data_encodes = ctr_.data_encodes.value();
    s.shared_sends = ctr_.shared_sends.value();
    s.frames_coalesced = ctr_.frames_coalesced.value();
    s.fenced_frames = ctr_.fenced_frames.value();
    s.epoch_ahead_drops = ctr_.epoch_ahead_drops.value();
    s.takeovers_observed = ctr_.takeovers_observed.value();
    s.failover_seqs_skipped = ctr_.failover_seqs_skipped.value();
    s.failover_seqs_rolled_back = ctr_.failover_seqs_rolled_back.value();
    s.waiters_fenced = ctr_.waiters_fenced.value();
  });
  for (const auto& engine : engines_) {
    s.predicate_evals += engine->predicate_evals();
    s.evals_skipped_index += engine->evals_skipped_index();
    s.evals_skipped_binding += engine->evals_skipped_binding();
  }
  return s;
}

SeqNum Stabilizer::delivered_through(NodeId origin) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return rx_.received_through(origin);
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
