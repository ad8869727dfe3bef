#include "failover/failover.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace stab::failover {

namespace {

// PROMOTE value replicated through Paxos: which node takes which stream
// under which epoch. start_seq is NOT in the ballot — it is computed by the
// winner's reconciliation round after the commit, because cursors gathered
// during the suspicion window are only an optimization (the election needs a
// unique winner; sequencing resume needs the authoritative max, which the
// winner collects from every live peer afterwards).
Bytes encode_promote(NodeId stream, PrimaryEpoch epoch, NodeId winner) {
  Writer w(12);
  w.u32(stream);
  w.u32(epoch);
  w.u32(winner);
  return std::move(w).take();
}

}  // namespace

FailoverManager::FailoverManager(FailoverOptions options, Stabilizer& stab)
    : options_(options), stab_(stab), link_(stab) {
  paxos::PaxosOptions popt;
  popt.members.resize(stab_.topology().num_nodes());
  for (NodeId n = 0; n < popt.members.size(); ++n) popt.members[n] = n;
  popt.self = stab_.self();
  popt.retry_interval = options_.paxos_retry;
  // PaxosNode installs its receive handler into link_; the manager routes
  // inbound 0x60-0x67 frames back through link_.deliver().
  paxos_ = std::make_unique<paxos::PaxosNode>(popt, link_);
  paxos_->set_commit_handler(
      [this](paxos::InstanceId, BytesView value) { on_promote_commit(value); });
  stab_.set_raw_frame_handler(
      [this](NodeId src, BytesView frame, uint64_t wire_size) {
        on_raw(src, frame, wire_size);
      });
}

FailoverManager::~FailoverManager() { stop(); }

void FailoverManager::start() {
  if (started_ || stopped_) return;
  started_ = true;
  last_alive_ = stab_.env().now();
  last_delivered_ = stab_.delivered_through(options_.stream);
  tick_timer_ = stab_.env().schedule_after(options_.lease_interval, [this] {
    tick_timer_ = kInvalidTimer;
    tick();
  });
}

void FailoverManager::stop() {
  if (stopped_) return;
  stopped_ = true;
  Env& env = stab_.env();
  if (tick_timer_ != kInvalidTimer) env.cancel(tick_timer_);
  if (gather_timer_ != kInvalidTimer) env.cancel(gather_timer_);
  if (rec_timer_ != kInvalidTimer) env.cancel(rec_timer_);
  tick_timer_ = gather_timer_ = rec_timer_ = kInvalidTimer;
  stab_.set_raw_frame_handler(nullptr);
}

// --- frame routing ------------------------------------------------------------

void FailoverManager::on_raw(NodeId src, BytesView frame,
                             uint64_t wire_size) {
  if (stopped_ || frame.empty()) return;
  const uint8_t kind = frame[0];
  if (kind >= 0x60 && kind <= 0x67) {
    link_.deliver(src, frame, wire_size);
    return;
  }
  switch (kind) {
    case kLeaseKind:
      on_lease(src, frame);
      break;
    case kSuspectKind:
      on_suspect(src, frame);
      break;
    case kTakeoverKind:
      try {
        Reader r(frame);
        r.u8();
        NodeId stream = r.u32();
        PrimaryEpoch epoch = r.u32();
        NodeId winner = r.u32();
        SeqNum start = r.i64();
        if (stream == options_.stream) apply_takeover(winner, epoch, start);
      } catch (const CodecError&) {
      }
      break;
    case kRecReqKind:
      on_rec_req(src, frame);
      break;
    case kRecReplyKind:
      on_rec_reply(src, frame);
      break;
    default:
      STAB_WARN("failover: node " << stab_.self() << ": unknown raw kind "
                                  << int(kind) << " from " << src);
      break;
  }
}

// --- tick: lease issue (authority) / detection poll (mirror) ------------------

void FailoverManager::tick() {
  if (stopped_) return;
  const NodeId self = stab_.self();
  const NodeId authority = stab_.stream_primary(options_.stream);

  if (authority == self && !stab_.self_fenced()) {
    issue_leases();
    // Re-announce the takeover alongside the lease until the whole fleet
    // has had a chance to learn it (laggards, healed partitions, and the
    // zombie ex-primary all need the announcement; it is idempotent).
    if (promoted_) broadcast_takeover();
  } else if (authority != self) {
    // Mirror: fold every liveness signal into the lease clock. Data-plane
    // delivery progress on the guarded stream and the authority's acks
    // about OUR stream both prove the authority alive — piggybacked
    // detection; the explicit LEASE only matters when everything is idle.
    const SeqNum delivered = stab_.delivered_through(options_.stream);
    const SeqNum acked = stab_.engine(self).acks().get(
        StabilityTypeRegistry::kReceived, authority);
    if (delivered > last_delivered_ || acked > last_ack_seen_) {
      last_delivered_ = std::max(last_delivered_, delivered);
      last_ack_seen_ = std::max(last_ack_seen_, acked);
      last_alive_ = stab_.env().now();
      clear_suspicion();
    }
    if (!suspecting_ &&
        stab_.env().now() - last_alive_ >= options_.lease_timeout) {
      // The lease window lapsed with no liveness signal of any kind — the
      // event that opens a failover episode in the trace timeline.
      if (obs::Tracer* t = stab_.tracer())
        t->record(stab_.env().now(), obs::SpanEvent::kLeaseExpire, self,
                  options_.stream, kNoSeq, authority);
      start_suspicion();
    }
  }

  tick_timer_ = stab_.env().schedule_after(options_.lease_interval, [this] {
    tick_timer_ = kInvalidTimer;
    tick();
  });
}

void FailoverManager::issue_leases() {
  Writer w(17);
  w.u8(kLeaseKind);
  w.u32(options_.stream);
  w.u32(stab_.stream_epoch(options_.stream));
  w.i64(options_.stream == stab_.self()
            ? stab_.last_sent()
            : stab_.acting_last_sent(options_.stream));
  Bytes frame = std::move(w).take();
  for (NodeId peer = 0; peer < stab_.topology().num_nodes(); ++peer) {
    if (peer == stab_.self()) continue;
    stab_.send_raw(peer, frame);
    ++stats_.leases_sent;
  }
}

void FailoverManager::on_lease(NodeId src, BytesView frame) {
  try {
    Reader r(frame);
    r.u8();
    NodeId stream = r.u32();
    PrimaryEpoch epoch = r.u32();
    (void)r.i64();  // issuer's last sequenced seq (diagnostic)
    if (stream != options_.stream) return;
    if (src != stab_.stream_primary(stream) ||
        epoch != stab_.stream_epoch(stream))
      return;  // stale issuer: a zombie's lease renews nothing
    ++stats_.leases_received;
    last_alive_ = stab_.env().now();
    // A live lease from the current authority retracts any suspicion in
    // flight (false positive under jitter or a healed partition).
    clear_suspicion();
  } catch (const CodecError&) {
  }
}

// --- election -----------------------------------------------------------------

void FailoverManager::start_suspicion() {
  suspecting_ = true;
  ++stats_.suspicions;
  if (stats_.suspected_at == TimePoint{})
    stats_.suspected_at = stab_.env().now();
  const SeqNum cursor = stab_.delivered_through(options_.stream);
  suspect_cursors_[stab_.self()] =
      std::max(suspect_cursors_[stab_.self()], cursor);
  // seq carries this mirror's delivered prefix — the cursor it campaigns
  // with; peer names the primary under suspicion.
  if (obs::Tracer* t = stab_.tracer())
    t->record(stab_.env().now(), obs::SpanEvent::kSuspect, stab_.self(),
              options_.stream, cursor, stab_.stream_primary(options_.stream));

  Writer w(17);
  w.u8(kSuspectKind);
  w.u32(options_.stream);
  w.u32(stab_.stream_epoch(options_.stream));
  w.i64(cursor);
  Bytes frame = std::move(w).take();
  for (NodeId peer = 0; peer < stab_.topology().num_nodes(); ++peer) {
    if (peer == stab_.self() || peer == options_.stream) continue;
    stab_.send_raw(peer, frame);
  }

  if (gather_timer_ != kInvalidTimer) stab_.env().cancel(gather_timer_);
  gather_timer_ = stab_.env().schedule_after(options_.suspect_gather, [this] {
    gather_timer_ = kInvalidTimer;
    conclude_election();
  });
}

void FailoverManager::on_suspect(NodeId src, BytesView frame) {
  try {
    Reader r(frame);
    r.u8();
    NodeId stream = r.u32();
    PrimaryEpoch epoch = r.u32();
    SeqNum cursor = r.i64();
    if (stream != options_.stream) return;
    if (epoch != stab_.stream_epoch(stream)) return;  // old-regime suspicion
    // Record the cursor whether or not we suspect yet: a late suspecter's
    // own gather window then sees every earlier cursor, so whoever holds
    // the longest prefix eventually proposes even if suspicion onset is
    // staggered across mirrors.
    SeqNum& known = suspect_cursors_[src];
    known = std::max(known, cursor);
  } catch (const CodecError&) {
  }
}

void FailoverManager::conclude_election() {
  if (stopped_ || !suspecting_) return;
  // A takeover (or lease) that landed during the gather window already
  // cleared suspicion; getting here means the primary is still silent.
  NodeId candidate = kInvalidNode;
  SeqNum best = kNoSeq;
  for (const auto& [node, cursor] : suspect_cursors_) {
    if (candidate == kInvalidNode || cursor > best ||
        (cursor == best && node < candidate)) {
      candidate = node;
      best = cursor;
    }
  }
  if (candidate != stab_.self()) {
    // Not our promotion to drive. Keep suspecting: if the candidate is dead
    // too, its silence re-runs this decision at the next lease timeout.
    suspecting_ = false;
    last_alive_ = stab_.env().now();
    return;
  }
  ++stats_.elections_proposed;
  const PrimaryEpoch next_epoch = stab_.stream_epoch(options_.stream) + 1;
  paxos_->start_leadership();
  paxos_->propose(encode_promote(options_.stream, next_epoch, stab_.self()),
                  0, [](paxos::InstanceId) {});
  // Leave suspecting_ set: if the ballot loses to a competing proposer the
  // commit handler applies the winner; if Paxos stalls (no majority), the
  // next lease timeout re-proposes under a fresh ballot.
  suspecting_ = false;
  last_alive_ = stab_.env().now();
}

// --- promotion ----------------------------------------------------------------

void FailoverManager::on_promote_commit(BytesView value) {
  if (stopped_) return;
  try {
    Reader r(value);
    NodeId stream = r.u32();
    PrimaryEpoch epoch = r.u32();
    NodeId winner = r.u32();
    if (stream != options_.stream) return;
    apply_takeover(winner, epoch, kNoSeq);
    if (winner == stab_.self() && epoch == stab_.stream_epoch(stream) &&
        !promoted_)
      begin_reconciliation(epoch);
  } catch (const CodecError&) {
  }
}

void FailoverManager::apply_takeover(NodeId winner, PrimaryEpoch epoch,
                                     SeqNum start_seq) {
  const bool fresh = epoch > stab_.stream_epoch(options_.stream);
  Status st =
      stab_.observe_takeover(options_.stream, winner, epoch, start_seq);
  if (!st.is_ok()) return;  // stale or conflicting: core already decided
  if (fresh) {
    ++stats_.takeovers_applied;
    // seq is the winner's resume point (kNoSeq when learned from the PROMOTE
    // commit, before reconciliation has fixed it); peer names the winner.
    if (obs::Tracer* t = stab_.tracer())
      t->record(stab_.env().now(), obs::SpanEvent::kTakeoverApply,
                stab_.self(), options_.stream, start_seq, winner);
    // The deposed node no longer participates in data/ack exchange: stop
    // sending to it and release the send-buffer floor it pinned. (Raw
    // frames — TAKEOVER in particular — still reach it so the zombie
    // learns to self-fence.)
    if (options_.auto_exclude && winner != options_.stream)
      stab_.set_peer_excluded(options_.stream, true);
  }
  clear_suspicion();
  last_alive_ = stab_.env().now();
}

void FailoverManager::begin_reconciliation(PrimaryEpoch epoch) {
  reconciling_ = true;
  rec_epoch_ = epoch;
  rec_replies_.clear();
  rec_deadline_ = stab_.env().now() + options_.reconcile_timeout;
  reconcile_tick();
}

void FailoverManager::reconcile_tick() {
  if (stopped_ || !reconciling_) return;
  // Every live peer's delivered prefix bounds the resume point. Peers that
  // never reply before the deadline are treated as dead — safe, because a
  // prefix nobody in the surviving quorum saw was never everywhere-stable.
  bool all_replied = true;
  Writer w(9);
  w.u8(kRecReqKind);
  w.u32(options_.stream);
  w.u32(rec_epoch_);
  Bytes frame = std::move(w).take();
  for (NodeId peer = 0; peer < stab_.topology().num_nodes(); ++peer) {
    if (peer == stab_.self() || peer == options_.stream) continue;
    if (rec_replies_.count(peer)) continue;
    all_replied = false;
    stab_.send_raw(peer, frame);
    ++stats_.rec_requests_sent;
  }
  if (all_replied || stab_.env().now() >= rec_deadline_) {
    finish_reconciliation();
    return;
  }
  // Retry at a fraction of the deadline so one lost frame doesn't burn the
  // whole round.
  rec_timer_ =
      stab_.env().schedule_after(options_.reconcile_timeout / 4, [this] {
        rec_timer_ = kInvalidTimer;
        reconcile_tick();
      });
}

void FailoverManager::finish_reconciliation() {
  reconciling_ = false;
  SeqNum highest = stab_.delivered_through(options_.stream);
  for (const auto& [peer, seq] : rec_replies_)
    highest = std::max(highest, seq);
  Status st = stab_.adopt_stream(options_.stream, highest + 1, rec_epoch_);
  if (!st.is_ok()) {
    // A newer epoch superseded us between commit and adoption; the newer
    // winner's TAKEOVER already (or will) reposition this node.
    STAB_WARN("failover: node " << stab_.self() << ": adoption of stream "
                                << options_.stream << " superseded");
    return;
  }
  promoted_ = true;
  takeover_start_ = highest + 1;
  ++stats_.promotions_won;
  stats_.promoted_at = stab_.env().now();
  // seq is the adopted start seq — joined against the episode-opening
  // lease_expire/suspect records this closes the promotion latency span.
  if (obs::Tracer* t = stab_.tracer())
    t->record(stats_.promoted_at, obs::SpanEvent::kPromote, stab_.self(),
              options_.stream, takeover_start_, stab_.self());
  broadcast_takeover();
}

void FailoverManager::broadcast_takeover() {
  Writer w(21);
  w.u8(kTakeoverKind);
  w.u32(options_.stream);
  w.u32(rec_epoch_);
  w.u32(stab_.self());
  w.i64(takeover_start_);
  Bytes frame = std::move(w).take();
  // Deliberately includes the deposed node: the announcement is what turns
  // a partitioned zombie into a self-fenced one once the partition heals.
  for (NodeId peer = 0; peer < stab_.topology().num_nodes(); ++peer) {
    if (peer == stab_.self()) continue;
    stab_.send_raw(peer, frame);
  }
}

void FailoverManager::on_rec_req(NodeId src, BytesView frame) {
  try {
    Reader r(frame);
    r.u8();
    NodeId stream = r.u32();
    PrimaryEpoch epoch = r.u32();
    if (stream != options_.stream) return;
    Writer w(17);
    w.u8(kRecReplyKind);
    w.u32(stream);
    w.u32(epoch);
    w.i64(stab_.delivered_through(stream));
    stab_.send_raw(src, std::move(w).take());
  } catch (const CodecError&) {
  }
}

void FailoverManager::on_rec_reply(NodeId src, BytesView frame) {
  try {
    Reader r(frame);
    r.u8();
    NodeId stream = r.u32();
    PrimaryEpoch epoch = r.u32();
    SeqNum seq = r.i64();
    if (stream != options_.stream) return;
    if (!reconciling_ || epoch != rec_epoch_) return;
    SeqNum& known = rec_replies_[src];
    known = std::max(known, seq);
    ++stats_.rec_replies_received;
  } catch (const CodecError&) {
  }
}

void FailoverManager::clear_suspicion() {
  suspecting_ = false;
  if (gather_timer_ != kInvalidTimer) {
    stab_.env().cancel(gather_timer_);
    gather_timer_ = kInvalidTimer;
  }
}

}  // namespace stab::failover
