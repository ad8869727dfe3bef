#include "core/in_stream.hpp"

#include <algorithm>

#include "core/stabilizer.hpp"

namespace stab {

InStream::InStream(Stabilizer& node, NodeId origin)
    : node_(node), origin_(origin) {}

bool InStream::admit(NodeId src, PrimaryEpoch epoch) {
  Stabilizer& n = node_;
  const PrimaryEpoch known = n.stream_epoch_[origin_];
  if (epoch < known || (epoch == known && src != n.stream_primary_[origin_])) {
    // Stale authority: a zombie ex-primary (or an impostor) extending a
    // sequence space the cluster has moved past. Counted, never delivered.
    STAB_OBS(n.ctr_.fenced_frames.inc());
    STAB_TRACE(n.tracer_, n.env().now(), obs::SpanEvent::kFenceDrop,
               n.options_.self, origin_, kNoSeq, src, "stale_epoch");
    return false;
  }
  if (epoch > known) {
    // The new primary's traffic raced its takeover announcement here. Drop —
    // we cannot authenticate the authority yet — and count; the announcement
    // arrives (the winner re-broadcasts it), and the next frame after it
    // NACKs the hole this drop left.
    STAB_OBS(n.ctr_.epoch_ahead_drops.inc());
    STAB_TRACE(n.tracer_, n.env().now(), obs::SpanEvent::kFenceDrop,
               n.options_.self, origin_, kNoSeq, src, "epoch_ahead");
    return false;
  }
  // Our own stream never re-delivers to us — after a takeover of our stream
  // the acting primary skips us anyway, but a retransmit raced against the
  // fence could still arrive; delivering our own messages back would corrupt
  // the origin rule.
  return origin_ != n.options_.self;
}

void InStream::on_data(NodeId src, const data::DataView& frame,
                       uint64_t wire_size) {
  if (admit(src, frame.primary_epoch))
    accept(src, frame.seq, frame.payload, wire_size);
}

void InStream::on_batch(NodeId src, const data::DataBatchFrame& batch) {
  if (!admit(src, batch.primary_epoch)) return;
  // Per-message wire accounting reconstructs the batch's footprint: 12 bytes
  // of entry header plus payload and padding each, with the 21-byte frame
  // header charged to the first message.
  for (size_t i = 0; i < batch.entries.size(); ++i) {
    const data::DataBatchFrame::Entry& e = batch.entries[i];
    uint64_t wire =
        12 + e.payload.size() + e.virtual_size + (i == 0 ? 21 : 0);
    accept(src, batch.first_seq + static_cast<SeqNum>(i), e.payload, wire);
  }
}

void InStream::accept(NodeId src, SeqNum seq, BytesView payload,
                      uint64_t wire_size) {
  if (seq == next_) {
    ++next_;
    deliver(src, seq, payload, wire_size);
    if (!held_.empty()) drain_held();
    return;
  }
  if (seq < next_) {
    STAB_OBS(node_.ctr_.duplicates_dropped.inc());
    return;
  }
  // Past a hole. Held when within retransmit_window of the prefix. The
  // missing seqs it reveals start after everything already held or NACKed
  // and end before it, or at the window's edge when it lies beyond: those
  // go out in one NACK, so each hole is NACKed once.
  const SeqNum window =
      static_cast<SeqNum>(node_.options_.retransmit_window);
  const bool hold = seq - next_ < window;
  const SeqNum from = std::max(next_, nacked_through_ + 1);
  const SeqNum to = hold ? seq - 1 : next_ + (window - 1);
  if (from <= to) nack(from, to);
  nacked_through_ = std::max(nacked_through_, hold ? seq : to);
  if (hold) {
    auto [it, fresh] = held_.try_emplace(seq);
    if (!fresh) {
      STAB_OBS(node_.ctr_.duplicates_dropped.inc());
      return;
    }
    it->second = Held{src, Bytes(payload.begin(), payload.end()), wire_size};
  }
  STAB_OBS(node_.ctr_.gaps_detected.inc());
}

void InStream::drain_held() {
  // An upcall may re-enter the node, and a takeover or a restore inside it
  // empties held_, so the map is re-read after every delivery.
  while (!held_.empty() && held_.begin()->first == next_) {
    auto frame = held_.extract(held_.begin());
    ++next_;
    const Held& h = frame.mapped();
    deliver(h.src, frame.key(), h.payload, h.wire_size);
  }
}

void InStream::deliver(NodeId src, SeqNum seq, BytesView payload,
                       uint64_t wire_size) {
  Stabilizer& n = node_;
  const NodeId self = n.options_.self;
  STAB_OBS(++n.ctr_.pending_messages_delivered);
  STAB_TRACE(n.tracer_, n.env().now(), obs::SpanEvent::kDeliver, self,
             origin_, seq, src);
  if (STAB_PROBE_SAMPLED(n.probe_, seq))
    STAB_PROBE(n.probe_, on_deliver(self, origin_, seq, n.env().now()));
  (void)src;

  FrontierEngine& engine = *n.engines_[origin_];
  // Origin rule for the remote stream (the stream's sequencing authority has
  // every property for the messages it sequenced) plus our own receipt,
  // applied as one batch. After a failover the authority is the acting
  // primary, not the origin node — crediting the dead origin would wedge
  // MIN-over-all predicates forever.
  const NodeId authority = n.stream_primary_[origin_];
  {
    auto lease = n.updates_scratch_.acquire();
    std::vector<AckUpdate>& updates = *lease;
    updates.clear();
    for (StabilityTypeId t = 0; t < n.types_.count(); ++t)
      updates.push_back(AckUpdate{t, authority, seq, {}});
    updates.push_back(
        AckUpdate{StabilityTypeRegistry::kReceived, self, seq, {}});
    engine.on_ack_batch(updates);
  }
  n.reports_.note(origin_, StabilityTypeRegistry::kReceived, seq);

  if (n.delivery_) n.delivery_(origin_, seq, payload, wire_size);

  if (n.options_.auto_report_delivered) {
    engine.on_ack(StabilityTypeRegistry::kDelivered, self, seq);
    n.reports_.note(origin_, StabilityTypeRegistry::kDelivered, seq);
  }
}

void InStream::nack(SeqNum from, SeqNum to) {
  Stabilizer& n = node_;
  const NodeId primary = n.stream_primary_[origin_];
  if (n.excluded_[primary]) return;
  data::NackFrame f;
  f.origin = origin_;
  f.primary_epoch = n.stream_epoch_[origin_];
  f.from = from;
  f.to = to;
  n.transport_.send(primary, data::encode(f));
  STAB_OBS(n.ctr_.nacks_sent.inc());
}

void InStream::discard_held() {
  held_.clear();
  nacked_through_ = next_ - 1;
}

void InStream::restore(SeqNum received_through) {
  if (received_through + 1 > next_) next_ = received_through + 1;
  discard_held();
}

SeqNum InStream::reset(SeqNum received_through) {
  SeqNum down = next_ - (received_through + 1);
  next_ = received_through + 1;
  discard_held();
  return down > 0 ? down : 0;
}

}  // namespace stab
