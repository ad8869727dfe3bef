#include "core/out_stream.hpp"

#include <algorithm>

#include "core/stabilizer.hpp"

namespace stab {

OutStream::OutStream(const Stabilizer& node, NodeId origin, SeqNum start_seq)
    : node_(node),
      origin_(origin),
      next_to_send_(node.options_.topology.num_nodes(), 0),
      acked_at_probe_(node.options_.topology.num_nodes(), kNoSeq) {
  sequencer_.fast_forward(start_seq - 1);
  out_.reset_base(start_seq);
}

bool OutStream::is_destination(NodeId peer) const {
  return peer != node_.options_.self && peer != origin_ &&
         !node_.excluded_[peer];
}

SeqNum OutStream::push(BytesView payload, uint64_t virtual_size) {
  SeqNum seq = sequencer_.next();
  out_.push(seq, Bytes(payload.begin(), payload.end()), virtual_size);
  return seq;
}

void OutStream::pump() {
  const StabilizerOptions& opts = node_.options_;
  const AckTable& acks = node_.engines_[origin_]->acks();
  const bool coalesce = opts.coalesce_max_frames > 1;
  const SeqNum last = sequencer_.last_assigned();
  for (NodeId peer = 0; peer < next_to_send_.size(); ++peer) {
    if (!is_destination(peer)) continue;
    SeqNum& cursor = next_to_send_[peer];
    if (cursor < out_.base()) cursor = out_.base();  // after recovery
    // Window allowance: at most send_window beyond the peer's receive ack
    // (resumes when this peer's acks advance).
    SeqNum limit = last;
    if (opts.send_window > 0) {
      SeqNum acked = acks.get(StabilityTypeRegistry::kReceived, peer);
      limit = std::min(limit, acked + static_cast<SeqNum>(opts.send_window));
    }
    while (cursor <= limit) {
      const auto* slot = out_.get(cursor);
      if (!slot) {
        ++cursor;
        continue;
      }
      if (coalesce && coalescable(*slot)) {
        // Greedily gather the run of consecutive small slots that fits the
        // batch bounds.
        SeqNum first = cursor;
        size_t count = 0;
        size_t bytes = 0;
        while (cursor <= limit && count < opts.coalesce_max_frames) {
          const auto* s = out_.get(cursor);
          if (!s || !coalescable(*s)) break;
          size_t cost = 12 + s->payload.size() + s->virtual_size;
          if (count > 0 && bytes + cost > opts.coalesce_max_bytes) break;
          bytes += cost;
          ++count;
          ++cursor;
        }
        if (count >= 2)
          transmit_batch(peer, first, count);
        else
          transmit(peer, *out_.get(first));
        continue;
      }
      transmit(peer, *slot);
      ++cursor;
    }
  }
  STAB_OBS(node_.ctr_.flush_pending());
}

void OutStream::probe() {
  if (out_.empty()) return;
  const AckTable& acks = node_.engines_[origin_]->acks();
  for (NodeId peer = 0; peer < acked_at_probe_.size(); ++peer) {
    if (!is_destination(peer)) continue;
    SeqNum acked = acks.get(StabilityTypeRegistry::kReceived, peer);
    // Only a peer that is behind and whose ack has not moved since the last
    // probe: progress means the pipe works, so give it time.
    if (acked < out_.last() && acked <= acked_at_probe_[peer])
      resend(peer, acked + 1, out_.last());
    acked_at_probe_[peer] = acked;
  }
}

bool OutStream::resend(NodeId peer, SeqNum from, SeqNum to) {
  if (peer >= next_to_send_.size() || !is_destination(peer)) return false;
  // Clamping both ends into the buffer first keeps the arithmetic below in
  // range whatever seqs the peer names.
  from = std::max(from, out_.base());
  to = std::min({to, out_.last(), next_to_send_[peer] - 1});
  if (from > to) return true;
  const SeqNum window = static_cast<SeqNum>(node_.options_.retransmit_window);
  if (to - from >= window) to = from + window - 1;
  for (SeqNum s = from; s <= to; ++s) {
    transmit(peer, *out_.get(s));
    STAB_OBS(node_.ctr_.retransmits_sent.inc());
  }
  return true;
}

void OutStream::reclaim() {
  if (out_.empty()) return;
  const AckTable& acks = node_.engines_[origin_]->acks();
  SeqNum floor = out_.last();
  for (NodeId peer = 0; peer < next_to_send_.size(); ++peer) {
    if (!is_destination(peer)) continue;
    floor = std::min(floor, acks.get(StabilityTypeRegistry::kReceived, peer));
  }
  if (floor >= out_.base()) {
    out_.reclaim_through(floor);
    reclaimed_ = floor;
  }
}

void OutStream::rewind(NodeId peer, SeqNum from) {
  from = std::max(from, out_.base());
  if (next_to_send_[peer] > from) next_to_send_[peer] = from;
  acked_at_probe_[peer] = kNoSeq;
}

void OutStream::restart_cursors() {
  const AckTable& acks = node_.engines_[origin_]->acks();
  for (NodeId peer = 0; peer < next_to_send_.size(); ++peer) {
    if (peer == node_.options_.self) continue;
    SeqNum acked = acks.get(StabilityTypeRegistry::kReceived, peer);
    next_to_send_[peer] = std::max<SeqNum>(out_.base(), acked + 1);
  }
}

bool OutStream::coalescable(const data::OutBuffer::Slot& slot) const {
  return 12 + slot.payload.size() + slot.virtual_size <=
         node_.options_.coalesce_max_bytes;
}

void OutStream::transmit(NodeId dst, const data::OutBuffer::Slot& slot) {
  // Encode-once: the first transmission of this message (to any peer, or
  // as a retransmit) fills the slot's frame cache; everything after reuses
  // the refcounted buffer.
  if (!slot.encoded) {
    slot.encoded = std::make_shared<const Bytes>(
        data::encode_data(origin_, slot.seq, slot.payload, slot.virtual_size,
                          node_.stream_epoch_[origin_]));
    STAB_OBS(++node_.ctr_.pending_data_encodes);
  }
  uint64_t wire = slot.encoded->size() + slot.virtual_size;
  node_.transport_.send_shared(dst, slot.encoded, wire);
  STAB_OBS({
    ++node_.ctr_.pending_shared_sends;
    ++node_.ctr_.pending_frames_transmitted;
  });
  STAB_TRACE(node_.tracer_, node_.transport_.env().now(),
             obs::SpanEvent::kTransmit, node_.options_.self, origin_,
             slot.seq, dst);
}

void OutStream::transmit_batch(NodeId dst, SeqNum first, size_t count) {
  if (!(batch_first_ == first && batch_count_ == count && batch_frame_)) {
    data::DataBatchFrame batch;
    batch.origin = origin_;
    batch.primary_epoch = node_.stream_epoch_[origin_];
    batch.first_seq = first;
    batch.entries.reserve(count);
    uint64_t virtual_total = 0;
    for (size_t i = 0; i < count; ++i) {
      const auto* slot = out_.get(first + static_cast<SeqNum>(i));
      batch.entries.push_back(
          data::DataBatchFrame::Entry{BytesView(slot->payload),
                                      slot->virtual_size});
      virtual_total += slot->virtual_size;
    }
    batch_frame_ = std::make_shared<const Bytes>(data::encode(batch));
    batch_first_ = first;
    batch_count_ = count;
    batch_wire_ = batch_frame_->size() + virtual_total;
    STAB_OBS({
      ++node_.ctr_.pending_data_encodes;
      node_.ctr_.batch_frames.record(count);
    });
  }
  node_.transport_.send_shared(dst, batch_frame_, batch_wire_);
  STAB_OBS({
    ++node_.ctr_.pending_shared_sends;
    node_.ctr_.pending_frames_transmitted += count;
    node_.ctr_.pending_frames_coalesced += count;
  });
#if STAB_OBS_ENABLED
  if (STAB_TRACE_WANTS(node_.tracer_, obs::SpanEvent::kTransmit)) {
    TimePoint now = node_.transport_.env().now();
    for (size_t i = 0; i < count; ++i)
      node_.tracer_->record(now, obs::SpanEvent::kTransmit, node_.options_.self,
                            origin_, first + static_cast<SeqNum>(i), dst);
  }
#endif
}

}  // namespace stab
