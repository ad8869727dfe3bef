#include "obs/trace.hpp"

#include <ostream>

namespace stab::obs {

const char* span_event_name(SpanEvent ev) {
  switch (ev) {
    case SpanEvent::kBroadcast: return "broadcast";
    case SpanEvent::kTransmit: return "transmit";
    case SpanEvent::kDeliver: return "deliver";
    case SpanEvent::kAckReport: return "ack_report";
    case SpanEvent::kFrontierFire: return "frontier_fire";
    case SpanEvent::kLeaseExpire: return "lease_expire";
    case SpanEvent::kSuspect: return "suspect";
    case SpanEvent::kPromote: return "promote";
    case SpanEvent::kTakeoverApply: return "takeover_apply";
    case SpanEvent::kFenceDrop: return "fence_drop";
  }
  return "unknown";
}

Tracer::Tracer(size_t capacity, EventMask mask)
    : capacity_(capacity), mask_(mask) {
  records_.reserve(capacity < 4096 ? capacity : 4096);
}

void Tracer::record(TimePoint t, SpanEvent ev, NodeId node, NodeId origin,
                    SeqNum seq, NodeId peer, std::string_view detail) {
  if (!wants(ev)) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (records_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  Record r;
  r.t = t;
  r.ev = ev;
  r.node = node;
  r.origin = origin;
  r.seq = seq;
  r.peer = peer;
  r.shard = shard_;
  r.detail.assign(detail.data(), detail.size());
  records_.push_back(std::move(r));
}

void Tracer::set_shard(int32_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  shard_ = shard;
}

int32_t Tracer::shard() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shard_;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  dropped_ = 0;
}

std::vector<Tracer::Record> Tracer::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

void Tracer::export_jsonl(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Record& r : records_) {
    out << "{\"t_ns\":" << r.t.count() << ",\"ev\":\"" << span_event_name(r.ev)
        << "\",\"node\":" << r.node << ",\"origin\":" << r.origin
        << ",\"seq\":" << r.seq;
    if (r.peer != kInvalidNode) out << ",\"peer\":" << r.peer;
    if (r.shard >= 0) out << ",\"shard\":" << r.shard;
    if (!r.detail.empty()) out << ",\"detail\":\"" << r.detail << "\"";
    out << "}\n";
  }
  // A truncated trace must say so in-band: offline joins (bench/
  // trace_timeline) would otherwise read a capacity-clipped history as a
  // complete one. Omitted entirely when nothing was dropped, so exports of
  // complete traces are unchanged.
  if (dropped_ > 0)
    out << "{\"summary\":\"trace_dropped\",\"dropped\":" << dropped_
        << ",\"kept\":" << records_.size() << "}\n";
}

}  // namespace stab::obs
