#include "core/report_plane.hpp"

#include <algorithm>

#include "core/stabilizer.hpp"

namespace stab {

ReportPlane::ReportPlane(Stabilizer& node)
    : node_(node), nodes_(node.options_.topology.num_nodes()) {
  const StabilizerOptions& o = node.options_;
  // An AZ that names no aggregator reports directly.
  if (o.aggregate_reports)
    aggregator_ = o.topology.aggregator_for(o.self).value_or(kInvalidNode);
  std::vector<NodeId> reporters{o.self};
  if (aggregator_ == o.self)
    reporters = o.topology.nodes_in_az(o.topology.az_of(o.self));
  std::sort(reporters.begin(), reporters.end());
  row_of_.assign(nodes_, kNoRow);
  rows_.resize(reporters.size());
  for (size_t r = 0; r < reporters.size(); ++r) {
    rows_[r].reporter = reporters[r];
    row_of_[reporters[r]] = r;
  }
  own_ = row_of_[o.self];
  reports_.forwarder = o.self;
  acks_.reporter = o.self;
  widen(node.types_.count());
}

void ReportPlane::widen(size_t types) {
  if (types <= types_) return;
  types_ = types;
  for (Row& row : rows_) row.pending.resize(types_ * nodes_, kNoSeq);
  issued_.resize(types_ * nodes_, kNoSeq);
  extra_.resize(types_ * nodes_);
}

bool ReportPlane::raise(Row& row, size_t c, SeqNum seq) {
  SeqNum& cur = row.pending[c];
  if (seq <= cur) return false;  // monotonic coalescing
  if (cur == kNoSeq) ++row.count;
  cur = seq;
  return true;
}

void ReportPlane::note(NodeId about, StabilityTypeId type, SeqNum seq,
                       BytesView extra) {
  widen(static_cast<size_t>(type) + 1);
  const size_t c = cell(about, type);
  issued_[c] = std::max(issued_[c], seq);
  if (!raise(rows_[own_], c, seq)) return;
  extra_[c].assign(extra.begin(), extra.end());
  arm();
}

void ReportPlane::renote_issued() {
  Row& own = rows_[own_];
  for (size_t c = 0; c < issued_.size(); ++c)
    if (issued_[c] != kNoSeq && raise(own, c, issued_[c])) extra_[c].clear();
  if (own.count > 0) arm();
}

bool ReportPlane::absorbs_from(NodeId src) const {
  return src < nodes_ && src != node_.options_.self && row_of_[src] != kNoRow;
}

bool ReportPlane::absorb(const data::ReportBlockView& block) {
  const size_t r = block.reporter < nodes_ ? row_of_[block.reporter] : kNoRow;
  if (r == kNoRow || r == own_) return false;
  Row& row = rows_[r];
  row.epoch = std::max(row.epoch, block.primary_epoch);
  for (const data::ReportEntry& e : block.entries) {
    // Indices come off the wire. The decoder bounds the type below
    // kMaxStabilityTypes, but it may be one this node never registered.
    if (e.about_origin >= nodes_) continue;
    widen(static_cast<size_t>(e.type) + 1);
    raise(row, cell(e.about_origin, e.type), e.seq);
  }
  if (row.count > 0) arm();
  return true;
}

void ReportPlane::arm() {
  Stabilizer& n = node_;
  if (armed_ || n.stopped_) return;
  if (n.options_.ack_interval <= Duration::zero()) {
    flush();
    return;
  }
  armed_ = true;
  timer_ = n.env().schedule_after(n.options_.ack_interval, [this] {
    std::lock_guard<std::recursive_mutex> lock(node_.mutex_);
    armed_ = false;
    timer_ = kInvalidTimer;
    if (!node_.stopped_) flush();
  });
}

void ReportPlane::stop() {
  if (timer_ != kInvalidTimer) node_.env().cancel(timer_);
  timer_ = kInvalidTimer;
}

NodeId ReportPlane::route_aggregator() {
  Stabilizer& n = node_;
  const NodeId g = aggregator_;
  if (g == kInvalidNode || g == n.options_.self) return kInvalidNode;
  // A dead or deposed aggregator must not become a control-plane black
  // hole: excluded (crash reaction), stalled (no ack progress) or fenced
  // (everything it forwards would be dropped as zombie output) all mean
  // "bypass and send directly". The stall and RESUME machinery flips these
  // back when the aggregator heals.
  if (n.excluded_[g] || n.stalled_[g] || n.stream_primary_[g] != g) {
    n.ctr_.agg_fallback_direct.inc();
    return kInvalidNode;
  }
  return g;
}

void ReportPlane::flush() {
  bool any = false;
  for (const Row& row : rows_) any = any || row.count > 0;
  if (!any) return;
  Stabilizer& n = node_;
  const NodeId self = n.options_.self;
  n.ctr_.deferred_flushes.inc();
  rows_[own_].epoch = n.stream_epoch_[self];

  const NodeId agg = route_aggregator();
  if (agg != kInvalidNode && take_plain(0, nodes_)) send(true, agg);
  if (n.options_.broadcast_acks) {
    if (agg == kInvalidNode && take_plain(0, nodes_)) send(true, kInvalidNode);
    if (take_extra(0, nodes_)) send(false, kInvalidNode);
  } else {
    // Origin-scoped: each stream's authority (its origin, or its acting
    // primary after a failover) gets only the reports about that stream.
    for (NodeId about = 0; about < nodes_; ++about) {
      const NodeId to = n.stream_primary_[about];
      if (about == self || to == self || n.excluded_[to]) continue;
      if (agg == kInvalidNode && take_plain(about, about + 1))
        send(true, to);
      if (take_extra(about, about + 1)) send(false, to);
    }
  }
  // What no destination wanted (reports about this node's own stream, or
  // one whose authority is excluded) is dropped.
  for (Row& row : rows_) {
    if (row.count == 0) continue;
    std::fill(row.pending.begin(), row.pending.end(), kNoSeq);
    row.count = 0;
  }
  for (Bytes& extra : extra_) extra.clear();
  // The periodic control flush doubles as the fold point for the batched
  // data-plane deltas, so receive-side counters stay at most one
  // ack_interval stale (metrics() folds on read anyway).
  n.ctr_.flush_pending();
}

bool ReportPlane::take_plain(NodeId lo, NodeId hi) {
  reports_.blocks.clear();
  for (size_t r = 0; r < rows_.size(); ++r) {
    Row& row = rows_[r];
    if (row.count == 0) continue;
    row.block.reporter = row.reporter;
    row.block.primary_epoch = row.epoch;
    row.block.entries.clear();
    for (NodeId about = lo; about < hi; ++about)
      for (StabilityTypeId t = 0; t < types_; ++t) {
        const size_t c = cell(about, t);
        const SeqNum seq = row.pending[c];
        if (seq == kNoSeq || (r == own_ && !extra_[c].empty())) continue;
        row.block.entries.push_back(data::ReportEntry{about, t, seq});
        if (r == own_) trace(about, t, seq);  // relays are traced at source
        row.pending[c] = kNoSeq;
        --row.count;
      }
    if (!row.block.entries.empty())
      reports_.blocks.push_back(std::move(row.block));
  }
  return !reports_.blocks.empty();
}

bool ReportPlane::take_extra(NodeId lo, NodeId hi) {
  acks_.entries.clear();
  Row& own = rows_[own_];
  acks_.primary_epoch = own.epoch;
  if (own.count == 0) return false;
  for (NodeId about = lo; about < hi; ++about)
    for (StabilityTypeId t = 0; t < types_; ++t) {
      const size_t c = cell(about, t);
      const SeqNum seq = own.pending[c];
      if (seq == kNoSeq || extra_[c].empty()) continue;
      acks_.entries.push_back(
          data::AckEntry{about, t, seq, std::move(extra_[c])});
      trace(about, t, seq);
      own.pending[c] = kNoSeq;
      --own.count;
    }
  return !acks_.entries.empty();
}

void ReportPlane::send(bool plain, NodeId to) {
  Stabilizer& n = node_;
  Bytes encoded = plain ? data::encode(reports_) : data::encode(acks_);
  size_t entries = acks_.entries.size();
  if (plain) {
    entries = 0;
    for (const data::ReportBlock& b : reports_.blocks)
      entries += b.entries.size();
  }
  (plain ? n.ctr_.report_flush_entries : n.ctr_.ack_flush_entries)
      .record(entries);
  if (plain) {
    // Hand each block's buffer back to its row.
    for (data::ReportBlock& b : reports_.blocks)
      rows_[row_of_[b.reporter]].block = std::move(b);
    reports_.blocks.clear();
  }
  const auto sent = [&n, plain, size = encoded.size()] {
    (plain ? n.ctr_.report_batches_sent : n.ctr_.ack_batches_sent).inc();
    (plain ? n.ctr_.report_bytes_sent : n.ctr_.ack_bytes_sent).inc(size);
  };
  if (to != kInvalidNode) {
    sent();
    n.transport_.send(to, std::move(encoded));
    return;
  }
  // One encode, fanned out refcounted: reports ride the same zero-copy
  // path as the data plane.
  auto shared = std::make_shared<const Bytes>(std::move(encoded));
  for (NodeId peer = 0; peer < nodes_; ++peer) {
    if (peer == n.options_.self || n.excluded_[peer]) continue;
    n.transport_.send_shared(peer, shared);
    ++n.ctr_.pending_shared_sends;
    sent();
  }
}

void ReportPlane::trace(NodeId about, StabilityTypeId type,
                        SeqNum seq) const {
  const Stabilizer& n = node_;
  if (n.tracer_ && n.tracer_->wants(obs::SpanEvent::kAckReport))
    n.tracer_->record(n.transport_.env().now(), obs::SpanEvent::kAckReport,
                      n.options_.self, about, seq, kInvalidNode,
                      n.types_.name(type));
}

}  // namespace stab
