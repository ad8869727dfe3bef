// Message-lifecycle tracer (docs/OBSERVABILITY.md §3).
//
// A Tracer records per-sequence spans of the Stabilizer pipeline:
//
//   broadcast ──► transmit(peer)* ──► deliver ──► ack_report* ──► frontier_fire*
//   (origin)      (origin, per peer)  (receiver)  (receiver)      (any observer)
//
// Timestamps come from the caller's active Env clock, so a trace taken on
// the deterministic simulator is bit-for-bit reproducible per seed (the
// chaos acceptance campaign pins this), while the real-time transports
// stamp wall-clock nanoseconds. Recording is opt-in per node: a Stabilizer
// traces iff StabilizerOptions::tracer is set; several nodes may share one
// Tracer to get a single cluster-wide interleaved timeline (what SimCluster
// campaigns do — the sim's FIFO event order makes the interleaving itself
// deterministic).
//
// The record buffer is bounded: once `capacity` records exist, further
// records are counted in dropped() and discarded (deterministically — the
// kept prefix is append-ordered). Subscribe to a subset of events via the
// constructor mask to spend the budget on the spans you care about.
//
// Thread safety: record() and the accessors take an internal mutex — the
// InProc and TCP transports call back from their own threads. Per-record
// cost when attached is one lock + a 64-byte append; when detached the
// instrumentation macros reduce to a null check (see obs/obs.hpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace stab::obs {

enum class SpanEvent : uint8_t {
  kBroadcast = 0,     // send() sequenced a local message
  kTransmit = 1,      // a DATA/DATABATCH transmission to one peer
  kDeliver = 2,       // in-order delivery upcall at a receiver
  kAckReport = 3,     // a stability report left in an ACKBATCH flush
  kFrontierFire = 4,  // a predicate's frontier advanced (detail = key)
  // Failover episode markers (origin = the guarded stream):
  kLeaseExpire = 5,    // a mirror's lease on the primary ran out
  kSuspect = 6,        // suspicion broadcast (seq = local delivered cursor)
  kPromote = 7,        // this node won promotion (seq = adopted start seq)
  kTakeoverApply = 8,  // a TAKEOVER was applied (peer = new primary)
  kFenceDrop = 9,      // a frame was fenced (detail = reason)
};

/// Bit mask of SpanEvents a Tracer subscribes to.
using EventMask = uint32_t;
inline constexpr EventMask event_bit(SpanEvent ev) {
  return EventMask{1} << static_cast<uint8_t>(ev);
}
inline constexpr EventMask kAllEvents = 0x3FF;
/// The five message-lifecycle spans (the pre-failover event set) — chaos
/// campaigns that only care about per-message timelines subscribe to these.
inline constexpr EventMask kLifecycleEvents = 0x1F;
/// The failover episode markers.
inline constexpr EventMask kEpisodeEvents = kAllEvents & ~kLifecycleEvents;

const char* span_event_name(SpanEvent ev);

class Tracer {
 public:
  struct Record {
    TimePoint t = kTimeZero;           // active Env clock at record time
    SpanEvent ev = SpanEvent::kBroadcast;
    NodeId node = kInvalidNode;        // node the event happened on
    NodeId origin = kInvalidNode;      // stream the sequence belongs to
    SeqNum seq = kNoSeq;
    NodeId peer = kInvalidNode;        // transmit dst / deliver src / report subject
    int32_t shard = -1;                // recording instance's shard (-1 = unsharded)
    std::string detail;                // predicate key / stability type name
  };

  explicit Tracer(size_t capacity = 1 << 20, EventMask mask = kAllEvents);

  /// True iff this tracer subscribes to `ev` — check before loops that
  /// would produce one record per element.
  bool wants(SpanEvent ev) const { return (mask_ & event_bit(ev)) != 0; }

  /// Append one record (dropped silently past capacity; see dropped()).
  void record(TimePoint t, SpanEvent ev, NodeId node, NodeId origin,
              SeqNum seq, NodeId peer = kInvalidNode,
              std::string_view detail = {});

  /// Shard dimension (DESIGN.md §9): every record appended after this call
  /// is stamped with `shard`, and export_jsonl emits it as a "shard" field —
  /// so a sharded node's per-shard tracers merge into one timeline without
  /// losing attribution. -1 (the default) leaves records unstamped and the
  /// export format unchanged. Call before traffic starts (a sharded facade
  /// stamps its per-shard tracers at construction); not synchronized against
  /// in-flight record() calls beyond the record mutex.
  void set_shard(int32_t shard);
  int32_t shard() const;

  size_t size() const;
  uint64_t dropped() const;
  void clear();

  /// Copy of the records (tests / offline analysis).
  std::vector<Record> records() const;

  /// JSON-lines export, one record per line in append order:
  ///   {"t_ns":..,"ev":"deliver","node":1,"origin":0,"seq":7,"peer":0}
  /// "peer", "shard", and "detail" are omitted when unset; no other
  /// optional fields — byte-identical across runs whenever the recorded
  /// history is identical.
  void export_jsonl(std::ostream& out) const;

 private:
  const size_t capacity_;
  const EventMask mask_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
  uint64_t dropped_ = 0;
  int32_t shard_ = -1;  // stamped into every record; under mu_
};

}  // namespace stab::obs
