// Wire protocol of the Stabilizer data and control planes.
//
// Six frame families share each transport link:
//   * DATA     — sequenced payload of one origin's stream (data plane),
//   * DATABATCH— several consecutive small DATA frames of one stream packed
//     into a single transport frame (the data-plane fast path's small-frame
//     coalescing; receivers unpack and run the ordinary per-message path, so
//     FIFO order and the receive stream see no difference),
//   * NACK     — a receive stream's repair request to the stream's primary:
//     "resend [from, to] of this stream", sent once per new hole (data
//     plane; the primary resends exactly that range),
//   * ACKBATCH — batched monotonic stability reports that carry extra
//     application bytes (control plane),
//   * RESUME   — a restarted node's session announcement: "I am epoch E and
//     hold your stream through seq S"; the receiver rewinds its send
//     cursor to S+1 and re-issues its cumulative reports (crash–restart
//     rejoin),
//   * REPORTBATCH — the plain (extra-free) monotonic reports of one or
//     more reporters in a single frame: every node's report flush carries
//     its own block, and an AZ aggregator's also carries the blocks it
//     max-merged from its members, forwarded long-haul as one frame.
//     Reports carrying extra bytes travel on ACKBATCH.
// Control frames are tiny and sent continuously; data frames stream as fast
// as the link allows — the paper's control/data separation means neither
// ever blocks waiting for the other.
//
// Kind bytes >= 0x40 are reserved for application frames multiplexed onto
// the same links (Stabilizer::send_raw); peek_kind reports them as unknown.
//
// Every encoder precomputes its exact frame size so encoding is a single
// allocation (Writer never grows mid-encode).
#pragma once

#include <cstddef>
#include <cstring>
#include <iterator>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace stab::data {

enum class FrameKind : uint8_t {
  kData = 1,
  kAckBatch = 2,
  kResume = 3,
  kDataBatch = 4,
  kReportBatch = 5,
  kNack = 6,
};

struct DataFrame {
  NodeId origin = kInvalidNode;
  SeqNum seq = kNoSeq;
  Bytes payload;
  /// Bytes of payload that exist only "on the wire" (trace replay padding);
  /// receivers see it via the transport's wire_size.
  uint64_t virtual_size = 0;
  /// Epoch of the stream's sequencing authority (failover fencing): receivers
  /// drop frames stamped with an epoch older than the one they have learned
  /// for `origin`'s stream, which silences a zombie ex-primary.
  PrimaryEpoch primary_epoch = 0;
};

/// Zero-copy view of one decoded DATA message: `payload` aliases the frame
/// buffer it was decoded from (or, on the send side, an OutBuffer slot) and
/// is valid only while that buffer lives. The hot receive path uses this
/// instead of DataFrame to avoid one payload copy per delivery.
struct DataView {
  NodeId origin = kInvalidNode;
  SeqNum seq = kNoSeq;
  BytesView payload;
  uint64_t virtual_size = 0;
  PrimaryEpoch primary_epoch = 0;
};

/// A run of consecutive messages of one origin's stream: entry i carries
/// seq first_seq + i. Entries are views for the same reason as DataView —
/// encode packs OutBuffer slots without copying, decode hands out slices of
/// the arriving frame. An encoded batch is never empty.
struct DataBatchFrame {
  NodeId origin = kInvalidNode;
  SeqNum first_seq = kNoSeq;
  /// One epoch for the whole batch: a batch is packed from one sender's
  /// contiguous send-buffer run, which is always issued under one authority.
  PrimaryEpoch primary_epoch = 0;
  struct Entry {
    BytesView payload;
    uint64_t virtual_size = 0;
  };
  std::vector<Entry> entries;
};

struct AckEntry {
  NodeId about_origin = kInvalidNode;  // whose stream the report concerns
  StabilityTypeId type = 0;
  SeqNum seq = kNoSeq;
  Bytes extra;  // uninterpreted application bytes (usually empty)
};

struct AckBatchFrame {
  NodeId reporter = kInvalidNode;
  /// The reporter's own-stream primary epoch at send time. A deposed
  /// ex-primary keeps stamping the epoch it was fenced at, so receivers can
  /// reject its whole control-plane output (acks from a zombie are truthful
  /// receipts but must not keep influencing reclamation/flow control once
  /// the cluster has moved on).
  PrimaryEpoch primary_epoch = 0;
  std::vector<AckEntry> entries;
};

/// One plain monotonic report: "reporter's `type` frontier on `about_origin`'s
/// stream has reached `seq`". The extra-free subset of AckEntry — anything
/// carrying application bytes travels on ACKBATCH.
struct ReportEntry {
  NodeId about_origin = kInvalidNode;
  StabilityTypeId type = 0;
  SeqNum seq = kNoSeq;
};

/// One reporter's flushed cumulative vector inside a REPORTBATCH. The epoch
/// is the *reporter's* own-stream primary epoch (not the forwarder's): an
/// aggregator relays vectors it did not produce, and fencing must judge the
/// node whose receipts these are.
struct ReportBlock {
  NodeId reporter = kInvalidNode;
  PrimaryEpoch primary_epoch = 0;
  std::vector<ReportEntry> entries;
};

/// The plain-report control frame: the merged report vectors of
/// `blocks.size()` reporters. A node's flush carries one block (its own); an
/// aggregator's long-haul flush also carries one block per AZ member it has
/// absorbed since its last flush. Receivers apply every block exactly as if it had arrived as
/// that reporter's own ACKBATCH — merging is associative because reports are
/// cumulative maxima.
struct ReportBatchFrame {
  /// The node that encoded and sent this frame (mirror or aggregator). Used
  /// for aggregator loop prevention, not for fencing — fencing is per block.
  NodeId forwarder = kInvalidNode;
  std::vector<ReportBlock> blocks;
};

// --- zero-copy control-frame views ---------------------------------------------
// The receive path reads ACKBATCH and REPORTBATCH in place, as it reads DATA
// through DataView: the decoder validates the whole frame up front and hands
// out ranges that parse each record from the frame bytes as they are
// iterated, so decoding allocates nothing and iteration cannot fail. Like
// DataView, a view (and every BytesView it yields) is valid only while the
// frame buffer it was decoded from lives. The views mirror the owning
// structs' field names, so `for (e : frame.entries)` reads the same on both.

namespace detail {

template <typename T>
T load(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// `count` records packed back to back in an already validated buffer.
/// `Codec::read(p)` parses the record at p; `Codec::size(p)` is its length.
template <typename Codec>
class PackedRange {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = typename Codec::value_type;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = value_type;

    iterator() = default;
    iterator(const uint8_t* p, uint32_t left) : p_(p), left_(left) {}
    value_type operator*() const { return Codec::read(p_); }
    iterator& operator++() {
      p_ += Codec::size(p_);
      --left_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const iterator& o) const { return left_ == o.left_; }

   private:
    const uint8_t* p_ = nullptr;
    uint32_t left_ = 0;
  };

  PackedRange() = default;
  PackedRange(const uint8_t* first, uint32_t count)
      : first_(first), count_(count) {}
  iterator begin() const { return {first_, count_}; }
  iterator end() const { return {}; }
  uint32_t size() const { return count_; }

 private:
  const uint8_t* first_ = nullptr;
  uint32_t count_ = 0;
};

}  // namespace detail

/// One ACKBATCH entry read in place; `extra` aliases the frame.
struct AckEntryView {
  NodeId about_origin = kInvalidNode;
  StabilityTypeId type = 0;
  SeqNum seq = kNoSeq;
  BytesView extra;
};

namespace detail {
struct AckEntryCodec {  // u32 origin | u32 type | i64 seq | blob extra
  using value_type = AckEntryView;
  static AckEntryView read(const uint8_t* p) {
    return {load<uint32_t>(p), load<uint32_t>(p + 4), load<int64_t>(p + 8),
            BytesView(p + 20, load<uint32_t>(p + 16))};
  }
  static size_t size(const uint8_t* p) { return 20 + load<uint32_t>(p + 16); }
};
struct ReportEntryCodec {  // u32 origin | u32 type | i64 seq
  using value_type = ReportEntry;
  static ReportEntry read(const uint8_t* p) {
    return {load<uint32_t>(p), load<uint32_t>(p + 4), load<int64_t>(p + 8)};
  }
  static size_t size(const uint8_t*) { return 16; }
};
}  // namespace detail

struct AckBatchView {
  NodeId reporter = kInvalidNode;
  PrimaryEpoch primary_epoch = 0;
  detail::PackedRange<detail::AckEntryCodec> entries;
};

/// One REPORTBATCH block read in place.
struct ReportBlockView {
  NodeId reporter = kInvalidNode;
  PrimaryEpoch primary_epoch = 0;
  detail::PackedRange<detail::ReportEntryCodec> entries;
};

namespace detail {
struct ReportBlockCodec {  // u32 reporter | u32 epoch | u32 n | n x entry
  using value_type = ReportBlockView;
  static ReportBlockView read(const uint8_t* p) {
    return {load<uint32_t>(p), load<uint32_t>(p + 4),
            PackedRange<ReportEntryCodec>(p + 12, load<uint32_t>(p + 8))};
  }
  static size_t size(const uint8_t* p) {
    return 12 + size_t{16} * load<uint32_t>(p + 8);
  }
};
}  // namespace detail

struct ReportBatchView {
  NodeId forwarder = kInvalidNode;
  detail::PackedRange<detail::ReportBlockCodec> blocks;
};

/// A mirror's request to resend the seqs [from, to] of `origin`'s stream,
/// sent to the stream's current primary. `primary_epoch` is the stream
/// epoch the mirror has learned: the primary ignores a NACK for an epoch
/// other than its own (a stale one names another authority's sequence
/// space). A NACK asks for frames the mirror never received, so it never
/// advances anything by itself; a lost NACK leaves the repair to the
/// retransmit probe.
struct NackFrame {
  NodeId origin = kInvalidNode;
  PrimaryEpoch primary_epoch = 0;
  SeqNum from = kNoSeq;
  SeqNum to = kNoSeq;  // inclusive; from <= to on the wire
};

/// Session announcement from a restarted peer, tailored per destination.
/// Duplicate delivery is harmless: receivers ignore epochs they have
/// already processed, so the sender re-announces (from the retransmit
/// probe) until the destination's RESUME *reply* confirms receipt — only a
/// frame sent causally after the announcement proves the announcement
/// arrived; unrelated in-flight ack traffic proves nothing.
struct ResumeFrame {
  NodeId sender = kInvalidNode;
  uint64_t epoch = 0;  // sender's new session epoch (>= 1 after a restart)
  /// Highest seq of the *destination's* stream the sender holds
  /// contiguously; the destination rewinds its cursor to this + 1.
  SeqNum receive_through = kNoSeq;
  /// false: announcement — the receiver must answer with a reply carrying
  /// its own (epoch, receive_through). true: reply — never answered, which
  /// dampens the exchange to announcement -> reply even when both sides
  /// restarted concurrently.
  bool reply = false;
  /// The sender's own-stream primary epoch (failover fencing, same rule as
  /// AckBatchFrame::primary_epoch): a fenced ex-primary's RESUME must not
  /// rewind anyone's send cursor.
  PrimaryEpoch primary_epoch = 0;
};

/// Shard-tagged link envelope (DESIGN.md §9). A keyspace-sharded node runs
/// one Stabilizer instance per shard; when several shards multiplex one
/// transport link, every frame of shard s travels wrapped in
///   SHARD  u8 kind (0x50) | u16 shard | inner frame bytes
/// so the receiving ShardMux can demultiplex straight into shard s's
/// delivery path without touching any other shard's locks. The envelope is
/// a *transport-layer* construct: it claims one kind byte (0x50) of the
/// application range, and the wrapped inner frame — DATA, ACKBATCH, or any
/// raw application frame — is what the shard's Stabilizer sees.
inline constexpr uint8_t kShardEnvelopeKind = 0x50;
inline constexpr size_t kShardEnvelopeBytes = 1 + 2;  // kind + u16 shard

/// Zero-copy view of a decoded shard envelope: `inner` aliases `frame`.
struct ShardFrameView {
  uint32_t shard = 0;
  BytesView inner;
};

Bytes encode_shard_frame(uint32_t shard, BytesView inner);
/// True iff the leading kind byte is the shard envelope.
bool is_shard_frame(BytesView frame);
/// Throws CodecError on malformed input (including shard > u16 range at
/// encode time — a mux never has 65k shards).
ShardFrameView decode_shard_view(BytesView frame);

Bytes encode(const DataFrame& frame);
Bytes encode(const AckBatchFrame& frame);
Bytes encode(const ResumeFrame& frame);
Bytes encode(const NackFrame& frame);
/// Throws std::invalid_argument on an empty batch (an empty batch is never
/// a valid wire frame, so producing one is a programming error).
Bytes encode(const DataBatchFrame& frame);
/// Throws std::invalid_argument when the frame has no blocks (a flush with
/// nothing to say must simply not be sent). Empty *blocks* are allowed on
/// the wire but the Stabilizer never produces them.
Bytes encode(const ReportBatchFrame& frame);

/// Encode a DATA frame straight from a payload view (the encode-once path:
/// no intermediate DataFrame copy of the payload).
Bytes encode_data(NodeId origin, SeqNum seq, BytesView payload,
                  uint64_t virtual_size, PrimaryEpoch primary_epoch = 0);

/// Peeks the frame kind; nullopt on an empty buffer or an unknown /
/// application-reserved (>= 0x40) kind byte.
std::optional<FrameKind> peek_kind(BytesView frame);

/// Decoders throw CodecError on malformed input: a truncated frame, a count
/// that overruns the bytes left, or a stability type id at or above
/// kMaxStabilityTypes. They never size a buffer from a count they have not
/// checked against the frame, so hostile bytes cannot make them allocate.
DataFrame decode_data(BytesView frame);
/// Zero-copy decode: the returned payload aliases `frame`.
DataView decode_data_view(BytesView frame);
/// Zero-copy decode; throws CodecError on malformed input, on an empty
/// batch (the encoder never produces one) and on a batch whose last seq
/// would overflow SeqNum.
DataBatchFrame decode_data_batch(BytesView frame);
/// In-place decodes (see the views above): the whole frame is validated
/// here, so iterating the result never fails.
AckBatchView decode_ack_batch_view(BytesView frame);
ReportBatchView decode_report_batch_view(BytesView frame);
/// Owning decodes (copies of the views, for callers that keep frames).
AckBatchFrame decode_ack_batch(BytesView frame);
ReportBatchFrame decode_report_batch(BytesView frame);
ResumeFrame decode_resume(BytesView frame);
/// Also throws CodecError on a range with from > to.
NackFrame decode_nack(BytesView frame);

/// Fold every live thread's batched wire.* accumulator residue into the
/// process-wide registry (obs::global()), making the codec volume counters
/// exact at a quiesce point — node shutdown, end-of-run export, a scrape.
/// Callable from any thread; exact once codec traffic has stopped, bounded
/// best-effort (one in-flight batch may slide) while it hasn't.
void flush_wire_counters();

}  // namespace stab::data
