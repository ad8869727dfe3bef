#include "data/wire.hpp"

#include <limits>
#include <stdexcept>

#include "obs/obs.hpp"

#if STAB_OBS_ENABLED
#include <array>
#include <atomic>
#include <mutex>
#include <vector>
#endif

namespace stab::data {

// Codec-level accounting lives in the process-wide registry (obs::global()):
// the codec is stateless and has no node identity. Updates batch in a
// per-thread accumulator (one slot per call site) and fold into the shared
// counters every 16 ops, keeping the two atomic RMWs off the per-frame path.
//
// Flushability: every live thread's accumulator is registered in a global
// list, so flush_wire_counters() can fold the residue (up to 15 ops per
// site per thread) on demand — end-of-run exports read exact wire.* values
// (Stabilizer's destructor and the metrics endpoint both flush). The slots
// are relaxed atomics: the owning thread is the only writer mid-run (plain
// load/add/store, uncontended), and a flusher's exchange is only exact once
// the codec threads have quiesced — a mid-traffic flush can race an owner's
// read-modify-write and at worst re-home one in-flight batch, so live
// scrapes remain bounded-stale while quiesced reads are exact. A thread's
// accumulator also self-flushes when the thread exits.
#if STAB_OBS_ENABLED
namespace {

enum WireSite : size_t {
  kDataEnc,
  kBatchEnc,
  kAckEnc,
  kReportEnc,
  kResumeEnc,
  kNackEnc,
  kDataDec,
  kBatchDec,
  kAckDec,
  kReportDec,
  kResumeDec,
  kNackDec,
  kNumWireSites,
};

struct WireSiteCounters {
  obs::Counter* ops = nullptr;
  obs::Counter* bytes = nullptr;
};

std::array<WireSiteCounters, kNumWireSites>& site_counters() {
  // obs::global() is a leaky singleton, so these pointers stay valid
  // through shutdown (including the thread-exit self-flush below).
  static std::array<WireSiteCounters, kNumWireSites> tbl = [] {
    auto& g = obs::global();
    std::array<WireSiteCounters, kNumWireSites> t;
    t[kDataEnc] = {&g.counter("wire.data_encodes"),
                   &g.counter("wire.data_encode_bytes")};
    t[kBatchEnc] = {&g.counter("wire.batch_encodes"),
                    &g.counter("wire.batch_encode_bytes")};
    t[kAckEnc] = {&g.counter("wire.ack_encodes"),
                  &g.counter("wire.ack_encode_bytes")};
    t[kReportEnc] = {&g.counter("wire.report_encodes"),
                     &g.counter("wire.report_encode_bytes")};
    t[kResumeEnc] = {&g.counter("wire.resume_encodes"),
                     &g.counter("wire.resume_encode_bytes")};
    t[kNackEnc] = {&g.counter("wire.nack_encodes"),
                   &g.counter("wire.nack_encode_bytes")};
    t[kDataDec] = {&g.counter("wire.data_decodes"),
                   &g.counter("wire.data_decode_bytes")};
    t[kBatchDec] = {&g.counter("wire.batch_decodes"),
                    &g.counter("wire.batch_decode_bytes")};
    t[kAckDec] = {&g.counter("wire.ack_decodes"),
                  &g.counter("wire.ack_decode_bytes")};
    t[kReportDec] = {&g.counter("wire.report_decodes"),
                     &g.counter("wire.report_decode_bytes")};
    t[kResumeDec] = {&g.counter("wire.resume_decodes"),
                     &g.counter("wire.resume_decode_bytes")};
    t[kNackDec] = {&g.counter("wire.nack_decodes"),
                   &g.counter("wire.nack_decode_bytes")};
    return t;
  }();
  return tbl;
}

struct WireAccum {
  std::array<std::atomic<uint64_t>, kNumWireSites> ops{};
  std::array<std::atomic<uint64_t>, kNumWireSites> bytes{};

  WireAccum();
  ~WireAccum();

  void flush_self() {
    auto& tbl = site_counters();
    for (size_t s = 0; s < kNumWireSites; ++s) {
      const uint64_t n = ops[s].exchange(0, std::memory_order_relaxed);
      const uint64_t b = bytes[s].exchange(0, std::memory_order_relaxed);
      if (n) tbl[s].ops->inc(n);
      if (b) tbl[s].bytes->inc(b);
    }
  }
};

struct WireAccumList {
  std::mutex mu;
  std::vector<WireAccum*> live;
};

WireAccumList& accum_list() {
  static WireAccumList* l = new WireAccumList();  // leaky: thread-exit order
  return *l;
}

WireAccum::WireAccum() {
  std::lock_guard<std::mutex> lock(accum_list().mu);
  accum_list().live.push_back(this);
}

WireAccum::~WireAccum() {
  flush_self();
  std::lock_guard<std::mutex> lock(accum_list().mu);
  auto& live = accum_list().live;
  for (auto it = live.begin(); it != live.end(); ++it) {
    if (*it == this) {
      live.erase(it);
      break;
    }
  }
}

WireAccum& wire_accum() {
  thread_local WireAccum a;
  return a;
}

}  // namespace

#define WIRE_COUNT(site, nbytes)                                        \
  do {                                                                  \
    WireAccum& a_ = wire_accum();                                       \
    const uint64_t n_ =                                                 \
        a_.ops[site].load(std::memory_order_relaxed) + 1;               \
    const uint64_t b_ =                                                 \
        a_.bytes[site].load(std::memory_order_relaxed) + (nbytes);      \
    if (n_ >= 16) {                                                     \
      site_counters()[site].ops->inc(n_);                               \
      site_counters()[site].bytes->inc(b_);                             \
      a_.ops[site].store(0, std::memory_order_relaxed);                 \
      a_.bytes[site].store(0, std::memory_order_relaxed);               \
    } else {                                                            \
      a_.ops[site].store(n_, std::memory_order_relaxed);                \
      a_.bytes[site].store(b_, std::memory_order_relaxed);              \
    }                                                                   \
  } while (0)

void flush_wire_counters() {
  std::lock_guard<std::mutex> lock(accum_list().mu);
  for (WireAccum* a : accum_list().live) a->flush_self();
}

#else
#define WIRE_COUNT(site, nbytes) \
  do {                           \
  } while (0)

void flush_wire_counters() {}
#endif

// Frame layouts (all integers little-endian). Every family carries a u32
// primary epoch for failover fencing: DATA/DATABATCH stamp the epoch of the
// authority that sequenced the carried messages; ACKBATCH/RESUME stamp the
// sender's own-stream epoch (its credential that it has not been deposed).
//   DATA      u8 kind | u32 origin | u32 epoch | i64 seq | u64 virtual_size
//             | blob payload
//   DATABATCH u8 kind | u32 origin | u32 epoch | i64 first_seq | u32 count
//             | count x { blob payload | u64 virtual_size }
//   ACKBATCH  u8 kind | u32 reporter | u32 epoch | u32 count
//             | count x { u32 origin | u32 type | i64 seq | blob extra }
//   RESUME    u8 kind | u32 sender | u32 epoch_p | u64 epoch
//             | i64 receive_through | u8 reply
//   REPORTBATCH u8 kind | u32 forwarder | u32 nblocks
//             | nblocks x { u32 reporter | u32 epoch | u32 nentries
//               | nentries x { u32 origin | u32 type | i64 seq } }
//   NACK      u8 kind | u32 origin | u32 epoch | i64 from | i64 to
// REPORTBATCH carries the block reporters' epochs (not the forwarder's):
// an aggregator relays vectors it did not produce, so fencing is per block.
// NACK carries the epoch of the stream it names, as DATA does.

Bytes encode_data(NodeId origin, SeqNum seq, BytesView payload,
                  uint64_t virtual_size, PrimaryEpoch primary_epoch) {
  Writer w(1 + 4 + 4 + 8 + 8 + 4 + payload.size());
  w.u8(static_cast<uint8_t>(FrameKind::kData));
  w.u32(origin);
  w.u32(primary_epoch);
  w.i64(seq);
  w.u64(virtual_size);
  w.blob(payload);
  Bytes out = std::move(w).take();
  WIRE_COUNT(kDataEnc, out.size());
  return out;
}

Bytes encode(const DataFrame& frame) {
  return encode_data(frame.origin, frame.seq, frame.payload,
                     frame.virtual_size, frame.primary_epoch);
}

Bytes encode(const DataBatchFrame& frame) {
  if (frame.entries.empty())
    throw std::invalid_argument("DATABATCH must carry at least one message");
  size_t body = 0;
  for (const DataBatchFrame::Entry& e : frame.entries)
    body += 4 + e.payload.size() + 8;
  Writer w(1 + 4 + 4 + 8 + 4 + body);
  w.u8(static_cast<uint8_t>(FrameKind::kDataBatch));
  w.u32(frame.origin);
  w.u32(frame.primary_epoch);
  w.i64(frame.first_seq);
  w.u32(static_cast<uint32_t>(frame.entries.size()));
  for (const DataBatchFrame::Entry& e : frame.entries) {
    w.blob(e.payload);
    w.u64(e.virtual_size);
  }
  Bytes out = std::move(w).take();
  WIRE_COUNT(kBatchEnc, out.size());
  return out;
}

Bytes encode(const AckBatchFrame& frame) {
  size_t body = 0;
  for (const AckEntry& e : frame.entries) body += 4 + 4 + 8 + 4 + e.extra.size();
  Writer w(1 + 4 + 4 + 4 + body);
  w.u8(static_cast<uint8_t>(FrameKind::kAckBatch));
  w.u32(frame.reporter);
  w.u32(frame.primary_epoch);
  w.u32(static_cast<uint32_t>(frame.entries.size()));
  for (const AckEntry& e : frame.entries) {
    w.u32(e.about_origin);
    w.u32(e.type);
    w.i64(e.seq);
    w.blob(e.extra);
  }
  Bytes out = std::move(w).take();
  WIRE_COUNT(kAckEnc, out.size());
  return out;
}

Bytes encode(const ReportBatchFrame& frame) {
  if (frame.blocks.empty())
    throw std::invalid_argument("REPORTBATCH must carry at least one block");
  size_t body = 0;
  for (const ReportBlock& b : frame.blocks)
    body += 4 + 4 + 4 + b.entries.size() * (4 + 4 + 8);
  Writer w(1 + 4 + 4 + body);
  w.u8(static_cast<uint8_t>(FrameKind::kReportBatch));
  w.u32(frame.forwarder);
  w.u32(static_cast<uint32_t>(frame.blocks.size()));
  for (const ReportBlock& b : frame.blocks) {
    w.u32(b.reporter);
    w.u32(b.primary_epoch);
    w.u32(static_cast<uint32_t>(b.entries.size()));
    for (const ReportEntry& e : b.entries) {
      w.u32(e.about_origin);
      w.u32(e.type);
      w.i64(e.seq);
    }
  }
  Bytes out = std::move(w).take();
  WIRE_COUNT(kReportEnc, out.size());
  return out;
}

Bytes encode(const ResumeFrame& frame) {
  Writer w(1 + 4 + 4 + 8 + 8 + 1);
  w.u8(static_cast<uint8_t>(FrameKind::kResume));
  w.u32(frame.sender);
  w.u32(frame.primary_epoch);
  w.u64(frame.epoch);
  w.i64(frame.receive_through);
  w.u8(frame.reply ? 1 : 0);
  Bytes out = std::move(w).take();
  WIRE_COUNT(kResumeEnc, out.size());
  return out;
}

Bytes encode(const NackFrame& frame) {
  Writer w(1 + 4 + 4 + 8 + 8);
  w.u8(static_cast<uint8_t>(FrameKind::kNack));
  w.u32(frame.origin);
  w.u32(frame.primary_epoch);
  w.i64(frame.from);
  w.i64(frame.to);
  Bytes out = std::move(w).take();
  WIRE_COUNT(kNackEnc, out.size());
  return out;
}

// SHARD envelope: u8 kind (0x50) | u16 shard | inner frame bytes. The inner
// frame is appended raw (no length prefix) — the envelope always wraps one
// whole transport frame, so the inner extent is "the rest of the buffer".
// Not WIRE_COUNTed: the wrapped inner frame is counted by its own codec, and
// the mux keeps its own demux counters.
Bytes encode_shard_frame(uint32_t shard, BytesView inner) {
  if (shard > 0xFFFF) throw CodecError("shard id exceeds u16 envelope range");
  Writer w(kShardEnvelopeBytes + inner.size());
  w.u8(kShardEnvelopeKind);
  w.u16(static_cast<uint16_t>(shard));
  w.raw(inner.data(), inner.size());
  return std::move(w).take();
}

bool is_shard_frame(BytesView frame) {
  return !frame.empty() && frame[0] == kShardEnvelopeKind;
}

ShardFrameView decode_shard_view(BytesView frame) {
  Reader r(frame);
  if (r.u8() != kShardEnvelopeKind) throw CodecError("not a SHARD envelope");
  ShardFrameView out;
  out.shard = r.u16();
  out.inner = frame.subspan(kShardEnvelopeBytes);
  return out;
}

std::optional<FrameKind> peek_kind(BytesView frame) {
  if (frame.empty()) return std::nullopt;
  uint8_t k = frame[0];
  if (k == static_cast<uint8_t>(FrameKind::kData)) return FrameKind::kData;
  if (k == static_cast<uint8_t>(FrameKind::kAckBatch))
    return FrameKind::kAckBatch;
  if (k == static_cast<uint8_t>(FrameKind::kResume)) return FrameKind::kResume;
  if (k == static_cast<uint8_t>(FrameKind::kDataBatch))
    return FrameKind::kDataBatch;
  if (k == static_cast<uint8_t>(FrameKind::kReportBatch))
    return FrameKind::kReportBatch;
  if (k == static_cast<uint8_t>(FrameKind::kNack)) return FrameKind::kNack;
  return std::nullopt;
}

DataFrame decode_data(BytesView frame) {
  Reader r(frame);
  if (r.u8() != static_cast<uint8_t>(FrameKind::kData))
    throw CodecError("not a DATA frame");
  DataFrame out;
  out.origin = r.u32();
  out.primary_epoch = r.u32();
  out.seq = r.i64();
  out.virtual_size = r.u64();
  out.payload = r.blob();
  return out;
}

DataView decode_data_view(BytesView frame) {
  WIRE_COUNT(kDataDec, frame.size());
  Reader r(frame);
  if (r.u8() != static_cast<uint8_t>(FrameKind::kData))
    throw CodecError("not a DATA frame");
  DataView out;
  out.origin = r.u32();
  out.primary_epoch = r.u32();
  out.seq = r.i64();
  out.virtual_size = r.u64();
  out.payload = r.blob_view();
  return out;
}

DataBatchFrame decode_data_batch(BytesView frame) {
  WIRE_COUNT(kBatchDec, frame.size());
  Reader r(frame);
  if (r.u8() != static_cast<uint8_t>(FrameKind::kDataBatch))
    throw CodecError("not a DATABATCH frame");
  DataBatchFrame out;
  out.origin = r.u32();
  out.primary_epoch = r.u32();
  out.first_seq = r.i64();
  uint32_t n = r.u32();
  if (n == 0) throw CodecError("empty DATABATCH");
  if (n > r.remaining() / (4 + 8))  // each entry: blob length + virtual size
    throw CodecError("DATABATCH count overruns the frame");
  if (out.first_seq > std::numeric_limits<SeqNum>::max() - (n - 1))
    throw CodecError("DATABATCH seq range overflows");
  out.entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    DataBatchFrame::Entry e;
    e.payload = r.blob_view();
    e.virtual_size = r.u64();
    out.entries.push_back(e);
  }
  return out;
}

namespace {

// Reads a report's type id, refusing ids that would size an ack table.
void check_type(Reader& r) {
  if (r.u32() >= kMaxStabilityTypes)
    throw CodecError("stability type id at or above kMaxStabilityTypes");
}

const uint8_t* cursor(BytesView frame, const Reader& r) {
  return frame.data() + (frame.size() - r.remaining());
}

}  // namespace

// The view decoders walk every record once with the bounds-checked Reader
// (a count can claim at most what the bytes left hold), so the ranges they
// return read the same records unchecked.
AckBatchView decode_ack_batch_view(BytesView frame) {
  WIRE_COUNT(kAckDec, frame.size());
  Reader r(frame);
  if (r.u8() != static_cast<uint8_t>(FrameKind::kAckBatch))
    throw CodecError("not an ACKBATCH frame");
  AckBatchView out;
  out.reporter = r.u32();
  out.primary_epoch = r.u32();
  const uint32_t n = r.u32();
  const uint8_t* first = cursor(frame, r);
  for (uint32_t i = 0; i < n; ++i) {
    r.u32();  // about_origin
    check_type(r);
    r.i64();  // seq
    r.blob_view();
  }
  out.entries = {first, n};
  return out;
}

ReportBatchView decode_report_batch_view(BytesView frame) {
  WIRE_COUNT(kReportDec, frame.size());
  Reader r(frame);
  if (r.u8() != static_cast<uint8_t>(FrameKind::kReportBatch))
    throw CodecError("not a REPORTBATCH frame");
  ReportBatchView out;
  out.forwarder = r.u32();
  const uint32_t nblocks = r.u32();
  if (nblocks == 0) throw CodecError("empty REPORTBATCH");
  const uint8_t* first = cursor(frame, r);
  for (uint32_t i = 0; i < nblocks; ++i) {
    r.u32();  // reporter
    r.u32();  // primary_epoch
    const uint32_t n = r.u32();
    for (uint32_t j = 0; j < n; ++j) {
      r.u32();  // about_origin
      check_type(r);
      r.i64();  // seq
    }
  }
  out.blocks = {first, nblocks};
  return out;
}

AckBatchFrame decode_ack_batch(BytesView frame) {
  const AckBatchView v = decode_ack_batch_view(frame);
  AckBatchFrame out;
  out.reporter = v.reporter;
  out.primary_epoch = v.primary_epoch;
  out.entries.reserve(v.entries.size());
  for (const AckEntryView& e : v.entries)
    out.entries.push_back(AckEntry{e.about_origin, e.type, e.seq,
                                   Bytes(e.extra.begin(), e.extra.end())});
  return out;
}

ReportBatchFrame decode_report_batch(BytesView frame) {
  const ReportBatchView v = decode_report_batch_view(frame);
  ReportBatchFrame out;
  out.forwarder = v.forwarder;
  out.blocks.reserve(v.blocks.size());
  for (const ReportBlockView& b : v.blocks)
    out.blocks.push_back(ReportBlock{b.reporter, b.primary_epoch,
                                     {b.entries.begin(), b.entries.end()}});
  return out;
}

ResumeFrame decode_resume(BytesView frame) {
  WIRE_COUNT(kResumeDec, frame.size());
  Reader r(frame);
  if (r.u8() != static_cast<uint8_t>(FrameKind::kResume))
    throw CodecError("not a RESUME frame");
  ResumeFrame out;
  out.sender = r.u32();
  out.primary_epoch = r.u32();
  out.epoch = r.u64();
  out.receive_through = r.i64();
  out.reply = r.u8() != 0;
  return out;
}

NackFrame decode_nack(BytesView frame) {
  WIRE_COUNT(kNackDec, frame.size());
  Reader r(frame);
  if (r.u8() != static_cast<uint8_t>(FrameKind::kNack))
    throw CodecError("not a NACK frame");
  NackFrame out;
  out.origin = r.u32();
  out.primary_epoch = r.u32();
  out.from = r.i64();
  out.to = r.i64();
  if (out.from > out.to) throw CodecError("NACK range with from > to");
  return out;
}

}  // namespace stab::data
