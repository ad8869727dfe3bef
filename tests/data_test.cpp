// Unit tests for the data plane primitives: wire codec, sequencer,
// out-buffer. The receive rule lives in core's InStream (core_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>

#include "common/rng.hpp"
#include "data/out_buffer.hpp"
#include "data/wire.hpp"

namespace stab::data {
namespace {

TEST(Wire, DataRoundTrip) {
  DataFrame in;
  in.origin = 3;
  in.seq = 12345678901LL;
  in.payload = to_bytes("payload-bytes");
  in.virtual_size = 7777;
  Bytes enc = encode(in);
  EXPECT_EQ(peek_kind(enc), FrameKind::kData);
  DataFrame out = decode_data(enc);
  EXPECT_EQ(out.origin, in.origin);
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.payload, in.payload);
  EXPECT_EQ(out.virtual_size, in.virtual_size);
}

TEST(Wire, AckBatchRoundTrip) {
  AckBatchFrame in;
  in.reporter = 5;
  in.entries.push_back(AckEntry{1, 0, 99, {}});
  in.entries.push_back(AckEntry{2, 3, -1, to_bytes("extra")});
  Bytes enc = encode(in);
  EXPECT_EQ(peek_kind(enc), FrameKind::kAckBatch);
  AckBatchFrame out = decode_ack_batch(enc);
  EXPECT_EQ(out.reporter, 5u);
  ASSERT_EQ(out.entries.size(), 2u);
  EXPECT_EQ(out.entries[0].about_origin, 1u);
  EXPECT_EQ(out.entries[0].seq, 99);
  EXPECT_EQ(out.entries[1].type, 3u);
  EXPECT_EQ(to_string(out.entries[1].extra), "extra");
}

TEST(Wire, ResumeRoundTrip) {
  ResumeFrame in;
  in.sender = 7;
  in.epoch = 0xdeadbeefcafeULL;
  in.receive_through = 424242;
  Bytes enc = encode(in);
  EXPECT_EQ(peek_kind(enc), FrameKind::kResume);
  ResumeFrame out = decode_resume(enc);
  EXPECT_EQ(out.sender, in.sender);
  EXPECT_EQ(out.epoch, in.epoch);
  EXPECT_EQ(out.receive_through, in.receive_through);
  EXPECT_FALSE(out.reply);

  in.reply = true;
  in.receive_through = kNoSeq;  // restarted before receiving anything
  out = decode_resume(encode(in));
  EXPECT_TRUE(out.reply);
  EXPECT_EQ(out.receive_through, kNoSeq);
  EXPECT_THROW(decode_resume(encode(DataFrame{})), CodecError);
}

TEST(Wire, PrimaryEpochRoundTripsOnEveryFencedFrameKind) {
  // Failover fencing rides a PrimaryEpoch stamp on data, ack and RESUME
  // frames; every codec must carry it faithfully (and default it to 0 for
  // the pre-failover wire layout).
  DataFrame d;
  d.origin = 2;
  d.seq = 41;
  d.payload = to_bytes("m");
  d.primary_epoch = 7;
  EXPECT_EQ(decode_data(encode(d)).primary_epoch, 7u);
  DataView v = decode_data_view(encode(d));
  EXPECT_EQ(v.primary_epoch, 7u);
  Bytes direct = encode_data(2, 41, to_bytes("m"), 0, 9);
  EXPECT_EQ(decode_data_view(direct).primary_epoch, 9u);
  EXPECT_EQ(decode_data(encode_data(2, 41, to_bytes("m"), 0)).primary_epoch,
            0u);

  DataBatchFrame b;
  b.origin = 1;
  b.first_seq = 10;
  b.primary_epoch = 3;
  Bytes payload = to_bytes("bb");
  b.entries.push_back(DataBatchFrame::Entry{BytesView(payload), 0});
  Bytes benc = encode(b);
  EXPECT_EQ(decode_data_batch(benc).primary_epoch, 3u);

  AckBatchFrame a;
  a.reporter = 4;
  a.primary_epoch = 5;
  a.entries.push_back(AckEntry{0, 0, 12, {}});
  EXPECT_EQ(decode_ack_batch(encode(a)).primary_epoch, 5u);

  ResumeFrame r;
  r.sender = 6;
  r.epoch = 2;
  r.receive_through = 100;
  r.primary_epoch = 8;
  ResumeFrame rout = decode_resume(encode(r));
  EXPECT_EQ(rout.primary_epoch, 8u);
  EXPECT_EQ(rout.epoch, 2u);  // session epoch and primary epoch are distinct
}

TEST(Wire, PeekRejectsGarbage) {
  EXPECT_FALSE(peek_kind(Bytes{}).has_value());
  EXPECT_FALSE(peek_kind(Bytes{0x77}).has_value());
}

TEST(Wire, PeekKnowsDataBatch) {
  DataBatchFrame b;
  b.origin = 1;
  b.first_seq = 0;
  Bytes p = to_bytes("x");
  b.entries.push_back(DataBatchFrame::Entry{BytesView(p), 0});
  EXPECT_EQ(peek_kind(encode(b)), FrameKind::kDataBatch);
}

TEST(Wire, PeekTreatsApplicationRangeAsUnknown) {
  // Kind bytes >= 0x40 belong to applications (send_raw's contract); every
  // one of them must come back unknown so the raw handler gets the frame.
  for (int k = 0x40; k <= 0xff; ++k)
    EXPECT_FALSE(peek_kind(Bytes{static_cast<uint8_t>(k)}).has_value())
        << "kind byte " << k;
  // The Stabilizer kinds themselves are recognized.
  EXPECT_TRUE(peek_kind(Bytes{0x01}).has_value());
  EXPECT_TRUE(peek_kind(Bytes{0x04}).has_value());
  EXPECT_EQ(peek_kind(Bytes{0x05}), FrameKind::kReportBatch);
  EXPECT_EQ(peek_kind(Bytes{0x06}), FrameKind::kNack);
  EXPECT_FALSE(peek_kind(Bytes{0x07}).has_value());  // unassigned gap
}

TEST(Wire, NackRoundTrip) {
  NackFrame in;
  in.origin = 3;
  in.primary_epoch = 2;
  in.from = 40;
  in.to = 41;
  const Bytes enc = encode(in);
  EXPECT_EQ(enc.size(), 25u);
  EXPECT_EQ(peek_kind(enc), FrameKind::kNack);
  NackFrame out = decode_nack(enc);
  EXPECT_EQ(out.origin, 3u);
  EXPECT_EQ(out.primary_epoch, 2u);
  EXPECT_EQ(out.from, 40);
  EXPECT_EQ(out.to, 41);
  in.from = in.to = std::numeric_limits<SeqNum>::max();  // a one-seq range
  EXPECT_EQ(decode_nack(encode(in)).from, in.to);
}

TEST(Wire, ReportBatchRoundTrip) {
  ReportBatchFrame in;
  in.forwarder = 9;
  ReportBlock b0;
  b0.reporter = 3;
  b0.primary_epoch = 2;
  b0.entries.push_back(ReportEntry{0, 0, 41});
  b0.entries.push_back(ReportEntry{1, 7, kNoSeq});
  ReportBlock b1;
  b1.reporter = 4;
  b1.primary_epoch = 0;
  b1.entries.push_back(ReportEntry{0, 1, 1234567890123LL});
  in.blocks.push_back(b0);
  in.blocks.push_back(b1);

  Bytes enc = encode(in);
  EXPECT_EQ(peek_kind(enc), FrameKind::kReportBatch);
  EXPECT_EQ(enc.capacity(), enc.size());  // single-allocation encoder
  ReportBatchFrame out = decode_report_batch(enc);
  EXPECT_EQ(out.forwarder, 9u);
  ASSERT_EQ(out.blocks.size(), 2u);
  EXPECT_EQ(out.blocks[0].reporter, 3u);
  EXPECT_EQ(out.blocks[0].primary_epoch, 2u);
  ASSERT_EQ(out.blocks[0].entries.size(), 2u);
  EXPECT_EQ(out.blocks[0].entries[0].about_origin, 0u);
  EXPECT_EQ(out.blocks[0].entries[0].seq, 41);
  EXPECT_EQ(out.blocks[0].entries[1].type, 7u);
  EXPECT_EQ(out.blocks[0].entries[1].seq, kNoSeq);
  EXPECT_EQ(out.blocks[1].reporter, 4u);
  ASSERT_EQ(out.blocks[1].entries.size(), 1u);
  EXPECT_EQ(out.blocks[1].entries[0].seq, 1234567890123LL);
}

TEST(Wire, ReportBatchRejectsEmptyAndMalformed) {
  ReportBatchFrame empty;
  empty.forwarder = 1;
  EXPECT_THROW(encode(empty), std::invalid_argument);

  // A block with zero entries is legal on the wire (an aggregator may relay
  // an epoch-only block), but a zero-block frame is not.
  Writer w;
  w.u8(5);  // kReportBatch
  w.u32(1);
  w.u32(0);  // nblocks = 0
  EXPECT_THROW(decode_report_batch(std::move(w).take()), CodecError);

  ReportBatchFrame in;
  in.forwarder = 2;
  ReportBlock b;
  b.reporter = 0;
  b.entries.push_back(ReportEntry{1, 0, 5});
  in.blocks.push_back(b);
  Bytes enc = encode(in);
  Bytes truncated(enc.begin(), enc.end() - 3);
  EXPECT_THROW(decode_report_batch(truncated), CodecError);
  EXPECT_THROW(decode_report_batch(encode(DataFrame{})), CodecError);
}

TEST(Wire, DataBatchRoundTripProperty) {
  Rng rng(0x5eed);
  for (int round = 0; round < 50; ++round) {
    DataBatchFrame in;
    in.origin = static_cast<NodeId>(rng.next_below(9));
    in.first_seq = static_cast<SeqNum>(rng.next_below(1u << 20));
    size_t count = 1 + rng.next_below(17);
    // Backing store must outlive the views.
    std::vector<Bytes> payloads(count);
    for (size_t i = 0; i < count; ++i) {
      payloads[i].resize(rng.next_below(300));  // sizes 0..299, empty legal
      for (auto& byte : payloads[i])
        byte = static_cast<uint8_t>(rng.next_u64());
      in.entries.push_back(DataBatchFrame::Entry{
          BytesView(payloads[i]), rng.next_bool(0.3) ? rng.next_below(5000)
                                                     : 0});
    }
    Bytes enc = encode(in);
    DataBatchFrame out = decode_data_batch(enc);
    EXPECT_EQ(out.origin, in.origin);
    EXPECT_EQ(out.first_seq, in.first_seq);
    ASSERT_EQ(out.entries.size(), count);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(std::equal(out.entries[i].payload.begin(),
                             out.entries[i].payload.end(),
                             payloads[i].begin(), payloads[i].end()));
      EXPECT_EQ(out.entries[i].virtual_size, in.entries[i].virtual_size);
    }
  }
}

TEST(Wire, DataBatchRejectsEmpty) {
  DataBatchFrame empty;
  empty.origin = 2;
  empty.first_seq = 10;
  EXPECT_THROW(encode(empty), std::invalid_argument);

  // A hand-built zero-count frame must be rejected by the decoder too.
  Writer w;
  w.u8(4);  // kDataBatch
  w.u32(2);
  w.i64(10);
  w.u32(0);  // count = 0
  EXPECT_THROW(decode_data_batch(std::move(w).take()), CodecError);
}

TEST(Wire, DataBatchMalformedThrows) {
  DataBatchFrame b;
  b.origin = 1;
  b.first_seq = 5;
  Bytes p = to_bytes("payload");
  b.entries.push_back(DataBatchFrame::Entry{BytesView(p), 0});
  b.entries.push_back(DataBatchFrame::Entry{BytesView(p), 9});
  Bytes enc = encode(b);
  Bytes truncated(enc.begin(), enc.end() - 3);
  EXPECT_THROW(decode_data_batch(truncated), CodecError);
  EXPECT_THROW(decode_data_batch(encode(DataFrame{})), CodecError);
}

// Counts come off the wire: one that claims more records than the bytes
// left can hold is a CodecError before any buffer is sized from it, and so
// is a stability type id at or above kMaxStabilityTypes.
TEST(Wire, LyingCountsAndTypeIdsThrowCodecError) {
  Writer ack;  // 13-byte ACKBATCH claiming 2^32-1 entries
  ack.u8(static_cast<uint8_t>(FrameKind::kAckBatch));
  ack.u32(1);
  ack.u32(0);
  ack.u32(0xFFFFFFFF);
  const Bytes ack13 = std::move(ack).take();
  ASSERT_EQ(ack13.size(), 13u);
  EXPECT_THROW(decode_ack_batch(ack13), CodecError);
  EXPECT_THROW(decode_ack_batch_view(ack13), CodecError);

  Writer batch;  // DATABATCH claiming 2^32-1 entries
  batch.u8(static_cast<uint8_t>(FrameKind::kDataBatch));
  batch.u32(1);
  batch.u32(0);
  batch.i64(0);
  batch.u32(0xFFFFFFFF);
  EXPECT_THROW(decode_data_batch(std::move(batch).take()), CodecError);

  Writer blocks;  // REPORTBATCH claiming 2^32-1 blocks
  blocks.u8(static_cast<uint8_t>(FrameKind::kReportBatch));
  blocks.u32(1);
  blocks.u32(0xFFFFFFFF);
  EXPECT_THROW(decode_report_batch(std::move(blocks).take()), CodecError);

  Writer entries;  // one REPORTBATCH block claiming 2^32-1 entries
  entries.u8(static_cast<uint8_t>(FrameKind::kReportBatch));
  entries.u32(1);
  entries.u32(1);
  entries.u32(1);
  entries.u32(0);
  entries.u32(0xFFFFFFFF);
  EXPECT_THROW(decode_report_batch(std::move(entries).take()), CodecError);

  AckBatchFrame a;
  a.reporter = 1;
  a.entries.push_back(AckEntry{0, kMaxStabilityTypes - 1, 3, {}});
  EXPECT_NO_THROW(decode_ack_batch(encode(a)));
  a.entries.push_back(AckEntry{0, kMaxStabilityTypes, 3, {}});
  EXPECT_THROW(decode_ack_batch(encode(a)), CodecError);
  ReportBatchFrame r;
  r.forwarder = 1;
  r.blocks.push_back(ReportBlock{1, 0, {ReportEntry{0, 0xFFFFFFF0, 3}}});
  EXPECT_THROW(decode_report_batch(encode(r)), CodecError);

  // A NACK range that runs backwards, and a truncated NACK.
  NackFrame nack;
  nack.origin = 1;
  nack.from = 5;
  nack.to = 4;
  EXPECT_THROW(decode_nack(encode(nack)), CodecError);
  nack.from = std::numeric_limits<SeqNum>::max();
  nack.to = std::numeric_limits<SeqNum>::min();
  EXPECT_THROW(decode_nack(encode(nack)), CodecError);
  nack.to = nack.from;
  Bytes cut = encode(nack);
  cut.pop_back();
  EXPECT_THROW(decode_nack(cut), CodecError);

  // A DATABATCH whose last seq would overflow SeqNum.
  DataBatchFrame high;
  high.origin = 1;
  high.first_seq = std::numeric_limits<SeqNum>::max();
  const Bytes x = to_bytes("x");
  high.entries.push_back({x, 0});
  EXPECT_NO_THROW(decode_data_batch(encode(high)));
  high.entries.push_back({x, 0});
  EXPECT_THROW(decode_data_batch(encode(high)), CodecError);
}

// The in-place views read the records the owning decoders copy, and an
// ACKBATCH extra aliases the frame.
TEST(Wire, ControlViewsReadInPlace) {
  AckBatchFrame a;
  a.reporter = 5;
  a.primary_epoch = 2;
  a.entries.push_back(AckEntry{1, 0, 99, {}});
  a.entries.push_back(AckEntry{2, 3, -1, to_bytes("extra")});
  a.entries.push_back(AckEntry{0, 1, 7, {}});
  const Bytes enc = encode(a);
  const AckBatchView v = decode_ack_batch_view(enc);
  EXPECT_EQ(v.reporter, 5u);
  EXPECT_EQ(v.primary_epoch, 2u);
  ASSERT_EQ(v.entries.size(), 3u);
  size_t i = 0;
  for (const AckEntryView& e : v.entries) {
    const AckEntry& want = a.entries[i++];
    EXPECT_EQ(e.about_origin, want.about_origin);
    EXPECT_EQ(e.type, want.type);
    EXPECT_EQ(e.seq, want.seq);
    EXPECT_EQ(to_string(e.extra), to_string(want.extra));
  }
  EXPECT_EQ(i, 3u);
  const BytesView extra = (*std::next(v.entries.begin())).extra;
  EXPECT_GE(extra.data(), enc.data());
  EXPECT_LT(extra.data(), enc.data() + enc.size());

  ReportBatchFrame r;
  r.forwarder = 9;
  r.blocks.push_back(ReportBlock{3, 2, {ReportEntry{0, 0, 41},
                                        ReportEntry{1, 7, kNoSeq}}});
  r.blocks.push_back(ReportBlock{4, 0, {}});  // epoch-only relay
  r.blocks.push_back(ReportBlock{6, 1, {ReportEntry{2, 1, 12345678901LL}}});
  const Bytes renc = encode(r);
  const ReportBatchView rv = decode_report_batch_view(renc);
  EXPECT_EQ(rv.forwarder, 9u);
  ASSERT_EQ(rv.blocks.size(), 3u);
  size_t b = 0;
  for (const ReportBlockView& blk : rv.blocks) {
    const ReportBlock& want = r.blocks[b++];
    EXPECT_EQ(blk.reporter, want.reporter);
    EXPECT_EQ(blk.primary_epoch, want.primary_epoch);
    ASSERT_EQ(blk.entries.size(), want.entries.size());
    size_t j = 0;
    for (const ReportEntry& e : blk.entries) {
      EXPECT_EQ(e.about_origin, want.entries[j].about_origin);
      EXPECT_EQ(e.type, want.entries[j].type);
      EXPECT_EQ(e.seq, want.entries[j].seq);
      ++j;
    }
  }
  EXPECT_EQ(b, 3u);
}

TEST(Wire, EncodersAreSingleAllocation) {
  // Every encoder precomputes its exact frame size, so the returned vector's
  // capacity equals its size — a growth re-allocation would leave capacity
  // above size. Regression for the Writer::reserve pass.
  DataFrame d;
  d.payload = to_bytes("some payload of a nontrivial size, 64 bytes or so..");
  Bytes enc = encode(d);
  EXPECT_EQ(enc.capacity(), enc.size());

  AckBatchFrame a;
  a.reporter = 1;
  for (int i = 0; i < 10; ++i)
    a.entries.push_back(AckEntry{0, 0, i, i % 2 ? to_bytes("extra") : Bytes{}});
  enc = encode(a);
  EXPECT_EQ(enc.capacity(), enc.size());

  enc = encode(ResumeFrame{});
  EXPECT_EQ(enc.capacity(), enc.size());

  DataBatchFrame b;
  b.origin = 0;
  b.first_seq = 0;
  Bytes p = to_bytes("0123456789");
  for (int i = 0; i < 8; ++i)
    b.entries.push_back(DataBatchFrame::Entry{BytesView(p), 3});
  enc = encode(b);
  EXPECT_EQ(enc.capacity(), enc.size());
}

TEST(Wire, DataViewAliasesFrame) {
  DataFrame d;
  d.origin = 4;
  d.seq = 77;
  d.payload = to_bytes("zero-copy");
  Bytes enc = encode(d);
  DataView v = decode_data_view(enc);
  EXPECT_EQ(v.origin, 4u);
  EXPECT_EQ(v.seq, 77);
  EXPECT_EQ(to_string(v.payload), "zero-copy");
  // The view points into the encoded buffer, not a copy.
  EXPECT_GE(v.payload.data(), enc.data());
  EXPECT_LT(v.payload.data(), enc.data() + enc.size());
}

TEST(Wire, DecodeWrongKindThrows) {
  DataFrame d;
  d.payload = to_bytes("x");
  Bytes enc = encode(d);
  EXPECT_THROW(decode_ack_batch(enc), CodecError);
}

TEST(Wire, DecodeTruncatedThrows) {
  DataFrame d;
  d.payload = to_bytes("hello world");
  Bytes enc = encode(d);
  enc.resize(enc.size() - 4);
  EXPECT_THROW(decode_data(enc), CodecError);
}

TEST(Sequencer, StartsAtZeroMonotonic) {
  Sequencer s;
  EXPECT_EQ(s.last_assigned(), kNoSeq);
  EXPECT_EQ(s.next(), 0);
  EXPECT_EQ(s.next(), 1);
  EXPECT_EQ(s.last_assigned(), 1);
}

TEST(OutBuffer, PushGetReclaim) {
  OutBuffer b;
  b.push(0, to_bytes("a"), 0);
  b.push(1, to_bytes("bb"), 10);
  b.push(2, to_bytes("ccc"), 0);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.buffered_bytes(), 1u + 2 + 10 + 3);
  ASSERT_NE(b.get(1), nullptr);
  EXPECT_EQ(to_string(b.get(1)->payload), "bb");
  EXPECT_EQ(b.get(1)->virtual_size, 10u);

  b.reclaim_through(1);
  EXPECT_EQ(b.base(), 2);
  EXPECT_EQ(b.get(0), nullptr);
  EXPECT_EQ(b.get(1), nullptr);
  ASSERT_NE(b.get(2), nullptr);
  EXPECT_EQ(b.buffered_bytes(), 3u);
}

TEST(OutBuffer, BufferedBytesIgnoresEncodedCache) {
  // The encoded-frame cache is an alternate representation of the payload,
  // not extra application buffering: buffered_bytes() (the paper's buffer
  // occupancy figure) must not move when the cache fills, and reclaim must
  // drop the cache with its slot.
  OutBuffer b;
  b.push(0, to_bytes("hello"), 7);
  b.push(1, to_bytes("world!"), 0);
  const uint64_t before = b.buffered_bytes();
  EXPECT_EQ(before, 5u + 7 + 6);

  const OutBuffer::Slot* s0 = b.get(0);
  s0->encoded = std::make_shared<const Bytes>(
      encode_data(0, 0, BytesView(s0->payload), s0->virtual_size));
  EXPECT_EQ(b.buffered_bytes(), before);

  std::weak_ptr<const Bytes> cached = b.get(0)->encoded;
  b.reclaim_through(0);
  EXPECT_EQ(b.buffered_bytes(), 6u);
  EXPECT_TRUE(cached.expired());  // the slot owned the last reference
}

TEST(OutBuffer, NonContiguousPushThrows) {
  OutBuffer b;
  b.push(0, {}, 0);
  EXPECT_THROW(b.push(2, {}, 0), std::logic_error);
  EXPECT_THROW(b.push(0, {}, 0), std::logic_error);
}

TEST(OutBuffer, ReclaimBeyondEndIsSafe) {
  OutBuffer b;
  b.push(0, to_bytes("x"), 0);
  b.reclaim_through(100);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.base(), 1);
  b.push(1, to_bytes("y"), 0);  // contiguity maintained after full reclaim
  EXPECT_EQ(b.get(1)->seq, 1);
}

TEST(OutBuffer, GetOutOfRange) {
  OutBuffer b;
  EXPECT_EQ(b.get(0), nullptr);
  EXPECT_EQ(b.get(-1), nullptr);
}

}  // namespace
}  // namespace stab::data
