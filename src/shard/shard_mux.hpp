// Shard demultiplexer over one transport link (DESIGN.md §9).
//
// A sharded node runs one Stabilizer instance per shard. When the
// deployment gives every shard its own Transport (one port / one simulated
// network per shard — the scale-out configuration), frames arrive
// pre-separated and no mux is needed. When N shards must share a single
// link, a ShardMux splits that link into N facet Transports:
//
//   * a facet's send() wraps every outgoing frame in the SHARD envelope
//     (data/wire.hpp: u8 0x50 | u16 shard | inner), and
//   * the mux owns the base transport's receive handler, decodes the tag,
//     and dispatches the inner frame to exactly that shard's facet handler —
//     so one shard's delivery path never touches another shard's locks, and
//     per-shard FIFO order is inherited from the base link's FIFO order.
//
// Teardown gate: a facet handler can be disarmed (set_receive_handler
// nullptr, e.g. a per-shard Stabilizer destructing) while the base
// transport's receive thread is mid-dispatch to a *different* shard. Each
// facet therefore guards its handler with an armed flag + in-flight counter
// (the same discipline InProcTransport uses for its base handler): disarm
// flips the flag, then spins until in-flight dispatches drain.
//
// Tradeoff note: send_shared() on a facet must materialize a tagged copy of
// the shared frame (the envelope prepends bytes, and the shared buffer is
// immutable by contract), giving up the encode-once fan-out within a muxed
// link. Deployments that care about data-path throughput give each shard
// its own transport and skip the mux entirely — the mux trades one copy for
// port/link economy, not the other way around.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/transport.hpp"

namespace stab::shard {

class ShardMux {
 public:
  /// Claims `base`'s receive handler slot. `base` must outlive the mux.
  ShardMux(Transport& base, uint32_t num_shards);
  ~ShardMux();

  ShardMux(const ShardMux&) = delete;
  ShardMux& operator=(const ShardMux&) = delete;

  uint32_t num_shards() const { return static_cast<uint32_t>(facets_.size()); }

  /// Shard `s`'s facet. Valid for the mux's lifetime; one Stabilizer (or
  /// FailoverManager-wrapped Stabilizer) attaches per facet.
  Transport& facet(uint32_t s);

  /// Frames routed to a facet since construction.
  uint64_t frames_demuxed() const {
    return frames_demuxed_.load(std::memory_order_relaxed);
  }
  /// Frames dropped: untagged (no SHARD envelope), an envelope too short to
  /// hold a shard id (also counted in obs::global()'s core.frames_malformed),
  /// tagged for a shard id >= num_shards, or tagged for a facet with no
  /// armed handler. A healthy
  /// muxed cluster (every link muxed with the same shard count, every facet
  /// attached before traffic) keeps this at 0.
  uint64_t unroutable_drops() const {
    return unroutable_drops_.load(std::memory_order_relaxed);
  }

 private:
  class Facet;
  void on_base_frame(NodeId src, BytesView frame, uint64_t wire_size);

  Transport& base_;
  std::vector<std::unique_ptr<Facet>> facets_;
  std::atomic<uint64_t> frames_demuxed_{0};
  std::atomic<uint64_t> unroutable_drops_{0};
};

}  // namespace stab::shard
