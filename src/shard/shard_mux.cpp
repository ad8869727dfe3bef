#include "shard/shard_mux.hpp"

#include "data/wire.hpp"

namespace stab::shard {

/// One shard's view of the muxed link. Sends tag; receives come pre-routed
/// from the mux's demux handler.
class ShardMux::Facet : public Transport {
 public:
  Facet(Transport& base, uint32_t shard) : base_(base), shard_(shard) {}

  NodeId self() const override { return base_.self(); }
  size_t cluster_size() const override { return base_.cluster_size(); }
  Env& env() override { return base_.env(); }
  bool single_threaded() const override { return base_.single_threaded(); }

  void set_receive_handler(ReceiveHandler handler) override {
    if (handler) {
      handler_ = std::move(handler);
      armed_.store(true, std::memory_order_release);
      return;
    }
    // Disarm, then wait out dispatches that already passed the armed check.
    armed_.store(false, std::memory_order_release);
    while (in_flight_.load(std::memory_order_acquire) != 0) {
    }
    handler_ = nullptr;
  }

  void send(NodeId dst, Bytes frame, uint64_t wire_size = 0) override {
    const uint64_t inner_wire = wire_size ? wire_size : frame.size();
    base_.send(dst, data::encode_shard_frame(shard_, frame),
               inner_wire + data::kShardEnvelopeBytes);
  }

  void send_shared(NodeId dst, std::shared_ptr<const Bytes> frame,
                   uint64_t wire_size = 0) override {
    // The envelope prepends bytes and the shared buffer is immutable, so a
    // tagged copy is unavoidable here (see the header's tradeoff note).
    const uint64_t inner_wire = wire_size ? wire_size : frame->size();
    base_.send(dst, data::encode_shard_frame(shard_, *frame),
               inner_wire + data::kShardEnvelopeBytes);
  }

  /// Mux-side dispatch of a demuxed inner frame. Returns false when the
  /// facet has no armed handler (the caller counts the drop).
  bool dispatch(NodeId src, BytesView inner, uint64_t wire_size) {
    if (!armed_.load(std::memory_order_acquire)) return false;
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    bool handled = false;
    if (armed_.load(std::memory_order_acquire)) {
      handler_(src, inner, wire_size);
      handled = true;
    }
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    return handled;
  }

 private:
  Transport& base_;
  const uint32_t shard_;
  ReceiveHandler handler_;
  std::atomic<bool> armed_{false};
  std::atomic<int> in_flight_{0};
};

ShardMux::ShardMux(Transport& base, uint32_t num_shards) : base_(base) {
  facets_.reserve(num_shards == 0 ? 1 : num_shards);
  for (uint32_t s = 0; s < (num_shards == 0 ? 1 : num_shards); ++s)
    facets_.push_back(std::make_unique<Facet>(base, s));
  base_.set_receive_handler(
      [this](NodeId src, BytesView frame, uint64_t wire_size) {
        on_base_frame(src, frame, wire_size);
      });
}

ShardMux::~ShardMux() { base_.set_receive_handler(nullptr); }

Transport& ShardMux::facet(uint32_t s) { return *facets_[s]; }

void ShardMux::on_base_frame(NodeId src, BytesView frame, uint64_t wire_size) {
  if (!data::is_shard_frame(frame)) {
    unroutable_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const data::ShardFrameView v = data::decode_shard_view(frame);
  const uint64_t inner_wire = wire_size > data::kShardEnvelopeBytes
                                  ? wire_size - data::kShardEnvelopeBytes
                                  : v.inner.size();
  if (v.shard < facets_.size() &&
      facets_[v.shard]->dispatch(src, v.inner, inner_wire)) {
    frames_demuxed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    unroutable_drops_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace stab::shard
