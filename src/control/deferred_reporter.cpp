#include "control/deferred_reporter.hpp"

#include <stdexcept>

namespace stab::control {

DeferredReporter::DeferredReporter(size_t num_nodes) : blocks_(num_nodes) {}

bool DeferredReporter::note(NodeId reporter, PrimaryEpoch epoch, NodeId about,
                            StabilityTypeId type, SeqNum seq) {
  if (reporter >= blocks_.size())
    throw std::out_of_range("DeferredReporter: reporter out of range");
  Block& b = blocks_[reporter];
  if (epoch > b.epoch) b.epoch = epoch;
  auto [it, inserted] = b.cells.try_emplace({about, type}, seq);
  if (inserted) {
    ++pending_cells_;
    pending_delta_ += static_cast<uint64_t>(seq + 1);
    return true;
  }
  if (seq <= it->second) return false;
  pending_delta_ += static_cast<uint64_t>(seq - it->second);
  it->second = seq;
  return true;
}

size_t DeferredReporter::absorb(const data::ReportBlockView& block) {
  size_t advanced = 0;
  for (const data::ReportEntry& e : block.entries)
    if (note(block.reporter, block.primary_epoch, e.about_origin, e.type,
             e.seq))
      ++advanced;
  return advanced;
}

std::vector<data::ReportBlock> DeferredReporter::take_flush() {
  std::vector<data::ReportBlock> out;
  if (pending_cells_ == 0) return out;
  for (NodeId r = 0; r < blocks_.size(); ++r) {
    Block& b = blocks_[r];
    if (b.cells.empty()) continue;
    data::ReportBlock rb;
    rb.reporter = r;
    rb.primary_epoch = b.epoch;
    rb.entries.reserve(b.cells.size());
    for (const auto& [key, seq] : b.cells)
      rb.entries.push_back({key.first, key.second, seq});
    b.cells.clear();
    out.push_back(std::move(rb));
  }
  pending_cells_ = 0;
  pending_delta_ = 0;
  return out;
}

}  // namespace stab::control
