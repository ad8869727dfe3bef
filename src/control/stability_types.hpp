// Registry of stability types (levels).
//
// The paper ships three built-in levels matching the data pipeline —
// received, persisted, delivered (§III-A "a series of levels of stability")
// — and lets applications define new ones ("verified, countersigned, etc",
// §III-C). Types are dense ids so the AckTable can store one row per type.
//
// Threading: mutation (get_or_register) is rare and externally serialized by
// the Stabilizer's API mutex. Lookup by name also happens on the lock-free
// report_stability path, which must not take that mutex — so every
// mutation publishes an immutable snapshot of the name list through an
// atomic pointer, and find_fast() reads the snapshot wait-free. Retired
// snapshots go to a graveyard freed at destruction: a reader that loaded an
// old pointer stays valid for the registry's lifetime (same epoch-publication
// scheme as control/frontier_board.hpp).
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace stab {

class StabilityTypeRegistry {
 public:
  static constexpr StabilityTypeId kReceived = 0;
  static constexpr StabilityTypeId kPersisted = 1;
  static constexpr StabilityTypeId kDelivered = 2;

  StabilityTypeRegistry() : names_{"received", "persisted", "delivered"} {
    publish();
  }

  StabilityTypeRegistry(const StabilityTypeRegistry&) = delete;
  StabilityTypeRegistry& operator=(const StabilityTypeRegistry&) = delete;

  ~StabilityTypeRegistry() {
    delete published_.load(std::memory_order_relaxed);
  }

  /// Returns the id for `name`, registering it if new. Caller-serialized
  /// (the facade mutex); never concurrent with itself.
  StabilityTypeId get_or_register(const std::string& name) {
    if (auto id = find(name)) return *id;
    names_.push_back(name);
    publish();
    return static_cast<StabilityTypeId>(names_.size() - 1);
  }

  std::optional<StabilityTypeId> find(const std::string& name) const {
    for (size_t i = 0; i < names_.size(); ++i)
      if (names_[i] == name) return static_cast<StabilityTypeId>(i);
    return std::nullopt;
  }

  /// Wait-free lookup against the last published snapshot. Safe from any
  /// thread with no lock; may miss a type registered concurrently (the
  /// caller then falls back to the locked slow path, which re-checks).
  std::optional<StabilityTypeId> find_fast(std::string_view name) const {
    const auto* snap = published_.load(std::memory_order_acquire);
    for (size_t i = 0; i < snap->size(); ++i)
      if ((*snap)[i] == name) return static_cast<StabilityTypeId>(i);
    return std::nullopt;
  }

  const std::string& name(StabilityTypeId id) const { return names_.at(id); }
  size_t count() const { return names_.size(); }

 private:
  void publish() {
    auto* next = new std::vector<std::string>(names_);
    const auto* old = published_.exchange(next, std::memory_order_acq_rel);
    if (old) graveyard_.emplace_back(old);
  }

  std::vector<std::string> names_;
  std::atomic<const std::vector<std::string>*> published_{nullptr};
  // Retired snapshots, kept alive so wait-free readers never dangle.
  std::vector<std::unique_ptr<const std::vector<std::string>>> graveyard_;
};

}  // namespace stab
