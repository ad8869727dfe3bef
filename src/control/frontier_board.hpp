// Wait-free frontier publication (DESIGN.md §4f).
//
// The FrontierEngine mutates predicate state under the Stabilizer's API
// mutex, but `get_stability_frontier` and the waitfor already-stable fast
// path must not queue behind that mutex (frame processing, report drains,
// user callbacks). The board is the bridge: each
// registered predicate gets a Slot holding its frontier in a single atomic
// word, and the key -> Slot* map is published as an immutable snapshot
// through one atomic pointer (epoch publication — the same plain-mutation/
// atomic-fold layering as the obs registry and StabilityTypeRegistry).
//
//   * Writers (register/change/remove/reevaluate) are externally serialized
//     by the engine's caller. Structural changes copy the map, swap the
//     pointer, and retire the old copy to a graveyard freed at destruction,
//     so a reader holding a stale snapshot never dangles.
//   * Frontier advances are NOT structural: reevaluate() just stores into
//     the existing Slot. Readers see them with no map republish at all.
//   * Readers (`read`) are wait-free: one acquire load of the snapshot
//     pointer, one hash lookup, one atomic load. No CAS, no retry loop —
//     unlike a seqlock there is no "writer active" window to spin on.
//
// Slots live in a deque so their addresses survive map republication; a
// removed predicate's slot is reset to kNoSeq and kept allocated (slot
// count is bounded by total predicates ever registered, which is small).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace stab {

class FrontierBoard {
 public:
  struct Slot {
    std::atomic<int64_t> frontier{kNoSeq};
  };

  FrontierBoard() { publish_locked(); }
  FrontierBoard(const FrontierBoard&) = delete;
  FrontierBoard& operator=(const FrontierBoard&) = delete;
  ~FrontierBoard() { delete published_.load(std::memory_order_relaxed); }

  /// Writer side (caller-serialized): create or reuse the slot for `key`,
  /// publish it, and return it. The returned pointer is stable forever.
  Slot* publish(const std::string& key, SeqNum initial) {
    Slot* slot;
    auto it = map_.find(key);
    if (it != map_.end()) {
      slot = it->second;
    } else {
      slots_.emplace_back();
      slot = &slots_.back();
      map_.emplace(key, slot);
    }
    slot->frontier.store(initial, std::memory_order_release);
    publish_locked();
    return slot;
  }

  /// Writer side: retire `key`. Readers racing the removal may observe one
  /// last kNoSeq (= "nothing stable / unknown"), never a stale frontier.
  void unpublish(const std::string& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return;
    it->second->frontier.store(kNoSeq, std::memory_order_release);
    map_.erase(it);
    publish_locked();
  }

  /// Wait-free read from any thread. nullopt = key not published (caller
  /// falls back to the locked path, which gives the authoritative answer).
  std::optional<SeqNum> read(std::string_view key) const {
    const Map* snap = published_.load(std::memory_order_acquire);
    auto it = snap->find(key);
    if (it == snap->end()) return std::nullopt;
    return it->second->frontier.load(std::memory_order_acquire);
  }

 private:
  // Heterogeneous-lookup map so read(string_view) never allocates a key.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using Map = std::unordered_map<std::string, Slot*, Hash, std::equal_to<>>;

  void publish_locked() {
    auto* next = new Map(map_);
    const Map* old = published_.exchange(next, std::memory_order_acq_rel);
    if (old) graveyard_.emplace_back(old);
  }

  Map map_;  // writer's working copy
  std::atomic<const Map*> published_{nullptr};
  std::vector<std::unique_ptr<const Map>> graveyard_;
  std::deque<Slot> slots_;  // stable addresses across republication
};

}  // namespace stab
