// The one way tests read a node's counters: by their docs/OBSERVABILITY.md
// names, from the node's metrics registry. A name the registry does not hold
// fails the test instead of reading 0, so a misspelt name cannot pass a
// check like EXPECT_EQ(counter(node, "data.nacks_sent"), 0u). Every core
// counter is registered when the node is built
// (Core.RegistryRegistersEveryCounterAtConstruction pins that).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "core/stabilizer.hpp"
#include "obs/metrics.hpp"

namespace stab {

/// The value of counter `name` in `registry`; fails the test and reads 0
/// when no such counter is registered.
inline uint64_t counter(const obs::MetricsRegistry& registry,
                        std::string_view name) {
  const obs::Counter* c = registry.find_counter(name);
  if (c == nullptr) {
    ADD_FAILURE() << "no counter named \"" << name << "\"";
    return 0;
  }
  return c->value();
}

/// `node`'s counter `name`, with its batched transmit deltas folded in.
inline uint64_t counter(const Stabilizer& node, std::string_view name) {
  return counter(node.metrics(), name);
}

}  // namespace stab
