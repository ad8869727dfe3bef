// Execution environment abstraction.
//
// Stabilizer's core is single-threaded and event-driven (paper §III-A:
// "Internally, Stabilizer is single-threaded"). Every module that needs the
// current time or a timer goes through Env, so identical code runs on:
//   * SimEnv        — virtual time, deterministic (src/sim), used by benches
//   * RealtimeEnv   — wall-clock epoll loop on one thread per node, used by
//                     the in-process and TCP transports. On TCP the same
//                     thread also owns the node's sockets and dispatches
//                     received frames, so a TCP node is one thread.
#pragma once

#include <cstdint>
#include <functional>

#include "common/types.hpp"

namespace stab {

using TimerId = uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

class Env {
 public:
  virtual ~Env() = default;

  /// Current time (virtual or wall-clock nanoseconds).
  virtual TimePoint now() const = 0;

  /// Run `fn` once after `delay`. Returns a handle usable with cancel().
  virtual TimerId schedule_after(Duration delay,
                                 std::function<void()> fn) = 0;

  /// Best-effort cancellation; a no-op if the timer already fired.
  virtual void cancel(TimerId id) = 0;

  /// Run `fn` as soon as possible (still asynchronously, preserving the
  /// single-threaded discipline).
  TimerId post(std::function<void()> fn) {
    return schedule_after(Duration::zero(), std::move(fn));
  }
};

}  // namespace stab
