// Wall-clock Env implementation: a single-threaded epoll event loop.
//
// One loop thread runs three kinds of work: timers from a time-ordered
// queue, tasks posted from any thread (zero-delay timers), and callbacks for
// file descriptors registered with add_fd. Everything runs on that one
// thread, so the TCP transport's sockets, its frame dispatch and all of the
// node's Stabilizer work share it, which keeps the core's single-threaded
// discipline (paper §III-A). Users that share state with other threads must
// still synchronize.
//
// Each pass of the loop runs the timers and posts that were due when the
// pass began, then polls the descriptors: a task that keeps posting tasks
// cannot starve IO. The loop parks in epoll_pwait2 with a nanosecond
// timeout and no timer slack, so sub-millisecond timers are neither rounded
// nor stretched. A schedule_after from another thread writes the wake
// eventfd only while the loop is parked past the new deadline; posts made on
// the loop thread never need it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.hpp"

namespace stab {

class RealtimeEnv : public Env {
 public:
  /// Called on the loop thread with the ready epoll event bits.
  using FdHandler = std::function<void(uint32_t events)>;

  RealtimeEnv();
  ~RealtimeEnv() override;

  RealtimeEnv(const RealtimeEnv&) = delete;
  RealtimeEnv& operator=(const RealtimeEnv&) = delete;

  TimePoint now() const override;
  TimerId schedule_after(Duration delay, std::function<void()> fn) override;
  void cancel(TimerId id) override;

  /// Watch `fd` for `events` (EPOLLIN/EPOLLOUT; level-triggered) and call
  /// `fn` when it is ready. The fd stays owned by the caller; remove_fd
  /// before closing it. add_fd, modify_fd and remove_fd must be called on
  /// the loop thread. A handler may remove its own or any other fd; a
  /// removed fd gets no further callbacks, not even in the current pass.
  void add_fd(int fd, uint32_t events, FdHandler fn);
  void modify_fd(int fd, uint32_t events);
  void remove_fd(int fd);

  /// Run `fn` on the loop thread and wait for it to finish. Used to mutate
  /// Env-owned state safely from the outside (e.g. test setup).
  void run_sync(std::function<void()> fn);

  /// Stop and join the loop thread; pending timers are dropped and no
  /// callback runs afterwards. Called by the dtor.
  void shutdown();

 private:
  struct Entry {
    TimerId id;
    std::function<void()> fn;
  };
  struct Watch {
    uint32_t token = 0;  // 0 = not watched; tags this fd's epoll events
    std::unique_ptr<FdHandler> fn;
  };

  void loop();
  void run_due_tasks(std::unique_lock<std::mutex>& lock);
  void dispatch(uint64_t tag, uint32_t events);

  mutable std::mutex mutex_;  // guards queue_, next_id_, park_until_, stop_
  std::multimap<TimePoint, Entry> queue_;
  TimerId next_id_ = 1;
  // While parked: the time the loop will wake by itself (TimePoint::max()
  // when it waits only for fds). TimePoint::min() while running.
  TimePoint park_until_;
  bool stop_ = false;

  // Loop-thread state.
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::vector<Watch> watches_;  // indexed by fd
  uint32_t next_token_ = 1;
  // Handlers removed during a pass; freed once the pass stops dispatching,
  // so a handler may remove itself while it runs.
  std::vector<std::unique_ptr<FdHandler>> retired_;

  std::thread thread_;
};

}  // namespace stab
