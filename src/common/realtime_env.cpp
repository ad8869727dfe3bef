#include "common/realtime_env.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <future>
#include <stdexcept>

namespace stab {

namespace {
TimePoint steady_now() {
  return std::chrono::duration_cast<Duration>(
      std::chrono::steady_clock::now().time_since_epoch());
}

constexpr TimePoint kNotParked = TimePoint::min();
}  // namespace

RealtimeEnv::RealtimeEnv() : park_until_(kNotParked) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    if (epoll_fd_ >= 0) close(epoll_fd_);
    if (wake_fd_ >= 0) close(wake_fd_);
    throw std::runtime_error("RealtimeEnv: epoll/eventfd creation failed");
  }
  // No loop thread yet, so registering from here is race-free.
  add_fd(wake_fd_, EPOLLIN, [this](uint32_t) {
    uint64_t drain;
    [[maybe_unused]] ssize_t n = read(wake_fd_, &drain, sizeof drain);
  });
  thread_ = std::thread([this] { loop(); });
}

RealtimeEnv::~RealtimeEnv() {
  shutdown();
  close(wake_fd_);
  close(epoll_fd_);
}

TimePoint RealtimeEnv::now() const { return steady_now(); }

TimerId RealtimeEnv::schedule_after(Duration delay, std::function<void()> fn) {
  bool wake = false;
  TimerId id = kInvalidTimer;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return kInvalidTimer;
    id = next_id_++;
    TimePoint due = steady_now() + std::max(delay, Duration::zero());
    queue_.emplace(due, Entry{id, std::move(fn)});
    // Only a parked loop that would sleep past `due` needs a kick; one kick
    // per park is enough.
    if (due < park_until_) {
      park_until_ = kNotParked;
      wake = true;
    }
  }
  if (wake) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof one);
  }
  return id;
}

void RealtimeEnv::cancel(TimerId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->second.id == id) {
      queue_.erase(it);
      return;
    }
  }
}

void RealtimeEnv::add_fd(int fd, uint32_t events, FdHandler fn) {
  if (static_cast<size_t>(fd) >= watches_.size()) watches_.resize(fd + 1);
  Watch& w = watches_[fd];
  w.token = next_token_++;
  if (next_token_ == 0) next_token_ = 1;
  w.fn = std::make_unique<FdHandler>(std::move(fn));
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = (static_cast<uint64_t>(w.token) << 32) |
                static_cast<uint32_t>(fd);
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
}

void RealtimeEnv::modify_fd(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = (static_cast<uint64_t>(watches_[fd].token) << 32) |
                static_cast<uint32_t>(fd);
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void RealtimeEnv::remove_fd(int fd) {
  if (static_cast<size_t>(fd) >= watches_.size() || watches_[fd].token == 0)
    return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  watches_[fd].token = 0;
  retired_.push_back(std::move(watches_[fd].fn));
}

void RealtimeEnv::run_sync(std::function<void()> fn) {
  if (std::this_thread::get_id() == thread_.get_id()) {
    fn();  // already on the loop thread
    return;
  }
  std::promise<void> done;
  schedule_after(Duration::zero(), [&] {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

void RealtimeEnv::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof one);
  if (thread_.joinable()) thread_.join();
}

// Runs the tasks that were due when the pass began, in (due, id) order, one
// at a time so a task may still cancel a later one. Tasks posted meanwhile
// get a larger id and wait for the next pass.
void RealtimeEnv::run_due_tasks(std::unique_lock<std::mutex>& lock) {
  const TimePoint start = steady_now();
  const TimerId limit = next_id_;
  while (!stop_ && !queue_.empty()) {
    auto it = queue_.begin();
    if (it->first > start || it->second.id >= limit) return;
    {
      auto node = queue_.extract(it);
      lock.unlock();
      node.mapped().fn();
    }  // the callback is freed outside the lock
    lock.lock();
  }
}

void RealtimeEnv::dispatch(uint64_t tag, uint32_t events) {
  const auto fd = static_cast<uint32_t>(tag);
  // A stale tag means the fd was removed (and maybe reused) in this pass.
  if (fd >= watches_.size() || watches_[fd].token != (tag >> 32)) return;
  FdHandler* fn = watches_[fd].fn.get();  // stays valid until retired_ clears
  (*fn)(events);
}

void RealtimeEnv::loop() {
  // Wake on time: the default 50 us timer slack would stretch a 1 ms ack
  // interval by up to 5%.
  prctl(PR_SET_TIMERSLACK, 1UL);
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    run_due_tasks(lock);
    if (stop_) break;
    // Park until the next timer, or not at all when a task is already due.
    timespec ts{};
    const timespec* timeout = &ts;
    if (queue_.empty()) {
      park_until_ = TimePoint::max();
      timeout = nullptr;
    } else {
      const TimePoint current = steady_now();
      const TimePoint due = queue_.begin()->first;
      if (due > current) {
        park_until_ = due;
        const int64_t wait = (due - current).count();
        ts.tv_sec = wait / 1'000'000'000;
        ts.tv_nsec = wait % 1'000'000'000;
      }
    }
    lock.unlock();
    const int n = epoll_pwait2(epoll_fd_, events, kMaxEvents, timeout, nullptr);
    lock.lock();
    park_until_ = kNotParked;
    lock.unlock();
    for (int i = 0; i < n; ++i) dispatch(events[i].data.u64, events[i].events);
    retired_.clear();
    lock.lock();
  }
}

}  // namespace stab
