// Unit tests for src/common: codec, result, rng, time helpers, stats,
// realtime env.
#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/realtime_env.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace stab {
namespace {

TEST(Codec, RoundTripScalars) {
  Writer w;
  w.u8(0x7f);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.5);
  Bytes b = std::move(w).take();

  Reader r(b);
  EXPECT_EQ(r.u8(), 0x7f);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.5);
  EXPECT_TRUE(r.done());
}

TEST(Codec, RoundTripBlobAndString) {
  Writer w;
  w.str("hello");
  w.blob(to_bytes("world"));
  w.str("");
  Bytes b = std::move(w).take();

  Reader r(b);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(to_string(r.blob()), "world");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(Codec, TruncatedThrows) {
  Writer w;
  w.u64(7);
  Bytes b = std::move(w).take();
  b.resize(4);
  Reader r(b);
  EXPECT_THROW(r.u64(), CodecError);
}

TEST(Codec, BlobLengthBeyondBufferThrows) {
  Writer w;
  w.u32(1000);  // claims 1000 bytes follow
  w.u8(1);
  Bytes b = std::move(w).take();
  Reader r(b);
  EXPECT_THROW(r.blob(), CodecError);
}

TEST(Codec, ReaderTracksRemaining) {
  Writer w;
  w.u32(1);
  w.u32(2);
  Bytes b = std::move(w).take();
  Reader r(b);
  EXPECT_EQ(r.remaining(), 8u);
  r.u32();
  EXPECT_EQ(r.remaining(), 4u);
  r.u32();
  EXPECT_TRUE(r.done());
}

TEST(Result, OkAndError) {
  Result<int> ok = 7;
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value(), 7);

  auto err = Result<int>::error("boom");
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.message(), "boom");
  EXPECT_THROW(err.value(), std::runtime_error);
  EXPECT_EQ(err.value_or(9), 9);
}

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.is_ok());
  Status e = Status::error("bad");
  EXPECT_FALSE(e.is_ok());
  EXPECT_EQ(e.message(), "bad");
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, RangeBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.next_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ParetoIsHeavyTailedAboveScale) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.next_pareto(2.0, 1.5), 2.0);
}

TEST(Time, TransmitTime) {
  // 1 MB over 8 Mbit/s = 1 second.
  EXPECT_EQ(transmit_time(1'000'000, 8e6), seconds(1));
  EXPECT_EQ(transmit_time(123, 0), Duration::zero());
}

TEST(Time, MsRoundTrip) {
  EXPECT_NEAR(to_ms(from_ms(53.87)), 53.87, 1e-9);
  EXPECT_NEAR(to_sec(from_sec(0.25)), 0.25, 1e-12);
}

TEST(Stats, BasicMoments) {
  Series s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
}

TEST(Stats, EmptySeriesIsSafe) {
  Series s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.percentile(50), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RealtimeEnv, FiresTimerOnce) {
  RealtimeEnv env;
  std::atomic<int> fired{0};
  env.schedule_after(millis(5), [&] { ++fired; });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(fired.load(), 1);
}

TEST(RealtimeEnv, OrdersTimers) {
  RealtimeEnv env;
  std::mutex m;
  std::vector<int> order;
  env.schedule_after(millis(20), [&] {
    std::lock_guard<std::mutex> l(m);
    order.push_back(2);
  });
  env.schedule_after(millis(5), [&] {
    std::lock_guard<std::mutex> l(m);
    order.push_back(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::lock_guard<std::mutex> l(m);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(RealtimeEnv, CancelPreventsFiring) {
  RealtimeEnv env;
  std::atomic<int> fired{0};
  TimerId id = env.schedule_after(millis(30), [&] { ++fired; });
  env.cancel(id);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(fired.load(), 0);
}

TEST(RealtimeEnv, RunSyncExecutesOnEnvThread) {
  RealtimeEnv env;
  bool ran = false;
  env.run_sync([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(RealtimeEnv, PostRunsSoon) {
  RealtimeEnv env;
  std::atomic<bool> ran{false};
  env.post([&] { ran = true; });
  for (int i = 0; i < 200 && !ran; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(ran.load());
}

// Waits up to 5 s for `done`; true if it became true.
bool eventually(const std::atomic<bool>& done) {
  for (int i = 0; i < 5000 && !done; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return done.load();
}

void signal_fd(int fd) {
  uint64_t one = 1;
  ASSERT_EQ(write(fd, &one, sizeof one), static_cast<ssize_t>(sizeof one));
}

TEST(RealtimeEnv, FdCallbacksTimersAndPostsShareOneThread) {
  int efd = eventfd(0, EFD_NONBLOCK);
  ASSERT_GE(efd, 0);
  std::mutex m;
  std::vector<std::thread::id> seen;
  std::atomic<bool> fd_ran{false}, timer_ran{false}, post_ran{false};
  auto record = [&] {
    std::lock_guard<std::mutex> l(m);
    seen.push_back(std::this_thread::get_id());
  };
  {
    RealtimeEnv env;
    env.run_sync([&] {
      env.add_fd(efd, EPOLLIN, [&](uint32_t events) {
        EXPECT_TRUE(events & EPOLLIN);
        uint64_t v;
        ASSERT_EQ(read(efd, &v, sizeof v), static_cast<ssize_t>(sizeof v));
        record();
        fd_ran = true;
      });
    });
    env.schedule_after(millis(2), [&] {
      record();
      timer_ran = true;
    });
    env.post([&] {
      record();
      post_ran = true;
    });
    signal_fd(efd);
    ASSERT_TRUE(eventually(fd_ran));
    ASSERT_TRUE(eventually(timer_ran));
    ASSERT_TRUE(eventually(post_ran));
    env.run_sync([&] { env.remove_fd(efd); });
  }
  close(efd);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_NE(seen[0], std::this_thread::get_id());
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(seen[1], seen[2]);
}

TEST(RealtimeEnv, PostFromAnotherThreadWakesParkedLoop) {
  RealtimeEnv env;
  // Parked with nothing to do, then parked until a timer 30 s out: either
  // way only the wake eventfd can get the post run in time.
  for (Duration far : {Duration::zero(), seconds(30)}) {
    if (far > Duration::zero()) env.schedule_after(far, [] {});
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it park
    std::atomic<bool> ran{false};
    auto start = std::chrono::steady_clock::now();
    std::thread poster([&] { env.post([&] { ran = true; }); });
    poster.join();
    ASSERT_TRUE(eventually(ran));
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
  }
}

TEST(RealtimeEnv, SelfRepostingTaskDoesNotStarveReadableFd) {
  int efd = eventfd(0, EFD_NONBLOCK);
  ASSERT_GE(efd, 0);
  std::atomic<bool> fd_ran{false};
  std::atomic<uint64_t> spins{0};
  {
    RealtimeEnv env;
    env.run_sync([&] {
      env.add_fd(efd, EPOLLIN, [&](uint32_t) {
        uint64_t v;
        (void)!read(efd, &v, sizeof v);
        fd_ran = true;
      });
    });
    // Keeps the task queue non-empty until the fd's callback has run (or a
    // generous cap, so a starving loop fails rather than hangs).
    std::function<void()> spin = [&] {
      if (!fd_ran && spins.fetch_add(1) < 50'000'000) env.post(spin);
    };
    env.post(spin);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    signal_fd(efd);
    EXPECT_TRUE(eventually(fd_ran));
    env.run_sync([&] { env.remove_fd(efd); });
  }
  close(efd);
  EXPECT_LT(spins.load(), 50'000'000u);
}

TEST(RealtimeEnv, SubMillisecondTimersAreNotRoundedToMilliseconds) {
  RealtimeEnv env;
  std::vector<int64_t> elapsed_us;
  for (int i = 0; i < 21; ++i) {
    std::promise<void> fired;
    auto start = std::chrono::steady_clock::now();
    env.schedule_after(micros(200), [&] { fired.set_value(); });
    fired.get_future().wait();
    elapsed_us.push_back(std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count());
  }
  std::sort(elapsed_us.begin(), elapsed_us.end());
  EXPECT_GE(elapsed_us.front(), 200);  // never early
  // A loop that parked in whole milliseconds would take at least 1 ms.
  EXPECT_LT(elapsed_us[elapsed_us.size() / 2], 900);
}

TEST(RealtimeEnv, TaskCancelsATimerDueInTheSamePass) {
  std::atomic<int> fired{0};
  std::atomic<TimerId> second{kInvalidTimer};
  RealtimeEnv env;
  // Both are queued on the loop thread before either can run.
  env.run_sync([&] {
    env.schedule_after(millis(5), [&] {
      env.cancel(second.load());
      ++fired;
    });
    second = env.schedule_after(millis(5), [&] { fired += 100; });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(fired.load(), 1);
}

TEST(RealtimeEnv, FdRemovedByAnEarlierCallbackIsNotCalled) {
  int a = eventfd(1, EFD_NONBLOCK), b = eventfd(1, EFD_NONBLOCK);
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  std::atomic<int> calls{0};
  {
    RealtimeEnv env;
    // Both fds are readable when registered, so both events arrive in one
    // poll; whichever callback runs first removes both fds (itself too).
    env.run_sync([&] {
      for (int fd : {a, b})
        env.add_fd(fd, EPOLLIN, [&](uint32_t) {
          ++calls;
          env.remove_fd(a);
          env.remove_fd(b);
        });
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  close(a);
  close(b);
  EXPECT_EQ(calls.load(), 1);
}

}  // namespace
}  // namespace stab
