// EventCount: the prepare → re-check → wait protocol loses no notify, a
// cancelled registration leaves nothing behind, a timed wait ends at its
// absolute deadline and not before, and a two-thread handoff stress sees
// every handoff.
#include "gates/common/event_count.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace gates {
namespace {

using std::chrono::steady_clock;

TEST(EventCount, NotifyBetweenPrepareAndWaitIsNotLost) {
  EventCount ec;
  const auto key = ec.prepare_wait();
  ec.notify_all();
  // The epoch moved after the key was taken: wait() returns at once. If
  // the notify were lost this would sleep until the deadline and fail.
  EXPECT_TRUE(ec.wait(key, deadline_after(5.0)));
}

TEST(EventCount, CancelWaitWithdrawsTheRegistration) {
  EventCount ec;
  const auto first = ec.prepare_wait();
  ec.cancel_wait();
  // Nobody is registered, so this notify takes the fast path and leaves
  // the epoch alone: a waiter that registers afterwards sleeps to its
  // deadline.
  ec.notify_all();
  const auto second = ec.prepare_wait();
  EXPECT_EQ(first.epoch, second.epoch);
  EXPECT_FALSE(ec.wait(second, deadline_after(0.02)));
}

TEST(EventCount, TimedWaitEndsAtItsDeadlineNotBefore) {
  EventCount ec;
  for (const double seconds : {0.0, 0.005, 0.05}) {
    const Deadline deadline = deadline_after(seconds);
    const auto key = ec.prepare_wait();
    EXPECT_FALSE(ec.wait(key, deadline)) << seconds;
    EXPECT_GE(steady_clock::now(), deadline) << seconds;
  }
  // await() with a condition that never holds returns false, also no
  // sooner than the deadline.
  const Deadline deadline = deadline_after(0.02);
  EXPECT_FALSE(ec.await([] { return false; }, deadline));
  EXPECT_GE(steady_clock::now(), deadline);
}

TEST(EventCount, WaiterWakesOnNotifyFromAnotherThread) {
  EventCount ec;
  std::atomic<bool> ready{false};
  std::thread notifier([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ready.store(true);
    ec.notify_all();
  });
  const auto start = steady_clock::now();
  EXPECT_TRUE(ec.await([&] { return ready.load(); }, deadline_after(5.0)));
  EXPECT_LT(steady_clock::now() - start, std::chrono::seconds(2));
  notifier.join();
}

/// 200k handoffs of one token between two threads, each parking through
/// prepare → re-check → wait whenever the token is not its own. A lost
/// wakeup leaves both threads asleep and the test hangs; every handoff is
/// counted on both sides.
TEST(EventCount, TwoThreadHandoffStressObservesEveryHandoff) {
  constexpr std::uint64_t kHandoffs = 200'000;
  EventCount ec;
  // Even: the ping thread's turn; odd: the pong thread's.
  std::atomic<std::uint64_t> turn{0};
  auto play = [&](std::uint64_t parity, std::uint64_t& observed) {
    for (;;) {
      std::uint64_t t = turn.load(std::memory_order_acquire);
      while (t < kHandoffs && t % 2 != parity) {
        const auto key = ec.prepare_wait();
        t = turn.load(std::memory_order_acquire);
        if (t >= kHandoffs || t % 2 == parity) {
          ec.cancel_wait();
          break;
        }
        ec.wait(key);
        t = turn.load(std::memory_order_acquire);
      }
      if (t >= kHandoffs) return;
      ++observed;
      turn.store(t + 1, std::memory_order_release);
      ec.notify_all();
    }
  };
  std::uint64_t pong_seen = 0;
  std::thread pong([&] { play(1, pong_seen); });
  std::uint64_t ping_seen = 0;
  play(0, ping_seen);
  pong.join();
  EXPECT_EQ(ping_seen, kHandoffs / 2);
  EXPECT_EQ(pong_seen, kHandoffs / 2);
  EXPECT_EQ(turn.load(), kHandoffs);
}

}  // namespace
}  // namespace gates
