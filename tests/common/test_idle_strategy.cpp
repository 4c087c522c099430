#include "gates/common/idle_strategy.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "gates/common/affinity.hpp"

namespace gates {
namespace {

// These tests construct explicit configs: for_host() adapts to the box it
// runs on, so asserting exact step sequences against it would be flaky
// across machines.

TEST(IdleStrategy, SpinModeNeverParks) {
  IdleConfig config = IdleConfig::spin();
  config.spin_limit = 4;
  IdleStrategy idle(config);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(idle.should_park());
  }
}

TEST(IdleStrategy, BalancedEscalatesSpinYieldPark) {
  IdleConfig config;  // kBalanced
  config.spin_limit = 3;
  config.yield_limit = 2;
  IdleStrategy idle(config);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(idle.should_park()) << "step " << i;
  }
  EXPECT_TRUE(idle.should_park());
  EXPECT_TRUE(idle.should_park());  // stays parked until progress
  idle.reset();
  EXPECT_FALSE(idle.should_park());
}

TEST(IdleStrategy, BalancedWithZeroSpinSkipsStraightToYields) {
  IdleConfig config;
  config.spin_limit = 0;
  config.yield_limit = 2;
  IdleStrategy idle(config);
  EXPECT_FALSE(idle.should_park());
  EXPECT_FALSE(idle.should_park());
  EXPECT_TRUE(idle.should_park());
}

TEST(IdleStrategy, ParkModeYieldsThenParks) {
  IdleConfig config = IdleConfig::park();  // yield_limit = 1
  IdleStrategy idle(config);
  EXPECT_FALSE(idle.should_park());
  EXPECT_TRUE(idle.should_park());
  idle.reset();
  EXPECT_FALSE(idle.should_park());
}

TEST(IdleStrategy, ForHostParksAtOnceOnMultiCpuHosts) {
  const IdleConfig config = IdleConfig::for_host();
  EXPECT_EQ(config.mode, IdleConfig::kPark);
  if (hardware_core_count() <= 1) {
    // Covered by ForHostDropsSpinWhenTheThreadMayUseOneCpu.
    EXPECT_EQ(config.yield_limit, 16u);
    return;
  }
  EXPECT_EQ(config.yield_limit, 0u);
  IdleStrategy idle(config);
  EXPECT_TRUE(idle.should_park());
}

// A thread confined to one CPU (taskset -c 0, a 1-CPU cpuset) must not
// pause-spin however many CPUs the machine has: it yields 16 times, then
// parks.
TEST(IdleStrategy, ForHostDropsSpinWhenTheThreadMayUseOneCpu) {
#if defined(__linux__)
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(saved), &saved), 0);
  int first = -1;
  for (int c = 0; c < CPU_SETSIZE && first < 0; ++c) {
    if (CPU_ISSET(c, &saved)) first = c;
  }
  ASSERT_TRUE(pin_current_thread_to_core(first));
  const IdleConfig config = IdleConfig::for_host();
  // Restore before asserting, so a failure leaves the test thread's mask
  // as it found it.
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved), 0);
  EXPECT_EQ(config.spin_limit, 0u);
  IdleStrategy idle(config);
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(idle.should_park()) << "step " << i;
  }
  EXPECT_TRUE(idle.should_park());
#else
  GTEST_SKIP() << "affinity masks are Linux-only";
#endif
}

TEST(PreciseSleep, SleepsAtLeastTheRequestedDuration) {
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  precise_sleep(2e-3);
  const double elapsed =
      std::chrono::duration<double>(clock::now() - start).count();
  EXPECT_GE(elapsed, 2e-3);
  precise_sleep(0);    // must return immediately
  precise_sleep(-1);   // and tolerate negatives
}

}  // namespace
}  // namespace gates
