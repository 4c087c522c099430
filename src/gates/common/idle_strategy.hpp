// Tunable idle behavior for hot-path waits.
//
// The engines' waits used to be bare parks (StageInbox, ReorderMerge, the
// shm ring) and raw sleep_for pacing (source rate control, throttle gates).
// Parking is right for sparse traffic but costs a wake syscall + scheduling
// latency per handoff; raw sleep_for under-delivers sub-millisecond sleeps by
// the timer slack. IdleStrategy makes the trade explicit:
//
//   spin      — busy-poll with cpu pauses (periodically yielding so a
//               core-starved box still makes progress); never parks.
//   balanced  — short pause-spin, then a few yields, then park (cheap
//               wakes when traffic streams back-to-back).
//   park      — yield_limit yields, then park; with yield_limit 0 the
//               first idle step parks.
//
// The engine default is for_host(): park at once when the thread may run
// on more than one CPU, yield-then-park when it may run on one.
//
// Waiters drive it as:  IdleStrategy idle(cfg); while (!ready()) {
// if (idle.should_park()) <EventCount await>; }  — reset() after progress
// (common/event_count.hpp is the one parking primitive).
//
// precise_sleep() is the pacing analogue: coarse sleep_for for the bulk,
// then spin out the tail so sub-millisecond rates don't accumulate timer
// granularity as a systematic undershoot.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

#include "gates/common/affinity.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace gates {

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

struct IdleConfig {
  enum Mode : std::uint8_t { kSpin, kBalanced, kPark };
  Mode mode = kBalanced;
  /// Pause-loop iterations before escalating to yields.
  std::uint32_t spin_limit = 256;
  /// sched_yield calls before parking (kBalanced) or between spin rounds
  /// (kSpin's starvation escape hatch).
  std::uint32_t yield_limit = 16;

  static IdleConfig spin() { return {kSpin, 4096, 1}; }
  static IdleConfig balanced() { return {}; }
  static IdleConfig park() { return {kPark, 0, 1}; }

  /// The engines' default, adapted to the calling thread's affinity mask.
  ///
  /// More than one CPU: park at once. Each thread then has a CPU to
  /// itself, so a pause or a yield only burns that CPU while the producer
  /// runs elsewhere; at stream rates the next burst is far beyond any spin,
  /// and a parked consumer wakes to a whole batch instead of taking the
  /// producer's publishes one at a time.
  ///
  /// One CPU (a 1-core box, `taskset -c 0`, a 1-CPU cpuset): 16 yields,
  /// then park. A yield hands the core to the producer far more cheaply
  /// than a futex wait and wake, and a pause only starves it.
  ///
  /// Tests that assert exact spin/yield/park sequences construct explicit
  /// configs instead.
  static IdleConfig for_host() {
    IdleConfig config = park();
    config.yield_limit = hardware_core_count() > 1 ? 0 : 16;
    return config;
  }
};

class IdleStrategy {
 public:
  IdleStrategy() = default;
  explicit IdleStrategy(const IdleConfig& config) : config_(config) {}

  /// One idle step. Returns true when the caller should fall back to its
  /// parking primitive (an EventCount wait); kSpin never does.
  bool should_park() {
    switch (config_.mode) {
      case IdleConfig::kSpin:
        if (count_ < config_.spin_limit) {
          ++count_;
          cpu_pause();
        } else {
          // Escape hatch: periodically cede the core so an oversubscribed
          // machine (or a 1-core box) can run the producer at all.
          count_ = 0;
          std::this_thread::yield();
        }
        return false;
      case IdleConfig::kBalanced:
        if (count_ < config_.spin_limit) {
          ++count_;
          cpu_pause();
          return false;
        }
        if (count_ < config_.spin_limit + config_.yield_limit) {
          ++count_;
          std::this_thread::yield();
          return false;
        }
        return true;
      case IdleConfig::kPark:
      default:
        if (count_ < config_.yield_limit) {
          ++count_;
          std::this_thread::yield();
          return false;
        }
        return true;
    }
  }

  /// Call after making progress so the next wait spins again.
  void reset() { count_ = 0; }

  const IdleConfig& config() const { return config_; }

 private:
  IdleConfig config_;
  std::uint32_t count_ = 0;
};

/// Sleeps `seconds` with sub-slack precision: coarse sleep_for for all but
/// the last kSleepSlack, then spin-with-pause to the deadline. Negative or
/// zero durations return immediately. This is what source pacing and
/// throttle gates use so owed-sleep accounting doesn't absorb timer
/// granularity as systematic undershoot (or oversleep, at high rates).
inline void precise_sleep(double seconds) {
  if (seconds <= 0) return;
  using clock = std::chrono::steady_clock;
  constexpr double kSleepSlack = 200e-6;  // typical timer slack + wakeup cost
  const auto deadline =
      clock::now() + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double>(seconds));
  if (seconds > kSleepSlack) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(seconds - kSleepSlack));
  }
  while (clock::now() < deadline) cpu_pause();
}

}  // namespace gates
