// One wait primitive: an eventcount over a 32-bit futex word.
//
// A thread that finds its condition false parks without a lock. It runs
//
//   for (;;) {
//     const auto key = ec.prepare_wait();
//     if (ready()) { ec.cancel_wait(); break; }
//     ec.wait(key);  // or wait(key, deadline)
//   }
//
// (await() is that loop), and the thread that makes the condition true
// stores it and then calls notify_all(). prepare_wait() registers the
// waiter and snapshots the epoch; a notify that finds a waiter registered
// bumps the epoch before it wakes the futex, so a notify that lands between
// the re-check and wait() makes the futex wait return at once: no wakeup is
// lost. The fence in prepare_wait() pairs with the one in notify_all():
// either the notifier sees the waiter's registration, or the waiter's
// re-check sees the notifier's store. With nobody waiting, notify_all() is
// that fence and one load.
//
// Timed waits take an absolute CLOCK_MONOTONIC deadline (steady_clock on
// Linux) through FUTEX_WAIT_BITSET, so a spurious wake never stretches the
// wait.
//
// BasicEventCount<true> is the process-shared variant: its futex skips
// FUTEX_PRIVATE_FLAG, so the kernel keys it by the shared page, not the
// virtual address, and a waiter in another process (or behind another
// mapping of the segment) is woken. It lives in the shared mapping itself;
// all-zero bytes are its initial state. A process that dies while waiting
// leaves its registration behind, which costs later notifies a syscall but
// loses nothing.
#pragma once

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <ctime>

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

namespace gates {

/// An absolute point on CLOCK_MONOTONIC, the clock of every timed wait.
using Deadline = std::chrono::steady_clock::time_point;

/// now + `seconds` (clamped to a year, so "forever" cannot overflow).
inline Deadline deadline_after(double seconds) {
  const double bounded = std::min(seconds, 365.0 * 24 * 3600);
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(bounded));
}

template <bool kProcessShared>
class BasicEventCount {
 public:
  /// The epoch a waiter saw when it registered.
  struct Key {
    std::uint32_t epoch;
  };

  /// Registers the caller as a waiter. Follow with a re-check of the
  /// condition, then exactly one of cancel_wait() or wait().
  Key prepare_wait() {
    waiters_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return Key{epoch_.load(std::memory_order_acquire)};
  }

  /// The re-check found the condition true: withdraw the registration.
  void cancel_wait() { waiters_.fetch_sub(1, std::memory_order_relaxed); }

  /// Sleeps until a notify after prepare_wait() (returns at once if one
  /// already landed). May return spuriously: re-check, then prepare again.
  void wait(Key key) {
    futex(FUTEX_WAIT_BITSET, key.epoch, nullptr);
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// As wait(), but returns false once `deadline` has passed, and never
  /// sooner.
  bool wait(Key key, Deadline deadline) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        deadline.time_since_epoch())
                        .count();
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
    const bool timed_out =
        futex(FUTEX_WAIT_BITSET, key.epoch, &ts) != 0 && errno == ETIMEDOUT;
    waiters_.fetch_sub(1, std::memory_order_relaxed);
    return !timed_out;
  }

  /// Wakes every registered waiter; call after storing what they wait for.
  void notify_all() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) == 0) return;
    epoch_.fetch_add(1, std::memory_order_release);
    futex(FUTEX_WAKE, INT_MAX, nullptr);
  }

  /// Parks until `ready()` holds.
  template <typename Ready>
  void await(Ready&& ready) {
    for (;;) {
      const Key key = prepare_wait();
      if (ready()) return cancel_wait();
      wait(key);
    }
  }

  /// Parks until `ready()` holds or `deadline` passes; returns ready().
  template <typename Ready>
  bool await(Ready&& ready, Deadline deadline) {
    for (;;) {
      const Key key = prepare_wait();
      if (ready()) {
        cancel_wait();
        return true;
      }
      if (!wait(key, deadline)) return ready();
    }
  }

 private:
  long futex(int op, std::uint32_t value, const timespec* deadline) {
    return ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&epoch_),
                     op | (kProcessShared ? 0 : FUTEX_PRIVATE_FLAG), value,
                     deadline, nullptr, FUTEX_BITSET_MATCH_ANY);
  }

  static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
                    std::atomic<std::uint32_t>::is_always_lock_free,
                "the futex word must be a plain 32-bit integer");

  std::atomic<std::uint32_t> epoch_{0};  // the futex word
  std::atomic<std::uint32_t> waiters_{0};
};

using EventCount = BasicEventCount<false>;
/// Lives in a shared mapping; wakes across processes.
using SharedEventCount = BasicEventCount<true>;

}  // namespace gates
