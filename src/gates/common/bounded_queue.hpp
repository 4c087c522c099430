// Thread-safe bounded FIFO for the real-time engine.
//
// Blocking push/pop with condition variables, plus non-blocking variants and
// close() for shutdown. The DES engine uses plain std::deque buffers instead
// (single-threaded); this queue is the rt-engine counterpart of a stage's
// input buffer.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "gates/common/check.hpp"

namespace gates {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    GATES_CHECK(capacity > 0);
  }

  /// Blocks until space is available or the queue is closed.
  /// Returns false iff the queue was closed.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Pushes every item of `items` in order, blocking as space frees up:
  /// one lock acquisition and one notification per wakeup window instead of
  /// per item. Returns the number pushed — `items.size()` unless the queue
  /// was closed mid-way. On full success `items` is left cleared; on a
  /// close, unpushed items stay behind (moved-from slots precede them).
  std::size_t push_all(std::vector<T>& items) {
    std::size_t pushed = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (pushed < items.size()) {
      not_full_.wait(lock,
                     [&] { return items_.size() < capacity_ || closed_; });
      if (closed_) break;
      std::size_t round = 0;
      while (pushed < items.size() && items_.size() < capacity_) {
        items_.push_back(std::move(items[pushed]));
        ++pushed;
        ++round;
      }
      // Publish before (possibly) waiting for more space so a consumer can
      // make room; one wakeup covers the whole round.
      lock.unlock();
      if (round > 1) {
        not_empty_.notify_all();
      } else if (round == 1) {
        not_empty_.notify_one();
      }
      lock.lock();
    }
    lock.unlock();
    if (pushed == items.size()) items.clear();
    return pushed;
  }

  /// Non-blocking push; returns false when full or closed.
  bool try_push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Blocks up to `timeout_seconds` for an item. Returns nullopt on timeout
  /// as well as on close-and-drained; callers that need to tell the two
  /// apart check closed(). Lets a consumer thread wake periodically (e.g.
  /// to publish a heartbeat) while the queue is idle.
  std::optional<T> pop_for(double timeout_seconds) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                        [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;  // timed out, or closed+drained
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Non-blocking pop. Like every pop/drain variant, notifies `not_full_`
  /// only when an item was actually removed — a pop that comes back empty
  /// (timeout, closed-and-drained, or nothing queued) must not wake a
  /// producer that would only re-check a still-full queue and sleep again.
  std::optional<T> try_pop() {
    std::optional<T> out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (items_.empty()) return std::nullopt;
      out = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return out;
  }

  /// Moves up to `max` items into `out` (appending) under one lock,
  /// blocking until at least one item is available, the queue is closed
  /// and drained, or a kick() lands. Returns the number moved (0 = closed
  /// and drained, or kicked).
  std::size_t drain(std::vector<T>& out, std::size_t max) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return drainable(); });
    return drain_locked(lock, out, max);
  }

  /// As drain(), but waits at most `timeout_seconds`; returns 0 on timeout
  /// as well as on close-and-drained or a kick (callers check closed() to
  /// tell them apart, as with pop_for).
  std::size_t drain_for(std::vector<T>& out, std::size_t max,
                        double timeout_seconds) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                        [&] { return drainable(); });
    return drain_locked(lock, out, max);
  }

  /// Ends a drain/drain_for wait early, empty-handed unless items are
  /// queued; a kick that lands while no drain waits ends the next one.
  void kick() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      kicked_ = true;
    }
    not_empty_.notify_all();
  }

  /// Wakes all waiters; subsequent pushes fail, pops drain remaining items.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Reverses close() and discards whatever was queued — the crash-stop
  /// restart path: a revived consumer must not see its predecessor's
  /// undrained input (upstream replay re-sends the unacknowledged part).
  /// Only call when no consumer thread is running.
  void reopen() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = false;
      kicked_ = false;
      items_.clear();
    }
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  std::size_t capacity() const { return capacity_; }

 private:
  /// The drain variants' wake condition (mu_ held).
  bool drainable() const { return !items_.empty() || closed_ || kicked_; }

  /// Shared tail of the drain variants: take the kick, move up to `max`
  /// items out, then wake producers commensurate with the space actually
  /// freed (none when nothing was removed).
  std::size_t drain_locked(std::unique_lock<std::mutex>& lock,
                           std::vector<T>& out, std::size_t max) {
    kicked_ = false;
    const std::size_t n = std::min(max, items_.size());
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    lock.unlock();
    if (n > 1) {
      not_full_.notify_all();
    } else if (n == 1) {
      not_full_.notify_one();
    }
    return n;
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
  bool kicked_ = false;
};

}  // namespace gates
