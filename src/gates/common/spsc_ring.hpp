// Lock-free single-producer single-consumer ring buffer.
//
// The storage of every rt-engine stage inbox (core/stage_inbox.hpp). More
// than one producer thread is fine as long as something serializes their
// pushes with a happens-before edge, as a shared inbox's producer lock
// does. Capacity is rounded up to a power of two.
//
// Cache layout (audited): each side owns one cache line holding its index
// plus a cached copy of the peer's index. The cached copy lets try_push /
// try_pop skip the acquire-load of the peer's (contended) line entirely
// while the ring is comfortably non-full/non-empty — the peer line is only
// re-read when the cached view says we might be out of space/items. The
// cold fields (slots_, mask_) sit apart from both hot lines.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <new>
#include <optional>
#include <vector>

#include "gates/common/cache_line.hpp"
#include "gates/common/check.hpp"

namespace gates {

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t min_capacity) {
    GATES_CHECK(min_capacity > 0);
    std::size_t cap = std::bit_ceil(min_capacity);
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  /// Producer side. Returns false when full.
  bool try_push(T item) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head - cached_tail_ == slots_.size()) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head - cached_tail_ == slots_.size()) return false;
    }
    slots_[head & mask_] = std::move(item);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Producer side: on success calls `fill(slot)` to write the next slot in
  /// place, then publishes it; a full ring returns false without touching
  /// the caller's state. Filling in place skips the intermediate object a
  /// try_push would move through — on the packet hot path that is one whole
  /// item copy per hop. `fill` assigns over the slot's previous (consumed)
  /// occupant, so it must leave every field in a valid state.
  template <typename F>
  bool try_produce(F&& fill) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head - cached_tail_ == slots_.size()) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head - cached_tail_ == slots_.size()) return false;
    }
    fill(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Producer side: pushes items[from..) until the ring fills, publishing
  /// the whole batch with a single release-store. Returns the count pushed.
  std::size_t try_push_n(std::vector<T>& items, std::size_t from = 0) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t want = items.size() - from;
    std::size_t space = slots_.size() - (head - cached_tail_);
    if (space < want) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      space = slots_.size() - (head - cached_tail_);
    }
    const std::size_t n = std::min(space, want);
    for (std::size_t i = 0; i < n; ++i) {
      slots_[(head + i) & mask_] = std::move(items[from + i]);
    }
    if (n != 0) head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Consumer side. Returns nullopt when empty.
  std::optional<T> try_pop() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (cached_head_ == tail) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (cached_head_ == tail) return std::nullopt;
    }
    T item = std::move(slots_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return item;
  }

  /// Consumer side: moves up to `max` items into `out` (appending),
  /// freeing the whole batch of slots with a single release-store.
  std::size_t try_pop_n(std::vector<T>& out, std::size_t max) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t avail = cached_head_ - tail;
    if (avail < max) {
      cached_head_ = head_.load(std::memory_order_acquire);
      avail = cached_head_ - tail;
    }
    const std::size_t n = std::min(max, avail);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(slots_[(tail + i) & mask_]));
    }
    if (n != 0) tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  /// Consumer side: applies `f` to up to `max` items in place — no move
  /// into an intermediate buffer — then frees the whole span with a single
  /// release-store. `f` must leave each slot destructible (a processed
  /// value or a moved-from husk both qualify); the slot is reclaimed when a
  /// later push overwrites it. Returns the count consumed.
  template <typename F>
  std::size_t consume_n(F&& f, std::size_t max) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t avail = cached_head_ - tail;
    if (avail < max) {
      cached_head_ = head_.load(std::memory_order_acquire);
      avail = cached_head_ - tail;
    }
    const std::size_t n = std::min(max, avail);
    for (std::size_t i = 0; i < n; ++i) f(slots_[(tail + i) & mask_]);
    if (n != 0) tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  std::size_t size() const {
    return head_.load(std::memory_order_acquire) -
           tail_.load(std::memory_order_acquire);
  }
  std::size_t capacity() const { return slots_.size(); }
  bool empty() const { return size() == 0; }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  /// Producer-owned line: write index + cached view of the consumer's.
  alignas(detail::kCacheLine) std::atomic<std::size_t> head_{0};
  std::size_t cached_tail_ = 0;
  /// Consumer-owned line: read index + cached view of the producer's.
  alignas(detail::kCacheLine) std::atomic<std::size_t> tail_{0};
  std::size_t cached_head_ = 0;
};

// Producer and consumer hot fields must land on distinct cache lines; the
// alignas above plus these size bounds pin the layout without offsetof
// (SpscRing is not standard-layout).
static_assert(alignof(SpscRing<int>) == detail::kCacheLine);
static_assert(sizeof(SpscRing<int>) >= 3 * detail::kCacheLine);

}  // namespace gates
