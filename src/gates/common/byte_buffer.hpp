// Byte payloads carried by packets and repository blobs.
//
// Copying a ByteBuffer shares the underlying bytes (refcounted, immutable
// while shared); the first mutation through a shared handle clones them —
// copy-on-write. This is what makes the engines' fan-out routing, sender-
// side replay retention and failover re-injection alias one allocation
// instead of deep-copying per hop.
//
// Storage is a PayloadArena block: an intrusive 32-byte header (refcount,
// size, capacity) followed by the bytes, so the handle is one raw pointer
// and fresh payloads recycle slab blocks instead of hitting the heap
// (shared_ptr control block + vector buffer, two allocations, before).
// COW detach clones draw from the arena too.
//
// Thread-safety: concurrent const reads of a shared buffer are safe, and a
// mutation through one handle never disturbs the bytes other handles see
// (it detaches onto a private clone first). Each ByteBuffer *object* is
// still single-owner: two threads may not touch the same handle without
// external synchronization.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "gates/common/arena.hpp"

namespace gates {

class ByteBuffer {
 public:
  ByteBuffer() = default;
  /// Zero-filled, like the std::vector storage it replaced.
  explicit ByteBuffer(std::size_t size)
      : block_(size != 0 ? PayloadArena::global().acquire(size, true)
                         : nullptr) {}
  explicit ByteBuffer(const std::vector<std::uint8_t>& data) {
    if (!data.empty()) {
      block_ = PayloadArena::global().acquire(data.size(), false);
      std::memcpy(block_->data(), data.data(), data.size());
    }
  }
  static ByteBuffer from_string(std::string_view s) {
    ByteBuffer b;
    if (!s.empty()) {
      b.block_ = PayloadArena::global().acquire(s.size(), false);
      std::memcpy(b.block_->data(), s.data(), s.size());
    }
    return b;
  }
  /// `size` bytes left uninitialized — for producers that overwrite the
  /// whole payload immediately (packet generators, serializers).
  static ByteBuffer uninitialized(std::size_t size) {
    ByteBuffer b;
    if (size != 0) b.block_ = PayloadArena::global().acquire(size, false);
    return b;
  }

  ~ByteBuffer() { release(block_); }

  // Copies share; mutations below detach.
  ByteBuffer(const ByteBuffer& other) : block_(other.block_) {
    if (block_ != nullptr) PayloadArena::add_ref(block_);
  }
  ByteBuffer& operator=(const ByteBuffer& other) {
    if (this != &other) {
      PayloadBlock* old = block_;
      block_ = other.block_;
      if (block_ != nullptr) PayloadArena::add_ref(block_);
      release(old);
    }
    return *this;
  }
  ByteBuffer(ByteBuffer&& other) noexcept : block_(other.block_) {
    other.block_ = nullptr;
  }
  ByteBuffer& operator=(ByteBuffer&& other) noexcept {
    if (this != &other) {
      release(block_);
      block_ = other.block_;
      other.block_ = nullptr;
    }
    return *this;
  }

  const std::uint8_t* data() const {
    return block_ != nullptr ? block_->data() : nullptr;
  }
  std::uint8_t* data() {
    detach();
    return block_ != nullptr ? block_->data() : nullptr;
  }
  std::size_t size() const { return block_ != nullptr ? block_->size : 0; }
  bool empty() const { return size() == 0; }

  /// vector::resize semantics: growth zero-fills the new tail, shrinking
  /// keeps the allocation.
  void resize(std::size_t n) {
    if (block_ == nullptr) {
      if (n != 0) block_ = PayloadArena::global().acquire(n, true);
      return;
    }
    const bool shared = is_shared();
    if (!shared && n <= block_->capacity) {
      if (n > block_->size) {
        std::memset(block_->data() + block_->size, 0, n - block_->size);
      }
      block_->size = n;
      return;
    }
    reallocate(n, n, shared);
  }
  /// Drops this handle's reference; never copies.
  void clear() {
    release(block_);
    block_ = nullptr;
  }

  void append(const void* src, std::size_t n) {
    if (n == 0) return;
    const auto* p = static_cast<const std::uint8_t*>(src);
    if (block_ == nullptr) {
      block_ = PayloadArena::global().acquire(n, false);
      std::memcpy(block_->data(), p, n);
      return;
    }
    const std::size_t old = block_->size;
    const bool shared = is_shared();
    if (shared || old + n > block_->capacity) reallocate(old + n, old, shared);
    std::memcpy(block_->data() + old, p, n);
    block_->size = old + n;
  }

  std::string_view as_string_view() const {
    return {reinterpret_cast<const char*>(data()), size()};
  }

  /// True when both handles alias the same allocation (diagnostics/tests).
  bool shares_storage(const ByteBuffer& other) const {
    return block_ != nullptr && block_ == other.block_;
  }

  /// Process-wide count of payload byte duplications — COW detaches. The
  /// steady-state engine data path must add zero; tests and bench assert on
  /// the delta across a run.
  static std::uint64_t deep_copies() {
    return deep_copies_().load(std::memory_order_relaxed);
  }

  friend bool operator==(const ByteBuffer& a, const ByteBuffer& b) {
    if (a.block_ == b.block_) return true;
    if (a.size() != b.size()) return false;
    return a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0;
  }

 private:
  /// refs > 1 may be stale under concurrency only in the direction of
  /// over-counting for handles being destroyed, so a racing reader can at
  /// worst cause an unnecessary clone, never a shared mutation. (If we load
  /// refs == 1 this handle is provably the sole owner.)
  bool is_shared() const {
    return block_->refs.load(std::memory_order_acquire) > 1;
  }

  /// Clone before mutating when the bytes are shared with another handle.
  void detach() {
    if (block_ != nullptr && is_shared()) reallocate(block_->size,
                                                     block_->size, true);
  }

  /// Moves to a fresh block of `size` bytes, preserving the first
  /// min(keep, size) bytes and zero-filling any grown tail. `counts_copy`
  /// (set when detaching off a shared block) bumps the deep-copy counter —
  /// sole-owner capacity growth is amortized bookkeeping, not a COW event.
  void reallocate(std::size_t size, std::size_t keep, bool counts_copy) {
    // Geometric growth keeps byte-at-a-time appends linear even past the
    // largest size class (where the arena would otherwise size exactly).
    const std::size_t want =
        size > block_->capacity ? std::max(size, block_->capacity * 2) : size;
    PayloadBlock* fresh = PayloadArena::global().acquire(want, false);
    fresh->size = size;
    const std::size_t copied = keep < size ? keep : size;
    if (copied != 0) std::memcpy(fresh->data(), block_->data(), copied);
    if (size > copied) std::memset(fresh->data() + copied, 0, size - copied);
    release(block_);
    block_ = fresh;
    if (counts_copy) deep_copies_().fetch_add(1, std::memory_order_relaxed);
  }

  /// The last owner frees the block. acq_rel: the release half publishes
  /// this owner's writes, the acquire half makes every other owner's writes
  /// visible before the free (same `lock xadd` on x86 as a release
  /// decrement, and visible to TSan, which does not model a standalone
  /// acquire fence).
  static void release(PayloadBlock* block) {
    if (block != nullptr &&
        block->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      PayloadArena::global().release(block);
    }
  }

  static std::atomic<std::uint64_t>& deep_copies_() {
    static std::atomic<std::uint64_t> count{0};
    return count;
  }

  PayloadBlock* block_ = nullptr;
};

}  // namespace gates
