// Stage input buffer for the real-time engine.
//
// One implementation behind a blocking, batch-oriented interface: the
// lock-free SpscRing, whose capacity rounds up to a power of two. The
// consumer reads it through one call, consume().
//
// Producers: the ring's producer side is correct for any number of threads
// as long as their pushes are serialized with a happens-before edge. So an
// inbox has one of two producer sides, chosen at setup once the flow graph
// is known:
//
//  - single-producer (use_spsc()): exactly one upstream thread feeds the
//    worker. Pushes take no lock, try_produce() fills ring slots in place,
//    and the producer may serve a parked consumer in place (below).
//  - shared (the default): fan-in stages, a pool's downstream stage (any
//    releasing replica pushes) and shaped flows (a shaper thread may serve
//    several flows). One producer mutex is held across each producer-side
//    operation — push(), push_all() and the full-ring park inside it — and
//    try_produce() declines, so callers fall back to the locked push.
//
// The consumer side is the same for every inbox.
//
// Control-plane producers — failover replay re-injection and EOS-on-behalf,
// which run on the control thread — go through push_aux(), a small
// mutex-guarded side queue that consume() hands to the consumer after the
// ring items. It is intentionally unbounded, so the control thread never
// blocks on a full inbox: its occupancy is bounded externally by the replay
// retention depth.
//
// Sleep/wake protocol: ring pushes and pops are lock-free; a side that finds
// the ring full (producer) or empty (consumer) first runs its IdleStrategy
// (spin→yield per the configured mode), and only when that says to park does
// it wait on its direction's EventCount (common/event_count.hpp): register,
// re-check, sleep on the futex. The opposite side publishes its batch and
// notifies (a producer only once the owner word below says parked), which
// with nobody asleep is one fence and one load — so the steady-state path
// makes no syscall, and the eventcount's epoch rules out a lost wakeup. A
// shared inbox parks at most one producer (the one holding the producer
// mutex).
//
// Serving in place (single-producer inboxes): the consumer registers its
// park by storing kParked in an owner word. While it sleeps, the producer
// may take the consumer role itself instead of waking it: try_claim() is a
// CAS kParked → kClaimed, the claim holder reads through consume_claimed()
// with the same in-place take as the worker, and release_claim() stores
// kParked again, notifying the worker only if ring items, aux items, close
// or a kick are pending. The CAS orders the worker's and the claim holder's
// access to the consumer-side state (mutual exclusion plus happens-before).
// A worker woken by a notify, a timeout or close while a claim is in
// progress waits it out (kReclaim), and the release hands the role straight
// back to it. kick() wakes a parked consumer with nothing to consume: its
// consume() returns 0.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "gates/common/check.hpp"
#include "gates/common/event_count.hpp"
#include "gates/common/idle_strategy.hpp"
#include "gates/common/spsc_ring.hpp"

namespace gates::core {

template <typename T>
class StageInbox {
 public:
  explicit StageInbox(std::size_t capacity)
      : ring_(std::make_unique<SpscRing<T>>(capacity)) {}

  /// Marks the inbox single-producer: pushes skip the producer mutex and
  /// try_produce() and serving in place work. Only valid before any
  /// concurrent use; the engine calls this from setup() for stages with
  /// exactly one data-plane producer.
  void use_spsc() { spsc_ = true; }
  bool spsc() const { return spsc_; }

  /// Sets the spin/yield/park behavior for full/empty waits. Call before
  /// concurrent use.
  void set_idle(const IdleConfig& config) { idle_ = config; }

  // -- producer side (the data-plane producers) -------------------------------

  /// Blocking push; returns false iff closed.
  bool push(T item) {
    std::vector<T> one;
    one.push_back(std::move(item));
    return push_all(one) == 1;
  }

  /// Pushes every item, blocking as space frees. Returns the number pushed
  /// (< items.size() iff closed mid-way). On full success `items` is left
  /// cleared. `defer_wake` leaves the consumer wakeup to the caller's
  /// wake_consumer() or serve-in-place, as try_produce() does; a push that
  /// has to park on a full ring still wakes the consumer first.
  std::size_t push_all(std::vector<T>& items, bool defer_wake = false) {
    std::unique_lock<std::mutex> producer(push_mu_, std::defer_lock);
    if (!spsc_) producer.lock();
    std::size_t pushed = 0;
    IdleStrategy idle(idle_);
    while (pushed < items.size()) {
      if (closed_.load(std::memory_order_acquire)) break;
      const std::size_t n = ring_->try_push_n(items, pushed);
      pushed += n;
      if (n != 0) {
        if (!defer_wake) wake_consumer();
        idle.reset();
        continue;
      }
      // Ring full: spin/yield per the idle mode, then park until the
      // consumer frees slots — after waking it, or both sides sleep.
      if (!idle.should_park()) continue;
      wake_consumer();
      producer_wake_.await([&] {
        return ring_->size() < ring_->capacity() ||
               closed_.load(std::memory_order_acquire);
      });
      idle.reset();
    }
    if (pushed == items.size()) items.clear();
    return pushed;
  }

  /// Non-blocking single push (single-producer inbox, producer thread): on
  /// success `fill(slot)` writes the next ring slot in place; returns false
  /// — and calls nothing — when the ring is full, the inbox is closed, or
  /// the inbox is shared. Deliberately does NOT wake the consumer: the
  /// per-push seq_cst fence the wake protocol needs would cost more than
  /// the push itself, so callers batch wakeups through wake_consumer() once
  /// per flush boundary — and MUST call it before blocking themselves, or a
  /// parked consumer sleeps through the pushed items.
  template <typename F>
  bool try_produce(F&& fill) {
    if (!spsc_ || closed_.load(std::memory_order_acquire)) return false;
    return ring_->try_produce(fill);
  }

  /// Pairs with try_produce(): one fence + parked check covering every
  /// un-woken push since the last call.
  void wake_consumer() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (owner_.load(std::memory_order_relaxed) == kParked) {
      consumer_wake_.notify_all();
    }
  }

  /// Wakes a parked consumer with nothing to consume: its consume() returns
  /// 0 (a kick that lands while it runs is taken at its next park).
  void kick() {
    kick_.store(true);
    wake_consumer();
  }

  // -- serving in place (the single producer) ---------------------------------

  /// Takes the consumer role while the worker is parked. On success the
  /// caller consumes with consume_claimed() and must release_claim().
  bool try_claim() {
    std::uint8_t parked = kParked;
    return owner_.load(std::memory_order_relaxed) == kParked &&
           owner_.compare_exchange_strong(parked, kClaimed);
  }

  /// consume() for the claim holder: never blocks, and wakes no producer
  /// (the claim holder is the producer).
  template <typename F>
  std::size_t consume_claimed(F&& f, std::size_t max) {
    return take_in_place(f, max);
  }

  /// Hands the consumer role back: straight to a worker that woke during
  /// the claim, else to the parked worker, woken only if it has work.
  void release_claim() {
    std::uint8_t claimed = kClaimed;
    if (!owner_.compare_exchange_strong(claimed, kParked)) {
      owner_.store(kRunning);  // kReclaim: the worker is waiting it out
    } else {
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (ring_->empty() && aux_size_.load() == 0 && !closed_.load() &&
          !kick_.load()) {
        return;
      }
    }
    consumer_wake_.notify_all();
  }

  /// Control-plane push from any thread (replay re-injection, EOS on a
  /// crashed stage's behalf). Never blocks; returns false iff closed.
  bool push_aux(T item) {
    {
      std::lock_guard<std::mutex> lock(aux_mu_);
      if (closed_.load(std::memory_order_acquire)) return false;
      aux_.push_back(std::move(item));
      aux_size_.store(aux_.size());
    }
    wake_consumer();
    return true;
  }

  // -- consumer side (single worker thread) ----------------------------------

  /// Applies `f` to up to `max` items in FIFO order and returns how many it
  /// handled. Ring items are handed to `f` in their slots (no move into a
  /// batch vector); aux items go through a consumer-owned scratch vector,
  /// filled under the aux lock and handed to `f` outside it, so `f` may
  /// block (emit downstream) without stalling the control thread. Blocks
  /// until at least one item is handled, the inbox is closed and empty, or
  /// a kick lands (the last two return 0). `timeout_seconds < 0` spins/yields
  /// per the idle mode and then parks untimed; `>= 0` skips the spin
  /// (failover beats and egress polls bound latency by the timeout anyway)
  /// and parks at most once, that long, returning 0 on timeout too (check
  /// closed() to tell them apart).
  template <typename F>
  std::size_t consume(F&& f, std::size_t max, double timeout_seconds = -1.0) {
    std::size_t n = take_in_place(f, max);
    if (n == 0 && timeout_seconds < 0) {
      IdleStrategy idle(idle_);
      while (n == 0 && !idle.should_park() &&
             !closed_.load(std::memory_order_acquire)) {
        n = take_in_place(f, max);
      }
    }
    // A claim holder may take the input that woke the worker, so an untimed
    // consume that comes back empty-handed parks again. A closed inbox
    // parks not at all, and the take after it drains what close() left.
    for (bool again = true; n == 0 && again;) {
      again = park(timeout_seconds);
      n = take_in_place(f, max);
    }
    if (n != 0) producer_wake_.notify_all();
    return n;
  }

  // -- control ---------------------------------------------------------------

  /// Wakes all waiters; subsequent pushes fail, drains empty what remains.
  void close() {
    closed_.store(true);
    // The notify's fence pairs with release_claim(): a worker asleep behind
    // a claim is woken by whichever side sees the other's store.
    consumer_wake_.notify_all();
    producer_wake_.notify_all();
  }

  /// Reverses close() and discards queued input (crash-restart path: the
  /// revived consumer must not see its predecessor's undrained input). Only
  /// call when no consumer thread is running; the caller momentarily acts
  /// as the consumer, which is legal because the dead worker was joined.
  void reopen() {
    ring_->consume_n([](T& item) { item = T{}; }, ring_->capacity());
    {
      std::lock_guard<std::mutex> lock(aux_mu_);
      aux_.clear();
      aux_size_.store(0, std::memory_order_release);
    }
    owner_.store(kRunning);
    kick_.store(false);
    closed_.store(false, std::memory_order_release);
    producer_wake_.notify_all();
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  std::size_t size() const {
    return ring_->size() + aux_size_.load(std::memory_order_acquire);
  }
  std::size_t capacity() const { return ring_->capacity(); }

 private:
  /// Who holds the consumer role (see the header comment).
  enum : std::uint8_t { kRunning, kParked, kClaimed, kReclaim };

  /// consume()'s lock-free grab: ring items in place, then aux via scratch.
  template <typename F>
  std::size_t take_in_place(F& f, std::size_t max) {
    std::size_t n = ring_->consume_n(f, max);
    if (n < max && aux_size_.load(std::memory_order_acquire) != 0) {
      {
        std::lock_guard<std::mutex> lock(aux_mu_);
        while (n + scratch_.size() < max && !aux_.empty()) {
          scratch_.push_back(std::move(aux_.front()));
          aux_.pop_front();
        }
        aux_size_.store(aux_.size());
      }
      for (T& item : scratch_) f(item);
      n += scratch_.size();
      scratch_.clear();
    }
    return n;
  }

  /// Parks the worker until input, close, a kick, a release with work
  /// pending or the timeout, then takes the consumer role back, waiting out
  /// a claim in progress. Returns whether an untimed consume that finds
  /// nothing should park again (not once kicked or closed).
  bool park(double timeout_seconds) {
    // prepare_wait()'s fence orders this store before the re-checks below,
    // pairing with the fence in wake_consumer().
    owner_.store(kParked);
    // The predicate only peeks at sizes: `f` must not run while parking
    // (it may park on a downstream inbox).
    auto ready = [&] {
      return owner_.load() != kClaimed &&
             (!ring_->empty() || aux_size_.load() != 0 || closed_.load() ||
              kick_.load());
    };
    if (timeout_seconds < 0) {
      consumer_wake_.await(ready);
    } else {
      consumer_wake_.await(ready, deadline_after(timeout_seconds));
    }
    for (std::uint8_t s = kParked; !owner_.compare_exchange_strong(s, kRunning);
         s = kParked) {
      if (s == kClaimed && owner_.compare_exchange_strong(s, kReclaim)) {
        consumer_wake_.await([&] { return owner_.load() == kRunning; });
        break;
      }
    }
    const bool kicked = kick_.load() && kick_.exchange(false);
    return timeout_seconds < 0 && !kicked && !closed_.load();
  }

  // The ring has its own allocation: held inline, its consumer line sat
  // next to closed_ (read on every push) and unpaced chain3 capacity fell
  // ~9% on a 4-vCPU host. Read-mostly fields (ring_, idle_, spsc_, closed_)
  // share a line; the owner word (with the consumer's eventcount, which
  // the producer reads only when the owner word says parked), the
  // producer's eventcount and the producer mutex each get their own line
  // because the *peer* polls the first two on every publish — a word
  // sharing a line with state its owner writes per-batch would ping-pong.
  const std::unique_ptr<SpscRing<T>> ring_;
  IdleConfig idle_;
  bool spsc_ = false;
  std::atomic<bool> closed_{false};
  alignas(detail::kCacheLine) std::atomic<std::uint8_t> owner_{kRunning};
  std::atomic<bool> kick_{false};
  EventCount consumer_wake_;
  alignas(detail::kCacheLine) EventCount producer_wake_;
  /// Serializes a shared inbox's producers (unused when spsc_).
  alignas(detail::kCacheLine) std::mutex push_mu_;
  mutable std::mutex aux_mu_;
  std::deque<T> aux_;
  std::atomic<std::size_t> aux_size_{0};
  /// Consumer-thread scratch for the aux hand-off.
  std::vector<T> scratch_;
};

static_assert(alignof(StageInbox<int>) == detail::kCacheLine,
              "the owner word and producer_wake_ must not share a line");

/// Order-preserving merge window for a replicated stage.
///
/// The dispatcher stamps every input with a dense arrival sequence and
/// acquire()s a window slot before handing it to a replica; replicas deposit
/// their result (emissions + ack bookkeeping) with complete(). Results leave
/// strictly in sequence order through a *release election*: whichever thread
/// completes the head claims the releaser role, drains every contiguous
/// ready slot, performs all downstream effects, and only then ends the
/// claim. claim_release()/end_release() bracket the releaser's critical
/// region under the merge mutex, so the non-atomic state touched on the
/// release path (staged route batches, ack scratch buffers) is handed from
/// releaser to releaser with proper happens-before. The caller must loop
///
///   while (merge.claim_release()) {
///     while (auto c = merge.pop_ready()) { /* stage effects of *c */ }
///     /* flush effects downstream, ack inputs */
///     merge.end_release();
///   }
///
/// re-checking claim_release() after end_release(): a completion that lands
/// between the last empty pop_ready() and end_release() is picked up by the
/// next claim (by this thread or the completing one), never lost.
///
/// Capacity doubles as backpressure: acquire() blocks while the sequence is
/// a full window ahead of the release point, bounding in-flight work.
template <typename C>
class ReorderMerge {
 public:
  explicit ReorderMerge(std::size_t window) : window_(window), slots_(window) {
    GATES_CHECK(window > 0);
  }

  /// Sets the spin/yield/park behavior for acquire() waits. Call before
  /// concurrent use.
  void set_idle(const IdleConfig& config) { idle_ = config; }

  /// Dispatcher side: waits for sequence `seq` to fit in the window.
  /// Returns false iff closed.
  bool acquire(std::uint64_t seq) {
    // Off the published release point, spinning and parking alike: no
    // mutex. The lock-free true return is safe because every later
    // dispatcher action on this slot (complete()) re-synchronizes on mu_,
    // and base_ only grows — a stale read errs toward waiting.
    auto fits = [&] {
      return seq < base_pub_.load(std::memory_order_acquire) + window_;
    };
    IdleStrategy idle(idle_);
    while (!closed_pub_.load(std::memory_order_acquire)) {
      if (fits()) return true;
      if (idle.should_park()) break;
    }
    slot_freed_.await(
        [&] { return fits() || closed_pub_.load(std::memory_order_acquire); });
    return !closed_pub_.load(std::memory_order_acquire);
  }

  /// Deposits the result for an acquired sequence. Dropped if closed.
  void complete(std::uint64_t seq, C completion) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    GATES_CHECK(seq >= base_ && seq < base_ + window_);
    Slot& slot = slots_[seq % window_];
    GATES_CHECK(!slot.filled);
    slot.value = std::move(completion);
    slot.filled = true;
  }

  /// Tries to become the releaser: succeeds iff nobody holds the claim and
  /// the head-of-window result is ready.
  bool claim_release() {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || releasing_ || !slots_[base_ % window_].filled) return false;
    releasing_ = true;
    return true;
  }

  /// Pops the next in-order result; only valid while holding the claim.
  std::optional<C> pop_ready() {
    std::unique_lock<std::mutex> lock(mu_);
    Slot& slot = slots_[base_ % window_];
    if (closed_ || !slot.filled) return std::nullopt;
    std::optional<C> out(std::move(slot.value));
    slot.value = C{};
    slot.filled = false;
    ++base_;
    base_pub_.store(base_, std::memory_order_release);
    lock.unlock();
    slot_freed_.notify_all();
    return out;
  }

  /// Ends the claim. All downstream effects of popped results must have
  /// happened before this call.
  void end_release() {
    std::lock_guard<std::mutex> lock(mu_);
    releasing_ = false;
  }

  /// Unblocks acquire() waiters and discards pending results (crash path).
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      closed_pub_.store(true, std::memory_order_release);
    }
    slot_freed_.notify_all();
  }

  /// Returns to the initial state (sequence restarts at 0). Only call when
  /// no dispatcher/replica threads are running.
  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (Slot& slot : slots_) {
      slot.value = C{};
      slot.filled = false;
    }
    base_ = 0;
    base_pub_.store(0, std::memory_order_release);
    closed_ = false;
    closed_pub_.store(false, std::memory_order_release);
    releasing_ = false;
  }

  std::size_t window() const { return window_; }
  /// Next sequence to be released (test/diagnostic).
  std::uint64_t release_base() const {
    std::lock_guard<std::mutex> lock(mu_);
    return base_;
  }

 private:
  struct Slot {
    C value{};
    bool filled = false;
  };

  const std::size_t window_;
  IdleConfig idle_;
  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  std::uint64_t base_ = 0;
  bool closed_ = false;
  bool releasing_ = false;
  // Dispatcher-polled mirrors of base_/closed_, on their own line so the
  // acquire() spin doesn't contend with the mutex-guarded release state;
  // acquire() parks on slot_freed_ when the window is full.
  alignas(detail::kCacheLine) std::atomic<std::uint64_t> base_pub_{0};
  std::atomic<bool> closed_pub_{false};
  EventCount slot_freed_;
};

static_assert(alignof(ReorderMerge<int>) == detail::kCacheLine,
              "acquire() spin mirrors must sit on their own cache line");

}  // namespace gates::core
