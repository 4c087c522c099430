#include "gates/core/stage_inbox.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

namespace gates::core {
namespace {

/// Appends up to `max` consumed items to `out`; returns consume()'s count.
std::size_t consume_into(StageInbox<int>& inbox, std::vector<int>& out,
                         std::size_t max, double timeout_seconds = -1.0) {
  return inbox.consume([&](int& item) { out.push_back(item); }, max,
                       timeout_seconds);
}

// Both producer sides — shared (the producer lock) and single-producer —
// must satisfy the same blocking batch contract; run the cases against each.
class StageInboxModes : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<StageInbox<int>> make(std::size_t capacity) {
    auto inbox = std::make_unique<StageInbox<int>>(capacity);
    if (GetParam()) inbox->use_spsc();
    return inbox;
  }
};

TEST_P(StageInboxModes, PushAllDrainRoundTrip) {
  auto inbox_ptr = make(16);
  StageInbox<int>& inbox = *inbox_ptr;
  std::vector<int> in = {1, 2, 3, 4, 5};
  EXPECT_EQ(inbox.push_all(in), 5u);
  EXPECT_TRUE(in.empty());
  std::vector<int> out;
  EXPECT_EQ(consume_into(inbox, out, 64), 5u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST_P(StageInboxModes, ProducerBlocksOnFullUntilConsumerDrains) {
  auto inbox_ptr = make(4);
  StageInbox<int>& inbox = *inbox_ptr;
  std::vector<int> in(64);
  for (int i = 0; i < 64; ++i) in[static_cast<std::size_t>(i)] = i;
  std::thread producer([&] { EXPECT_EQ(inbox.push_all(in), 64u); });
  std::vector<int> out;
  while (out.size() < 64) consume_into(inbox, out, 8);
  producer.join();
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

TEST_P(StageInboxModes, TimedConsumeReturnsZeroWhenIdle) {
  auto inbox_ptr = make(4);
  StageInbox<int>& inbox = *inbox_ptr;
  std::vector<int> out;
  EXPECT_EQ(consume_into(inbox, out, 8, 0.01), 0u);
  EXPECT_FALSE(inbox.closed());
  EXPECT_TRUE(out.empty());
}

TEST_P(StageInboxModes, CloseWakesBlockedConsumer) {
  auto inbox_ptr = make(4);
  StageInbox<int>& inbox = *inbox_ptr;
  std::thread consumer([&] {
    std::vector<int> out;
    // Returns once closed and drained, without calling f.
    EXPECT_EQ(consume_into(inbox, out, 8), 0u);
    EXPECT_TRUE(out.empty());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  inbox.close();
  consumer.join();
}

TEST_P(StageInboxModes, CloseWakesBlockedProducer) {
  auto inbox_ptr = make(2);
  StageInbox<int>& inbox = *inbox_ptr;
  std::vector<int> fill = {1, 2};
  ASSERT_EQ(inbox.push_all(fill), 2u);
  std::thread producer([&] {
    std::vector<int> more = {3, 4};
    EXPECT_LT(inbox.push_all(more), 2u);  // unblocked by close, short count
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  inbox.close();
  producer.join();
}

TEST_P(StageInboxModes, AuxItemsArriveAlongsideDataPlane) {
  auto inbox_ptr = make(8);
  StageInbox<int>& inbox = *inbox_ptr;
  std::vector<int> in = {1, 2};
  inbox.push_all(in);
  EXPECT_TRUE(inbox.push_aux(100));
  EXPECT_TRUE(inbox.push_aux(101));
  std::vector<int> out;
  while (out.size() < 4) consume_into(inbox, out, 8);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<int>{1, 2, 100, 101}));
  EXPECT_EQ(inbox.size(), 0u);
}

TEST_P(StageInboxModes, ReopenDiscardsQueuedInput) {
  auto inbox_ptr = make(8);
  StageInbox<int>& inbox = *inbox_ptr;
  std::vector<int> in = {1, 2, 3};
  inbox.push_all(in);
  inbox.push_aux(99);
  inbox.close();
  inbox.reopen();
  EXPECT_FALSE(inbox.closed());
  EXPECT_EQ(inbox.size(), 0u);
  EXPECT_TRUE(inbox.push(7));
  std::vector<int> out;
  EXPECT_EQ(consume_into(inbox, out, 8), 1u);
  EXPECT_EQ(out, (std::vector<int>{7}));
}

TEST_P(StageInboxModes, ConsumeHonoursMax) {
  auto inbox_ptr = make(16);
  StageInbox<int>& inbox = *inbox_ptr;
  std::vector<int> in = {1, 2, 3, 4, 5, 6, 7};
  ASSERT_EQ(inbox.push_all(in), 7u);
  EXPECT_TRUE(inbox.push_aux(100));
  std::vector<int> out;
  EXPECT_EQ(consume_into(inbox, out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(inbox.size(), 5u);
  out.clear();
  EXPECT_EQ(consume_into(inbox, out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{4, 5, 6}));
  out.clear();
  EXPECT_EQ(consume_into(inbox, out, 3), 2u);  // 7 and the aux item
  EXPECT_EQ(out, (std::vector<int>{7, 100}));
  EXPECT_EQ(inbox.size(), 0u);
}

// Cross-thread: a producer streams more items than the inbox holds while the
// consumer takes small batches; `f` sees every item exactly once, in FIFO
// order, and never more than `max` per call.
TEST_P(StageInboxModes, ConsumeSeesEachItemOnceInOrder) {
  auto inbox_ptr = make(8);
  StageInbox<int>& inbox = *inbox_ptr;
  constexpr int kItems = 5000;
  std::thread producer([&] {
    std::vector<int> batch;
    for (int next = 0; next < kItems;) {
      batch.clear();
      for (int i = 0; i < 5 && next < kItems; ++i) batch.push_back(next++);
      const std::size_t n = batch.size();
      ASSERT_EQ(inbox.push_all(batch), n);
    }
  });
  std::vector<int> seen;
  while (seen.size() < static_cast<std::size_t>(kItems)) {
    std::size_t calls = 0;
    const std::size_t n = inbox.consume(
        [&](int& item) {
          ++calls;
          seen.push_back(item);
        },
        3);
    ASSERT_LE(n, 3u);
    ASSERT_EQ(calls, n);
  }
  producer.join();
  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(seen[static_cast<std::size_t>(i)], i);
  }
}

// "Mutex" is the shared inbox, whose producers hold the producer mutex;
// "Spsc" is the single-producer inbox, whose pushes take no lock.
INSTANTIATE_TEST_SUITE_P(MutexAndSpsc, StageInboxModes, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Spsc" : "Mutex";
                         });

// try_produce is the zero-move fast path: the fill callback writes the slot
// in place, the consumer sees exactly what was written, and a full or
// shared inbox refuses without invoking the callback.
TEST(StageInboxSpsc, TryProduceFillsSlotsInPlace) {
  StageInbox<int> inbox(4);
  inbox.use_spsc();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(inbox.try_produce([&](int& slot) { slot = i * 10; }));
  }
  bool filled = false;
  EXPECT_FALSE(inbox.try_produce([&](int& slot) {
    slot = -1;
    filled = true;
  })) << "full ring must refuse";
  EXPECT_FALSE(filled) << "refused produce must not run the fill callback";
  inbox.wake_consumer();
  std::vector<int> out;
  EXPECT_EQ(consume_into(inbox, out, 8), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 10, 20, 30}));
  // Consuming freed slots; the fast path works again.
  EXPECT_TRUE(inbox.try_produce([](int& slot) { slot = 99; }));
}

TEST(StageInbox, TryProduceRefusesInMutexModeAndWhenClosed) {
  StageInbox<int> shared(4);
  EXPECT_FALSE(shared.try_produce([](int& slot) { slot = 1; }));
  StageInbox<int> closed(4);
  closed.use_spsc();
  closed.close();
  EXPECT_FALSE(closed.try_produce([](int& slot) { slot = 1; }));
}

// Cross-thread: producer uses only try_produce + wake_consumer, consumer
// uses blocking consumes — the RtEngine direct-route handoff in miniature.
TEST(StageInboxSpsc, TryProduceWakeConsumerRoundTrip) {
  StageInbox<int> inbox(32);
  inbox.use_spsc();
  constexpr int kItems = 20000;
  std::thread consumer([&] {
    int expect = 0;
    while (expect < kItems) {
      inbox.consume([&](int& v) { EXPECT_EQ(v, expect++); }, 16);
    }
  });
  for (int i = 0; i < kItems;) {
    bool produced = false;
    if (inbox.try_produce([&](int& slot) { slot = i; })) {
      ++i;
      produced = true;
    }
    inbox.wake_consumer();
    if (!produced) std::this_thread::yield();
  }
  consumer.join();
}

// SPSC-specific: one producer thread, one consumer thread, a control thread
// injecting aux items — the exact triangle the RtEngine runs. A TSan build
// of this test validates the eventcount-style sleep/wake fences.
TEST(StageInboxSpsc, ProducerConsumerWithAuxInjection) {
  StageInbox<int> inbox(32);
  inbox.use_spsc();
  constexpr int kItems = 100000;
  constexpr int kAux = 500;

  std::thread producer([&] {
    std::vector<int> batch;
    int next = 0;
    while (next < kItems) {
      batch.clear();
      for (int i = 0; i < 16 && next + i < kItems; ++i) {
        batch.push_back(next + i);
      }
      const std::size_t n = batch.size();
      next += static_cast<int>(n);
      ASSERT_EQ(inbox.push_all(batch), n);
    }
  });
  std::thread control([&] {
    for (int i = 0; i < kAux; ++i) {
      ASSERT_TRUE(inbox.push_aux(kItems + i));
      if (i % 50 == 0) std::this_thread::yield();
    }
  });

  long long data_sum = 0;
  int data_count = 0;
  int aux_count = 0;
  int expected_next = 0;
  std::vector<int> got;
  while (data_count < kItems || aux_count < kAux) {
    got.clear();
    consume_into(inbox, got, 16, 0.01);
    for (int v : got) {
      if (v >= kItems) {
        ++aux_count;
      } else {
        // Data-plane order is strict FIFO even with aux interleaving.
        ASSERT_EQ(v, expected_next);
        ++expected_next;
        data_sum += v;
        ++data_count;
      }
    }
  }
  producer.join();
  control.join();
  EXPECT_EQ(data_count, kItems);
  EXPECT_EQ(aux_count, kAux);
  EXPECT_EQ(data_sum, static_cast<long long>(kItems) * (kItems - 1) / 2);
}

// Shared inbox under contention: three producer threads mix push_all
// (batches up to 3x the capacity, some with deferred wakes) and push into a
// small inbox, so they take the producer lock and park on the full ring; a
// control thread pushes aux items and kicks; the consumer mixes timed and
// untimed consumes and stops once closed. Every item arrives exactly once,
// and each producer's items arrive in the order it pushed them. A TSan
// build checks that the lock hands the ring's producer side over with
// happens-before.
TEST(StageInbox, MultiProducerStress) {
  StageInbox<int> inbox(8);
  inbox.set_idle(IdleConfig::park());
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 20000;
  constexpr int kAux = 1000;
  constexpr int kAuxBase = kProducers * kPerProducer;

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::mt19937 rng(static_cast<std::uint32_t>(11 + p));
      std::vector<int> batch;
      const int base = p * kPerProducer;
      for (int next = 0; next < kPerProducer;) {
        switch (rng() % 3) {
          case 0:
            ASSERT_TRUE(inbox.push(base + next++));
            break;
          default: {
            batch.clear();
            const int n = 1 + static_cast<int>(rng() % 24);
            for (int i = 0; i < n && next < kPerProducer; ++i) {
              batch.push_back(base + next++);
            }
            const std::size_t size = batch.size();
            const bool defer = rng() % 2 == 0;
            ASSERT_EQ(inbox.push_all(batch, defer), size);
            if (defer) inbox.wake_consumer();
            break;
          }
        }
      }
    });
  }
  std::thread control([&] {
    for (int i = 0; i < kAux; ++i) {
      ASSERT_TRUE(inbox.push_aux(kAuxBase + i));
      if (i % 16 == 0) inbox.kick();
      if (i % 64 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  });
  std::vector<int> seen;
  std::thread consumer([&] {
    auto record = [&](int& v) { seen.push_back(v); };
    for (std::uint64_t k = 0;; ++k) {
      const double timeout = k % 3 == 0 ? 0.0005 : -1.0;
      if (inbox.consume(record, 16, timeout) == 0 && inbox.closed()) break;
    }
  });
  for (std::thread& t : producers) t.join();
  control.join();
  inbox.close();
  consumer.join();

  std::vector<int> next(kProducers, 0);
  std::vector<bool> aux_seen(kAux, false);
  for (const int v : seen) {
    if (v >= kAuxBase) {
      ASSERT_FALSE(aux_seen[static_cast<std::size_t>(v - kAuxBase)]) << v;
      aux_seen[static_cast<std::size_t>(v - kAuxBase)] = true;
    } else {
      const int p = v / kPerProducer;
      ASSERT_EQ(v % kPerProducer, next[static_cast<std::size_t>(p)]++)
          << "producer " << p;
    }
  }
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next[static_cast<std::size_t>(p)], kPerProducer)
        << "producer " << p;
  }
  EXPECT_EQ(std::count(aux_seen.begin(), aux_seen.end(), true), kAux);
}

// -- serving in place ----------------------------------------------------------

TEST(StageInboxSpsc, ClaimOnlyWhileTheConsumerIsParked) {
  StageInbox<int> inbox(8);
  inbox.use_spsc();
  inbox.set_idle(IdleConfig::park());
  EXPECT_FALSE(inbox.try_claim()) << "a running consumer is never claimed";
  std::vector<int> seen;  // consumer role only
  std::thread consumer([&] {
    while (inbox.consume([&](int& v) { seen.push_back(v); }, 8) != 0) {
    }
  });
  // Serve three items in place once the consumer parks; it stays asleep.
  while (!inbox.try_claim()) std::this_thread::yield();
  std::vector<int> in = {1, 2, 3};
  ASSERT_EQ(inbox.push_all(in, /*defer_wake=*/true), 3u);
  EXPECT_EQ(inbox.consume_claimed([&](int& v) { seen.push_back(v); }, 8), 3u);
  inbox.release_claim();
  // Pushed and then woken: the consumer takes these on its own thread.
  std::vector<int> more = {4, 5};
  ASSERT_EQ(inbox.push_all(more), 2u);
  while (inbox.size() != 0) std::this_thread::yield();
  inbox.close();
  consumer.join();
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(StageInboxSpsc, KickReturnsAParkedConsumerEmptyHanded) {
  StageInbox<int> inbox(8);
  inbox.use_spsc();
  inbox.set_idle(IdleConfig::park());
  std::atomic<int> returned{-1};
  std::thread consumer([&] {
    returned = static_cast<int>(inbox.consume([](int&) {}, 8));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(returned.load(), -1) << "untimed consume returned with no input";
  inbox.kick();
  consumer.join();
  EXPECT_EQ(returned.load(), 0);
  EXPECT_FALSE(inbox.closed());
  // The kick was consumed: the next consume blocks for input again.
  std::vector<int> out;
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    inbox.push(7);
  });
  EXPECT_EQ(consume_into(inbox, out, 8), 1u);
  late.join();
  EXPECT_EQ(out, (std::vector<int>{7}));
}

// The claim protocol under stress: the producer pushes with deferred wakes
// and then randomly serves the consumer in place, wakes it or kicks it; a
// control thread injects aux items; the consumer mixes timed and untimed
// consumes. Whoever holds the consumer role appends to one plain vector, so
// a TSan build also checks the claim's mutual exclusion and happens-before.
// Every item is seen once, data items in order, and close() ends the run.
TEST(StageInboxSpsc, ServeInPlaceStress) {
  StageInbox<int> inbox(16);
  inbox.use_spsc();
  inbox.set_idle(IdleConfig::park());
  constexpr int kItems = 40000;
  constexpr int kAux = 2000;
  std::vector<int> seen;  // consumer role only
  auto record = [&](int& v) { seen.push_back(v); };
  std::uint64_t served = 0;

  std::thread producer([&] {
    std::mt19937 rng(7);
    std::vector<int> batch;
    for (int next = 0; next < kItems;) {
      batch.clear();
      const int n = 1 + static_cast<int>(rng() % 24);
      for (int i = 0; i < n && next < kItems; ++i) batch.push_back(next++);
      const std::size_t size = batch.size();
      ASSERT_EQ(inbox.push_all(batch, /*defer_wake=*/true), size);
      switch (rng() % 4) {
        case 0:
        case 1:
          if (inbox.try_claim()) {
            served += inbox.consume_claimed(record, 16) != 0;
            inbox.release_claim();
          } else {
            inbox.wake_consumer();
          }
          break;
        case 2:
          inbox.wake_consumer();
          break;
        default:
          inbox.kick();
          inbox.wake_consumer();
          break;
      }
      // Let the consumer park now and then, so claims succeed.
      if (rng() % 8 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  });
  std::thread control([&] {
    for (int i = 0; i < kAux; ++i) {
      ASSERT_TRUE(inbox.push_aux(kItems + i));
      if (i % 64 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  });
  std::thread consumer([&] {
    for (std::uint64_t k = 0;; ++k) {
      const double timeout = k % 3 == 0 ? 0.0005 : -1.0;
      if (inbox.consume(record, 16, timeout) == 0 && inbox.closed()) break;
    }
  });
  producer.join();
  control.join();
  inbox.close();
  consumer.join();

  EXPECT_GT(served, 0u) << "the consumer was never served in place";
  int next_data = 0;
  std::vector<bool> aux_seen(kAux, false);
  for (const int v : seen) {
    if (v >= kItems) {
      ASSERT_FALSE(aux_seen[static_cast<std::size_t>(v - kItems)]) << v;
      aux_seen[static_cast<std::size_t>(v - kItems)] = true;
    } else {
      ASSERT_EQ(v, next_data++);
    }
  }
  EXPECT_EQ(next_data, kItems);
  EXPECT_EQ(std::count(aux_seen.begin(), aux_seen.end(), true), kAux);
}

// -- order-preserving merge window -------------------------------------------

/// Drains everything currently releasable, appending to `out`.
void release_all(ReorderMerge<int>& merge, std::vector<int>& out) {
  while (merge.claim_release()) {
    while (auto c = merge.pop_ready()) out.push_back(*c);
    merge.end_release();
  }
}

TEST(ReorderMerge, ReleasesInInputOrderDespiteCompletionOrder) {
  ReorderMerge<int> merge(8);
  for (std::uint64_t seq = 0; seq < 4; ++seq) ASSERT_TRUE(merge.acquire(seq));
  std::vector<int> out;
  merge.complete(2, 2);
  release_all(merge, out);  // head (0) missing: nothing releasable
  EXPECT_TRUE(out.empty());
  merge.complete(0, 0);
  release_all(merge, out);  // 0 ready, 1 missing: releases exactly [0]
  EXPECT_EQ(out, (std::vector<int>{0}));
  merge.complete(3, 3);
  merge.complete(1, 1);
  release_all(merge, out);  // 1..3 now contiguous
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(merge.release_base(), 4u);
}

TEST(ReorderMerge, AcquireBlocksAtWindowBoundaryUntilARelease) {
  ReorderMerge<int> merge(2);
  ASSERT_TRUE(merge.acquire(0));
  ASSERT_TRUE(merge.acquire(1));
  std::atomic<bool> acquired{false};
  std::thread dispatcher([&] {
    EXPECT_TRUE(merge.acquire(2));  // 2 >= base(0) + window(2): must wait
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  merge.complete(0, 0);
  std::vector<int> out;
  release_all(merge, out);  // frees the head slot -> acquire(2) unblocks
  dispatcher.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(out, (std::vector<int>{0}));
}

TEST(ReorderMerge, CloseUnblocksBlockedAcquire) {
  ReorderMerge<int> merge(1);
  ASSERT_TRUE(merge.acquire(0));
  std::thread dispatcher([&] { EXPECT_FALSE(merge.acquire(1)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  merge.close();
  dispatcher.join();
}

TEST(ReorderMerge, CompletionDuringClaimIsPickedUpByNextClaim) {
  // The election protocol's re-check: a result that lands after the
  // releaser's last empty pop but before end_release() must be releasable
  // by the *next* claim, not lost.
  ReorderMerge<int> merge(4);
  ASSERT_TRUE(merge.acquire(0));
  ASSERT_TRUE(merge.acquire(1));
  merge.complete(0, 0);
  std::vector<int> out;
  ASSERT_TRUE(merge.claim_release());
  while (auto c = merge.pop_ready()) out.push_back(*c);
  merge.complete(1, 1);  // lands mid-claim
  merge.end_release();
  release_all(merge, out);
  EXPECT_EQ(out, (std::vector<int>{0, 1}));
}

TEST(ReorderMerge, OnlyOneThreadWinsTheReleaseElection) {
  ReorderMerge<int> merge(4);
  ASSERT_TRUE(merge.acquire(0));
  merge.complete(0, 0);
  ASSERT_TRUE(merge.claim_release());
  EXPECT_FALSE(merge.claim_release());  // already claimed
  merge.end_release();
  ASSERT_TRUE(merge.claim_release());  // head still filled, claim reopens
  std::vector<int> out;
  while (auto c = merge.pop_ready()) out.push_back(*c);
  merge.end_release();
  EXPECT_EQ(out, (std::vector<int>{0}));
}

TEST(ReorderMerge, ResetRestartsSequencingFromZero) {
  ReorderMerge<int> merge(2);
  ASSERT_TRUE(merge.acquire(0));
  merge.complete(0, 7);
  merge.close();
  EXPECT_FALSE(merge.acquire(1));
  merge.reset();
  ASSERT_TRUE(merge.acquire(0));
  merge.complete(0, 9);
  std::vector<int> out;
  release_all(merge, out);
  EXPECT_EQ(out, (std::vector<int>{9}));  // the pre-close result is gone
}

TEST(ReorderMerge, ManyCompleterThreadsPreserveOrder) {
  // 4 completer threads race completions and the release election; the
  // released order must still be exactly the acquire order.
  constexpr std::uint64_t kItems = 2000;
  constexpr std::size_t kThreads = 4;
  ReorderMerge<int> merge(64);
  std::vector<int> out;
  std::mutex out_mu;  // release effects are serialized by the election, but
                      // successive releasers are different threads
  std::vector<std::unique_ptr<StageInbox<std::uint64_t>>> queues;
  for (std::size_t i = 0; i < kThreads; ++i) {
    queues.push_back(std::make_unique<StageInbox<std::uint64_t>>(32));
  }
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < kThreads; ++i) {
    workers.emplace_back([&, i] {
      auto complete = [&](std::uint64_t& seq) {
        merge.complete(seq, static_cast<int>(seq));
        while (merge.claim_release()) {
          std::lock_guard<std::mutex> lock(out_mu);
          while (auto c = merge.pop_ready()) out.push_back(*c);
          merge.end_release();
        }
      };
      while (queues[i]->consume(complete, 8) != 0) {
      }
    });
  }
  for (std::uint64_t seq = 0; seq < kItems; ++seq) {
    ASSERT_TRUE(merge.acquire(seq));
    ASSERT_TRUE(queues[seq % kThreads]->push(seq));
  }
  for (auto& q : queues) q->close();
  for (auto& w : workers) w.join();
  release_all(merge, out);
  ASSERT_EQ(out.size(), kItems);
  for (std::uint64_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i));
  }
}

}  // namespace
}  // namespace gates::core
