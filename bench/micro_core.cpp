// Micro-benchmarks of the building blocks (google-benchmark): counting-
// samples sketch throughput, summary serialization, DES event throughput,
// link simulation, XML parsing and one adaptation control step.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "gates/apps/counting_samples.hpp"
#include "gates/common/affinity.hpp"
#include "gates/common/arena.hpp"
#include "gates/common/byte_buffer.hpp"
#include "gates/common/idle_strategy.hpp"
#include "gates/common/rng.hpp"
#include "gates/common/spsc_ring.hpp"
#include "gates/common/zipf.hpp"
#include "gates/core/packet.hpp"
#include "gates/core/packet_pool.hpp"
#include "gates/core/processor.hpp"
#include "gates/core/stage_inbox.hpp"
#include "gates/core/adapt/controller.hpp"
#include "gates/core/adapt/queue_monitor.hpp"
#include "gates/net/link.hpp"
#include "gates/sim/simulation.hpp"
#include "gates/xml/xml.hpp"

namespace gates {
namespace {

void BM_CountingSamplesInsert(benchmark::State& state) {
  const auto footprint = static_cast<std::size_t>(state.range(0));
  apps::CountingSamples cs(footprint, Rng(1));
  ZipfGenerator zipf(100000, 1.1);
  Rng rng(2);
  for (auto _ : state) {
    cs.insert(zipf.next(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountingSamplesInsert)->Arg(64)->Arg(256)->Arg(1024);

void BM_CountingSamplesTopK(benchmark::State& state) {
  apps::CountingSamples cs(512, Rng(1));
  ZipfGenerator zipf(100000, 1.1);
  Rng rng(2);
  for (int i = 0; i < 100000; ++i) cs.insert(zipf.next(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs.top_k(static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_CountingSamplesTopK)->Arg(10)->Arg(100);

void BM_SummarySerializeRoundTrip(benchmark::State& state) {
  apps::StreamSummary summary;
  summary.stream = 1;
  summary.epoch = 7;
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(state.range(0)); ++i) {
    summary.items.push_back({i, static_cast<double>(i)});
  }
  for (auto _ : state) {
    auto decoded = apps::StreamSummary::deserialize(summary.serialize());
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SummarySerializeRoundTrip)->Arg(40)->Arg(240);

void BM_SimulationEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation sim;
    const int n = static_cast<int>(state.range(0));
    int counter = 0;
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<double>(i % 97), [&counter] { ++counter; });
    }
    state.ResumeTiming();
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulationEventThroughput)->Arg(10000)->Arg(100000);

class NullSink : public net::MessageSink {
 public:
  bool try_deliver(net::SimMessage&&) override { return true; }
};

void BM_SimLinkMessageFlow(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation sim;
    NullSink sink;
    net::SimLink link(sim, {"l", 1e9, 0.0, SIZE_MAX});
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      net::SimMessage msg;
      msg.wire_bytes = 100;
      msg.sink = &sink;
      link.send(std::move(msg));
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimLinkMessageFlow);

void BM_AdaptationControlStep(benchmark::State& state) {
  core::adapt::QueueMonitor monitor({});
  core::AdjustmentParameter param(
      {"p", 0.5, 0.0, 1.0, 0.0, ParamDirection::kIncreaseSlowsDown});
  core::adapt::ParameterController controller(param, {});
  Rng rng(1);
  for (auto _ : state) {
    const auto signal = monitor.observe(rng.uniform(0, 60));
    controller.report_downstream_exception(signal);
    benchmark::DoNotOptimize(
        controller.update(monitor.normalized_dtilde_gated()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdaptationControlStep);

void BM_XmlParseConfig(benchmark::State& state) {
  std::string doc = "<application name=\"x\"><stages>";
  for (int i = 0; i < 16; ++i) {
    doc += "<stage name=\"s" + std::to_string(i) +
           "\" code=\"builtin://p\" capacity=\"100\">"
           "<param name=\"k\" value=\"v\"/><monitor alpha=\"0.7\"/></stage>";
  }
  doc += "</stages><sources><source target=\"s0\"/></sources></application>";
  for (auto _ : state) {
    auto parsed = xml::parse(doc);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(doc.size()));
}
BENCHMARK(BM_XmlParseConfig);

void BM_SpscRingPingPong(benchmark::State& state) {
  SpscRing<int> ring(1024);
  for (auto _ : state) {
    ring.try_push(1);
    benchmark::DoNotOptimize(ring.try_pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscRingPingPong);

// Cross-thread SPSC handoff in batches of `range(0)`: the rt-engine 1:1
// fast path, including the single release-store batch publication.
void BM_SpscRingHandoff(benchmark::State& state) {
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  SpscRing<int> ring(1024);
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    std::vector<int> batch(batch_size, 1);
    while (!stop.load(std::memory_order_acquire)) {
      std::size_t pushed = 0;
      while (pushed < batch.size() &&
             !stop.load(std::memory_order_relaxed)) {
        const std::size_t n = ring.try_push_n(batch, pushed);
        pushed += n;
        // Yield when full so the benchmark stays meaningful on one core.
        if (n == 0) std::this_thread::yield();
      }
      // try_push_n moves from the batch; refill the moved-from ints.
      batch.assign(batch_size, 1);
    }
  });
  std::vector<int> out;
  out.reserve(batch_size);
  std::int64_t received = 0;
  for (auto _ : state) {
    out.clear();
    std::size_t n;
    while ((n = ring.try_pop_n(out, batch_size)) == 0) {
      std::this_thread::yield();
    }
    received += static_cast<std::int64_t>(n);
  }
  stop.store(true, std::memory_order_release);
  producer.join();
  state.SetItemsProcessed(received);
}
BENCHMARK(BM_SpscRingHandoff)->Arg(1)->Arg(8)->Arg(32);

/// Pins the calling thread to `core` for the scope's lifetime and then
/// restores its previous mask. Pinning is skipped when the affinity mask
/// allows fewer than two CPUs or the platform refuses; pinned() says which.
class ScopedPin {
 public:
  explicit ScopedPin(int core) {
#if defined(__linux__)
    saved_ = pthread_getaffinity_np(pthread_self(), sizeof(mask_), &mask_) == 0;
    pinned_ = saved_ && hardware_core_count() >= 2 &&
              pin_current_thread_to_core(core);
#else
    (void)core;
#endif
  }
  ~ScopedPin() {
#if defined(__linux__)
    if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof(mask_), &mask_);
#endif
  }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;
  bool pinned() const { return pinned_; }

 private:
#if defined(__linux__)
  cpu_set_t mask_{};
  bool saved_ = false;
#endif
  bool pinned_ = false;
};

// StageInbox park->wake round trip: two threads ping-pong one item through
// a pair of SPSC inboxes (push_all + consume) with IdleConfig::park(), so
// every handoff finds the peer parked and pays its wake. One iteration is
// a round trip, i.e. two park->wake handoffs. The threads sit on CPUs 0
// and 1 when the affinity mask allows (counter `pinned` = 1).
void BM_StageInboxParkWake(benchmark::State& state) {
  core::StageInbox<int> ping(64);
  core::StageInbox<int> pong(64);
  for (core::StageInbox<int>* inbox : {&ping, &pong}) {
    inbox->use_spsc();
    inbox->set_idle(IdleConfig::park());
  }
  std::atomic<bool> echo_pinned{false};
  std::thread echo([&] {
    ScopedPin pin(1);
    echo_pinned.store(pin.pinned(), std::memory_order_relaxed);
    std::vector<int> out;
    while (ping.consume([&](int& v) { out.push_back(v); }, 1) != 0) {
      pong.push_all(out);
    }
  });
  ScopedPin pin(0);
  std::vector<int> in;
  int got = 0;
  for (auto _ : state) {
    in.assign(1, 1);
    ping.push_all(in);
    pong.consume([&](int& v) { got += v; }, 1);
  }
  ping.close();
  echo.join();
  benchmark::DoNotOptimize(got);
  state.counters["pinned"] =
      pin.pinned() && echo_pinned.load(std::memory_order_relaxed) ? 1 : 0;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StageInboxParkWake)->UseRealTime();

// The handoff that serving in place uses instead of a park→wake: the
// producer pushes one item, claims the parked consumer's role, takes the
// item on its own thread and releases — the consumer thread stays asleep.
// Set beside BM_StageInboxParkWake's round trip. `served` is the share of
// items taken in place (a claim fails only while the consumer is awake).
void BM_StageInboxClaimServe(benchmark::State& state) {
  core::StageInbox<int> inbox(64);
  inbox.use_spsc();
  inbox.set_idle(IdleConfig::park());
  std::thread consumer([&] {
    ScopedPin pin(1);
    while (inbox.consume([](int&) {}, 1) != 0) {
    }
  });
  ScopedPin pin(0);
  std::vector<int> in;
  int got = 0;
  std::int64_t served = 0;
  for (auto _ : state) {
    in.assign(1, 1);
    inbox.push_all(in, /*defer_wake=*/true);
    if (inbox.try_claim()) {
      served += static_cast<std::int64_t>(
          inbox.consume_claimed([&](int& v) { got += v; }, 1));
      inbox.release_claim();
    } else {
      inbox.wake_consumer();
    }
  }
  inbox.close();
  consumer.join();
  benchmark::DoNotOptimize(got);
  state.counters["served"] =
      static_cast<double>(served) /
      static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StageInboxClaimServe)->UseRealTime();

// Fan-in handoff: two producer threads push batches of 32 into one shared
// inbox (the producer lock serializes them) and the benchmark thread
// consumes up to 32 per call; items/s counts consumed items. Uses only the
// constructor, push_all, consume and close.
void BM_StageInboxFanIn(benchmark::State& state) {
  constexpr std::size_t kBatch = 32;
  core::StageInbox<int> inbox(1024);
  auto produce = [&] {
    std::vector<int> batch;
    do {
      batch.assign(kBatch, 1);
    } while (inbox.push_all(batch) == kBatch);
  };
  std::thread a(produce);
  std::thread b(produce);
  std::int64_t items = 0;
  for (auto _ : state) {
    items += static_cast<std::int64_t>(inbox.consume([](int&) {}, kBatch));
  }
  inbox.close();
  a.join();
  b.join();
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_StageInboxFanIn)->UseRealTime();

// Fan-out cost per downstream route: COW payload copies are refcount bumps,
// independent of payload size — compare Arg(64) with Arg(4096).
void BM_PacketFanoutCopy(benchmark::State& state) {
  core::Packet packet;
  packet.payload = ByteBuffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    core::Packet a = packet;
    core::Packet b = packet;
    core::Packet c = packet;
    core::Packet d = packet;
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
    benchmark::DoNotOptimize(c);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_PacketFanoutCopy)->Arg(64)->Arg(4096);

// Cross-thread reorder-merge round trip: the dispatcher acquires dense
// sequences and `range(0)` completer threads deposit them out of order; the
// dispatcher runs the release election. Measures the per-completion cost of
// the order-preserving window (mutex, slot recycle, release claim).
void BM_ReorderMerge(benchmark::State& state) {
  const auto completers = static_cast<std::size_t>(state.range(0));
  core::ReorderMerge<int> merge(256);
  std::vector<std::unique_ptr<core::StageInbox<std::uint64_t>>> inboxes;
  for (std::size_t i = 0; i < completers; ++i) {
    inboxes.push_back(std::make_unique<core::StageInbox<std::uint64_t>>(64));
  }
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < completers; ++i) {
    threads.emplace_back([&, i] {
      auto complete = [&](std::uint64_t& seq) {
        merge.complete(seq, static_cast<int>(seq));
        while (merge.claim_release()) {
          while (merge.pop_ready()) {
          }
          merge.end_release();
        }
      };
      while (inboxes[i]->consume(complete, 16) != 0) {
      }
    });
  }
  std::uint64_t seq = 0;
  std::int64_t dispatched = 0;
  for (auto _ : state) {
    merge.acquire(seq);
    inboxes[seq % completers]->push(seq);
    ++seq;
    ++dispatched;
  }
  for (auto& inbox : inboxes) inbox->close();
  for (auto& t : threads) t.join();
  merge.close();
  state.SetItemsProcessed(dispatched);
}
BENCHMARK(BM_ReorderMerge)->Arg(1)->Arg(2)->Arg(4);

// Dispatcher-side cost of routing one packet to a shard: hash the key,
// modulo the active replica count, batch into the per-replica staging
// vector. No threads — isolates the routing arithmetic and staging moves.
void BM_ShardDispatch(benchmark::State& state) {
  const auto replicas = static_cast<std::size_t>(state.range(0));
  const core::ShardFn shard = [](const core::Packet& p) {
    return p.sequence * 1099511628211ull;
  };
  std::vector<std::vector<core::Packet>> staged(replicas);
  core::Packet packet;
  packet.payload = ByteBuffer(64);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    packet.sequence = seq++;
    const std::size_t r = static_cast<std::size_t>(shard(packet) % replicas);
    staged[r].push_back(packet);
    if (staged[r].size() == 32) staged[r].clear();
    benchmark::DoNotOptimize(staged[r].data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardDispatch)->Arg(2)->Arg(4)->Arg(8);

// Steady-state packet acquisition: every iteration draws a pooled packet
// and drops it, so after warm-up the payload block cycles through the
// thread cache without touching the heap. items/s here bounds the pool
// overhead the engines pay per source packet.
void BM_PacketPoolAcquireRelease(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  auto& pool = core::PacketPool::global();
  for (auto _ : state) {
    core::Packet packet = pool.acquire(bytes);
    benchmark::DoNotOptimize(packet.payload.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketPoolAcquireRelease)->Arg(64)->Arg(256)->Arg(4096);

// Raw arena block recycle (no Packet/ByteBuffer wrapping): the floor the
// pool benchmark above sits on. The acquire/release pair stays inside the
// calling thread's cache, so this is two deque ops plus stats counters.
void BM_ArenaPayloadAlloc(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  auto& arena = PayloadArena::global();
  for (auto _ : state) {
    PayloadBlock* block = arena.acquire(bytes, /*zero=*/false);
    benchmark::DoNotOptimize(block);
    arena.release(block);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ArenaPayloadAlloc)->Arg(64)->Arg(256)->Arg(65536);

// Cost of one idle step in each mode, plus the reset after progress —
// the overhead a streaming consumer pays every time it polls an empty
// ring before the producer's next packet lands. 0=spin 1=balanced 2=park.
void BM_IdleStrategyWake(benchmark::State& state) {
  IdleConfig config;
  switch (state.range(0)) {
    case 0: config = IdleConfig::spin(); break;
    case 1: config = IdleConfig::balanced(); break;
    default: config = IdleConfig::park(); break;
  }
  IdleStrategy idle(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idle.should_park());
    idle.reset();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IdleStrategyWake)->Arg(0)->Arg(1)->Arg(2);

void BM_ZipfDraw(benchmark::State& state) {
  ZipfGenerator zipf(static_cast<std::uint64_t>(state.range(0)), 1.1);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.next(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfDraw)->Arg(1000)->Arg(100000);

}  // namespace
}  // namespace gates
