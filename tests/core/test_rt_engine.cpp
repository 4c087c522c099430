// Real-time engine tests use short runs and generous timing tolerances —
// they check plumbing (counts, EOS, backpressure survival), not timing
// precision, which the deterministic SimEngine tests cover.
#include "gates/core/rt_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "gates/core/sim_engine.hpp"
#include "gates/obs/profiler.hpp"

namespace gates::core {
namespace {

class CountingProcessor : public StreamProcessor {
 public:
  void init(ProcessorContext& ctx) override {
    forward_ = ctx.properties().get_bool("forward", false);
  }
  void process(const Packet& packet, Emitter& emitter) override {
    ++packets_;
    bytes_ += packet.payload_bytes();
    if (forward_) emitter.emit(packet);
  }
  void finish(Emitter&) override { finished_ = true; }
  std::string name() const override { return "counting"; }

  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
  bool forward_ = false;
  bool finished_ = false;
};

struct Built {
  PipelineSpec spec;
  Placement placement;
  HostModel hosts;
  net::Topology topology;
};

Built chain(std::uint64_t packets, double rate, std::size_t bytes) {
  Built b;
  StageSpec a;
  a.name = "A";
  a.properties.set("forward", "true");
  a.factory = [] { return std::make_unique<CountingProcessor>(); };
  StageSpec sink;
  sink.name = "B";
  sink.factory = [] { return std::make_unique<CountingProcessor>(); };
  b.spec.stages = {std::move(a), std::move(sink)};
  b.spec.edges = {{0, 1, 0}};
  SourceSpec src;
  src.rate_hz = rate;
  src.total_packets = packets;
  src.packet_bytes = bytes;
  b.spec.sources = {src};
  b.placement.stage_nodes = {0, 1};
  b.hosts.cpu_factor = {1.0, 1.0};
  return b;
}

TEST(RtEngine, AllPacketsFlowThroughAndComplete) {
  auto b = chain(200, 2000, 32);
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, {});
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_TRUE(engine.report().completed);
  auto& a = dynamic_cast<CountingProcessor&>(engine.processor(0));
  auto& sink = dynamic_cast<CountingProcessor&>(engine.processor(1));
  EXPECT_EQ(a.packets_, 200u);
  EXPECT_EQ(sink.packets_, 200u);
  EXPECT_TRUE(sink.finished_);
}

TEST(RtEngine, ThrottledLinkSlowsTransfer) {
  auto b = chain(50, 5000, 100);  // 5 KB of payload
  b.topology.set_pair(0, 1, {10e3, 0.0});  // 10 KB/s
  RtEngine::Config cfg;
  cfg.wire.per_message_overhead = 0;
  cfg.wire.per_record_overhead = 0;
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, cfg);
  ASSERT_TRUE(engine.run().is_ok());
  // ~0.5 s of transfer minus the burst allowance; just require a visible
  // slowdown versus the ~25 ms generation time.
  EXPECT_GT(engine.report().execution_time, 0.15);
  auto& sink = dynamic_cast<CountingProcessor&>(engine.processor(1));
  EXPECT_EQ(sink.packets_, 50u);
}

TEST(RtEngine, BackpressureWithTinyQueuePreservesPackets) {
  auto b = chain(100, 5000, 16);
  b.spec.stages[1].input_capacity = 2;
  b.spec.stages[1].cost.per_packet_seconds = 0.001;
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, {});
  ASSERT_TRUE(engine.run().is_ok());
  auto& sink = dynamic_cast<CountingProcessor&>(engine.processor(1));
  EXPECT_EQ(sink.packets_, 100u);
}

TEST(RtEngine, RunForWindsDownUnboundedSources) {
  auto b = chain(0, 500, 16);  // unbounded
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, {});
  ASSERT_TRUE(engine.run_for(0.3).is_ok());
  EXPECT_TRUE(engine.report().completed);
  auto& sink = dynamic_cast<CountingProcessor&>(engine.processor(1));
  EXPECT_GT(sink.packets_, 20u);
}

TEST(RtEngine, WatchdogForceStopsRunawayRun) {
  auto b = chain(1000000, 10, 16);  // would take ~28 hours
  RtEngine::Config cfg;
  cfg.max_wall_time = 0.3;
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, cfg);
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_FALSE(engine.report().completed);
}

TEST(RtEngine, InvalidPipelineSurfacesStatus) {
  auto b = chain(10, 100, 16);
  b.spec.edges.push_back({1, 0, 0});
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, {});
  EXPECT_FALSE(engine.run().is_ok());
}

TEST(RtEngine, ReportCarriesStageStats) {
  auto b = chain(100, 2000, 32);
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, {});
  ASSERT_TRUE(engine.run().is_ok());
  const auto* a = engine.report().stage("A");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->packets_processed, 100u);
  EXPECT_EQ(a->packets_emitted, 100u);
}

TEST(RtEngine, AdaptationAdjustsParameterUnderLoad) {
  // A volume parameter on stage A with a deliberately overloaded sink must
  // move down from its initial value.
  class AdaptiveForwarder : public StreamProcessor {
   public:
    void init(ProcessorContext& ctx) override {
      AdjustmentParameter::Spec s;
      s.name = "volume";
      s.initial = 1.0;
      s.min_value = 0.0;
      s.max_value = 1.0;
      s.direction = ParamDirection::kIncreaseSlowsDown;
      param_ = &ctx.specify_parameter(s);
    }
    void process(const Packet& packet, Emitter& emitter) override {
      emitter.emit(packet);
    }
    std::string name() const override { return "adaptive-forwarder"; }
    AdjustmentParameter* param_ = nullptr;
  };

  auto b = chain(0, 300, 16);
  b.spec.stages[0].factory = [] {
    return std::make_unique<AdaptiveForwarder>();
  };
  b.spec.stages[1].cost.per_packet_seconds = 0.02;  // sink keeps ~6x too slow
  b.spec.stages[1].input_capacity = 50;
  b.spec.stages[1].monitor.capacity = 50;
  b.spec.stages[1].monitor.expected_length = 5;
  b.spec.stages[1].monitor.over_threshold = 10;
  b.spec.stages[1].monitor.under_threshold = 2;
  RtEngine::Config cfg;
  cfg.control_period = 0.02;
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, cfg);
  ASSERT_TRUE(engine.run_for(1.5).is_ok());
  const auto* a = engine.report().stage("A");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->parameter_trajectories.size(), 1u);
  const auto& trajectory = a->parameter_trajectories[0].second;
  ASSERT_FALSE(trajectory.empty());
  EXPECT_LT(trajectory.back().second, 1.0);
}

// -- zero-copy / batched data path -------------------------------------------

TEST(RtEngineZeroCopy, SteadyStatePathMakesNoPayloadDeepCopies) {
  auto b = chain(2000, 1e9, 64);  // as fast as the pipeline moves
  const std::uint64_t before = ByteBuffer::deep_copies();
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, {});
  ASSERT_TRUE(engine.run().is_ok());
  // Source -> A -> B: every handoff, including A's re-emit, must alias the
  // payload. Any deep copy on the steady-state path is a regression.
  EXPECT_EQ(ByteBuffer::deep_copies(), before);
  auto& sink = dynamic_cast<CountingProcessor&>(engine.processor(1));
  EXPECT_EQ(sink.packets_, 2000u);
}

TEST(RtEngineZeroCopy, RetentionAndFanOutAliasOneAllocation) {
  // Fan-out (A feeds two sinks) with failover retention on: three aliases
  // per packet (two routes + the replay channel) and still zero copies.
  Built b;
  StageSpec a;
  a.name = "A";
  a.properties.set("forward", "true");
  a.factory = [] { return std::make_unique<CountingProcessor>(); };
  StageSpec s1;
  s1.name = "S1";
  s1.factory = [] { return std::make_unique<CountingProcessor>(); };
  StageSpec s2;
  s2.name = "S2";
  s2.factory = [] { return std::make_unique<CountingProcessor>(); };
  b.spec.stages = {std::move(a), std::move(s1), std::move(s2)};
  b.spec.edges = {{0, 1, 0}, {0, 2, 0}};
  SourceSpec src;
  src.rate_hz = 1e9;
  src.total_packets = 1000;
  src.packet_bytes = 128;
  b.spec.sources = {src};
  b.placement.stage_nodes = {0, 1, 2};
  b.hosts.cpu_factor = {1.0, 1.0, 1.0};
  RtEngine::Config cfg;
  cfg.failover.enabled = true;
  cfg.failover.replay_buffer_packets = 64;
  const std::uint64_t before = ByteBuffer::deep_copies();
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, cfg);
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_EQ(ByteBuffer::deep_copies(), before);
  EXPECT_EQ(dynamic_cast<CountingProcessor&>(engine.processor(1)).packets_,
            1000u);
  EXPECT_EQ(dynamic_cast<CountingProcessor&>(engine.processor(2)).packets_,
            1000u);
}

TEST(RtEngineBatching, MaxBatchOneMatchesLegacyBehavior) {
  auto b = chain(500, 1e9, 32);
  RtEngine::Config cfg;
  cfg.batching.max_batch = 1;  // per-packet handoff, as before this change
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, cfg);
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_TRUE(engine.report().completed);
  EXPECT_EQ(dynamic_cast<CountingProcessor&>(engine.processor(1)).packets_,
            500u);
  const auto* a = engine.report().stage("A");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->packets_processed, 500u);
  EXPECT_EQ(a->packets_emitted, 500u);
}

TEST(RtEngineBatching, SlowSourcePacingSurvivesBatching) {
  // 200 Hz source: the inter-arrival gap (5 ms) exceeds max_source_delay
  // (1 ms default), so every packet must flush individually and the run
  // takes ~ packets/rate despite batching being enabled.
  auto b = chain(60, 200, 16);
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, {});
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_GT(engine.report().execution_time, 0.2);  // >= ~0.3 s nominal
  EXPECT_EQ(dynamic_cast<CountingProcessor&>(engine.processor(1)).packets_,
            60u);
}

TEST(RtEngine, GeneratorWaitIsNotPacketLatency) {
  // The generator blocks 5 ms before every 32nd packet, the first of each
  // default batch: the batch is stamped once its first packet is in hand,
  // so A's latency measures the pipeline, not the wait for input.
  auto b = chain(320, std::numeric_limits<double>::infinity(), 16);
  b.spec.sources[0].generator = [](std::uint64_t seq, Rng&) {
    if (seq % 32 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    Packet p;
    p.payload = ByteBuffer(16);
    return p;
  };
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, {});
  ASSERT_TRUE(engine.run().is_ok());
  const auto* a = engine.report().stage("A");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->packets_processed, 320u);
  EXPECT_LT(a->packet_latency.mean(), 1e-3);
}

/// Records the sequence of every packet it receives, per stream; forwards
/// when asked.
class SequenceRecorder : public StreamProcessor {
 public:
  explicit SequenceRecorder(bool forward) : forward_(forward) {}
  void init(ProcessorContext&) override {}
  void process(const Packet& packet, Emitter& emitter) override {
    sequences_[packet.stream].push_back(packet.sequence);
    if (forward_) emitter.emit(packet);
  }
  std::string name() const override { return "sequence-recorder"; }

  std::map<StreamId, std::vector<std::uint64_t>> sequences_;
  bool forward_;
};

/// source (node 0) -> A (node 1) -> {B (node 2), C (node 3)} over
/// unthrottled links, so every flow crosses nodes and may take the direct
/// path. `fan_in` adds a second source (stream 1, node 0) into A, so A has
/// two producers and reads a shared inbox.
Built fan_out_tree(std::uint64_t packets, std::size_t input_capacity,
                   bool fan_in = false) {
  Built b;
  auto stage = [&](const char* name, bool forward) {
    StageSpec st;
    st.name = name;
    st.input_capacity = input_capacity;
    st.factory = [forward] {
      return std::make_unique<SequenceRecorder>(forward);
    };
    return st;
  };
  b.spec.stages = {stage("A", true), stage("B", false), stage("C", false)};
  b.spec.edges = {{0, 1, 0}, {0, 2, 0}};
  SourceSpec src;
  src.location = 0;
  src.rate_hz = 1e9;
  src.total_packets = packets;
  src.packet_bytes = 32;
  b.spec.sources = {src};
  if (fan_in) {
    src.stream = 1;
    b.spec.sources.push_back(src);
  }
  b.placement.stage_nodes = {1, 2, 3};
  b.hosts.cpu_factor = {1.0, 1.0, 1.0, 1.0};
  net::LinkSpec link;
  link.bandwidth = 1e12;  // unthrottled: the gate never blocks the direct path
  b.topology.set_default_link(link);
  return b;
}

template <typename Engine>
std::vector<std::map<StreamId, std::vector<std::uint64_t>>> sink_sequences(
    Engine& engine) {
  return {dynamic_cast<SequenceRecorder&>(engine.processor(1)).sequences_,
          dynamic_cast<SequenceRecorder&>(engine.processor(2)).sequences_};
}

// Every send path the outlet has — direct ring push, staged batch, shaped
// hand-off — with retention off and on and the profiler off and on, on both
// the source and the stage side, plus a fan-in case whose A reads a shared
// inbox: each sink sees every sequence of every stream once, in order,
// exactly as in the SimEngine run of the same spec.
TEST(RtEngineSendPaths, EveryPathDeliversEachPacketOnceInOrder) {
  constexpr std::uint64_t kPackets = 2000;
  std::vector<std::uint64_t> expected(kPackets);
  std::iota(expected.begin(), expected.end(), 0);
  struct Case {
    const char* name;
    std::size_t input_capacity;
    bool shaped;
    bool fan_in;
  };
  const Case cases[] = {
      {"direct", 200, false, false},
      {"staged (ring full)", 2, false, false},
      {"shaped", 200, true, false},
      {"fan-in (shared inbox)", 200, false, true},
  };
  obs::Profiler& profiler = obs::Profiler::global();
  for (const Case& c : cases) {
    for (const bool failover : {false, true}) {
      for (const bool profile : {false, true}) {
        SCOPED_TRACE(std::string(c.name) +
                     (failover ? ", retention on" : ", retention off") +
                     (profile ? ", profiler on" : ", profiler off"));
        Built b = fan_out_tree(kPackets, c.input_capacity, c.fan_in);
        RtEngine::Config cfg;
        cfg.failover.enabled = failover;
        RtEngine rt(b.spec, b.placement, b.hosts, b.topology, cfg);
        if (c.shaped) {
          rt.prepare_link_change(0, 1);  // source -> A
          rt.prepare_link_change(1, 2);  // A -> B
        }
        profiler.reset();
        profiler.set_enabled(profile);
        const Status status = rt.run();
        profiler.set_enabled(false);
        ASSERT_TRUE(status.is_ok());
        ASSERT_TRUE(rt.report().completed);
        const auto rt_sinks = sink_sequences(rt);
        const std::size_t streams = c.fan_in ? 2 : 1;
        for (const auto& sink : rt_sinks) {
          ASSERT_EQ(sink.size(), streams);
          for (const auto& [stream, seqs] : sink) {
            EXPECT_EQ(seqs, expected) << "stream " << stream;
          }
        }

        SimEngine::Config sim_cfg;
        sim_cfg.failover.enabled = failover;
        SimEngine sim(b.spec, b.placement, b.hosts, b.topology, sim_cfg);
        ASSERT_TRUE(sim.run().is_ok());
        EXPECT_EQ(rt_sinks, sink_sequences(sim));
      }
    }
  }
  profiler.reset();
}

/// Two sources (streams 0 and 1, node 0) into one recording stage on node
/// 1: a fan-in stage, whose flows are shaped when `latency` > 0.
Built two_sources_into_one(std::uint64_t packets, std::size_t input_capacity,
                           double latency) {
  Built b;
  StageSpec st;
  st.name = "fan-in";
  st.input_capacity = input_capacity;
  st.factory = [] { return std::make_unique<SequenceRecorder>(false); };
  b.spec.stages = {std::move(st)};
  SourceSpec src;
  src.location = 0;
  src.rate_hz = 1e9;
  src.total_packets = packets;
  src.packet_bytes = 32;
  b.spec.sources = {src};
  src.stream = 1;
  b.spec.sources.push_back(src);
  b.placement.stage_nodes = {1};
  b.hosts.cpu_factor = {1.0, 1.0};
  net::LinkSpec link;
  link.bandwidth = 1e12;
  link.latency = latency;
  b.topology.set_default_link(link);
  return b;
}

/// source (node 0) -> 2-replica pool (node 1) -> recording sink (node 2).
Built pool_into_sink(std::uint64_t packets, std::size_t input_capacity) {
  Built b;
  StageSpec pool;
  pool.name = "pool";
  pool.input_capacity = input_capacity;
  pool.factory = [] { return std::make_unique<SequenceRecorder>(true); };
  pool.parallelism.mode = ParallelismMode::kStateless;
  pool.parallelism.replicas = 2;
  pool.parallelism.max_replicas = 2;
  StageSpec sink;
  sink.name = "sink";
  sink.input_capacity = input_capacity;
  sink.factory = [] { return std::make_unique<SequenceRecorder>(false); };
  b.spec.stages = {std::move(pool), std::move(sink)};
  b.spec.edges = {{0, 1, 0}};
  SourceSpec src;
  src.location = 0;
  src.rate_hz = 1e9;
  src.total_packets = packets;
  src.packet_bytes = 32;
  b.spec.sources = {src};
  b.placement.stage_nodes = {1, 2};
  b.hosts.cpu_factor = {1.0, 1.0, 1.0};
  net::LinkSpec link;
  link.bandwidth = 1e12;
  b.topology.set_default_link(link);
  return b;
}

// The three inbox kinds with more than one producer thread, which take the
// producer lock: a fan-in stage, the stage downstream of a pool (any
// releasing replica pushes) and a fan-in stage fed by shaped flows. The
// inboxes are small, so producers park on a full ring. With failover off
// and on, each stream reaches the sink once, in increasing order, and the
// sink's multiset equals the SimEngine run of the same spec.
TEST(RtEngineSharedInbox, EveryMultiProducerInboxMatchesSim) {
  constexpr std::uint64_t kPackets = 2000;
  std::vector<std::uint64_t> expected(kPackets);
  std::iota(expected.begin(), expected.end(), 0);
  struct Case {
    const char* name;
    Built b;
    std::size_t sink;
    std::size_t streams;
    bool shaped;
  };
  const Case cases[] = {
      {"two sources into a fan-in stage", two_sources_into_one(kPackets, 8, 0),
       0, 2, false},
      {"2-replica pool into a sink", pool_into_sink(kPackets, 8), 1, 1, false},
      {"shaped flows into a fan-in stage",
       two_sources_into_one(kPackets, 8, 1e-3), 0, 2, true},
  };
  for (const Case& c : cases) {
    for (const bool failover : {false, true}) {
      SCOPED_TRACE(std::string(c.name) +
                   (failover ? ", failover on" : ", failover off"));
      RtEngine::Config cfg;
      cfg.failover.enabled = failover;
      RtEngine rt(c.b.spec, c.b.placement, c.b.hosts, c.b.topology, cfg);
      ASSERT_TRUE(rt.run().is_ok());
      ASSERT_TRUE(rt.report().completed);
      EXPECT_FALSE(rt.stage_inbox_spsc(c.sink)) << "the sink's inbox is shared";
      EXPECT_EQ(rt.report().links.size(), c.shaped ? 1u : 0u);
      const auto& rt_sink =
          dynamic_cast<SequenceRecorder&>(rt.processor(c.sink)).sequences_;
      ASSERT_EQ(rt_sink.size(), c.streams);
      for (const auto& [stream, seqs] : rt_sink) {
        EXPECT_EQ(seqs, expected) << "stream " << stream;
      }

      SimEngine::Config sim_cfg;
      sim_cfg.failover.enabled = failover;
      SimEngine sim(c.b.spec, c.b.placement, c.b.hosts, c.b.topology, sim_cfg);
      ASSERT_TRUE(sim.run().is_ok());
      auto multiset = [](std::map<StreamId, std::vector<std::uint64_t>> m) {
        for (auto& [stream, seqs] : m) std::sort(seqs.begin(), seqs.end());
        return m;
      };
      EXPECT_EQ(
          multiset(rt_sink),
          multiset(dynamic_cast<SequenceRecorder&>(sim.processor(c.sink))
                       .sequences_));
    }
  }
}

}  // namespace
}  // namespace gates::core
