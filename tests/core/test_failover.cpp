// Stage failover: heartbeat-lease failure detection, re-placement on a
// surviving node, and bounded-retention replay of unacknowledged packets.
// The disabled path must degrade exactly like the legacy EOS-on-behalf
// behavior exercised by test_node_failure.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>

#include "gates/common/serialize.hpp"
#include "gates/core/rt_engine.hpp"
#include "gates/core/sim_engine.hpp"
#include "gates/obs/trace.hpp"

namespace gates::core {
namespace {

struct LifecycleCounters {
  int inits = 0;
  int recovers = 0;
  std::uint64_t processed = 0;
};

class CountingProcessor : public StreamProcessor {
 public:
  explicit CountingProcessor(std::shared_ptr<LifecycleCounters> counters =
                                 nullptr,
                             bool forward = true)
      : counters_(std::move(counters)), forward_(forward) {}
  void init(ProcessorContext&) override {
    if (counters_) ++counters_->inits;
  }
  void on_recover(ProcessorContext&) override {
    if (counters_) ++counters_->recovers;
  }
  void process(const Packet& packet, Emitter& emitter) override {
    ++packets_;
    if (counters_) ++counters_->processed;
    if (forward_) emitter.emit(packet);
  }
  void finish(Emitter&) override { finished_ = true; }
  std::string name() const override { return "counting"; }

  std::shared_ptr<LifecycleCounters> counters_;
  bool forward_ = true;
  std::uint64_t packets_ = 0;
  bool finished_ = false;
};

struct Built {
  PipelineSpec spec;
  Placement placement;
  HostModel hosts;
  net::Topology topology;
};

/// Two forwarders (nodes 1, 2) into a sink (node 0), one source per
/// forwarder at 100 packets/s for 10 s — the fan-in fixture of
/// test_node_failure.cpp, optionally with lifecycle counters on fwd0.
Built fan_in(std::shared_ptr<LifecycleCounters> fwd0_counters = nullptr) {
  Built b;
  for (int i = 0; i < 2; ++i) {
    StageSpec fwd;
    fwd.name = "fwd" + std::to_string(i);
    if (i == 0 && fwd0_counters) {
      fwd.factory = [fwd0_counters] {
        return std::make_unique<CountingProcessor>(fwd0_counters);
      };
    } else {
      fwd.factory = [] { return std::make_unique<CountingProcessor>(); };
    }
    b.spec.stages.push_back(std::move(fwd));
    b.placement.stage_nodes.push_back(static_cast<NodeId>(i + 1));
  }
  StageSpec sink;
  sink.name = "sink";
  sink.factory = [] {
    return std::make_unique<CountingProcessor>(nullptr, /*forward=*/false);
  };
  b.spec.stages.push_back(std::move(sink));
  b.placement.stage_nodes.push_back(0);
  b.spec.edges = {{0, 2, 0}, {1, 2, 0}};
  for (int i = 0; i < 2; ++i) {
    SourceSpec src;
    src.stream = static_cast<StreamId>(i);
    src.rate_hz = 100;
    src.total_packets = 1000;
    src.packet_bytes = 16;
    src.location = static_cast<NodeId>(i + 1);
    src.target_stage = static_cast<std::size_t>(i);
    b.spec.sources.push_back(src);
  }
  return b;
}

SimEngine::Config failover_config(std::size_t retention = 256) {
  SimEngine::Config config;
  config.failover.enabled = true;
  config.failover.heartbeat_period = 0.5;
  config.failover.suspicion_beats = 3;
  config.failover.replay_buffer_packets = retention;
  return config;
}

TEST(Failover, FanInCrashRecoversWithinLossWindow) {
  auto b = fan_in();
  SimEngine engine(b.spec, b.placement, b.hosts, b.topology, failover_config());
  engine.schedule_node_failure(1, 5.0);  // fwd0's node dies mid-stream
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_TRUE(engine.report().completed);

  ASSERT_EQ(engine.report().failures.size(), 1u);
  const FailureReport& f = engine.report().failures[0];
  EXPECT_EQ(f.outcome, FailureReport::Outcome::kRecovered);
  EXPECT_NE(f.recovered_on, 1u);
  EXPECT_GT(f.packets_replayed, 0u);

  // Sink counts are exact up to the bounded-retention loss window: every
  // packet either reached the sink or was evicted from a retention buffer.
  auto& sink = dynamic_cast<CountingProcessor&>(engine.processor(2));
  EXPECT_EQ(sink.packets_ + f.packets_lost_retention, 2000u);
  // The outage was short and retention generous, so nothing was evicted.
  EXPECT_EQ(f.packets_lost_retention, 0u);
  EXPECT_TRUE(sink.finished_);
}

TEST(Failover, DetectionLatencyIsDeterministicLeaseExpiry) {
  auto b = fan_in();
  SimEngine engine(b.spec, b.placement, b.hosts, b.topology, failover_config());
  engine.schedule_node_failure(1, 5.0);
  ASSERT_TRUE(engine.run().is_ok());
  ASSERT_EQ(engine.report().failures.size(), 1u);
  const FailureReport& f = engine.report().failures[0];
  // Crash at 5.0 with 0.5 s beats and K = 3: the detector declares the
  // node down at 0.5 * (floor(5.0/0.5) + 3) = 6.5.
  EXPECT_DOUBLE_EQ(f.failed_at, 5.0);
  EXPECT_DOUBLE_EQ(f.detected_at, 6.5);
  EXPECT_DOUBLE_EQ(f.detection_latency(), 1.5);
  EXPECT_EQ(f.attempts, 1u);
}

TEST(Failover, TinyRetentionBoundsTheLoss) {
  auto b = fan_in();
  SimEngine engine(b.spec, b.placement, b.hosts, b.topology,
                   failover_config(/*retention=*/32));
  engine.schedule_node_failure(1, 5.0);
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_TRUE(engine.report().completed);
  ASSERT_EQ(engine.report().failures.size(), 1u);
  const FailureReport& f = engine.report().failures[0];
  EXPECT_EQ(f.outcome, FailureReport::Outcome::kRecovered);
  // ~150 packets arrive during the 1.5 s detection window but only 32 fit
  // the buffer — the excess is the (bounded, accounted) loss.
  EXPECT_GT(f.packets_lost_retention, 0u);
  auto& sink = dynamic_cast<CountingProcessor&>(engine.processor(2));
  EXPECT_EQ(sink.packets_ + f.packets_lost_retention, 2000u);
}

TEST(Failover, FreshProcessorGetsInitThenOnRecover) {
  auto counters = std::make_shared<LifecycleCounters>();
  auto b = fan_in(counters);
  SimEngine engine(b.spec, b.placement, b.hosts, b.topology, failover_config());
  engine.schedule_node_failure(1, 5.0);
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_EQ(counters->inits, 2);     // original + replacement
  EXPECT_EQ(counters->recovers, 1);  // replacement only
  // Replay fills the gap: across both incarnations every packet of the
  // stream was processed.
  EXPECT_EQ(counters->processed, 1000u);
}

TEST(Failover, ExhaustedRetriesAbandonTheStage) {
  auto b = fan_in();
  auto config = failover_config();
  config.failover.retry.initial_delay = 0.1;
  config.failover.retry.max_attempts = 2;
  SimEngine engine(b.spec, b.placement, b.hosts, b.topology, config);
  engine.schedule_node_failure(1, 5.0);
  // Matchmaking that never finds a node: every attempt fails.
  engine.set_replacement_provider(
      [](std::size_t, const std::vector<NodeId>&)
          -> std::optional<ReplacementDecision> { return std::nullopt; });
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_TRUE(engine.report().completed);  // degraded, not wedged
  ASSERT_EQ(engine.report().failures.size(), 1u);
  const FailureReport& f = engine.report().failures[0];
  EXPECT_EQ(f.outcome, FailureReport::Outcome::kAbandoned);
  EXPECT_EQ(f.attempts, 2u);
  // Legacy degradation: the sink got the survivor's stream plus fwd0's
  // pre-crash output.
  auto& sink = dynamic_cast<CountingProcessor&>(engine.processor(2));
  EXPECT_NEAR(static_cast<double>(sink.packets_), 1500, 40);
}

TEST(Failover, RecoveredNodeRejoinsTheCandidatePool) {
  auto b = fan_in();
  SimEngine engine(b.spec, b.placement, b.hosts, b.topology, failover_config());
  engine.schedule_node_failure(1, 5.0);
  engine.schedule_node_recovery(1, 5.2);  // back before detection at 6.5
  ASSERT_TRUE(engine.run().is_ok());
  ASSERT_EQ(engine.report().failures.size(), 1u);
  const FailureReport& f = engine.report().failures[0];
  EXPECT_EQ(f.outcome, FailureReport::Outcome::kRecovered);
  // Node 1 hosts no live stage, so least-loaded matchmaking re-picks it.
  EXPECT_EQ(f.recovered_on, 1u);
}

TEST(Failover, DisabledPathDegradesExactlyLikeLegacy) {
  // With failover off the run must match the legacy EOS-on-behalf
  // behavior bit for bit — same counts as test_node_failure.cpp asserts.
  auto b = fan_in();
  SimEngine engine(b.spec, b.placement, b.hosts, b.topology, {});
  engine.schedule_node_failure(1, 5.0);
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_TRUE(engine.report().completed);
  ASSERT_EQ(engine.report().failures.size(), 1u);
  const FailureReport& f = engine.report().failures[0];
  EXPECT_EQ(f.outcome, FailureReport::Outcome::kEosOnBehalf);
  EXPECT_DOUBLE_EQ(f.detection_latency(), 0.0);  // legacy is omniscient
  auto& fwd0 = dynamic_cast<CountingProcessor&>(engine.processor(0));
  auto& sink = dynamic_cast<CountingProcessor&>(engine.processor(2));
  EXPECT_NEAR(static_cast<double>(fwd0.packets_), 500, 30);
  EXPECT_NEAR(static_cast<double>(sink.packets_),
              static_cast<double>(fwd0.packets_) + 1000, 5);
  EXPECT_FALSE(fwd0.finished_);
}

TEST(Failover, FailingEveryWorkerRecoversBoth) {
  auto b = fan_in();
  SimEngine engine(b.spec, b.placement, b.hosts, b.topology, failover_config());
  engine.schedule_node_failure(1, 2.0);
  engine.schedule_node_failure(2, 3.0);
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_TRUE(engine.report().completed);
  ASSERT_EQ(engine.report().failures.size(), 2u);
  for (const auto& f : engine.report().failures) {
    EXPECT_EQ(f.outcome, FailureReport::Outcome::kRecovered);
  }
  auto& sink = dynamic_cast<CountingProcessor&>(engine.processor(2));
  std::uint64_t lost = 0;
  for (const auto& f : engine.report().failures) {
    lost += f.packets_lost_retention;
  }
  EXPECT_EQ(sink.packets_ + lost, 2000u);
}

TEST(Failover, RecoverySchedulingAfterRunIsAProgrammingError) {
  auto b = fan_in();
  SimEngine engine(b.spec, b.placement, b.hosts, b.topology, {});
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_THROW(engine.schedule_node_recovery(1, 1.0), std::logic_error);
}

// -- a crash in the middle of a chain -----------------------------------------

/// Stateless transform: the output carries a hash of its input's sequence,
/// so replay may repeat an output but never change one.
class Stamp : public StreamProcessor {
 public:
  void init(ProcessorContext&) override {}
  void process(const Packet& packet, Emitter& emitter) override {
    Packet out = packet;
    ByteBuffer payload;
    Serializer s(payload);
    s.write_u64(packet.sequence * 0x9e3779b97f4a7c15ULL);
    out.payload = std::move(payload);
    emitter.emit(std::move(out));
  }
  std::string name() const override { return "stamp"; }
};

/// Collects the distinct (sequence, payload word) pairs it receives.
class SetSink : public StreamProcessor {
 public:
  void init(ProcessorContext&) override {}
  void process(const Packet& packet, Emitter&) override {
    ++received_;
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < packet.payload.size() && i < 8; ++i) {
      word |= static_cast<std::uint64_t>(packet.payload.data()[i]) << (8 * i);
    }
    seen_.emplace(packet.sequence, word);
  }
  std::string name() const override { return "set-sink"; }

  std::uint64_t received_ = 0;
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen_;
};

/// source -> A (node 1) -> B (node 2) -> C (node 0); node 3 is spare. On the
/// real-time engine the paced source serves A in place, and A, a zero-cost
/// forwarder, serves B.
Built mid_chain(std::uint64_t packets, double rate) {
  Built b;
  StageSpec a;
  a.name = "A";
  a.factory = [] { return std::make_unique<CountingProcessor>(); };
  StageSpec mid;
  mid.name = "B";
  mid.factory = [] { return std::make_unique<Stamp>(); };
  StageSpec sink;
  sink.name = "C";
  sink.factory = [] { return std::make_unique<SetSink>(); };
  b.spec.stages = {std::move(a), std::move(mid), std::move(sink)};
  b.spec.edges = {{0, 1, 0}, {1, 2, 0}};
  SourceSpec src;
  src.rate_hz = rate;
  src.total_packets = packets;
  src.packet_bytes = 16;
  src.location = 1;
  b.spec.sources = {src};
  b.placement.stage_nodes = {1, 2, 0};
  b.hosts.cpu_factor = {1.0, 1.0, 1.0, 1.0};
  return b;
}

TEST(Failover, MidChainCrashReplaysIntoTheRevivedStage) {
  auto base = mid_chain(1000, 100);
  SimEngine clean(base.spec, base.placement, base.hosts, base.topology,
                  failover_config(4096));
  ASSERT_TRUE(clean.run().is_ok());
  const auto& expected = dynamic_cast<SetSink&>(clean.processor(2)).seen_;
  ASSERT_EQ(expected.size(), 1000u);

  auto b = mid_chain(1000, 100);
  SimEngine engine(b.spec, b.placement, b.hosts, b.topology,
                   failover_config(4096));
  engine.schedule_node_failure(2, 5.0);  // B's node only
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_TRUE(engine.report().completed);
  ASSERT_EQ(engine.report().failures.size(), 1u);
  const FailureReport& f = engine.report().failures[0];
  EXPECT_EQ(f.stage, "B");
  EXPECT_EQ(f.outcome, FailureReport::Outcome::kRecovered);
  EXPECT_GT(f.packets_replayed, 0u);
  EXPECT_EQ(f.packets_lost_retention, 0u);
  const auto& sink = dynamic_cast<SetSink&>(engine.processor(2));
  EXPECT_EQ(sink.seen_, expected);
  EXPECT_LE(sink.received_, 1000u + f.packets_replayed);
}

/// Kills the node of mid_chain stage `index` mid-stream, a stage served in
/// place on the paced run (A by the source, B by A): the sink's distinct
/// outputs equal the unkilled run's.
void expect_served_stage_crash_recovers(std::size_t index) {
  auto base = mid_chain(3000, 5000);
  RtEngine::Config config;
  config.adaptation_enabled = false;
  config.control_period = 0.01;
  config.max_wall_time = 60;
  config.failover.enabled = true;
  config.failover.heartbeat_period = 0.05;
  config.failover.suspicion_beats = 2;
  config.failover.replay_buffer_packets = 4096;
  std::set<std::pair<std::uint64_t, std::uint64_t>> expected;
  {
    RtEngine clean(base.spec, base.placement, base.hosts, base.topology,
                   config);
    ASSERT_TRUE(clean.run().is_ok());
    expected = dynamic_cast<SetSink&>(clean.processor(2)).seen_;
    ASSERT_EQ(expected.size(), 3000u);
    EXPECT_GT(clean.report().stages[index].inline_batches, 0u);
  }
  auto b = mid_chain(3000, 5000);
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, config);
  // Mid-stream; the source stays up even when it shares the killed node.
  engine.schedule_node_failure(b.placement.stage_nodes[index], 0.25);
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_TRUE(engine.report().completed);
  ASSERT_EQ(engine.report().failures.size(), 1u);
  const FailureReport& f = engine.report().failures[0];
  EXPECT_EQ(f.stage, b.spec.stages[index].name);
  EXPECT_EQ(f.outcome, FailureReport::Outcome::kRecovered);
  EXPECT_EQ(f.packets_lost_retention, 0u);
  // At-least-once: replay may repeat an output, never lose or alter one.
  const auto& sink = dynamic_cast<SetSink&>(engine.processor(2));
  EXPECT_EQ(sink.seen_, expected);
  EXPECT_LE(sink.received_, 3000u + f.packets_replayed);
}

TEST(FailoverRt, MidChainCrashOfAServedStageRecovers) {
  expect_served_stage_crash_recovers(1);
}

TEST(FailoverRt, CrashOfTheSourcesServedStageRecovers) {
  expect_served_stage_crash_recovers(0);
}

TEST(FailoverRt, CrashedStageRaisesNoExceptionsUntilRecovered) {
  // source -> A (declares a parameter) -> B, where B serves 500 pkt/s
  // against a 2000 pkt/s feed: B backs up past over_threshold and overloads
  // A. When B's node dies, its closed inbox keeps the frozen backlog; a
  // dead stage must not keep reporting it upstream through the lease.
  class AdaptiveForwarder : public StreamProcessor {
   public:
    void init(ProcessorContext& ctx) override {
      AdjustmentParameter::Spec s;
      s.name = "volume";
      s.initial = 1.0;
      s.direction = ParamDirection::kIncreaseSlowsDown;
      ctx.specify_parameter(s);
    }
    void process(const Packet& packet, Emitter& emitter) override {
      emitter.emit(packet);
    }
    std::string name() const override { return "adaptive-forwarder"; }
  };
  PipelineSpec spec;
  StageSpec a;
  a.name = "A";
  a.factory = [] { return std::make_unique<AdaptiveForwarder>(); };
  a.input_capacity = 50;
  StageSpec b;
  b.name = "B";
  b.factory = [] {
    return std::make_unique<CountingProcessor>(nullptr, /*forward=*/false);
  };
  b.cost.per_packet_seconds = 0.002;
  // Short inboxes keep the post-horizon drain short.
  b.input_capacity = 50;
  b.monitor.capacity = 50;
  b.monitor.expected_length = 5;
  b.monitor.over_threshold = 10;
  b.monitor.under_threshold = 2;
  spec.stages = {std::move(a), std::move(b)};
  spec.edges = {{0, 1, 0}};
  SourceSpec src;
  src.rate_hz = 2000;
  src.packet_bytes = 16;
  spec.sources = {src};
  Placement placement;
  placement.stage_nodes = {0, 1};

  RtEngine::Config config;
  config.control_period = 0.02;
  config.failover.enabled = true;
  config.failover.heartbeat_period = 0.1;
  config.failover.suspicion_beats = 3;  // a 0.3 s lease: ~15 control ticks
  config.failover.replay_buffer_packets = 64;

  obs::TraceBuffer& trace = obs::TraceBuffer::global();
  const bool trace_was_enabled = trace.enabled();
  trace.clear();
  trace.set_enabled(true);
  RtEngine engine(spec, placement, {}, {}, config);
  engine.schedule_node_failure(1, 0.3);
  const Status status = engine.run_for(1.0);
  const std::vector<obs::TraceEvent> events = trace.events();
  const std::uint64_t dropped = trace.dropped();
  trace.set_enabled(trace_was_enabled);
  trace.clear();
  ASSERT_TRUE(status.is_ok());
  ASSERT_EQ(dropped, 0u);
  ASSERT_EQ(engine.report().failures.size(), 1u);
  ASSERT_EQ(engine.report().failures[0].outcome,
            FailureReport::Outcome::kRecovered);

  enum { kBefore, kDown, kAfter } phase = kBefore;
  std::size_t overloads_before = 0;
  std::size_t overloads_down = 0;
  for (const obs::TraceEvent& event : events) {
    if (event.component != "B") continue;
    if (event.kind == obs::TraceKind::kCrash) phase = kDown;
    if (event.kind == obs::TraceKind::kRecovered) phase = kAfter;
    if (event.kind != obs::TraceKind::kOverloadException) continue;
    if (phase == kBefore) ++overloads_before;
    if (phase == kDown) ++overloads_down;
  }
  EXPECT_EQ(phase, kAfter);
  // The fixture did overload B while it was alive...
  EXPECT_GT(overloads_before, 0u);
  // ...and the crashed stage stayed silent until it was recovered.
  EXPECT_EQ(overloads_down, 0u);
}

}  // namespace
}  // namespace gates::core
