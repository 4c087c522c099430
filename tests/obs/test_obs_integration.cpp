// End-to-end telemetry: run real SimEngine pipelines with the global
// TraceBuffer / MetricsRegistry enabled and check that the emitted events
// agree exactly with the engine's own report — in particular that a
// param-adjust event carries the controller's dtilde input (ISSUE PR 2).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gates/core/rt_engine.hpp"
#include "gates/core/sim_engine.hpp"
#include "gates/obs/metrics.hpp"
#include "gates/obs/trace.hpp"
#include "gates/obs/trace_context.hpp"

namespace gates::core {
namespace {

/// Enables the process-global telemetry singletons for one test and restores
/// their prior state on exit, so other tests see them untouched.
struct ScopedTelemetry {
  ScopedTelemetry()
      : trace_was_enabled(obs::TraceBuffer::global().enabled()),
        metrics_were_enabled(obs::MetricsRegistry::global().enabled()) {
    obs::TraceBuffer::global().clear();
    obs::TraceBuffer::global().set_enabled(true);
    obs::MetricsRegistry::global().reset();
    obs::MetricsRegistry::global().set_enabled(true);
  }
  ~ScopedTelemetry() {
    obs::TraceBuffer::global().set_enabled(trace_was_enabled);
    obs::TraceBuffer::global().clear();
    obs::MetricsRegistry::global().set_enabled(metrics_were_enabled);
    obs::MetricsRegistry::global().reset();
  }
  bool trace_was_enabled;
  bool metrics_were_enabled;
};

class Relay : public StreamProcessor {
 public:
  explicit Relay(bool forward = true) : forward_(forward) {}
  void init(ProcessorContext&) override {}
  void process(const Packet& packet, Emitter& emitter) override {
    if (forward_) emitter.emit(packet);
  }
  std::string name() const override { return "relay"; }
  bool forward_;
};

/// Sink declaring one adjustment parameter so the engine runs a controller.
class KnobProcessor : public StreamProcessor {
 public:
  void init(ProcessorContext& ctx) override {
    AdjustmentParameter::Spec s;
    s.name = "knob";
    s.initial = 0.5;
    s.min_value = 0;
    s.max_value = 1;
    ctx.specify_parameter(s);
  }
  void process(const Packet&, Emitter&) override {}
  std::string name() const override { return "knob-sink"; }
};

TEST(ObsIntegration, ParamAdjustEventsMatchControllerAndReport) {
  ScopedTelemetry telemetry;

  // source(node 0) -> A relay(node 0) -> B knob sink(node 1); B is slow
  // enough that its queue builds and the controller has to steer the knob.
  PipelineSpec spec;
  StageSpec a;
  a.name = "A";
  a.factory = [] { return std::make_unique<Relay>(); };
  StageSpec b;
  b.name = "B";
  b.factory = [] { return std::make_unique<KnobProcessor>(); };
  b.cost.per_packet_seconds = 0.008;
  // With trend gating off, the controller's dtilde input is exactly the
  // monitor's normalized dtilde — the value the report snapshots at the end.
  b.monitor.trend_gating = false;
  spec.stages = {std::move(a), std::move(b)};
  spec.edges = {{0, 1, 0}};
  SourceSpec src;
  src.rate_hz = 200;
  src.total_packets = 1000;
  src.packet_bytes = 64;
  spec.sources = {src};
  Placement placement;
  placement.stage_nodes = {0, 1};

  SimEngine::Config cfg;
  cfg.wire.per_message_overhead = 0;
  cfg.wire.per_record_overhead = 0;
  SimEngine engine(spec, placement, {}, {}, cfg);
  ASSERT_TRUE(engine.run().is_ok());
  const RunReport& report = engine.report();
  ASSERT_TRUE(report.completed);

  // Collect the knob's adjustment trajectory out of the trace.
  std::vector<obs::TraceEvent> adjustments;
  bool saw_service_span = false;
  for (const obs::TraceEvent& event : obs::TraceBuffer::global().events()) {
    if (event.kind == obs::TraceKind::kParamAdjust && event.component == "B") {
      EXPECT_EQ(event.detail, "knob");
      adjustments.push_back(event);
    }
    if (event.kind == obs::TraceKind::kServiceSpan && event.component == "B" &&
        event.duration > 0) {
      saw_service_span = true;
    }
  }
  ASSERT_FALSE(adjustments.empty());
  EXPECT_TRUE(saw_service_span);

  // The trajectory chains: each step starts from the previous step's result,
  // beginning at the declared initial value.
  EXPECT_DOUBLE_EQ(adjustments.front().value_old, 0.5);
  for (std::size_t i = 1; i < adjustments.size(); ++i) {
    EXPECT_DOUBLE_EQ(adjustments[i].value_old, adjustments[i - 1].value_new);
    EXPECT_GT(adjustments[i].time, adjustments[i - 1].time);
  }

  // The final event agrees with the engine's own end-of-run state: the knob
  // value the stage holds, and the dtilde the controller consumed (which,
  // with gating off, is the monitor value the report snapshots).
  const obs::TraceEvent& last = adjustments.back();
  EXPECT_DOUBLE_EQ(last.value_new, engine.parameter_value(1, "knob"));
  const StageReport* stage_b = report.stage("B");
  ASSERT_NE(stage_b, nullptr);
  EXPECT_DOUBLE_EQ(last.dtilde, stage_b->final_normalized_dtilde);

  // The report carries the telemetry roll-ups for downstream persistence.
  EXPECT_GT(report.trace_summary.emitted, 0u);
  EXPECT_EQ(report.trace_summary.dropped, 0u);
  bool saw_processed_metric = false;
  for (const obs::MetricSample& sample : report.metrics) {
    if (sample.key == "gates_stage_packets_processed{stage=\"B\"}") {
      saw_processed_metric = true;
      EXPECT_GT(sample.value, 0);
      EXPECT_LE(sample.value, static_cast<double>(stage_b->packets_processed));
    }
  }
  EXPECT_TRUE(saw_processed_metric);
}

// The RtEngine (the only engine with a real allocator on the data path)
// exports the payload-pool counters and fills the report's allocation
// accounting: packets flowed, nothing fell back to the heap, and the
// per-packet heap-allocation figure the perf gate watches is ~0.
TEST(ObsIntegration, RtEngineExportsPoolMetricsAndAllocationReport) {
  ScopedTelemetry telemetry;

  PipelineSpec spec;
  StageSpec a;
  a.name = "A";
  a.factory = [] { return std::make_unique<Relay>(); };
  StageSpec b;
  b.name = "B";
  b.factory = [] { return std::make_unique<Relay>(/*forward=*/false); };
  spec.stages = {std::move(a), std::move(b)};
  spec.edges = {{0, 1, 0}};
  SourceSpec src;
  src.rate_hz = 50000;
  src.total_packets = 2000;
  src.packet_bytes = 64;
  spec.sources = {src};
  Placement placement;
  placement.stage_nodes = {0, 0};

  RtEngine::Config cfg;
  cfg.control_period = 0.02;
  cfg.max_wall_time = 60;
  cfg.adaptation_enabled = false;
  RtEngine engine(spec, std::move(placement), {}, {}, cfg);
  ASSERT_TRUE(engine.run().is_ok());
  const RunReport& report = engine.report();
  ASSERT_TRUE(report.completed);

  bool saw_pool_acquired = false;
  bool saw_pool_recycled = false;
  bool saw_pool_fallback = false;
  for (const obs::MetricSample& sample : report.metrics) {
    // Pool counters are absolute arena totals (process-wide), so only
    // presence and non-negativity are assertable here.
    if (sample.key == "gates_pool_acquired_total") saw_pool_acquired = true;
    if (sample.key == "gates_pool_recycled_total") saw_pool_recycled = true;
    if (sample.key == "gates_pool_heap_fallback_total") {
      saw_pool_fallback = true;
      EXPECT_GE(sample.value, 0);
    }
  }
  EXPECT_TRUE(saw_pool_acquired);
  EXPECT_TRUE(saw_pool_recycled);
  EXPECT_TRUE(saw_pool_fallback);

  const AllocationReport& alloc = report.allocation;
  EXPECT_GT(alloc.packets, 0u);
  EXPECT_EQ(alloc.pool_heap_fallback, 0u);
  EXPECT_LT(alloc.allocations_per_packet(), 0.01);
}

// With packet sampling off the RtEngine traces no per-packet events, so a
// long run leaves room in a small buffer for every lifecycle event (crash,
// failover and param-adjust events would otherwise be dropped once
// per-packet spans filled it).
TEST(ObsIntegration, RtEngineUnsampledRunTracesNoPerPacketEvents) {
  ScopedTelemetry telemetry;
  const std::size_t capacity = obs::TraceBuffer::global().capacity();
  obs::TraceBuffer::global().set_capacity(4096);
  const std::uint64_t period = obs::PacketTracer::global().sample_period();
  obs::PacketTracer::global().set_sample_period(0);

  PipelineSpec spec;
  StageSpec a;
  a.name = "A";
  a.factory = [] { return std::make_unique<Relay>(); };
  StageSpec b;
  b.name = "B";
  b.factory = [] { return std::make_unique<Relay>(/*forward=*/false); };
  spec.stages = {std::move(a), std::move(b)};
  spec.edges = {{0, 1, 0}};
  SourceSpec src;
  src.rate_hz = 1e9;
  src.total_packets = 20000;
  src.packet_bytes = 64;
  spec.sources = {src};
  Placement placement;
  placement.stage_nodes = {0, 0};
  RtEngine::Config cfg;
  cfg.max_wall_time = 60;
  RtEngine engine(spec, std::move(placement), {}, {}, cfg);
  const bool ran = engine.run().is_ok();
  const std::uint64_t dropped = obs::TraceBuffer::global().dropped();
  std::map<std::string, int> finished;
  for (const obs::TraceEvent& event : obs::TraceBuffer::global().events()) {
    if (event.kind == obs::TraceKind::kStageFinished) {
      ++finished[event.component];
    }
  }
  obs::TraceBuffer::global().set_capacity(capacity);
  obs::PacketTracer::global().set_sample_period(period);

  ASSERT_TRUE(ran);
  ASSERT_TRUE(engine.report().completed);
  EXPECT_EQ(engine.report().stage("B")->packets_processed, 20000u);
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(finished, (std::map<std::string, int>{{"A", 1}, {"B", 1}}));
}

TEST(ObsIntegration, NodeFailureEmitsDetectionAndFailoverSpan) {
  ScopedTelemetry telemetry;

  // Fan-in of two forwarders into a sink; forwarder 0's node dies at t=5 s
  // and failover re-places it (the test_failover.cpp fixture).
  PipelineSpec spec;
  Placement placement;
  for (int i = 0; i < 2; ++i) {
    StageSpec fwd;
    fwd.name = "fwd" + std::to_string(i);
    fwd.factory = [] { return std::make_unique<Relay>(); };
    spec.stages.push_back(std::move(fwd));
    placement.stage_nodes.push_back(static_cast<NodeId>(i + 1));
  }
  StageSpec sink;
  sink.name = "sink";
  sink.factory = [] { return std::make_unique<Relay>(/*forward=*/false); };
  spec.stages.push_back(std::move(sink));
  placement.stage_nodes.push_back(0);
  spec.edges = {{0, 2, 0}, {1, 2, 0}};
  for (int i = 0; i < 2; ++i) {
    SourceSpec src;
    src.stream = static_cast<StreamId>(i);
    src.rate_hz = 100;
    src.total_packets = 1000;
    src.packet_bytes = 64;
    src.location = static_cast<NodeId>(i + 1);
    src.target_stage = static_cast<std::size_t>(i);
    spec.sources.push_back(src);
  }
  SimEngine::Config cfg;
  cfg.failover.enabled = true;
  cfg.failover.replay_buffer_packets = 256;
  SimEngine engine(spec, placement, {}, {}, cfg);
  engine.schedule_node_failure(1, 5.0);
  ASSERT_TRUE(engine.run().is_ok());

  bool saw_detection = false;
  bool saw_recovery = false;
  const obs::TraceEvent* failover_span = nullptr;
  std::size_t heartbeats = 0;
  const std::vector<obs::TraceEvent> events =
      obs::TraceBuffer::global().events();
  for (const obs::TraceEvent& event : events) {
    if (event.component != "fwd0") continue;
    switch (event.kind) {
      case obs::TraceKind::kFailureDetected:
        saw_detection = true;
        break;
      case obs::TraceKind::kRecovered:
        saw_recovery = true;
        break;
      case obs::TraceKind::kFailoverSpan:
        failover_span = &event;
        break;
      case obs::TraceKind::kHeartbeat:
        ++heartbeats;
        break;
      default:
        break;
    }
  }
  EXPECT_TRUE(saw_detection);
  EXPECT_TRUE(saw_recovery);
  ASSERT_NE(failover_span, nullptr);
  // The span covers crash -> recovery and carries the replay accounting the
  // report records for the same incident.
  ASSERT_EQ(engine.report().failures.size(), 1u);
  const auto& failure = engine.report().failures.front();
  EXPECT_DOUBLE_EQ(failover_span->time, failure.failed_at);
  EXPECT_NEAR(failover_span->time + failover_span->duration,
              failure.recovered_at, 1e-9);
  EXPECT_DOUBLE_EQ(failover_span->value_old,
                   static_cast<double>(failure.packets_replayed));
  EXPECT_DOUBLE_EQ(failover_span->value_new,
                   static_cast<double>(failure.packets_lost_retention));
  // Heartbeat lifecycle: at least suspect -> dead -> alive transitions.
  EXPECT_GE(heartbeats, 3u);
}

}  // namespace
}  // namespace gates::core
