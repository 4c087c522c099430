// Data-parallel stage replication: order-preserving merge, keyed sharding,
// zero-copy dispatch, failover of a replicated stage, SPSC producer
// accounting, and adaptation-driven scaling on both engines.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "gates/common/byte_buffer.hpp"
#include "gates/core/rt_engine.hpp"
#include "gates/core/sim_engine.hpp"
#include "gates/obs/metrics.hpp"
#include "gates/obs/trace.hpp"

namespace gates::core {
namespace {

/// Enables the process-global telemetry singletons for one test and restores
/// their prior state on exit.
struct ScopedTelemetry {
  ScopedTelemetry()
      : trace_was_enabled(obs::TraceBuffer::global().enabled()) {
    obs::TraceBuffer::global().clear();
    obs::TraceBuffer::global().set_enabled(true);
  }
  ~ScopedTelemetry() {
    obs::TraceBuffer::global().set_enabled(trace_was_enabled);
    obs::TraceBuffer::global().clear();
  }
  bool trace_was_enabled;
};

std::vector<obs::TraceEvent> trace_events_of(obs::TraceKind kind,
                                             const std::string& component) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : obs::TraceBuffer::global().events()) {
    if (e.kind == kind && e.component == component) out.push_back(e);
  }
  return out;
}

class Forwarder : public StreamProcessor {
 public:
  void init(ProcessorContext&) override {}
  void process(const Packet& packet, Emitter& emitter) override {
    emitter.emit(packet);
  }
  std::string name() const override { return "forwarder"; }
};

/// Forwarder that stalls hard on every 4th sequence: with round-robin
/// dispatch over 4 replicas, one replica becomes the adversarially slow one.
class SkewedForwarder : public StreamProcessor {
 public:
  void init(ProcessorContext&) override {}
  void process(const Packet& packet, Emitter& emitter) override {
    if (packet.sequence % 4 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    emitter.emit(packet);
  }
  std::string name() const override { return "skewed-forwarder"; }
};

/// Serial sink recording the arrival order of sequence numbers.
class SequenceSink : public StreamProcessor {
 public:
  void init(ProcessorContext&) override {}
  void process(const Packet& packet, Emitter&) override {
    sequences_.push_back(packet.sequence);
  }
  std::string name() const override { return "sequence-sink"; }
  std::vector<std::uint64_t> sequences_;
};

/// Counts packets per shard key; keyed sharding must keep each key's whole
/// history on exactly one replica instance.
class KeyTracker : public StreamProcessor {
 public:
  void init(ProcessorContext&) override {}
  void process(const Packet& packet, Emitter& emitter) override {
    ++per_key_[packet.sequence % 8];
    emitter.emit(packet);
  }
  std::string name() const override { return "key-tracker"; }
  std::map<std::uint64_t, std::uint64_t> per_key_;
};

struct Built {
  PipelineSpec spec;
  Placement placement;
  HostModel hosts;
  net::Topology topology;
};

/// source -> pool (index 0) -> sink (index 1), everything on distinct nodes.
Built pool_chain(std::uint64_t packets, double rate, Parallelism parallelism) {
  Built b;
  StageSpec pool;
  pool.name = "pool";
  pool.factory = [] { return std::make_unique<Forwarder>(); };
  pool.parallelism = std::move(parallelism);
  StageSpec sink;
  sink.name = "sink";
  sink.factory = [] { return std::make_unique<SequenceSink>(); };
  b.spec.stages = {std::move(pool), std::move(sink)};
  b.spec.edges = {{0, 1, 0}};
  SourceSpec src;
  src.rate_hz = rate;
  src.total_packets = packets;
  src.packet_bytes = 32;
  b.spec.sources = {src};
  b.placement.stage_nodes = {0, 1};
  b.hosts.cpu_factor = {1.0, 1.0};
  return b;
}

// -- RtEngine: order, sharding, copies, failover, SPSC accounting ------------

TEST(StageParallelRt, OrderPreservedUnderReplicaSkew) {
  Parallelism par;
  par.mode = ParallelismMode::kStateless;
  par.replicas = 4;
  par.max_replicas = 4;
  auto b = pool_chain(400, 1e9, par);
  b.spec.stages[0].factory = [] { return std::make_unique<SkewedForwarder>(); };
  RtEngine::Config cfg;
  cfg.adaptation_enabled = false;
  cfg.max_wall_time = 60;
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, cfg);
  ASSERT_TRUE(engine.run().is_ok());
  ASSERT_TRUE(engine.report().completed);
  auto& sink = dynamic_cast<SequenceSink&>(engine.processor(1));
  ASSERT_EQ(sink.sequences_.size(), 400u);
  for (std::uint64_t i = 0; i < 400; ++i) {
    ASSERT_EQ(sink.sequences_[i], i) << "reordered at position " << i;
  }
}

TEST(StageParallelRt, KeyedShardingKeepsEachKeyOnOneReplica) {
  Parallelism par;
  par.mode = ParallelismMode::kKeyed;
  par.replicas = 2;
  par.max_replicas = 2;
  // Sources overwrite packet.stream, so shard by the sequence number.
  par.shard_fn = [](const Packet& p) { return p.sequence % 8; };
  auto b = pool_chain(160, 1e9, par);
  b.spec.stages[0].factory = [] { return std::make_unique<KeyTracker>(); };
  RtEngine::Config cfg;
  cfg.adaptation_enabled = false;
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, cfg);
  ASSERT_TRUE(engine.run().is_ok());
  ASSERT_TRUE(engine.report().completed);
  ASSERT_EQ(engine.replica_count(0), 2u);
  auto& r0 = dynamic_cast<KeyTracker&>(engine.replica_processor(0, 0));
  auto& r1 = dynamic_cast<KeyTracker&>(engine.replica_processor(0, 1));
  for (std::uint64_t key = 0; key < 8; ++key) {
    const std::uint64_t c0 = r0.per_key_.count(key) ? r0.per_key_[key] : 0;
    const std::uint64_t c1 = r1.per_key_.count(key) ? r1.per_key_[key] : 0;
    // Every key's 20 packets land whole on exactly one replica — per-key
    // state never splits.
    EXPECT_EQ(c0 + c1, 20u) << "key " << key;
    EXPECT_TRUE(c0 == 0 || c1 == 0) << "key " << key << " split across replicas";
  }
  // The in-order merge holds for keyed dispatch too.
  auto& sink = dynamic_cast<SequenceSink&>(engine.processor(1));
  ASSERT_EQ(sink.sequences_.size(), 160u);
  for (std::uint64_t i = 0; i < 160; ++i) ASSERT_EQ(sink.sequences_[i], i);
}

TEST(StageParallelRt, ShardedDispatchMakesNoPayloadDeepCopies) {
  Parallelism par;
  par.mode = ParallelismMode::kStateless;
  par.replicas = 3;
  par.max_replicas = 3;
  auto b = pool_chain(2000, 1e9, par);
  const std::uint64_t before = ByteBuffer::deep_copies();
  RtEngine::Config cfg;
  cfg.adaptation_enabled = false;
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, cfg);
  ASSERT_TRUE(engine.run().is_ok());
  // Dispatch to a replica queue, capture of the re-emit, merge release and
  // downstream handoff must all alias the one payload allocation.
  EXPECT_EQ(ByteBuffer::deep_copies(), before);
  auto& sink = dynamic_cast<SequenceSink&>(engine.processor(1));
  EXPECT_EQ(sink.sequences_.size(), 2000u);
}

TEST(StageParallelRt, ReplicatedStageFailoverReplaysAtLeastOnce) {
  Parallelism par;
  par.mode = ParallelismMode::kStateless;
  par.replicas = 2;
  par.max_replicas = 2;
  auto b = pool_chain(2000, 5000, par);
  RtEngine::Config cfg;
  cfg.control_period = 0.01;
  cfg.max_wall_time = 60;
  cfg.adaptation_enabled = false;
  cfg.failover.enabled = true;
  cfg.failover.heartbeat_period = 0.05;
  cfg.failover.suspicion_beats = 2;
  cfg.failover.replay_buffer_packets = 4096;  // deep enough: no eviction
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, cfg);
  engine.schedule_node_failure(0, 0.1);  // the pool's node, mid-stream
  ASSERT_TRUE(engine.run().is_ok());
  ASSERT_TRUE(engine.report().completed);
  ASSERT_EQ(engine.report().failures.size(), 1u);
  const FailureReport& rec = engine.report().failures[0];
  EXPECT_EQ(rec.outcome, FailureReport::Outcome::kRecovered);
  EXPECT_EQ(rec.stage, "pool");
  EXPECT_GT(rec.packets_replayed, 0u);
  // At-least-once across the pool restart: every packet either reached the
  // sink or was evicted from retention (none here); replay bounds the
  // duplicate window.
  auto& sink = dynamic_cast<SequenceSink&>(engine.processor(1));
  const std::uint64_t seen = sink.sequences_.size();
  EXPECT_GE(seen + rec.packets_lost_retention, 2000u);
  EXPECT_LE(seen, 2000u + rec.packets_replayed);
}

TEST(StageParallelRt, DownstreamOfPoolCountsEveryReplicaAsAProducer) {
  Parallelism par;
  par.mode = ParallelismMode::kStateless;
  par.replicas = 2;
  par.max_replicas = 2;
  auto b = pool_chain(50, 1e9, par);
  RtEngine::Config cfg;
  cfg.adaptation_enabled = false;
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, cfg);
  ASSERT_TRUE(engine.run().is_ok());
  // Any releaser thread (dispatcher or replica) may push into the sink's
  // inbox, so the single-producer SPSC fast path must not be selected.
  EXPECT_FALSE(engine.stage_inbox_spsc(1));

  // Regression guard for the serial case: one upstream worker, SPSC stays.
  auto serial = pool_chain(50, 1e9, Parallelism{});
  RtEngine serial_engine(serial.spec, serial.placement, serial.hosts,
                         serial.topology, cfg);
  ASSERT_TRUE(serial_engine.run().is_ok());
  EXPECT_TRUE(serial_engine.stage_inbox_spsc(1));
}

TEST(StageParallelRt, OverloadGrowsThePoolAtRuntime) {
  Parallelism par;
  par.mode = ParallelismMode::kStateless;
  par.replicas = 1;
  par.max_replicas = 4;
  auto b = pool_chain(0, 300, par);  // unbounded, wound down by run_for
  b.spec.stages[0].cost.per_packet_seconds = 0.005;  // 1.5x oversubscribed
  b.spec.stages[0].input_capacity = 50;
  b.spec.stages[0].monitor.capacity = 50;
  b.spec.stages[0].monitor.expected_length = 5;
  b.spec.stages[0].monitor.over_threshold = 10;
  b.spec.stages[0].monitor.under_threshold = 2;
  RtEngine::Config cfg;
  cfg.control_period = 0.02;
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, cfg);
  ASSERT_TRUE(engine.run_for(1.5).is_ok());
  const auto* pool = engine.report().stage("pool");
  ASSERT_NE(pool, nullptr);
  EXPECT_GT(pool->max_replicas_used, 1u);
  // The middleware-owned replica knob shows up as a parameter trajectory.
  bool found = false;
  for (const auto& [name, trajectory] : pool->parameter_trajectories) {
    if (name == "replicas") {
      found = true;
      EXPECT_FALSE(trajectory.empty());
    }
  }
  EXPECT_TRUE(found);
}

// The pool's own metrics (published on control ticks and once more at the
// end of the run) agree with its stage report: the replica gauge reads the
// final replica count, and the per-replica processed counters add up to the
// stage's processed packets.
TEST(StageParallelRt, PoolMetricsMatchTheReport) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.reset();
  reg.set_enabled(true);
  Parallelism par;
  par.mode = ParallelismMode::kStateless;
  par.replicas = 2;
  par.max_replicas = 2;
  auto b = pool_chain(2000, 10000, par);
  RtEngine::Config cfg;
  cfg.control_period = 0.01;
  cfg.adaptation_enabled = false;
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, cfg);
  const Status status = engine.run();
  const obs::MetricsSnapshot metrics = engine.report().metrics;
  reg.reset();
  reg.set_enabled(was_enabled);
  ASSERT_TRUE(status.is_ok());
  ASSERT_TRUE(engine.report().completed);
  const auto* pool = engine.report().stage("pool");
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->packets_processed, 2000u);

  const std::string gauge_key =
      obs::metric_key("gates_stage_replicas", {{"stage", "pool"}});
  const std::string counter_prefix =
      "gates_stage_replica_packets_processed{stage=\"pool\",";
  bool saw_gauge = false;
  std::size_t counters = 0;
  double processed = 0;
  for (const obs::MetricSample& m : metrics) {
    if (m.key == gauge_key) {
      saw_gauge = true;
      EXPECT_EQ(m.value, static_cast<double>(pool->final_replicas));
    } else if (m.key.rfind(counter_prefix, 0) == 0) {
      ++counters;
      processed += m.value;
    }
  }
  EXPECT_TRUE(saw_gauge);
  EXPECT_EQ(counters, 2u);
  EXPECT_EQ(processed, static_cast<double>(pool->packets_processed));
}

// -- SimEngine: replica pools as multiplied service rate ---------------------

Built sim_adaptive_chain(double rate, double pool_cost,
                         std::size_t max_replicas) {
  // source -> A (declares "volume", the accuracy knob) -> B (scalable pool).
  class AdaptiveForwarder : public StreamProcessor {
   public:
    void init(ProcessorContext& ctx) override {
      AdjustmentParameter::Spec s;
      s.name = "volume";
      s.initial = 1.0;
      s.min_value = 0.0;
      s.max_value = 1.0;
      s.direction = ParamDirection::kIncreaseSlowsDown;
      ctx.specify_parameter(s);
    }
    void process(const Packet& packet, Emitter& emitter) override {
      emitter.emit(packet);
    }
    std::string name() const override { return "adaptive-forwarder"; }
  };

  Built b;
  StageSpec a;
  a.name = "A";
  a.factory = [] { return std::make_unique<AdaptiveForwarder>(); };
  StageSpec pool;
  pool.name = "B";
  pool.factory = [] { return std::make_unique<Forwarder>(); };
  pool.cost.per_packet_seconds = pool_cost;
  pool.parallelism.mode = ParallelismMode::kStateless;
  pool.parallelism.replicas = 1;
  pool.parallelism.max_replicas = max_replicas;
  pool.input_capacity = 50;
  pool.monitor.capacity = 50;
  pool.monitor.expected_length = 5;
  pool.monitor.over_threshold = 10;
  pool.monitor.under_threshold = 2;
  b.spec.stages = {std::move(a), std::move(pool)};
  b.spec.edges = {{0, 1, 0}};
  SourceSpec src;
  src.rate_hz = rate;
  src.total_packets = 0;  // unbounded
  src.packet_bytes = 32;
  b.spec.sources = {src};
  b.placement.stage_nodes = {0, 1};
  b.hosts.cpu_factor = {1.0, 1.0};
  return b;
}

TEST(StageParallelSim, ReplicasMultiplyServiceRate) {
  // 1000 packets at 0.004 s each: service-bound at 1 replica (~4 s), the
  // same pipeline with 4 replicas is generation-bound (~1 s).
  auto serial = pool_chain(1000, 1000, Parallelism{});
  serial.spec.stages[0].cost.per_packet_seconds = 0.004;
  SimEngine::Config cfg;
  cfg.adaptation_enabled = false;
  cfg.wire.per_message_overhead = 0;
  cfg.wire.per_record_overhead = 0;
  SimEngine one(serial.spec, serial.placement, serial.hosts, serial.topology,
                cfg);
  ASSERT_TRUE(one.run().is_ok());

  Parallelism par;
  par.mode = ParallelismMode::kStateless;
  par.replicas = 4;
  par.max_replicas = 4;
  auto pooled = pool_chain(1000, 1000, par);
  pooled.spec.stages[0].cost.per_packet_seconds = 0.004;
  SimEngine four(pooled.spec, pooled.placement, pooled.hosts, pooled.topology,
                 cfg);
  ASSERT_TRUE(four.run().is_ok());

  EXPECT_GT(one.report().execution_time, 3.5);
  EXPECT_LT(four.report().execution_time, 1.5);
  EXPECT_EQ(four.replica_count(0), 4u);
}

TEST(StageParallelSim, ScalesUpBeforeDegradingAccuracy) {
  ScopedTelemetry telemetry;
  // 1 replica is 1.9x oversubscribed, 2 replicas cope; the budget (4) is
  // never exhausted, so B's overload must be absorbed by scaling and A's
  // accuracy knob must never move. At t=15 the host becomes 10x faster:
  // sustained underload must retire the extra replica again.
  auto b = sim_adaptive_chain(100, 0.019, 4);
  SimEngine::Config cfg;
  cfg.wire.per_message_overhead = 0;
  cfg.wire.per_record_overhead = 0;
  SimEngine engine(b.spec, b.placement, b.hosts, b.topology, cfg);
  engine.schedule_cpu_change(1, 15.0, 10.0);
  ASSERT_TRUE(engine.run_for(30.0).is_ok());

  const auto ups =
      trace_events_of(obs::TraceKind::kReplicaScaleUp, "B");
  const auto downs =
      trace_events_of(obs::TraceKind::kReplicaScaleDown, "B");
  ASSERT_FALSE(ups.empty());
  ASSERT_FALSE(downs.empty());
  EXPECT_EQ(ups.front().value_old, 1.0);
  EXPECT_EQ(ups.front().value_new, 2.0);
  // Scale-up happened strictly before any scale-down.
  EXPECT_LT(ups.front().time, downs.front().time);
  // Load subsided -> the pool is back at its floor.
  EXPECT_EQ(engine.replica_count(1), 1u);

  // The upstream accuracy parameter never degraded: scaling absorbed every
  // overload exception before Eq. 4 could trade accuracy for speed.
  const auto* a = engine.report().stage("A");
  ASSERT_NE(a, nullptr);
  for (const auto& [name, trajectory] : a->parameter_trajectories) {
    if (name != "volume") continue;
    for (const auto& [t, v] : trajectory) {
      ASSERT_DOUBLE_EQ(v, 1.0) << "volume degraded at t=" << t;
    }
  }
}

TEST(StageParallelSim, ExhaustedBudgetPropagatesAndDegradesAccuracy) {
  ScopedTelemetry telemetry;
  // Even 2 replicas (the ceiling) stay 2.5x oversubscribed: the scaler runs
  // out of cores and the exception must propagate upstream, moving A's
  // volume down — the §4 degradation as the last resort, not the first.
  auto b = sim_adaptive_chain(100, 0.05, 2);
  SimEngine::Config cfg;
  cfg.wire.per_message_overhead = 0;
  cfg.wire.per_record_overhead = 0;
  SimEngine engine(b.spec, b.placement, b.hosts, b.topology, cfg);
  ASSERT_TRUE(engine.run_for(25.0).is_ok());

  EXPECT_EQ(engine.replica_count(1), 2u);
  const auto* a = engine.report().stage("A");
  ASSERT_NE(a, nullptr);
  bool volume_degraded = false;
  for (const auto& [name, trajectory] : a->parameter_trajectories) {
    if (name == "volume" && !trajectory.empty() &&
        trajectory.back().second < 1.0) {
      volume_degraded = true;
    }
  }
  EXPECT_TRUE(volume_degraded);
  const auto* pool = engine.report().stage("B");
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->final_replicas, 2u);
  EXPECT_EQ(pool->max_replicas_used, 2u);
}

}  // namespace
}  // namespace gates::core
