// Live stage migration (DESIGN.md §10): checkpoint container round trips,
// digest-identical output across a mid-run migration on both engines, the
// kill-at-every-protocol-step fallback matrix, the on_recover() fallback for
// un-checkpointable processors, and per-shard restore on pooled stages.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gates/common/byte_buffer.hpp"
#include "gates/common/serialize.hpp"
#include "gates/core/checkpoint.hpp"
#include "gates/core/failover.hpp"
#include "gates/core/migration.hpp"
#include "gates/core/rt_engine.hpp"
#include "gates/core/sim_engine.hpp"

namespace gates::core {
namespace {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Stateful operator whose every output depends on all prior inputs: the
/// chained hash makes any lost, duplicated or re-ordered state transition
/// visible in the downstream digest.
class ChainProcessor : public StreamProcessor {
 public:
  void init(ProcessorContext&) override {}
  void process(const Packet& packet, Emitter& emitter) override {
    state_ = mix(state_ ^ packet.sequence);
    ++processed_;
    Packet out = packet;
    ByteBuffer payload;
    Serializer s(payload);
    s.write_u64(packet.sequence);
    s.write_u64(state_);
    out.payload = std::move(payload);
    emitter.emit(std::move(out));
  }
  bool checkpoint(StateWriter& w) override {
    w.write_u64(state_);
    w.write_u64(processed_);
    return true;
  }
  bool restore(StateReader& r) override {
    return r.read_u64(state_).is_ok() && r.read_u64(processed_).is_ok();
  }
  std::string name() const override { return "chain"; }

  std::uint64_t state_ = 0x6a09e667f3bcc908ULL;
  std::uint64_t processed_ = 0;
};

/// As ChainProcessor but un-checkpointable: migration must run the
/// init() + on_recover() fallback on the target.
class StatelessChain : public ChainProcessor {
 public:
  void on_recover(ProcessorContext&) override { ++recovers_; }
  bool checkpoint(StateWriter&) override { return false; }
  bool restore(StateReader&) override { return false; }
  std::string name() const override { return "stateless-chain"; }

  int recovers_ = 0;
};

/// Serial sink folding (sequence, payload) into one order-sensitive digest.
class DigestSink : public StreamProcessor {
 public:
  void init(ProcessorContext&) override {}
  void process(const Packet& packet, Emitter&) override {
    ++count_;
    digest_ = fold(digest_, packet.sequence);
    const std::uint8_t* data = packet.payload.data();
    for (std::size_t i = 0; i < packet.payload.size(); ++i) {
      digest_ = fold(digest_, data[i]);
    }
  }
  std::string name() const override { return "digest-sink"; }

  static std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
    return (h ^ v) * 0x100000001b3ULL;
  }

  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
  std::uint64_t count_ = 0;
};

struct Built {
  PipelineSpec spec;
  Placement placement;
  HostModel hosts;
  net::Topology topology;
};

/// source (node 1) -> chain (node 1) -> sink (node 0); node 2 idle — the
/// migration target.
Built chain_pipeline(std::uint64_t packets = 1000, double rate = 200) {
  Built b;
  StageSpec chain;
  chain.name = "chain";
  chain.factory = [] { return std::make_unique<ChainProcessor>(); };
  StageSpec sink;
  sink.name = "sink";
  sink.factory = [] { return std::make_unique<DigestSink>(); };
  b.spec.stages = {std::move(chain), std::move(sink)};
  b.spec.edges = {{0, 1, 0}};
  SourceSpec src;
  src.rate_hz = rate;
  src.total_packets = packets;
  src.packet_bytes = 16;
  src.location = 1;
  src.target_stage = 0;
  b.spec.sources = {src};
  b.placement.stage_nodes = {1, 0};
  b.hosts.cpu_factor = {1.0, 1.0, 1.0};
  return b;
}

/// Zero-cost pass-through: its idle worker serves the next stage in place.
class Forward : public StreamProcessor {
 public:
  void init(ProcessorContext&) override {}
  void process(const Packet& packet, Emitter& emitter) override {
    emitter.emit(packet);
  }
  std::string name() const override { return "forward"; }
};

/// chain_pipeline with a forwarder in front: source -> fwd -> chain -> sink,
/// so the migrated chain stage is the one its upstream serves in place.
Built served_chain_pipeline(std::uint64_t packets, double rate) {
  Built b = chain_pipeline(packets, rate);
  StageSpec fwd;
  fwd.name = "fwd";
  fwd.factory = [] { return std::make_unique<Forward>(); };
  b.spec.stages.insert(b.spec.stages.begin(), std::move(fwd));
  b.spec.edges = {{0, 1, 0}, {1, 2, 0}};
  b.placement.stage_nodes = {1, 1, 0};
  return b;
}

SimEngine::Config sim_failover_config(std::uint64_t seed = 1) {
  SimEngine::Config config;
  config.seed = seed;
  config.failover.enabled = true;
  config.failover.heartbeat_period = 0.5;
  config.failover.suspicion_beats = 3;
  config.failover.replay_buffer_packets = 4096;
  return config;
}

std::uint64_t sim_baseline_digest() {
  auto b = chain_pipeline();
  SimEngine engine(b.spec, b.placement, b.hosts, b.topology,
                   sim_failover_config());
  EXPECT_TRUE(engine.run().is_ok());
  auto& sink = dynamic_cast<DigestSink&>(engine.processor(1));
  EXPECT_EQ(sink.count_, 1000u);
  return sink.digest_;
}

// -- StageCheckpoint wire form ----------------------------------------------

TEST(StageCheckpoint, EncodeDecodeRoundTrip) {
  StageCheckpoint ckpt;
  ckpt.stage = "chain";
  ckpt.incarnation = 7;
  ByteBuffer r0;
  Serializer s0(r0);
  s0.write_u64(0xdeadbeefULL);
  ckpt.replicas.push_back(std::move(r0));
  ckpt.replicas.emplace_back();  // un-checkpointable replica: empty blob
  ByteBuffer r2;
  Serializer s2(r2);
  s2.write_string("shard-2 state");
  ckpt.replicas.push_back(std::move(r2));

  ByteBuffer wire;
  ckpt.encode(wire);
  StageCheckpoint out;
  ASSERT_TRUE(StageCheckpoint::decode(wire.data(), wire.size(), out));
  EXPECT_EQ(out.stage, "chain");
  EXPECT_EQ(out.incarnation, 7u);
  ASSERT_EQ(out.replicas.size(), 3u);
  EXPECT_EQ(out.replicas[1].size(), 0u);
  EXPECT_EQ(out.total_bytes(), ckpt.total_bytes());
  StateReader r(out.replicas[0]);
  std::uint64_t v = 0;
  ASSERT_TRUE(r.read_u64(v).is_ok());
  EXPECT_EQ(v, 0xdeadbeefULL);
}

TEST(StageCheckpoint, DecodeRejectsTruncation) {
  StageCheckpoint ckpt;
  ckpt.stage = "s";
  ByteBuffer blob;
  Serializer s(blob);
  s.write_u64(1);
  ckpt.replicas.push_back(std::move(blob));
  ByteBuffer wire;
  ckpt.encode(wire);
  StageCheckpoint out;
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(StageCheckpoint::decode(wire.data(), cut, out))
        << "accepted a " << cut << "-byte prefix of " << wire.size();
  }
}

// -- SimEngine ---------------------------------------------------------------

TEST(MigrationSim, MidRunMigrationPreservesOutputDigest) {
  const std::uint64_t baseline = sim_baseline_digest();
  auto b = chain_pipeline();
  SimEngine engine(b.spec, b.placement, b.hosts, b.topology,
                   sim_failover_config());
  engine.schedule_migration(0, 2.5, /*target=*/2);
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_TRUE(engine.report().completed);
  ASSERT_EQ(engine.report().migrations.size(), 1u);
  const MigrationRecord& m = engine.report().migrations[0];
  EXPECT_EQ(m.outcome, MigrationRecord::Outcome::kCompleted);
  EXPECT_EQ(m.stage, "chain");
  EXPECT_EQ(m.from, 1u);
  EXPECT_EQ(m.to, 2u);
  EXPECT_TRUE(m.checkpointed);
  EXPECT_GT(m.checkpoint_bytes, 0u);
  EXPECT_GE(m.downtime, 0.0);
  EXPECT_TRUE(engine.report().failures.empty());

  // Byte-identical output: same packet count, same order-sensitive digest
  // over every (sequence, payload) the sink consumed.
  auto& sink = dynamic_cast<DigestSink&>(engine.processor(1));
  EXPECT_EQ(sink.count_, 1000u);
  EXPECT_EQ(sink.digest_, baseline);
}

/// Mid-chain: the migrated stage's input comes from another stage, so the
/// rewire replays that stage's route into it (StageRuntime::replay_route).
TEST(MigrationSim, MidChainMigrationPreservesOutputDigest) {
  auto base = served_chain_pipeline(1000, 200);
  SimEngine clean(base.spec, base.placement, base.hosts, base.topology,
                  sim_failover_config());
  ASSERT_TRUE(clean.run().is_ok());
  const auto& expected = dynamic_cast<DigestSink&>(clean.processor(2));
  ASSERT_EQ(expected.count_, 1000u);

  auto b = served_chain_pipeline(1000, 200);
  SimEngine engine(b.spec, b.placement, b.hosts, b.topology,
                   sim_failover_config());
  engine.schedule_migration(1, 2.5, /*target=*/2);
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_TRUE(engine.report().completed);
  ASSERT_EQ(engine.report().migrations.size(), 1u);
  const MigrationRecord& m = engine.report().migrations[0];
  EXPECT_EQ(m.outcome, MigrationRecord::Outcome::kCompleted);
  EXPECT_EQ(m.stage, "chain");
  EXPECT_EQ(m.to, 2u);
  EXPECT_TRUE(m.checkpointed);
  auto& sink = dynamic_cast<DigestSink&>(engine.processor(2));
  EXPECT_EQ(sink.count_, 1000u);
  EXPECT_EQ(sink.digest_, expected.digest_);
}

TEST(MigrationSim, WithoutFailoverAbortsInPlace) {
  const std::uint64_t baseline = sim_baseline_digest();
  auto b = chain_pipeline();
  SimEngine::Config config;  // failover disabled: no retention to cover a gap
  SimEngine engine(b.spec, b.placement, b.hosts, b.topology, config);
  engine.schedule_migration(0, 2.5, 2);
  ASSERT_TRUE(engine.run().is_ok());
  ASSERT_EQ(engine.report().migrations.size(), 1u);
  const MigrationRecord& m = engine.report().migrations[0];
  EXPECT_EQ(m.outcome, MigrationRecord::Outcome::kAborted);
  EXPECT_EQ(m.failed_step, MigrationStep::kQuiesce);
  // The stage never stopped: the run is indistinguishable from an
  // unmigrated one.
  auto& sink = dynamic_cast<DigestSink&>(engine.processor(1));
  EXPECT_EQ(sink.count_, 1000u);
  EXPECT_EQ(sink.digest_, baseline);
}

TEST(MigrationSim, UncheckpointableProcessorFallsBackToOnRecover) {
  auto b = chain_pipeline();
  b.spec.stages[0].factory = [] { return std::make_unique<StatelessChain>(); };
  SimEngine engine(b.spec, b.placement, b.hosts, b.topology,
                   sim_failover_config());
  engine.schedule_migration(0, 2.5, 2);
  ASSERT_TRUE(engine.run().is_ok());
  ASSERT_EQ(engine.report().migrations.size(), 1u);
  const MigrationRecord& m = engine.report().migrations[0];
  EXPECT_EQ(m.outcome, MigrationRecord::Outcome::kCompleted);
  EXPECT_FALSE(m.checkpointed);
  auto& moved = dynamic_cast<StatelessChain&>(engine.processor(0));
  EXPECT_EQ(moved.recovers_, 1);
  // At-least-once, not byte-identical: state restarted mid-stream, but every
  // packet still reached the sink.
  auto& sink = dynamic_cast<DigestSink&>(engine.processor(1));
  EXPECT_EQ(sink.count_, 1000u);
}

/// Kill-the-target drill: force-fail each protocol step across 25 seeds.
/// A quiesce failure aborts in place (stage never stopped); any later step
/// degrades to crash-failover — and in every case the run completes with
/// all packets accounted for.
TEST(MigrationSim, KillAtEveryProtocolStepSoak) {
  const MigrationStep steps[] = {MigrationStep::kQuiesce,
                                 MigrationStep::kCapture,
                                 MigrationStep::kTransfer,
                                 MigrationStep::kResume};
  for (const MigrationStep step : steps) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      auto b = chain_pipeline();
      SimEngine engine(b.spec, b.placement, b.hosts, b.topology,
                       sim_failover_config(seed));
      engine.schedule_migration(0, 2.5, 2);
      engine.set_migration_fault_injector(
          [step](MigrationStep s) { return s == step; });
      ASSERT_TRUE(engine.run().is_ok())
          << migration_step_name(step) << " seed " << seed;
      EXPECT_TRUE(engine.report().completed)
          << migration_step_name(step) << " seed " << seed;
      ASSERT_EQ(engine.report().migrations.size(), 1u);
      const MigrationRecord& m = engine.report().migrations[0];
      EXPECT_EQ(m.failed_step, step);
      if (step == MigrationStep::kQuiesce) {
        EXPECT_EQ(m.outcome, MigrationRecord::Outcome::kAborted);
        EXPECT_TRUE(engine.report().failures.empty());
      } else {
        EXPECT_EQ(m.outcome, MigrationRecord::Outcome::kFellBack);
        ASSERT_EQ(engine.report().failures.size(), 1u)
            << migration_step_name(step) << " seed " << seed;
        EXPECT_EQ(engine.report().failures[0].outcome,
                  FailureReport::Outcome::kRecovered);
      }
      // At-least-once accounting across the degradation: every packet
      // reached the sink or was (accountably) evicted from retention.
      std::uint64_t lost = 0, replayed = 0;
      for (const auto& f : engine.report().failures) {
        lost += f.packets_lost_retention;
        replayed += f.packets_replayed;
      }
      auto& sink = dynamic_cast<DigestSink&>(engine.processor(1));
      EXPECT_GE(sink.count_ + lost, 1000u)
          << migration_step_name(step) << " seed " << seed;
      EXPECT_LE(sink.count_, 1000u + replayed);
    }
  }
}

// -- RtEngine ----------------------------------------------------------------

RtEngine::Config rt_failover_config(std::uint64_t seed = 1) {
  RtEngine::Config config;
  config.seed = seed;
  config.adaptation_enabled = false;
  config.control_period = 0.01;
  config.max_wall_time = 60;
  config.failover.enabled = true;
  config.failover.heartbeat_period = 0.05;
  config.failover.suspicion_beats = 2;
  config.failover.replay_buffer_packets = 4096;
  return config;
}

TEST(MigrationRt, MidRunMigrationPreservesOutputDigest) {
  auto base = chain_pipeline(2000, 5000);
  std::uint64_t baseline = 0;
  {
    RtEngine engine(base.spec, base.placement, base.hosts, base.topology,
                    rt_failover_config());
    ASSERT_TRUE(engine.run().is_ok());
    auto& sink = dynamic_cast<DigestSink&>(engine.processor(1));
    ASSERT_EQ(sink.count_, 2000u);
    baseline = sink.digest_;
  }
  auto b = chain_pipeline(2000, 5000);
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology,
                  rt_failover_config());
  engine.schedule_migration(0, 0.15, 2);
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_TRUE(engine.report().completed);
  ASSERT_EQ(engine.report().migrations.size(), 1u);
  const MigrationRecord& m = engine.report().migrations[0];
  EXPECT_EQ(m.outcome, MigrationRecord::Outcome::kCompleted);
  EXPECT_EQ(m.to, 2u);
  EXPECT_TRUE(m.checkpointed);
  // In-process Rt migration keeps the inbox: zero replay, zero duplicates —
  // the sink's stream is byte-identical to the unmigrated run's.
  EXPECT_EQ(m.packets_replayed, 0u);
  auto& sink = dynamic_cast<DigestSink&>(engine.processor(1));
  EXPECT_EQ(sink.count_, 2000u);
  EXPECT_EQ(sink.digest_, baseline);
}

/// Migrates stage `index` of `make()`'s pipeline mid-stream, a stage served
/// in place on the paced run: the sink's digest equals the unmigrated run's.
void expect_served_stage_migration_keeps_digest(Built (*make)(),
                                                std::size_t index) {
  const std::size_t sink_index = make().spec.stages.size() - 1;
  std::uint64_t baseline = 0;
  {
    auto base = make();
    RtEngine engine(base.spec, base.placement, base.hosts, base.topology,
                    rt_failover_config());
    ASSERT_TRUE(engine.run().is_ok());
    auto& sink = dynamic_cast<DigestSink&>(engine.processor(sink_index));
    ASSERT_EQ(sink.count_, 2000u);
    baseline = sink.digest_;
    EXPECT_GT(engine.report().stages[index].inline_batches, 0u)
        << "the migrated stage was never served in place";
  }
  auto b = make();
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology,
                  rt_failover_config());
  engine.schedule_migration(index, 0.15, 2);
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_TRUE(engine.report().completed);
  ASSERT_EQ(engine.report().migrations.size(), 1u);
  const MigrationRecord& m = engine.report().migrations[0];
  EXPECT_EQ(m.outcome, MigrationRecord::Outcome::kCompleted);
  EXPECT_TRUE(m.checkpointed);
  EXPECT_EQ(m.packets_replayed, 0u);
  auto& sink = dynamic_cast<DigestSink&>(engine.processor(sink_index));
  EXPECT_EQ(sink.count_, 2000u);
  EXPECT_EQ(sink.digest_, baseline);
}

/// The chain stage, served by the forwarder in front of it.
TEST(MigrationRt, MigratingAServedStageKeepsItsDigest) {
  expect_served_stage_migration_keeps_digest(
      [] { return served_chain_pipeline(2000, 5000); }, 1);
}

/// The chain stage, served by the paced source feeding it.
TEST(MigrationRt, MigratingTheSourcesServedStageKeepsItsDigest) {
  expect_served_stage_migration_keeps_digest(
      [] { return chain_pipeline(2000, 5000); }, 0);
}

/// A request with no target and no migration provider re-matchmakes with
/// least_loaded_target over the other live stages. Chain and sink share
/// node 1 here, so the pick is an idle node, and the migrated chain keeps
/// the sink's digest.
TEST(MigrationRt, RequestWithoutATargetPicksTheLeastLoadedNode) {
  auto make = [] {
    Built b = chain_pipeline(2000, 5000);
    b.placement.stage_nodes = {1, 1};
    return b;
  };
  std::uint64_t baseline = 0;
  {
    auto base = make();
    RtEngine engine(base.spec, base.placement, base.hosts, base.topology,
                    rt_failover_config());
    ASSERT_TRUE(engine.run().is_ok());
    baseline = dynamic_cast<DigestSink&>(engine.processor(1)).digest_;
  }
  auto b = make();
  const auto expected = least_loaded_target(
      b.spec, b.hosts, b.placement.stage_nodes, [](NodeId) { return true; },
      [](std::size_t i) { return i != 0; });
  ASSERT_TRUE(expected.has_value());
  ASSERT_NE(expected->node, 1u);
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology,
                  rt_failover_config());
  std::thread requester([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    engine.request_migration(0);
  });
  EXPECT_TRUE(engine.run().is_ok());
  requester.join();
  EXPECT_TRUE(engine.report().completed);
  ASSERT_EQ(engine.report().migrations.size(), 1u);
  const MigrationRecord& m = engine.report().migrations[0];
  EXPECT_EQ(m.outcome, MigrationRecord::Outcome::kCompleted);
  EXPECT_EQ(m.from, 1u);
  EXPECT_EQ(m.to, expected->node);
  auto& sink = dynamic_cast<DigestSink&>(engine.processor(1));
  EXPECT_EQ(sink.count_, 2000u);
  EXPECT_EQ(sink.digest_, baseline);
}

/// With a migration provider installed (Rt set_migration_provider), its
/// decision is the landing node, whatever target the request named, and
/// the migrated chain keeps the sink's digest. A provider that finds no
/// placement refuses the migration.
TEST(MigrationRt, ProviderDecisionIsTheTarget) {
  std::uint64_t baseline = 0;
  {
    auto base = chain_pipeline(2000, 5000);
    RtEngine engine(base.spec, base.placement, base.hosts, base.topology,
                    rt_failover_config());
    ASSERT_TRUE(engine.run().is_ok());
    baseline = dynamic_cast<DigestSink&>(engine.processor(1)).digest_;
  }
  {
    auto b = chain_pipeline(2000, 5000);
    RtEngine engine(b.spec, b.placement, b.hosts, b.topology,
                    rt_failover_config());
    std::size_t asked_stage = 99;
    NodeId asked_target = 99;
    engine.set_migration_provider(
        [&](std::size_t stage, NodeId target)
            -> std::optional<ReplacementDecision> {
          asked_stage = stage;
          asked_target = target;
          return ReplacementDecision{2, ProcessorFactory{}};
        });
    engine.schedule_migration(0, 0.15, 0);
    ASSERT_TRUE(engine.run().is_ok());
    EXPECT_TRUE(engine.report().completed);
    EXPECT_EQ(asked_stage, 0u);
    EXPECT_EQ(asked_target, 0u);
    ASSERT_EQ(engine.report().migrations.size(), 1u);
    const MigrationRecord& m = engine.report().migrations[0];
    EXPECT_EQ(m.outcome, MigrationRecord::Outcome::kCompleted);
    EXPECT_EQ(m.from, 1u);
    EXPECT_EQ(m.to, 2u);
    auto& sink = dynamic_cast<DigestSink&>(engine.processor(1));
    EXPECT_EQ(sink.count_, 2000u);
    EXPECT_EQ(sink.digest_, baseline);
  }
  {
    auto b = chain_pipeline(2000, 5000);
    RtEngine engine(b.spec, b.placement, b.hosts, b.topology,
                    rt_failover_config());
    engine.set_migration_provider(
        [](std::size_t, NodeId) -> std::optional<ReplacementDecision> {
          return std::nullopt;
        });
    engine.schedule_migration(0, 0.15, 2);
    ASSERT_TRUE(engine.run().is_ok());
    EXPECT_TRUE(engine.report().completed);
    ASSERT_EQ(engine.report().migrations.size(), 1u);
    const MigrationRecord& m = engine.report().migrations[0];
    EXPECT_NE(m.outcome, MigrationRecord::Outcome::kCompleted);
    EXPECT_EQ(m.failed_step, MigrationStep::kTransfer);
    EXPECT_NE(m.detail.find("no candidate target"), std::string::npos)
        << m.detail;
  }
}

/// A stage parked between packets of a 1 packet/s stream quiesces at once:
/// the request kicks its timed consume instead of waiting for the next
/// packet or heartbeat timeout (0.5 s here).
TEST(MigrationRt, IdleStageQuiescesWithoutWaitingForABeat) {
  auto b = chain_pipeline(2, 1);
  RtEngine::Config config = rt_failover_config();
  config.failover.heartbeat_period = 0.5;
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, config);
  engine.schedule_migration(0, 0.3, 2);
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_TRUE(engine.report().completed);
  ASSERT_EQ(engine.report().migrations.size(), 1u);
  const MigrationRecord& m = engine.report().migrations[0];
  EXPECT_EQ(m.outcome, MigrationRecord::Outcome::kCompleted);
  EXPECT_LT(m.resumed_at - m.requested_at, 0.05);
  auto& sink = dynamic_cast<DigestSink&>(engine.processor(1));
  EXPECT_EQ(sink.count_, 2u);
}

/// As above for a fan-in stage: two producers give it a shared inbox, whose
/// timed consume the kick ends as well.
TEST(MigrationRt, IdleFanInStageQuiescesWithoutWaitingForABeat) {
  auto b = chain_pipeline(2, 1);
  b.spec.sources.push_back(b.spec.sources[0]);
  b.spec.sources[1].stream = 1;
  RtEngine::Config config = rt_failover_config();
  config.failover.heartbeat_period = 0.5;
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology, config);
  engine.schedule_migration(0, 0.3, 2);
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_FALSE(engine.stage_inbox_spsc(0));
  EXPECT_TRUE(engine.report().completed);
  ASSERT_EQ(engine.report().migrations.size(), 1u);
  const MigrationRecord& m = engine.report().migrations[0];
  EXPECT_EQ(m.outcome, MigrationRecord::Outcome::kCompleted);
  EXPECT_LT(m.resumed_at - m.requested_at, 0.05);
  auto& sink = dynamic_cast<DigestSink&>(engine.processor(1));
  EXPECT_EQ(sink.count_, 4u);
}

TEST(MigrationRt, KillAtEveryProtocolStepCompletesViaFailover) {
  const MigrationStep steps[] = {MigrationStep::kQuiesce,
                                 MigrationStep::kCapture,
                                 MigrationStep::kTransfer,
                                 MigrationStep::kResume};
  for (const MigrationStep step : steps) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      auto b = chain_pipeline(2000, 5000);
      RtEngine engine(b.spec, b.placement, b.hosts, b.topology,
                      rt_failover_config(seed));
      engine.schedule_migration(0, 0.15, 2);
      engine.set_migration_fault_injector(
          [step](MigrationStep s) { return s == step; });
      ASSERT_TRUE(engine.run().is_ok())
          << migration_step_name(step) << " seed " << seed;
      EXPECT_TRUE(engine.report().completed);
      ASSERT_EQ(engine.report().migrations.size(), 1u);
      const MigrationRecord& m = engine.report().migrations[0];
      EXPECT_EQ(m.failed_step, step);
      std::uint64_t lost = 0, replayed = 0;
      for (const auto& f : engine.report().failures) {
        lost += f.packets_lost_retention;
        replayed += f.packets_replayed;
      }
      if (step == MigrationStep::kQuiesce) {
        EXPECT_EQ(m.outcome, MigrationRecord::Outcome::kAborted);
      } else {
        EXPECT_EQ(m.outcome, MigrationRecord::Outcome::kFellBack);
        ASSERT_GE(engine.report().failures.size(), 1u);
        EXPECT_EQ(engine.report().failures[0].outcome,
                  FailureReport::Outcome::kRecovered);
      }
      auto& sink = dynamic_cast<DigestSink&>(engine.processor(1));
      EXPECT_GE(sink.count_ + lost, 2000u)
          << migration_step_name(step) << " seed " << seed;
      EXPECT_LE(sink.count_, 2000u + replayed);
    }
  }
}

// -- pooled / keyed-sharded stages -------------------------------------------

/// Per-shard counting operator: each replica owns a disjoint key set; the
/// checkpoint is that replica's map in canonical order.
class ShardCounter : public StreamProcessor {
 public:
  void init(ProcessorContext&) override {}
  void on_recover(ProcessorContext&) override { ++recovers_; }
  void process(const Packet& packet, Emitter& emitter) override {
    ++per_key_[packet.sequence % 8];
    emitter.emit(packet);
  }
  bool checkpoint(StateWriter& w) override {
    w.write_varint(per_key_.size());
    for (const auto& [key, count] : per_key_) {  // std::map: sorted
      w.write_u64(key);
      w.write_varint(count);
    }
    return true;
  }
  bool restore(StateReader& r) override {
    std::uint64_t n = 0;
    if (!r.read_varint(n).is_ok()) return false;
    std::map<std::uint64_t, std::uint64_t> keys;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t key = 0, count = 0;
      if (!r.read_u64(key).is_ok()) return false;
      if (!r.read_varint(count).is_ok()) return false;
      keys[key] = count;
    }
    per_key_ = std::move(keys);
    ++restores_;
    return true;
  }
  std::string name() const override { return "shard-counter"; }

  std::map<std::uint64_t, std::uint64_t> per_key_;
  int recovers_ = 0;
  int restores_ = 0;
};

Built sharded_pipeline(std::uint64_t packets, double rate) {
  Built b = chain_pipeline(packets, rate);
  Parallelism par;
  par.mode = ParallelismMode::kKeyed;
  par.replicas = 2;
  par.max_replicas = 2;
  par.shard_fn = [](const Packet& p) { return p.sequence % 8; };
  b.spec.stages[0].name = "shards";
  b.spec.stages[0].parallelism = std::move(par);
  b.spec.stages[0].factory = [] { return std::make_unique<ShardCounter>(); };
  return b;
}

TEST(MigrationPooled, PerShardStateLandsOnTheCorrectReplica) {
  auto b = sharded_pipeline(1600, 8000);
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology,
                  rt_failover_config());
  engine.schedule_migration(0, 0.1, 2);
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_TRUE(engine.report().completed);
  ASSERT_EQ(engine.report().migrations.size(), 1u);
  const MigrationRecord& m = engine.report().migrations[0];
  ASSERT_EQ(m.outcome, MigrationRecord::Outcome::kCompleted);
  EXPECT_TRUE(m.checkpointed);

  ASSERT_EQ(engine.replica_count(0), 2u);
  auto& r0 = dynamic_cast<ShardCounter&>(engine.replica_processor(0, 0));
  auto& r1 = dynamic_cast<ShardCounter&>(engine.replica_processor(0, 1));
  // Each replica restored exactly its own shard's blob, then kept counting:
  // every key's full history sits whole on one replica, never split, and
  // the totals cover the entire stream — nothing lost across the move.
  EXPECT_EQ(r0.restores_, 1);
  EXPECT_EQ(r1.restores_, 1);
  std::uint64_t total = 0;
  for (std::uint64_t key = 0; key < 8; ++key) {
    const std::uint64_t c0 = r0.per_key_.count(key) ? r0.per_key_[key] : 0;
    const std::uint64_t c1 = r1.per_key_.count(key) ? r1.per_key_[key] : 0;
    EXPECT_EQ(c0 + c1, 200u) << "key " << key;
    EXPECT_TRUE(c0 == 0 || c1 == 0) << "key " << key << " split";
    total += c0 + c1;
  }
  EXPECT_EQ(total, 1600u);
  auto& sink = dynamic_cast<DigestSink&>(engine.processor(1));
  EXPECT_EQ(sink.count_, 1600u);
}

TEST(MigrationPooled, UncheckpointablePoolRunsOnRecoverPerReplica) {
  auto b = sharded_pipeline(1600, 8000);
  b.spec.stages[0].factory = [] {
    // Keyed counting without checkpoint support: counts restart on the
    // target, but dispatch still keeps each key on one replica.
    class Plain : public ShardCounter {
     public:
      bool checkpoint(StateWriter&) override { return false; }
      bool restore(StateReader&) override { return false; }
    };
    return std::make_unique<Plain>();
  };
  RtEngine engine(b.spec, b.placement, b.hosts, b.topology,
                  rt_failover_config());
  engine.schedule_migration(0, 0.1, 2);
  ASSERT_TRUE(engine.run().is_ok());
  ASSERT_EQ(engine.report().migrations.size(), 1u);
  const MigrationRecord& m = engine.report().migrations[0];
  ASSERT_EQ(m.outcome, MigrationRecord::Outcome::kCompleted);
  EXPECT_FALSE(m.checkpointed);
  ASSERT_EQ(engine.replica_count(0), 2u);
  std::uint64_t keys_seen = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    auto& r = dynamic_cast<ShardCounter&>(engine.replica_processor(0, i));
    EXPECT_EQ(r.recovers_, 1) << "replica " << i;
    EXPECT_EQ(r.restores_, 0) << "replica " << i;
    for (const auto& [key, count] : r.per_key_) {
      (void)count;
      ++keys_seen;
    }
  }
  // Post-migration dispatch still shards every key to exactly one replica.
  EXPECT_LE(keys_seen, 8u);
  auto& sink = dynamic_cast<DigestSink&>(engine.processor(1));
  EXPECT_EQ(sink.count_, 1600u);
}

}  // namespace
}  // namespace gates::core
