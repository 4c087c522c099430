// Serving in place (DESIGN.md §5.5): an idle serial stage runs its parked
// downstream stage's batch on its own thread instead of waking it. These
// tests pin down who may be served (StageReport::inline_batches), that a
// terminal EOS consumed in place finishes the stage exactly once, and that
// served stages deliver every packet once, in order.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gates/core/rt_engine.hpp"
#include "gates/obs/metrics.hpp"

namespace gates::core {
namespace {

/// Forwards (or drops) every packet; records the sequences it saw and how
/// often finish() ran.
class Recorder : public StreamProcessor {
 public:
  explicit Recorder(bool forward) : forward_(forward) {}
  void init(ProcessorContext&) override {}
  void process(const Packet& packet, Emitter& emitter) override {
    sequences_.push_back(packet.sequence);
    if (forward_) emitter.emit(packet);
  }
  void finish(Emitter&) override { ++finishes_; }
  std::string name() const override { return "recorder"; }

  bool forward_;
  std::vector<std::uint64_t> sequences_;
  int finishes_ = 0;
};

StageSpec stage(const std::string& name, bool forward) {
  StageSpec s;
  s.name = name;
  s.factory = [forward] { return std::make_unique<Recorder>(forward); };
  return s;
}

SourceSpec paced_source(std::size_t target, std::uint64_t packets,
                        double rate) {
  SourceSpec src;
  src.rate_hz = rate;
  src.total_packets = packets;
  src.packet_bytes = 16;
  src.target_stage = target;
  return src;
}

RtEngine::Config config() {
  RtEngine::Config c;
  c.adaptation_enabled = false;
  c.control_period = 0.01;
  c.max_wall_time = 60;
  return c;
}

const StageReport& report_of(const RtEngine& engine, const std::string& name) {
  for (const StageReport& s : engine.report().stages) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "no stage " << name;
  return engine.report().stages.front();
}

/// source -> A -> B -> C, all zero-cost and serial, at a paced rate: A (the
/// source's target, woken per burst) serves B, and B serves C, while their
/// own threads stay parked.
TEST(ServeInline, PacedChainServesDownstreamStagesInPlace) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const bool metrics_were_enabled = reg.enabled();
  reg.reset();
  reg.set_enabled(true);
  PipelineSpec spec;
  spec.stages = {stage("A", true), stage("B", true), stage("C", false)};
  spec.edges = {{0, 1, 0}, {1, 2, 0}};
  spec.sources = {paced_source(0, 600, 2000)};
  Placement placement;
  placement.stage_nodes = {0, 1, 2};
  HostModel hosts;
  hosts.cpu_factor = {1.0, 1.0, 1.0};
  RtEngine engine(spec, placement, hosts, net::Topology{}, config());
  ASSERT_TRUE(engine.run().is_ok());
  ASSERT_TRUE(engine.report().completed);

  auto& sink = dynamic_cast<Recorder&>(engine.processor(2));
  ASSERT_EQ(sink.sequences_.size(), 600u);
  for (std::uint64_t i = 0; i < 600; ++i) EXPECT_EQ(sink.sequences_[i], i);
  EXPECT_EQ(sink.finishes_, 1);
  // A source never serves, so A's worker runs every batch itself.
  EXPECT_EQ(report_of(engine, "A").inline_batches, 0u);
  EXPECT_GT(report_of(engine, "B").inline_batches, 0u);
  EXPECT_GT(report_of(engine, "C").inline_batches, 0u);
  EXPECT_NE(engine.report().to_json().find("\"inline_batches\""),
            std::string::npos);
  EXPECT_GT(reg.counter("gates_stage_inline_batches_total", {{"stage", "B"}})
                .value(),
            0u);
  reg.set_enabled(metrics_were_enabled);
  reg.reset();
}

/// A drops everything, so the sink's only input is A's EOS, sent while the
/// sink's worker is parked: it is consumed in place (one served batch),
/// the worker is kicked and runs finish() on its own thread, once.
TEST(ServeInline, TerminalEosConsumedInPlaceFinishesTheStageOnce) {
  PipelineSpec spec;
  spec.stages = {stage("A", false), stage("sink", false)};
  spec.edges = {{0, 1, 0}};
  spec.sources = {paced_source(0, 100, 1000)};
  Placement placement;
  placement.stage_nodes = {0, 1};
  HostModel hosts;
  hosts.cpu_factor = {1.0, 1.0};
  RtEngine engine(spec, placement, hosts, net::Topology{}, config());
  ASSERT_TRUE(engine.run().is_ok());
  ASSERT_TRUE(engine.report().completed);
  auto& sink = dynamic_cast<Recorder&>(engine.processor(1));
  EXPECT_TRUE(sink.sequences_.empty());
  EXPECT_EQ(sink.finishes_, 1);
  EXPECT_EQ(report_of(engine, "sink").inline_batches, 1u);
  EXPECT_EQ(report_of(engine, "sink").packets_processed, 0u);
}

/// Only a serial, zero-cost stage with a single-producer inbox is served.
/// A fans out to `served` (the positive control) and to a costed stage; the
/// costed stage feeds a pool; the pool and a second chain fan in to a sink.
TEST(ServeInline, CostedPooledAndFanInStagesAreNeverServed) {
  PipelineSpec spec;
  StageSpec costed = stage("costed", true);
  costed.cost.per_packet_seconds = 1e-6;
  StageSpec pool = stage("pool", true);
  pool.parallelism.mode = ParallelismMode::kStateless;
  pool.parallelism.replicas = 2;
  spec.stages = {stage("A", true),     stage("served", false),
                 std::move(costed),    std::move(pool),
                 stage("fanin", false), stage("B", true)};
  spec.edges = {{0, 1, 0}, {0, 2, 0}, {2, 3, 0}, {3, 4, 0}, {5, 4, 0}};
  spec.sources = {paced_source(0, 400, 2000), paced_source(5, 400, 2000)};
  spec.sources[1].stream = 1;
  Placement placement;
  placement.stage_nodes = {0, 0, 0, 0, 0, 0};
  HostModel hosts;
  hosts.cpu_factor = {1.0};
  RtEngine engine(spec, placement, hosts, net::Topology{}, config());
  ASSERT_TRUE(engine.run().is_ok());
  ASSERT_TRUE(engine.report().completed);
  EXPECT_TRUE(engine.stage_inbox_spsc(2)) << "costed: one producer";
  EXPECT_TRUE(engine.stage_inbox_spsc(3)) << "pool: one producer";
  EXPECT_GT(report_of(engine, "served").inline_batches, 0u);
  EXPECT_EQ(report_of(engine, "costed").inline_batches, 0u);
  EXPECT_EQ(report_of(engine, "pool").inline_batches, 0u);
  EXPECT_EQ(report_of(engine, "fanin").inline_batches, 0u);
  EXPECT_EQ(report_of(engine, "fanin").packets_processed, 800u);
}

}  // namespace
}  // namespace gates::core
