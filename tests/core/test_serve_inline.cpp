// Serving in place (DESIGN.md §5.5): an idle serial stage, or a source that
// waited for its input, runs its parked downstream stage's batch on its own
// thread instead of waking it. These tests pin down who may be served and
// who serves (StageReport::inline_batches), that a terminal EOS consumed in
// place finishes the stage exactly once, that serving neither slows a paced
// source nor lets it burst after a stall, and that served stages deliver
// every packet once, in order.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
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

/// source -> A -> B -> C, all zero-cost and serial, at a paced rate: the
/// source serves A, A serves B and B serves C, while their own threads stay
/// parked.
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
  // The paced source owes sleep after every flush, so it serves A too.
  EXPECT_GT(report_of(engine, "A").inline_batches, 0u);
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

/// source -> A -> sink over two nodes, with `generator` in the source.
std::unique_ptr<RtEngine> two_stage(PacketGenerator generator,
                                    std::uint64_t packets) {
  PipelineSpec spec;
  spec.stages = {stage("A", true), stage("sink", false)};
  spec.edges = {{0, 1, 0}};
  spec.sources = {
      paced_source(0, packets, std::numeric_limits<double>::infinity())};
  spec.sources[0].generator = std::move(generator);
  Placement placement;
  placement.stage_nodes = {0, 1};
  HostModel hosts;
  hosts.cpu_factor = {1.0, 1.0};
  return std::make_unique<RtEngine>(spec, placement, hosts, net::Topology{},
                                    config());
}

void expect_in_order(const Recorder& sink, std::uint64_t packets) {
  ASSERT_EQ(sink.sequences_.size(), packets);
  for (std::uint64_t i = 0; i < packets; ++i) {
    EXPECT_EQ(sink.sequences_[i], i);
  }
}

/// An unpaced source whose generator never blocks never waits for input,
/// so it always wakes A: a loaded pipeline stays parallel.
TEST(ServeInline, UnpacedSourceNeverServes) {
  std::unique_ptr<RtEngine> run = two_stage(
      [](std::uint64_t, Rng&) {
        Packet p;
        p.payload = ByteBuffer(16);
        return p;
      },
      640);
  RtEngine& engine = *run;
  ASSERT_TRUE(engine.run().is_ok());
  ASSERT_TRUE(engine.report().completed);
  expect_in_order(dynamic_cast<Recorder&>(engine.processor(1)), 640);
  EXPECT_EQ(report_of(engine, "A").inline_batches, 0u);
}

/// An unpaced source whose generator blocks 2 ms before every batch (one
/// default batch is 32 packets) waited for its input: it serves A.
TEST(ServeInline, GeneratorWaitingSourceServes) {
  std::unique_ptr<RtEngine> run = two_stage(
      [](std::uint64_t seq, Rng&) {
        if (seq % 32 == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        Packet p;
        p.payload = ByteBuffer(16);
        return p;
      },
      320);
  RtEngine& engine = *run;
  ASSERT_TRUE(engine.run().is_ok());
  ASSERT_TRUE(engine.report().completed);
  expect_in_order(dynamic_cast<Recorder&>(engine.processor(1)), 320);
  EXPECT_GT(report_of(engine, "A").inline_batches, 0u);
}

/// Zero-cost in the model, but burns `burn` seconds of real CPU per packet
/// and blocks for `stall` seconds on packet `stall_at`; records every
/// packet's created_at, which is when the source sent its batch.
class Burner : public StreamProcessor {
 public:
  Burner(double burn, std::uint64_t stall_at, double stall)
      : burn_(burn), stall_at_(stall_at), stall_(stall) {}
  void init(ProcessorContext&) override {}
  void process(const Packet& packet, Emitter& emitter) override {
    created_.push_back(packet.created_at);
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start <
           std::chrono::duration<double>(burn_)) {
    }
    if (packet.sequence == stall_at_) {
      std::this_thread::sleep_for(std::chrono::duration<double>(stall_));
    }
    emitter.emit(packet);
  }
  std::string name() const override { return "burner"; }

  double burn_;
  std::uint64_t stall_at_;
  double stall_;
  std::vector<TimePoint> created_;
};

constexpr double kBurnRate = 2000;
constexpr std::uint64_t kBurnPackets = 600;

/// A kBurnRate source -> burner -> sink, both stages zero-cost and serial,
/// so the source serves the burner. Checks the sink's order and that the
/// source served; returns the burner's created_at record.
std::vector<TimePoint> run_burner(double burn, std::uint64_t stall_at,
                                  double stall) {
  PipelineSpec spec;
  StageSpec burner;
  burner.name = "burner";
  burner.factory = [=] {
    return std::make_unique<Burner>(burn, stall_at, stall);
  };
  spec.stages = {std::move(burner), stage("sink", false)};
  spec.edges = {{0, 1, 0}};
  spec.sources = {paced_source(0, kBurnPackets, kBurnRate)};
  Placement placement;
  placement.stage_nodes = {0, 1};
  HostModel hosts;
  hosts.cpu_factor = {1.0, 1.0};
  RtEngine engine(spec, placement, hosts, net::Topology{}, config());
  EXPECT_TRUE(engine.run().is_ok());
  EXPECT_TRUE(engine.report().completed);
  expect_in_order(dynamic_cast<Recorder&>(engine.processor(1)), kBurnPackets);
  EXPECT_GT(report_of(engine, "burner").inline_batches, 0u);
  return dynamic_cast<Burner&>(engine.processor(0)).created_;
}

/// The source serves a stage that burns 40% of the inter-arrival gap: the
/// serve time comes out of the sleep the source owes, so the offered rate
/// holds. Were it not charged, the source would send at kBurnRate / 1.4.
/// The rate is read over the median span of 20 consecutive packets, so a
/// moment the host takes the source's CPU away does not count, and the
/// bound is one-sided: a busy host only slows the source.
TEST(ServeInline, ServingDoesNotSlowAPacedSource) {
  const std::vector<TimePoint> created =
      run_burner(0.4 / kBurnRate, kBurnPackets, 0);
  ASSERT_EQ(created.size(), kBurnPackets);
  std::vector<Duration> spans;
  for (std::size_t i = 0; i + 20 < created.size(); ++i) {
    spans.push_back(created[i + 20] - created[i]);
  }
  std::nth_element(spans.begin(), spans.begin() + spans.size() / 2,
                   spans.end());
  EXPECT_GT(20 / spans[spans.size() / 2], 0.85 * kBurnRate);
}

/// The served stage blocks the source for 0.2 s, 400 gaps' worth: after
/// the stall the source goes on at its rate, not in a burst that makes up
/// the lost sleep — any 150 consecutive packets (75 ms at the rate) span
/// at least 50 ms.
TEST(ServeInline, StallWhileServingDoesNotBurstThePacedSource) {
  const std::vector<TimePoint> created = run_burner(0, 100, 0.2);
  ASSERT_EQ(created.size(), kBurnPackets);
  Duration tightest = created.back() - created.front();
  for (std::size_t i = 0; i + 150 < created.size(); ++i) {
    tightest = std::min(tightest, created[i + 150] - created[i]);
  }
  EXPECT_GE(tightest, 0.05);
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
