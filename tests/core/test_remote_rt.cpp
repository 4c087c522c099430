// A wire hop inside one process (DESIGN.md §9): two RtEngines joined by a
// loopback TcpRemoteLink pair. The egress side runs source -> s0 ->
// __egress, the ingress side __ingress -> s1 -> sink. These tests check
// that the hop changes nothing the sink sees, that the ingress sends
// through the same outlet as any source (it serves its first stage in
// place and stamps inbox waits), and that the wire acks it forwards let
// the egress finish after a crash behind the ingress and after eviction.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "gates/common/serialize.hpp"
#include "gates/core/rt_engine.hpp"
#include "gates/net/tcp_link.hpp"
#include "gates/obs/profiler.hpp"

namespace gates::core {
namespace {

/// How long each side waits at EOS for the wire to drain; a lost wire ack
/// makes the egress run last at least this long.
constexpr Duration kBarrierTimeout = 5.0;

class Forward : public StreamProcessor {
 public:
  void init(ProcessorContext&) override {}
  void process(const Packet& packet, Emitter& emitter) override {
    emitter.emit(packet);
  }
  std::string name() const override { return "forward"; }
};

/// Folds (sequence, payload) into one order-sensitive digest and records
/// the distinct sequences; sleeps `delay` seconds per packet.
class DigestSink : public StreamProcessor {
 public:
  explicit DigestSink(double delay) : delay_(delay) {}
  void init(ProcessorContext&) override {}
  void process(const Packet& packet, Emitter&) override {
    ++count_;
    digest_ = fold(digest_, packet.sequence);
    const std::uint8_t* data = packet.payload.data();
    for (std::size_t i = 0; i < packet.payload.size(); ++i) {
      digest_ = fold(digest_, data[i]);
    }
    seen_.insert(packet.sequence);
    if (delay_ > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(delay_));
    }
  }
  std::string name() const override { return "digest-sink"; }

  static std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
    return (h ^ v) * 0x100000001b3ULL;
  }

  double delay_;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
  std::uint64_t count_ = 0;
  std::set<std::uint64_t> seen_;
};

StageSpec forward(const std::string& name) {
  StageSpec s;
  s.name = name;
  s.factory = [] { return std::make_unique<Forward>(); };
  return s;
}

StageSpec sink(double delay) {
  StageSpec s;
  s.name = "sink";
  s.factory = [delay] { return std::make_unique<DigestSink>(delay); };
  return s;
}

struct HopOptions {
  std::uint64_t packets = 2000;
  /// Engine-paced source rate, packets per second.
  double rate = 4000;
  bool failover = false;
  std::size_t retention = 4096;
  double sink_delay = 0;
  /// Runs on a third thread 0.2 s after the engines start, mid-stream.
  std::function<void(RtEngine& ingress)> mid_run;
};

/// The paced source; its payload carries the sequence, so the digest
/// checks bytes as well as order.
SourceSpec source(const HopOptions& o) {
  SourceSpec src;
  src.rate_hz = o.rate;
  src.total_packets = o.packets;
  src.target_stage = 0;
  src.generator = [](std::uint64_t seq, Rng&) {
    Packet p;
    ByteBuffer payload;
    Serializer s(payload);
    s.write_u64(seq * 0x9e3779b97f4a7c15ULL);
    p.payload = std::move(payload);
    return p;
  };
  return src;
}

RtEngine::Config config(const HopOptions& o) {
  RtEngine::Config c;
  c.adaptation_enabled = false;
  c.control_period = 0.01;
  c.max_wall_time = 60;
  c.failover.enabled = o.failover;
  c.failover.heartbeat_period = 0.05;
  c.failover.suspicion_beats = 2;
  c.failover.replay_buffer_packets = o.retention;
  c.remote.eos_barrier_timeout = kBarrierTimeout;
  return c;
}

HostModel one_node() {
  HostModel hosts;
  hosts.cpu_factor = {1.0};
  return hosts;
}

/// source -> s0 -> s1 -> sink in one engine: what the hop must reproduce.
const DigestSink& run_one_engine(std::unique_ptr<RtEngine>& engine,
                                 const HopOptions& o) {
  PipelineSpec spec;
  spec.stages = {forward("s0"), forward("s1"), sink(o.sink_delay)};
  spec.edges = {{0, 1, 0}, {1, 2, 0}};
  spec.sources = {source(o)};
  Placement placement;
  placement.stage_nodes = {0, 0, 0};
  engine = std::make_unique<RtEngine>(spec, placement, one_node(),
                                      net::Topology{}, config(o));
  EXPECT_TRUE(engine->run().is_ok());
  EXPECT_TRUE(engine->report().completed);
  return dynamic_cast<const DigestSink&>(engine->processor(2));
}

struct Hop {
  std::unique_ptr<RtEngine> egress;
  std::unique_ptr<RtEngine> ingress;
  /// Wall time of the egress engine's run().
  double egress_seconds = 0;

  const DigestSink& sink() {
    return dynamic_cast<const DigestSink&>(ingress->processor(1));
  }
  const StageReport& s1() const { return ingress->report().stages[0]; }
};

/// Runs both sides of the hop to completion, each engine on its own thread.
void run_hop(Hop& hop, const HopOptions& o) {
  auto listener = net::TcpListener::listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status().to_string();
  auto server = net::TcpRemoteLink::serve(*listener, 1, "wire-in", 5.0);
  auto client = net::TcpRemoteLink::dial("127.0.0.1", (*listener)->port(), 1,
                                         "wire-out", 5.0);
  Placement placement;
  placement.stage_nodes = {0, 0};

  PipelineSpec up;
  up.stages = {forward("s0"), forward("__egress")};
  up.edges = {{0, 1, 0}};
  up.sources = {source(o)};
  RtEngine::Config up_config = config(o);
  up_config.remote.egress_links[1] = client;
  hop.egress = std::make_unique<RtEngine>(up, placement, one_node(),
                                          net::Topology{}, up_config);

  PipelineSpec down;
  down.stages = {forward("s1"), sink(o.sink_delay)};
  down.edges = {{0, 1, 0}};
  SourceSpec ingress;
  ingress.name = "__ingress";
  ingress.rate_hz = 1;  // unused: the link drives the remote inlet
  ingress.total_packets = 1;
  ingress.target_stage = 0;
  down.sources = {ingress};
  RtEngine::Config down_config = config(o);
  down_config.remote.ingress_links[0] = server;
  hop.ingress = std::make_unique<RtEngine>(down, placement, one_node(),
                                           net::Topology{}, down_config);

  std::thread egress_thread([&] {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_TRUE(hop.egress->run().is_ok());
    hop.egress_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  });
  std::thread mid_run;
  if (o.mid_run) {
    mid_run = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      o.mid_run(*hop.ingress);
    });
  }
  EXPECT_TRUE(hop.ingress->run().is_ok());
  egress_thread.join();
  if (mid_run.joinable()) mid_run.join();
  EXPECT_TRUE(hop.egress->report().completed);
  EXPECT_TRUE(hop.ingress->report().completed);
}

void expect_hop_matches_one_engine(bool failover) {
  HopOptions o;
  o.failover = failover;
  std::unique_ptr<RtEngine> one;
  const DigestSink& expected = run_one_engine(one, o);
  ASSERT_EQ(expected.count_, o.packets);
  Hop hop;
  run_hop(hop, o);
  EXPECT_EQ(hop.sink().count_, expected.count_);
  EXPECT_EQ(hop.sink().digest_, expected.digest_);
}

TEST(RemoteRt, TcpHopMatchesOneEngine) {
  expect_hop_matches_one_engine(false);
  expect_hop_matches_one_engine(true);
}

/// Each frame of a paced stream finds the ingress waiting in recv, so it
/// serves s1 on its own thread, as a source that waited for its input does.
TEST(RemoteRt, IngressServesItsFirstStageInPlace) {
  HopOptions o;
  Hop hop;
  run_hop(hop, o);
  EXPECT_EQ(hop.sink().count_, o.packets);
  EXPECT_GT(hop.s1().inline_batches, 0u);
}

/// The outlet stamps queued_at, so s1's inbox wait is attributed.
TEST(RemoteRt, IngressStampsInboxWait) {
  obs::Profiler& profiler = obs::Profiler::global();
  profiler.reset();
  profiler.set_enabled(true);
  {
    HopOptions o;
    Hop hop;
    run_hop(hop, o);
    EXPECT_EQ(hop.sink().count_, o.packets);
    EXPECT_GT(profiler.stage("s1").seconds(obs::Phase::kInboxWait), 0.0);
    EXPECT_GT(profiler.stage("__ingress").packets(), 0u);
  }
  profiler.reset();
}

/// s1 crashes mid-stream; the ingress's channel replays its unacked tail
/// into the revived stage, and the wire acks that follow release the
/// egress's barrier long before it would time out.
TEST(RemoteRt, KillBehindTheIngressRecovers) {
  HopOptions o;
  o.packets = 3000;
  o.rate = 5000;
  o.failover = true;
  o.mid_run = [](RtEngine& ingress) { ingress.kill_stage(0); };
  Hop hop;
  run_hop(hop, o);
  ASSERT_EQ(hop.ingress->report().failures.size(), 1u);
  const FailureReport& f = hop.ingress->report().failures[0];
  EXPECT_EQ(f.stage, "s1");
  EXPECT_EQ(f.outcome, FailureReport::Outcome::kRecovered);
  // At-least-once: every sequence arrives, some perhaps twice.
  EXPECT_EQ(hop.sink().seen_.size(), o.packets);
  EXPECT_EQ(*hop.sink().seen_.rbegin(), o.packets - 1);
  EXPECT_LT(hop.egress_seconds, kBarrierTimeout / 2);
}

/// A slow sink fills its 200-packet inbox within the first 20 ms, s1 blocks
/// on it, and the rest of the stream waits unacked in s1's inbox, far past
/// the ingress channel's 8 retained packets: the channel evicts. An evicted
/// entry still forwards its wire ack once it is processed, so the egress
/// finishes without waiting out its barrier.
TEST(RemoteRt, EvictedIngressRetentionStillAcksTheWire) {
  HopOptions o;
  o.packets = 400;
  o.rate = 20000;
  o.failover = true;
  o.retention = 8;
  o.sink_delay = 0.001;
  Hop hop;
  run_hop(hop, o);
  EXPECT_EQ(hop.sink().count_, o.packets);
  EXPECT_LT(hop.egress_seconds, kBarrierTimeout / 2);
}

}  // namespace
}  // namespace gates::core
