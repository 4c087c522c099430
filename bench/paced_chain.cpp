// Engine-paced chain (no paper counterpart): the cost of carrying a stream
// that runs far below capacity, when the engine paces the source
// (SourceSpec::rate_hz) rather than a generator that blocks for its input.
//
//   source -> s0 -> s1 -> sink
//
// One pipeline node and one pinned thread each, unthrottled links; every
// stage is zero-cost and serial, so each may be served in place by the
// thread upstream of it (DESIGN.md §5.5). For each offered rate the bench
// prints:
//
//   delivered pkt/s   packets at the sink over the span between the first
//                     and the last one it saw
//   cpu us/pkt        process CPU time (every thread, set-up included) per
//                     packet
//   p50 / p99 us      created_at -> sink latency over the last 90% of the
//                     packets
//   s0 served         batches of s0 run on the source thread
//                     (StageReport::inline_batches)
//
// Usage: paced_chain [seconds per rate, default 2]
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gates/core/rt_engine.hpp"

namespace gates::bench {
namespace {

class Pass : public core::StreamProcessor {
 public:
  void init(core::ProcessorContext&) override {}
  void process(const core::Packet& packet, core::Emitter& emitter) override {
    emitter.emit(packet);
  }
  std::string name() const override { return "pass"; }
};

class LatencySink : public core::StreamProcessor {
 public:
  void init(core::ProcessorContext& ctx) override { ctx_ = &ctx; }
  void process(const core::Packet& packet, core::Emitter&) override {
    const TimePoint now = ctx_->now();
    if (latencies_.empty()) first_ = now;
    last_ = now;
    latencies_.push_back(now - packet.created_at);
  }
  std::string name() const override { return "latency-sink"; }

  core::ProcessorContext* ctx_ = nullptr;
  std::vector<Duration> latencies_;
  TimePoint first_ = 0;
  TimePoint last_ = 0;
};

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

Duration quantile(std::vector<Duration> v, double q) {
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

bool run_row(double rate, double seconds) {
  core::PipelineSpec spec;
  core::Placement placement;
  core::HostModel hosts;
  const char* names[] = {"s0", "s1", "sink"};
  for (std::size_t i = 0; i < 3; ++i) {
    core::StageSpec stage;
    stage.name = names[i];
    if (i < 2) {
      stage.factory = [] { return std::make_unique<Pass>(); };
      spec.edges.push_back({i, i + 1, 0});
    } else {
      stage.factory = [] { return std::make_unique<LatencySink>(); };
    }
    spec.stages.push_back(std::move(stage));
    placement.stage_nodes.push_back(static_cast<NodeId>(i));
    hosts.cpu_factor.push_back(1.0);
  }
  core::SourceSpec src;
  src.rate_hz = rate;
  src.total_packets = static_cast<std::uint64_t>(rate * seconds);
  src.packet_bytes = 64;
  src.location = 3;
  src.target_stage = 0;
  spec.sources = {src};
  hosts.cpu_factor.push_back(1.0);

  core::RtEngine::Config cfg;
  cfg.adaptation_enabled = false;
  cfg.max_wall_time = 10 * seconds + 10;
  cfg.thread_placement.pin = true;
  net::Topology topology;
  topology.set_default_link({1e13, 0.0, {}});  // unthrottled
  core::RtEngine engine(std::move(spec), std::move(placement),
                        std::move(hosts), std::move(topology), cfg);
  const double cpu0 = cpu_seconds();
  const Status st = engine.run();
  const double cpu = cpu_seconds() - cpu0;
  const auto& sink = dynamic_cast<LatencySink&>(engine.processor(2));
  const std::uint64_t n = sink.latencies_.size();
  if (!st.is_ok() || !engine.report().completed || n != src.total_packets) {
    std::printf("%10.0f  FAILED: %s, %llu of %llu packets\n", rate,
                st.is_ok() ? "incomplete" : st.message().c_str(),
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(src.total_packets));
    return false;
  }
  const std::vector<Duration> tail(
      sink.latencies_.begin() + static_cast<std::ptrdiff_t>(n / 10),
      sink.latencies_.end());
  std::printf("%10.0f %13.0f %11.3f %9.1f %9.1f %10llu\n", rate,
              static_cast<double>(n - 1) / (sink.last_ - sink.first_),
              1e6 * cpu / static_cast<double>(n),
              1e6 * quantile(tail, 0.5), 1e6 * quantile(tail, 0.99),
              static_cast<unsigned long long>(
                  engine.report().stages.front().inline_batches));
  std::fflush(stdout);
  return true;
}

}  // namespace
}  // namespace gates::bench

int main(int argc, char** argv) {
  using namespace gates::bench;
  init();
  const double seconds = argc > 1 ? std::atof(argv[1]) : 2.0;
  if (!(seconds > 0)) {
    std::fprintf(stderr, "usage: paced_chain [seconds per rate > 0]\n");
    return 2;
  }
  header("Engine-paced chain",
         "CPU and latency of a stream far below capacity");
  note("source -> s0 -> s1 -> sink, one pinned thread per node, zero-cost "
       "serial stages;\nthe engine paces the source (rate_hz), 64 B packets");
  rule();
  std::printf("%10s %13s %11s %9s %9s %10s\n", "offered", "delivered pkt/s",
              "cpu us/pkt", "p50 us", "p99 us", "s0 served");
  bool ok = true;
  for (double rate : {4e3, 4e4, 2.5e5}) ok = run_row(rate, seconds) && ok;
  rule();
  return ok ? 0 : 1;
}
