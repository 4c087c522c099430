// perfbench — the repository benchmark: open-loop RtEngine workloads,
// measured end to end and, with tracing on, layer by layer from outside the
// engine (probes in the benchmark's own processors, the kernel's per-thread
// accounting, and the engine's public RunReport).
//
//   perfbench <workload> <seed> <seconds> <trace 0|1>
//
// Workloads (real-thread RtEngine, default engine configuration except that
// threads are pinned: the process's CPUs are split across pipeline nodes).
// Every stage and the source sit on nodes of their own, four in all, so on
// a 4-CPU host each pinned thread has a CPU to itself. With five nodes, two
// threads shared a CPU and how they took turns moved capacity by 17%
// between runs.
//   chain3   source -> s0 -> s1 -> sink, 64B payloads. The serial data
//            path: SPSC inbox handoff, park/wake, arena blocks allocated by
//            the source and freed by the sink on another CPU.
//   fanout2  source -> hub -> 2 sinks, 64B. One payload referenced by two
//            routes: COW refcounts, two flushes per batch, two wakes, and
//            the last sink to finish frees the shared block.
//   replay   chain3 with failover on: every hop retains and exact-acks its
//            packets (the at-least-once path) and stages publish heartbeats.
// Each workload is measured two ways. Unpaced, the generator emits as fast
// as the pipeline takes packets, which gives its capacity (throughput_pps).
// Paced, packets are offered at a fixed rate: kLoad times the capacity this
// benchmark measured for the workload on its reference host (capacity_pps in
// kWorkloads), so the backlog stays flat and latency measures the path, not
// a queue. The paper's streams run at KB/s, far below either.
//
// Paced load is open loop. Packets arrive in bursts of one default engine
// batch (burst_size()) with exponential gaps drawn from the seed. The
// generator sleeps until a burst is due and never emits early, and the
// schedule does not slow when the engine does. Every packet is timed from
// its burst's due time: a source the engine blocks, a generator woken late
// by the timer or by a busy CPU, and a stall all count against latency, and
// a stall counts against every packet queued behind it. Every payload
// carries its sequence number and a seed-derived check word, and one packet
// in kFullCheckEvery is filled entirely with seed-derived words; the sinks
// check them, along with order and completeness.
//
// A run measures `seconds` split into 1 s segments, each on fresh engines:
// a paced run (kPacedShare of the segment, after a 0.2 s warm-up) and an
// unpaced run of about kCapacityS seconds. It reports the median over
// segments. On a shared virtual machine one
// engine instance's thread placement, or a burst of host steal, moves a
// whole segment; the median over many segments does not move.
//
// End-to-end metrics (--trace 0):
//   latency_p50_ms   paced: median due-to-sink latency over every sink's
//                    deliveries (segment p50, p90, p99, p99.9 and max are
//                    printed per segment; from p90 up they follow host
//                    steal too closely to gate on)
//   cpu_us_per_pkt   paced: process CPU time per delivered source packet,
//                    minus the CPU the generator spends sleeping on its
//                    schedule
//   throughput_pps   unpaced: packets delivered to the slowest sink per
//                    second, timed from the run's first fifth of packets to
//                    the last
//   setup_s          engine construction to first packet at the first sink;
//                    the median over small pipelines of the same shape,
//                    kSetupReps before each segment
// Per-layer metrics (--trace 1): the same run with a timestamp probe in
// every stage:
//   source_lag_us    how late the engine asked for a burst (mean; 0 when
//                    the source keeps up): blocked or stalled sources
//   source_wake_us   how late the generator woke for a burst it slept for
//                    (mean): timer delay plus waiting for a CPU
//   first_hop_us     median latency to the first stage: generator, source
//                    flush, inbox handoff and wake of the first hop
//   hop_us           median latency added per later processor hop
//   source_cpu_ns_per_pkt / stage_cpu_ns_per_pkt  kernel-accounted CPU of the
//                    source thread and of all stage threads, per packet
//   other_cpu_ns_per_pkt  everything else (control loop, heartbeats): the
//                    part of the budget no probe covers
//   runq_wait_ns_per_pkt  time runnable threads waited for a CPU (includes
//                    threads cycling through sched_yield)
//   ctx_switches_per_kpkt context switches per 1000 packets (parks/wakes)
//   allocs_per_kpkt  heap allocations per 1000 packets (RunReport)
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <time.h>

#include "gates/common/byte_buffer.hpp"
#include "gates/core/rt_engine.hpp"

namespace perfbench {
namespace {

using gates::ByteBuffer;
using gates::Rng;
using gates::Status;
namespace core = gates::core;
namespace net = gates::net;

constexpr double kWarmupS = 0.2;
/// Schedule past the window, so every thread is still alive when the
/// closing snapshot is taken.
constexpr double kTailS = 0.05;
/// Measured seconds per segment (a run uses several).
constexpr double kSegmentS = 1.0;
constexpr std::size_t kSetupBursts = 2;
/// Set-up samples taken before each segment.
constexpr int kSetupReps = 3;
/// One packet in this many carries seed-derived words in every payload word
/// and is checked in full; the others carry and are checked for their first
/// two words (sequence and check word) only, so filling and checking stay a
/// small share of the CPU per packet.
constexpr std::uint64_t kFullCheckEvery = 16;
/// Each unpaced run offers kCapacityS seconds' worth of packets at the
/// workload's reference capacity; the paced window takes kPacedShare of
/// each segment, leaving about that much for the unpaced run.
constexpr double kCapacityS = 0.2;
constexpr double kPacedShare = 0.8;
/// Paced offered rate as a share of the workload's reference capacity.
constexpr double kLoad = 0.1;
/// Share of the VM's CPU time the host may steal during a kept segment.
constexpr double kMaxSteal = 0.05;

struct Workload {
  const char* name;
  /// throughput_pps of this benchmark on its reference host (4-vCPU 2.0 GHz
  /// VM), rounded; fixed here so that the paced rate, kLoad times this, is
  /// the same input on every commit.
  double capacity_pps;
  std::size_t bytes;
  int passthroughs;
  int sinks;
  bool failover;

  double rate_hz() const { return kLoad * capacity_pps; }
};

const Workload kWorkloads[] = {
    {"chain3", 2500000, 64, 2, 1, false},
    {"fanout2", 1800000, 64, 1, 2, false},
    {"replay", 2800000, 64, 2, 1, true},
};

/// Packets per generator burst: one default engine batch, so each burst
/// leaves the source in one flush. Read from the engine, so a change to its
/// default reshapes the bursts rather than splitting them across flushes.
std::size_t burst_size() {
  static const std::size_t n =
      std::max<std::size_t>(core::RtEngine::Config{}.batching.max_batch, 1);
  return n;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

pid_t this_tid() { return static_cast<pid_t>(syscall(SYS_gettid)); }

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  return v[mid];
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// The q-quantile (0..1) of `v`, reordering it.
double quantile(std::vector<std::uint32_t>& v, double q) {
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[k];
}

/// Timestamps and checks recorded by one benchmark processor.
struct Probe {
  std::atomic<pid_t> tid{0};
  /// Due-to-here latency (ns) of packets due inside the measurement window.
  std::vector<std::uint32_t> latencies;
  // Sink-side verification (single writer: the sink's worker thread).
  std::uint64_t next_seq = 0;
  std::uint64_t ok = 0;
  std::uint64_t bad = 0;
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::int64_t> first_arrival_ns{0};
  /// Arrival times of packets Shared::rate_from and the last packet (read
  /// after the engine has joined its threads).
  std::int64_t rate_from_ns = 0;
  std::int64_t last_ns = 0;
};

/// Everything one pipeline run shares between the generator, the probes and
/// the measuring thread.
struct Shared {
  Shared(const Workload& workload, std::uint64_t seed_in, bool trace_in,
         std::vector<std::int64_t> schedule_in, double measure_s)
      : w(workload),
        seed(seed_in),
        key(mix(seed_in)),
        trace(trace_in),
        schedule(std::move(schedule_in)),
        burst(burst_size()),
        total_packets(schedule.size() * burst),
        rate_from(total_packets / 5),
        win_lo(static_cast<std::int64_t>(kWarmupS * 1e9)),
        win_hi(win_lo + static_cast<std::int64_t>(measure_s * 1e9)) {}

  const Workload& w;
  const std::uint64_t seed;
  const std::uint64_t key;
  const bool trace;
  /// Due offset (ns after t0) of every burst.
  const std::vector<std::int64_t> schedule;
  const std::size_t burst;
  const std::uint64_t total_packets;
  /// First packet of the throughput interval (past start-up).
  const std::uint64_t rate_from;
  /// Measurement window, as due offsets.
  const std::int64_t win_lo;
  const std::int64_t win_hi;

  /// Generator start; every packet is timed from t0 + its burst's offset.
  /// Published before the first packet leaves, and the engine's queues
  /// carry it to the stages along with the packets.
  std::atomic<std::int64_t> t0{0};
  std::atomic<pid_t> source_tid{0};
  std::atomic<std::int64_t> gen_sleep_cpu_ns{0};
  /// Per burst in the window (source thread only): how late the engine
  /// asked for it (0 when it asked early), and how late the generator woke
  /// for it (bursts it slept for).
  std::vector<double> source_lag_ns;
  std::vector<double> source_wake_ns;
  /// Passthrough-stage probes in pipeline order, and the sinks'.
  std::deque<Probe> probes;
  std::deque<Probe> sinks;

  std::uint64_t word(std::uint64_t seq, std::size_t i) const {
    return i == 0 ? seq ^ key : mix(key + seq * 64 + i);
  }

  static bool full_check(std::uint64_t seq) {
    return seq % kFullCheckEvery == 0;
  }

  bool in_window(std::uint64_t b) const {
    return schedule[b] >= win_lo && schedule[b] < win_hi;
  }

  /// Blocks the source thread until burst `b` is due.
  void await_burst(std::uint64_t b) {
    if (b == 0) {
      // Exact wake-ups for the schedule; the default 50 us slack would show
      // up as generator lateness.
      prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
      source_tid.store(this_tid(), std::memory_order_relaxed);
      t0.store(now_ns(), std::memory_order_release);
    }
    const std::int64_t due = t0.load(std::memory_order_relaxed) + schedule[b];
    const std::int64_t asked = now_ns();
    if (asked < due) {
      const std::int64_t cpu0 = clock_ns(CLOCK_THREAD_CPUTIME_ID);
      timespec ts{static_cast<time_t>(due / 1000000000),
                  static_cast<long>(due % 1000000000)};
      while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
             EINTR) {
      }
      const std::int64_t woke = now_ns();
      gen_sleep_cpu_ns.fetch_add(clock_ns(CLOCK_THREAD_CPUTIME_ID) - cpu0,
                                 std::memory_order_relaxed);
      if (trace && in_window(b)) {
        source_wake_ns.push_back(static_cast<double>(woke - due));
      }
    }
    if (trace && in_window(b)) {
      source_lag_ns.push_back(
          static_cast<double>(std::max<std::int64_t>(asked - due, 0)));
    }
  }

  core::Packet make_packet(std::uint64_t seq) {
    if (seq % burst == 0) await_burst(seq / burst);
    core::Packet packet;
    packet.payload = ByteBuffer::uninitialized(w.bytes);
    std::uint8_t* d = packet.payload.data();
    const std::size_t words = full_check(seq) ? w.bytes / 8 : 2;
    for (std::size_t i = 0; i < words; ++i) {
      const std::uint64_t v = word(seq, i);
      std::memcpy(d + 8 * i, &v, 8);
    }
    return packet;
  }

  static std::uint64_t read_word(const core::Packet& packet, std::size_t i) {
    std::uint64_t v = 0;
    std::memcpy(&v, packet.payload.data() + 8 * i, 8);
    return v;
  }

  /// Sequence number carried in the payload; total_packets when malformed.
  std::uint64_t seq_of(const core::Packet& packet) const {
    if (packet.payload.size() != w.bytes) return total_packets;
    const std::uint64_t seq = read_word(packet, 0) ^ key;
    return seq < total_packets ? seq : total_packets;
  }

  void record(Probe& p, std::uint64_t seq, std::int64_t at) {
    const std::uint64_t b = seq / burst;
    if (!in_window(b)) return;
    const std::int64_t due = t0.load(std::memory_order_relaxed) + schedule[b];
    const std::int64_t lat = at - due;
    p.latencies.push_back(static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(lat, 0, std::numeric_limits<std::uint32_t>::max())));
  }

  /// Records the calling stage thread's id (for per-thread CPU accounting).
  void note_thread(Probe& p) {
    if (p.tid.load(std::memory_order_relaxed) == 0) {
      p.tid.store(this_tid(), std::memory_order_relaxed);
    }
  }
};

/// Passthrough that, when tracing, timestamps every packet at its boundary.
class ProbeStage : public core::StreamProcessor {
 public:
  ProbeStage(Shared& shared, Probe& probe) : s_(shared), p_(probe) {}
  void init(core::ProcessorContext&) override {}
  void process(const core::Packet& packet, core::Emitter& out) override {
    s_.note_thread(p_);
    if (s_.trace) {
      const std::uint64_t seq = s_.seq_of(packet);
      if (seq < s_.total_packets) s_.record(p_, seq, now_ns());
    }
    out.emit(packet);
  }
  std::string name() const override { return "probe"; }

 private:
  Shared& s_;
  Probe& p_;
};

/// Terminal stage: checks order, completeness and payload bytes, and
/// records due-to-sink latency.
class SinkStage : public core::StreamProcessor {
 public:
  SinkStage(Shared& shared, Probe& probe) : s_(shared), p_(probe) {}
  void init(core::ProcessorContext&) override {}
  void process(const core::Packet& packet, core::Emitter&) override {
    const std::int64_t at = now_ns();
    if (p_.first_arrival_ns.load(std::memory_order_relaxed) == 0) {
      p_.first_arrival_ns.store(at, std::memory_order_relaxed);
      s_.note_thread(p_);
    }
    const std::uint64_t seq = s_.seq_of(packet);
    bool good = seq == p_.next_seq && seq < s_.total_packets &&
                Shared::read_word(packet, 1) == s_.word(seq, 1);
    if (good && Shared::full_check(seq)) {
      for (std::size_t i = 2; i < s_.w.bytes / 8; ++i) {
        good = good && Shared::read_word(packet, i) == s_.word(seq, i);
      }
    }
    if (good) {
      ++p_.ok;
      s_.record(p_, seq, at);
      if (seq == s_.rate_from) p_.rate_from_ns = at;
      if (seq + 1 == s_.total_packets) p_.last_ns = at;
    } else {
      ++p_.bad;
    }
    if (seq < s_.total_packets) p_.next_seq = seq + 1;
    p_.delivered.store(p_.ok + p_.bad, std::memory_order_relaxed);
  }
  std::string name() const override { return "sink"; }

 private:
  Shared& s_;
  Probe& p_;
};

struct Built {
  core::PipelineSpec spec;
  core::Placement placement;
  core::HostModel hosts;
  net::Topology topology;
};

void add_stage(Built& b, std::string name, core::ProcessorFactory factory,
               gates::NodeId node) {
  core::StageSpec stage;
  stage.name = std::move(name);
  stage.factory = std::move(factory);
  b.spec.stages.push_back(std::move(stage));
  b.placement.stage_nodes.push_back(node);
  b.hosts.cpu_factor.push_back(1.0);
}

core::ProcessorFactory probe_factory(Shared& s) {
  Probe& p = s.probes.emplace_back();
  return [&s, &p] { return std::make_unique<ProbeStage>(s, p); };
}

core::ProcessorFactory sink_factory(Shared& s) {
  Probe& p = s.sinks.emplace_back();
  return [&s, &p] { return std::make_unique<SinkStage>(s, p); };
}

/// source (own node) -> s0 -> ... -> s<n-1> -> sink0 .. sink<k-1>, one node
/// per stage: a chain when k = 1, a fan-out from s<n-1> when k > 1.
Built pipeline(Shared& s) {
  Built b;
  b.topology.set_default_link({1e13, 0.0, {}});  // unthrottled
  const auto n = static_cast<std::size_t>(s.w.passthroughs);
  for (std::size_t i = 0; i < n; ++i) {
    add_stage(b, "s" + std::to_string(i), probe_factory(s),
              static_cast<gates::NodeId>(i));
    if (i > 0) b.spec.edges.push_back({i - 1, i, 0});
  }
  const auto k = static_cast<std::size_t>(s.w.sinks);
  for (std::size_t j = 0; j < k; ++j) {
    add_stage(b, "sink" + std::to_string(j), sink_factory(s),
              static_cast<gates::NodeId>(n + j));
    b.spec.edges.push_back({n - 1, n + j, 0});
  }
  core::SourceSpec src;
  src.location = static_cast<gates::NodeId>(n + k);
  // The generator paces itself on the schedule; the engine must not.
  src.rate_hz = std::numeric_limits<double>::infinity();
  src.total_packets = s.total_packets;
  src.packet_bytes = s.w.bytes;
  src.generator = [&s](std::uint64_t seq, Rng&) { return s.make_packet(seq); };
  b.spec.sources = {src};
  return b;
}

core::RtEngine::Config engine_config(const Shared& s, double max_wall) {
  core::RtEngine::Config cfg;
  cfg.seed = s.seed;
  cfg.max_wall_time = max_wall;
  cfg.failover.enabled = s.w.failover;
  // Unpinned, runs on a 4-vCPU VM switched, for seconds to minutes at a
  // time, between two states that moved latency, CPU per packet and
  // capacity together by up to 60%. Pinned, they did not.
  cfg.thread_placement.pin = true;
  return cfg;
}

struct RunResult {
  bool ok = false;
  std::string error;
  core::AllocationReport allocation;
};

/// Builds the workload's pipeline and runs it to completion.
RunResult run_pipeline(Shared& s, double max_wall) {
  Built b = pipeline(s);
  core::RtEngine engine(std::move(b.spec), std::move(b.placement),
                        std::move(b.hosts), std::move(b.topology),
                        engine_config(s, max_wall));
  const Status st = engine.run();
  RunResult r;
  r.ok = st.is_ok() && engine.report().completed;
  if (!st.is_ok()) r.error = st.message();
  if (st.is_ok() && !engine.report().completed) r.error = "watchdog expired";
  r.allocation = engine.report().allocation;
  return r;
}

/// Due offsets of Poisson bursts covering `seconds` of schedule.
std::vector<std::int64_t> make_schedule(std::uint64_t seed, double rate_hz,
                                        double seconds) {
  const double mean_gap_ns = static_cast<double>(burst_size()) / rate_hz * 1e9;
  const auto end = static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::int64_t> out;
  std::uint64_t state = mix(seed ^ 0x5EEDull);
  double t = 0;
  while (static_cast<std::int64_t>(t) < end) {
    out.push_back(static_cast<std::int64_t>(t));
    const double u = static_cast<double>(mix(++state) >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) * mean_gap_ns;
  }
  return out;
}

struct ThreadStat {
  std::int64_t cpu_ns = 0;
  std::int64_t wait_ns = 0;
};

/// Kernel per-thread accounting (/proc/self/task/*/schedstat: on-CPU time
/// and run-queue wait, in ns).
std::map<pid_t, ThreadStat> read_threads() {
  std::map<pid_t, ThreadStat> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream f(std::string("/proc/self/task/") + e->d_name + "/schedstat");
    ThreadStat st;
    if (f >> st.cpu_ns >> st.wait_ns) {
      out[static_cast<pid_t>(std::atoi(e->d_name))] = st;
    }
  }
  closedir(dir);
  return out;
}

struct Snapshot {
  bool taken = false;
  std::int64_t cpu_ns = 0;
  std::int64_t gen_sleep_cpu_ns = 0;
  std::uint64_t delivered = 0;
  long ctx_switches = 0;
  std::map<pid_t, ThreadStat> threads;
};

Snapshot snapshot(Shared& s) {
  Snapshot snap;
  snap.taken = true;
  snap.cpu_ns = clock_ns(CLOCK_PROCESS_CPUTIME_ID);
  snap.gen_sleep_cpu_ns = s.gen_sleep_cpu_ns.load(std::memory_order_relaxed);
  snap.delivered = s.sinks.front().delivered.load(std::memory_order_relaxed);
  if (s.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    snap.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
    snap.threads = read_threads();
  }
  return snap;
}

/// Takes a snapshot at the start and at the end of the measurement window
/// (both relative to the generator's t0) on its own, mostly sleeping, thread.
class WindowSampler {
 public:
  explicit WindowSampler(Shared& s) : s_(s), thread_([this] { run(); }) {}
  ~WindowSampler() { stop(); }
  WindowSampler(const WindowSampler&) = delete;
  WindowSampler& operator=(const WindowSampler&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  Snapshot begin;
  Snapshot end;

 private:
  void run() {
    using namespace std::chrono;
    std::unique_lock<std::mutex> lock(mu_);
    auto stopped = [this] { return stopping_; };
    while (s_.t0.load(std::memory_order_acquire) == 0) {
      if (cv_.wait_for(lock, milliseconds(1), stopped)) return;
    }
    const std::int64_t t0 = s_.t0.load(std::memory_order_acquire);
    auto at = [](std::int64_t ns) {
      return steady_clock::time_point(nanoseconds(ns));
    };
    if (cv_.wait_until(lock, at(t0 + s_.win_lo), stopped)) return;
    begin = snapshot(s_);
    if (cv_.wait_until(lock, at(t0 + s_.win_hi), stopped)) return;
    end = snapshot(s_);
  }

  Shared& s_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

/// Packets (of total_packets) that did not reach every sink intact.
std::uint64_t failed_packets(const Shared& s) {
  std::uint64_t failed = 0;
  for (const Probe& p : s.sinks) {
    failed = std::max(failed, s.total_packets - std::min(p.ok, s.total_packets));
  }
  return failed;
}

/// Latency samples of every sink, pooled.
std::vector<std::uint32_t> pooled(const std::deque<Probe>& sinks) {
  std::vector<std::uint32_t> out;
  for (const Probe& p : sinks) {
    out.insert(out.end(), p.latencies.begin(), p.latencies.end());
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    out += buf;
  }
  return out + "}}";
}

/// One measured engine run: its share of the window statistics.
struct Segment {
  bool ok = true;
  std::string why;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double p50_ns = 0;
  double cpu_us_per_pkt = 0;
  double throughput_pps = 0;
  /// Per-layer metrics (trace runs).
  std::vector<Metric> layers;
};

Segment measure(const Workload& w, std::uint64_t seed, double seconds,
                bool trace) {
  Segment out;
  const double total_s = kWarmupS + seconds + kTailS;
  Shared s(w, seed, trace, make_schedule(seed, w.rate_hz(), total_s), seconds);
  RunResult r;
  Snapshot begin;
  Snapshot end;
  {
    WindowSampler sampler(s);
    r = run_pipeline(s, total_s + 60);
    sampler.stop();
    begin = sampler.begin;
    end = sampler.end;
  }
  out.attempted = s.total_packets;
  out.failed = failed_packets(s);
  const double packets =
      static_cast<double>(end.delivered) - static_cast<double>(begin.delivered);
  if (!r.ok) {
    out.ok = false;
    out.why = "run: " + r.error;
  } else if (out.failed != 0) {
    out.ok = false;
    out.why = std::to_string(out.failed) + " packets lost, reordered or corrupted";
  } else if (!begin.taken || !end.taken || packets <= 0 ||
             s.sinks.front().latencies.empty()) {
    out.ok = false;
    out.why = "measurement window not covered";
  }
  if (!out.ok) return out;

  std::vector<std::uint32_t> sink = pooled(s.sinks);
  out.p50_ns = quantile(sink, 0.50);
  const double gen_sleep =
      static_cast<double>(end.gen_sleep_cpu_ns - begin.gen_sleep_cpu_ns);
  const double process_cpu =
      static_cast<double>(end.cpu_ns - begin.cpu_ns) - gen_sleep;
  out.cpu_us_per_pkt = process_cpu / packets * 1e-3;
  std::printf("  segment seed=%llu: %.0f pkts, cpu %.3f us/pkt, latency us "
              "p50 %.1f p90 %.1f p99 %.1f p99.9 %.1f max %.1f\n",
              static_cast<unsigned long long>(seed), packets,
              out.cpu_us_per_pkt, quantile(sink, 0.5) * 1e-3,
              quantile(sink, 0.9) * 1e-3, quantile(sink, 0.99) * 1e-3,
              quantile(sink, 0.999) * 1e-3, quantile(sink, 1.0) * 1e-3);
  if (!trace) return out;

  auto delta = [&](pid_t tid) {
    ThreadStat d;
    auto a = begin.threads.find(tid);
    auto b = end.threads.find(tid);
    if (a == begin.threads.end() || b == end.threads.end()) return d;
    d.cpu_ns = b->second.cpu_ns - a->second.cpu_ns;
    d.wait_ns = b->second.wait_ns - a->second.wait_ns;
    return d;
  };
  const double source_cpu =
      static_cast<double>(delta(s.source_tid.load()).cpu_ns) - gen_sleep;
  double stage_cpu = 0;
  for (const auto* list : {&s.probes, &s.sinks}) {
    for (const Probe& p : *list) {
      stage_cpu += static_cast<double>(delta(p.tid.load()).cpu_ns);
    }
  }
  double wait = 0;
  for (const auto& entry : end.threads) {
    wait += static_cast<double>(delta(entry.first).wait_ns);
  }
  std::vector<std::uint32_t> first = s.probes.front().latencies;
  const double first_med = quantile(first, 0.5);
  const double sink_med = quantile(sink, 0.5);
  // Processor hops from the first stage to a sink: one per probed stage.
  const double hops = static_cast<double>(s.probes.size());
  const double per = 1.0 / packets;
  out.layers = {
      {"source_lag_us", mean(s.source_lag_ns) * 1e-3, "us"},
      {"source_wake_us", mean(s.source_wake_ns) * 1e-3, "us"},
      {"first_hop_us", first_med * 1e-3, "us"},
      {"hop_us", (sink_med - first_med) / hops * 1e-3, "us"},
      {"source_cpu_ns_per_pkt", source_cpu * per, "ns"},
      {"stage_cpu_ns_per_pkt", stage_cpu * per, "ns"},
      {"other_cpu_ns_per_pkt", (process_cpu - source_cpu - stage_cpu) * per,
       "ns"},
      {"runq_wait_ns_per_pkt", wait * per, "ns"},
      {"ctx_switches_per_kpkt",
       static_cast<double>(end.ctx_switches - begin.ctx_switches) * per * 1e3,
       "count"},
      {"allocs_per_kpkt", r.allocation.allocations_per_packet() * 1e3,
       "count"},
  };
  return out;
}

/// Unpaced run: every burst is due at once, so the source emits as fast as
/// the pipeline takes packets. Each sink is timed from packet rate_from
/// (past start-up) to the last; the slowest sink counts.
Segment measure_capacity(const Workload& w, std::uint64_t seed) {
  Segment out;
  const auto bursts = static_cast<std::size_t>(
      std::ceil(w.capacity_pps * kCapacityS /
                static_cast<double>(burst_size())));
  Shared s(w, seed, false, std::vector<std::int64_t>(bursts, 0), 0);
  const RunResult r = run_pipeline(s, 60);
  out.attempted = s.total_packets;
  out.failed = failed_packets(s);
  if (!r.ok || out.failed != 0) {
    out.ok = false;
    out.why = "unpaced run: " +
              (r.ok ? std::to_string(out.failed) +
                          " packets lost, reordered or corrupted"
                    : r.error);
    return out;
  }
  double span_s = 0;
  for (const Probe& p : s.sinks) {
    span_s = std::max(span_s,
                      static_cast<double>(p.last_ns - p.rate_from_ns) * 1e-9);
  }
  out.throughput_pps = static_cast<double>(s.total_packets - 1 - s.rate_from) /
                       std::max(span_s, 1e-9);
  std::printf("  unpaced seed=%llu: %llu pkts, %.0f pkt/s\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(s.total_packets),
              out.throughput_pps);
  return out;
}

/// CPU time of this VM summed over its CPUs, and the part of it the host
/// stole, in clock ticks (/proc/stat).
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

HostTicks host_ticks() {
  HostTicks t;
  std::ifstream f("/proc/stat");
  std::string label;
  f >> label;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(f >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

int run(const Workload& w, std::uint64_t seed, double seconds, bool trace) {
  bool correct = true;
  std::string why;

  // The measured time is split over several segments, each on fresh engine
  // instances, so one instance's thread placement cannot decide the result.
  // Each segment first times set-up on small pipelines of the same shape
  // (two bursts due at once), then runs the paced and the unpaced pipeline;
  // spreading set-up samples over the run keeps a short host hiccup from
  // deciding set-up time either.
  //
  // A segment during which the host stole more than kMaxSteal of the VM's
  // CPU time is measured again on the same inputs, up to segments/2 times
  // a run. Pinned threads cannot move off a stolen CPU, and on a shared
  // 4-vCPU VM episodes of 7-18% steal lasting 10-40 s raised latency up to
  // 10x and halved capacity in the segments they covered.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setups, p50s, cpus, pps;
  std::map<std::string, std::vector<double>> layers;
  std::vector<Metric> layer_units;
  const int segments =
      std::max(1, static_cast<int>(std::lround(seconds / kSegmentS)));
  int retries = segments / 2;
  for (int k = 0; k < segments && correct;) {
    const HostTicks before = host_ticks();
    std::vector<double> seg_setups;
    for (int rep = 0; rep < kSetupReps && correct; ++rep) {
      const auto small_seed =
          ~mix(seed) + static_cast<std::uint64_t>(k * kSetupReps + rep);
      Shared small(w, small_seed, false,
                   std::vector<std::int64_t>(kSetupBursts, 0), 0);
      const std::int64_t started = now_ns();
      const RunResult r = run_pipeline(small, 60);
      if (!r.ok || failed_packets(small) != 0) {
        correct = false;
        why = "setup run: " + (r.ok ? std::string("lost packets") : r.error);
      }
      seg_setups.push_back(
          static_cast<double>(small.sinks.front().first_arrival_ns.load() -
                              started) *
          1e-9);
    }
    if (!correct) break;
    const std::uint64_t seg_seed = mix(seed) + static_cast<std::uint64_t>(k);
    Segment seg = measure(w, seg_seed, seconds / segments * kPacedShare, trace);
    const Segment cap = seg.ok ? measure_capacity(w, seg_seed) : Segment{};
    attempted += seg.attempted + cap.attempted;
    failed += seg.failed + cap.failed;
    if (!seg.ok || !cap.ok) {
      correct = false;
      why = seg.ok ? cap.why : seg.why;
      break;
    }
    const HostTicks after = host_ticks();
    const double steal = static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(std::max<std::uint64_t>(
                             after.total - before.total, 1));
    if (steal > kMaxSteal && retries > 0) {
      --retries;
      std::printf("  segment %d measured again: host stole %.1f%% of CPU\n", k,
                  steal * 100);
      continue;
    }
    ++k;
    setups.insert(setups.end(), seg_setups.begin(), seg_setups.end());
    p50s.push_back(seg.p50_ns);
    cpus.push_back(seg.cpu_us_per_pkt);
    pps.push_back(cap.throughput_pps);
    for (const Metric& m : seg.layers) layers[m.name].push_back(m.value);
    if (layer_units.empty()) layer_units = seg.layers;
  }

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"latency_p50_ms", median(p50s) * 1e-6, "ms"},
        {"cpu_us_per_pkt", median(cpus), "us"},
        {"throughput_pps", median(pps), "pkt/s"},
        {"setup_s", median(setups), "s"},
    };
  } else {
    for (Metric m : layer_units) {
      m.value = median(layers[m.name]);
      metrics.push_back(m);
    }
  }
  if (!correct) std::fprintf(stderr, "perfbench: incorrect: %s\n", why.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-24s %14.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("%s\n", result_json(correct, std::max<std::uint64_t>(attempted, 1),
                                   failed, metrics)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc != 5) {
    std::fprintf(stderr,
                 "usage: perfbench <chain3|fanout2|replay> <seed> "
                 "<seconds> <trace 0|1>\n");
    return 2;
  }
  const perfbench::Workload* workload = nullptr;
  for (const auto& w : perfbench::kWorkloads) {
    if (std::strcmp(w.name, argv[1]) == 0) workload = &w;
  }
  const double seconds = std::atof(argv[3]);
  if (workload == nullptr || seconds <= 0) {
    std::fprintf(stderr, "perfbench: bad workload or seconds\n");
    return 2;
  }
  return perfbench::run(*workload, std::strtoull(argv[2], nullptr, 10),
                        seconds, std::atoi(argv[4]) != 0);
}
