// Run reports: everything the benches and EXPERIMENTS.md tables read out of
// an engine run.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gates/common/stats.hpp"
#include "gates/common/types.hpp"
#include "gates/core/migration.hpp"
#include "gates/obs/attribution.hpp"
#include "gates/obs/metrics.hpp"
#include "gates/obs/trace.hpp"

namespace gates::core {

struct StageReport {
  std::string name;
  NodeId node = kInvalidNode;
  std::uint64_t packets_processed = 0;
  std::uint64_t records_processed = 0;
  std::uint64_t bytes_processed = 0;
  std::uint64_t packets_emitted = 0;
  std::uint64_t packets_dropped = 0;
  Duration busy_time = 0;
  /// RtEngine: batches an upstream stage's thread served in place while
  /// this stage's worker stayed parked (its process() ran on that thread).
  std::uint64_t inline_batches = 0;
  /// Queue length sampled once per control period.
  RunningStats queue_length;
  /// Per-packet latency from packet creation (at the source or the emitting
  /// stage) to the end of this stage's service — the "real-time" the
  /// middleware protects. Sinks' values are the end-to-end figures.
  RunningStats packet_latency;
  std::uint64_t overload_exceptions_sent = 0;
  std::uint64_t underload_exceptions_sent = 0;
  std::uint64_t exceptions_received = 0;
  /// Final dtilde/C at end of run.
  double final_normalized_dtilde = 0;
  /// Replica pool accounting (1/1 for serial stages).
  std::size_t final_replicas = 1;
  std::size_t max_replicas_used = 1;
  /// (time, value) trajectory of each adjustment parameter.
  std::vector<std::pair<std::string, std::vector<std::pair<TimePoint, double>>>>
      parameter_trajectories;
};

/// One node failure and what the middleware did about it.
struct FailureReport {
  NodeId node = kInvalidNode;
  /// Stage the failure took down (one entry per affected stage).
  std::string stage;
  TimePoint failed_at = 0;
  /// When the failure detector declared the node down (lease expiry).
  TimePoint detected_at = 0;
  enum class Outcome {
    /// Failover disabled or replay exhausted: EOS raised on the stage's
    /// behalf, its in-flight data lost (the legacy degradation).
    kEosOnBehalf,
    /// Stage re-placed on a surviving node and replayed.
    kRecovered,
    /// Every re-placement attempt failed; degraded to EOS-on-behalf.
    kAbandoned,
    /// Run ended before the failover path resolved.
    kUnresolved,
  };
  Outcome outcome = Outcome::kUnresolved;
  /// Node hosting the replacement (kInvalidNode unless kRecovered).
  NodeId recovered_on = kInvalidNode;
  TimePoint recovered_at = 0;
  /// Re-placement attempts made (>= 1 once detection fired).
  std::size_t attempts = 0;
  /// Packets re-sent from upstream retention buffers.
  std::uint64_t packets_replayed = 0;
  /// Unacked packets evicted from bounded retention — the loss window.
  std::uint64_t packets_lost_retention = 0;

  Duration detection_latency() const { return detected_at - failed_at; }

  static const char* outcome_name(Outcome o) {
    switch (o) {
      case Outcome::kEosOnBehalf: return "eos-on-behalf";
      case Outcome::kRecovered: return "recovered";
      case Outcome::kAbandoned: return "abandoned";
      case Outcome::kUnresolved: return "unresolved";
    }
    return "?";
  }
};

struct LinkReport {
  std::string name;
  std::uint64_t messages_delivered = 0;
  std::uint64_t bytes_delivered = 0;
  /// Dropped by the link's loss process (kDrop impairments only).
  std::uint64_t messages_lost = 0;
  /// Extra transmissions charged by kRetransmit impairments.
  std::uint64_t messages_retransmitted = 0;
  double utilization = 0;
  Duration stalled_time = 0;
  RunningStats queue_length;
  std::uint64_t overload_exceptions_sent = 0;
  std::uint64_t underload_exceptions_sent = 0;
};

/// Packet-path allocation accounting over one run: start-to-end deltas of
/// the global PayloadArena counters plus ByteBuffer deep copies, reduced to
/// the steady-state figure the perf gate watches — heap allocations per
/// packet processed (pool/arena hits are not heap allocations; slab carves
/// and fallback blocks are).
struct AllocationReport {
  std::uint64_t pool_acquired = 0;
  std::uint64_t pool_recycled = 0;
  std::uint64_t pool_heap_fallback = 0;
  std::uint64_t pool_slab_allocs = 0;
  std::uint64_t payload_deep_copies = 0;
  /// Sum of stage packets_processed — the denominator below.
  std::uint64_t packets = 0;

  double hit_rate() const {
    return pool_acquired == 0
               ? 1.0
               : static_cast<double>(pool_recycled) /
                     static_cast<double>(pool_acquired);
  }
  double allocations_per_packet() const {
    return packets == 0 ? 0.0
                        : static_cast<double>(pool_slab_allocs +
                                              pool_heap_fallback) /
                              static_cast<double>(packets);
  }
};

/// The machine and engine configuration a run executed on, recorded into
/// every report (and therefore every $GATES_BENCH_JSON row): a throughput
/// figure from a 1-CPU CI container and one from a 32-core dev box are not
/// comparable, and the row must say which it was.
struct HostInfo {
  /// CPUs online and visible to this process (sysconf(_SC_NPROCESSORS_ONLN)).
  int cpus = 0;
  /// std::thread::hardware_concurrency() (0 when the runtime cannot tell).
  unsigned hardware_concurrency = 0;
  /// Whether worker threads were pinned to cores (RtEngine --pin).
  bool pinned = false;
  /// Idle strategy in effect ("spin" | "balanced" | "park"; "" for engines
  /// without one, i.e. the SimEngine).
  std::string idle;
  /// PayloadArena bytes on explicit huge-page mappings at end of run (0
  /// when the host reserves none and the arena fell back to THP/heap).
  std::uint64_t arena_hugepage_bytes = 0;

  /// cpus + hardware_concurrency of the running host; the engine fills in
  /// the configuration fields.
  static HostInfo detect();
};

struct RunReport {
  /// Virtual (SimEngine) or wall (RtEngine) seconds from start to the last
  /// stage finishing — the paper's "execution time".
  Duration execution_time = 0;
  bool completed = false;  // false = hit the time horizon before EOS
  std::uint64_t events_executed = 0;
  std::vector<StageReport> stages;
  std::vector<LinkReport> links;
  /// Node failures observed during the run, in failure-time order.
  std::vector<FailureReport> failures;
  /// Live migrations attempted during the run, in request-time order.
  std::vector<MigrationRecord> migrations;
  /// End-of-run MetricsRegistry snapshot (empty when metrics were disabled).
  obs::MetricsSnapshot metrics;
  /// Trace volume/drop accounting (all-zero when tracing was disabled) —
  /// records whether the persisted event log is complete.
  obs::TraceSummary trace_summary;
  /// End-of-run bottleneck ranking (empty when the Profiler was disabled).
  obs::BottleneckReport attribution;
  /// Packet-path allocation deltas (all-zero for engines that do not track
  /// them — currently populated by the RtEngine).
  AllocationReport allocation;
  /// Where and how the run executed.
  HostInfo host;

  const StageReport* stage(const std::string& name) const {
    for (const auto& s : stages) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }

  /// Machine-readable form of everything above, including the full parameter
  /// trajectories (gates_run --emit-report-json, bench artifacts).
  std::string to_json() const;
};

}  // namespace gates::core
