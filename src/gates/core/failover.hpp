// Fault-tolerance configuration shared by both engines.
//
// Fault model (see DESIGN.md "Fault model"): nodes are crash-stop — a
// failed node silently stops processing and blackholes traffic. A
// heartbeat/lease failure detector declares the node down after K missed
// beats; the middleware then re-places each stage the node hosted onto a
// surviving node (retrying with exponential backoff while no candidate
// qualifies) and replays the bounded per-flow retention buffers, giving
// at-least-once delivery with a loss window bounded by the retention depth.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include <string>

#include "gates/common/retry_policy.hpp"
#include "gates/common/types.hpp"
#include "gates/core/pipeline.hpp"
#include "gates/core/processor.hpp"
#include "gates/obs/trace.hpp"

namespace gates::core {

struct FailoverConfig {
  /// Master switch. Disabled (the default) preserves the legacy behavior:
  /// a crashed stage blackholes its input and EOS is raised on its behalf.
  bool enabled = false;
  /// Heartbeat period of the failure detector (virtual seconds in the
  /// SimEngine, wall seconds in the RtEngine).
  Duration heartbeat_period = 0.5;
  /// Missed beats before a node is suspected dead (lease = period * beats).
  std::size_t suspicion_beats = 3;
  /// Per-flow retention: each inter-stage flow keeps this many unacked
  /// packets for replay after failover. Packets evicted beyond this depth
  /// are the (bounded) loss window. 0 disables replay.
  std::size_t replay_buffer_packets = 256;
  /// Backoff schedule for re-placement attempts when no node qualifies.
  RetryPolicy retry;

  /// The lease the failure detector grants before declaring a node dead.
  Duration lease() const {
    return heartbeat_period * static_cast<double>(suspicion_beats);
  }
};

/// Minimum suspicion_beats so the lease covers the worst-case one-way
/// heartbeat delay (propagation + jitter + reorder hold-back) with a safety
/// factor of 2: a heartbeat leaves up to one period after its predecessor
/// and may be delayed a full worst-case delay more than it, so a lease of
/// period + 2*worst is the false-positive-free floor; we round beats up.
inline std::size_t lease_beats_for_delay(Duration heartbeat_period,
                                         Duration worst_one_way,
                                         std::size_t configured_beats) {
  if (worst_one_way <= 0 || heartbeat_period <= 0) return configured_beats;
  const Duration needed = heartbeat_period + 2.0 * worst_one_way;
  std::size_t beats = static_cast<std::size_t>(needed / heartbeat_period);
  if (static_cast<double>(beats) * heartbeat_period < needed) ++beats;
  return beats > configured_beats ? beats : configured_beats;
}

/// What a re-placement (matchmaking) round decided for one crashed stage.
struct ReplacementDecision {
  NodeId node = kInvalidNode;
  /// Fresh code for the replacement instance. Empty = the engine reuses the
  /// stage's own factory (fine for programmatic pipelines; grid-deployed
  /// pipelines need a new service instance, which Deployer::replace_stage
  /// provides).
  ProcessorFactory factory;
};

/// The least-loaded placement both engines fall back on without a
/// provider (SimEngine re-placement, RtEngine migration). Candidates are the
/// nodes the pipeline knows — host ids, the stages' current nodes
/// (`stage_nodes`) and the source locations — that `usable` accepts. The
/// pick hosts the fewest stages i with live(i), ties to the lowest id;
/// nullopt when no candidate remains. Deterministic for equal inputs.
std::optional<ReplacementDecision> least_loaded_target(
    const PipelineSpec& spec, const HostModel& hosts,
    const std::vector<NodeId>& stage_nodes,
    const std::function<bool(NodeId)>& usable,
    const std::function<bool(std::size_t stage)>& live);

/// Re-runs matchmaking for `stage_index` against nodes not in `down` and
/// returns the decision, or nullopt when no node currently qualifies (the
/// engine retries per RetryPolicy). Must be deterministic for SimEngine
/// runs to stay reproducible.
using ReplacementProvider = std::function<std::optional<ReplacementDecision>(
    std::size_t stage_index, const std::vector<NodeId>& down)>;

/// Matchmaking for a proactive migration of `stage_index`: returns the
/// landing placement, honoring `target` when the caller pinned one
/// (kInvalidNode = re-matchmake, e.g. ResourceDirectory::find_better_than),
/// or nullopt when nothing qualifies — the migration then aborts in place.
using MigrationProvider = std::function<std::optional<ReplacementDecision>(
    std::size_t stage_index, NodeId target)>;

// -- telemetry hooks shared by both engines' failover paths ------------------

/// One failover span on the stage's trace track: crash -> resolution, with
/// the replay/loss accounting in the numeric payload.
inline void trace_failover_span(const std::string& stage, TimePoint failed_at,
                                TimePoint resolved_at, NodeId node,
                                std::uint64_t replayed, std::uint64_t lost) {
  GATES_TRACE(.time = failed_at, .duration = resolved_at - failed_at,
              .kind = obs::TraceKind::kFailoverSpan, .component = stage,
              .detail = "node " + std::to_string(node),
              .value_old = static_cast<double>(replayed),
              .value_new = static_cast<double>(lost));
}

/// Heartbeat/lease state transition of the failure detector
/// (alive -> suspect -> dead, or back to alive after a revival).
inline void trace_heartbeat_transition(const std::string& stage, TimePoint t,
                                       const char* state) {
  GATES_TRACE(.time = t, .kind = obs::TraceKind::kHeartbeat,
              .component = stage, .detail = state);
}

}  // namespace gates::core
