// Pipeline topology: sources, stages and edges.
//
// Applications "comprise a set of stages... the first stage is applied near
// sources of individual streams, and the second stage is used for computing
// the final results" (paper §3.1, goal 2). A PipelineSpec is pure
// configuration; engines instantiate it, and the grid Deployer assigns
// stages to nodes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "gates/common/properties.hpp"
#include "gates/common/rng.hpp"
#include "gates/common/status.hpp"
#include "gates/common/types.hpp"
#include "gates/core/adapt/controller.hpp"
#include "gates/core/adapt/queue_monitor.hpp"
#include "gates/core/cost_model.hpp"
#include "gates/core/packet.hpp"
#include "gates/core/processor.hpp"

namespace gates::core {

/// Builds a data packet for sequence number `seq`. Engines own one Rng per
/// source; generators must be pure in (seq, rng state).
using PacketGenerator = std::function<Packet(std::uint64_t seq, Rng& rng)>;

struct SourceSpec {
  std::string name = "source";
  StreamId stream = 0;
  /// Packets emitted per second. Deterministic inter-arrival of 1/rate by
  /// default; poisson = true draws exponential gaps instead.
  double rate_hz = 100;
  bool poisson = false;
  /// Number of packets before EOS; 0 means unbounded (run_for engines stop
  /// on the time horizon instead).
  std::uint64_t total_packets = 0;
  /// Payload size used when `generator` is not set (zero-filled payload).
  std::size_t packet_bytes = 64;
  /// Optional payload factory.
  PacketGenerator generator;
  /// Provenance of `generator` when it came from a GeneratorRegistry (the
  /// <source type=.../> of a config): lets tooling serialize the source
  /// back to XML. Empty for hand-written closures.
  std::string generator_type;
  Properties generator_properties;
  /// Node hosting the source (instruments are physically placed).
  NodeId location = 0;
  /// Index into PipelineSpec::stages of the stage consuming this source.
  std::size_t target_stage = 0;
};

/// Resource requirements the Deployer matches against grid nodes.
struct ResourceRequirement {
  double min_cpu_factor = 0;
  double min_memory_mb = 0;
};

struct StageSpec {
  std::string name = "stage";
  /// Repository URI of the processor code (resolved by the grid Deployer),
  /// e.g. "builtin://count-samps-summary". Ignored when `factory` is set.
  std::string processor_uri;
  /// Direct factory for programmatic (non-grid) construction.
  ProcessorFactory factory;
  /// Free-form configuration passed to the processor via its context.
  Properties properties;
  /// Service-time model for this stage's processing.
  CostModel cost;
  /// Input buffer capacity in packets (the queue the monitor watches).
  std::size_t input_capacity = 200;
  /// Send-buffer depth, in seconds of backlog on any outbound link: when a
  /// link this stage sends on has more queued than this, the stage stops
  /// consuming input until it drains — the DES rendering of a blocking
  /// socket send. Backpressure then surfaces as the stage's own queue
  /// growing, which is what the Section-4 algorithm reacts to.
  double send_buffer_seconds = 3.0;
  adapt::QueueMonitorConfig monitor;
  adapt::ControllerConfig controller;
  ResourceRequirement requirement;
  /// Replication declaration (serial, stateless pool, or keyed shards).
  Parallelism parallelism;
  /// Named built-in shard key ("sequence" | "stream") for keyed stages that
  /// come from XML configs — kept so the writer can round-trip it.
  /// Programmatic pipelines set parallelism.shard_fn directly and leave
  /// this empty.
  std::string parallelism_key;
  /// Pin to a specific node; kInvalidNode lets the Deployer choose.
  NodeId placement_hint = kInvalidNode;
};

/// Directed stage-to-stage connection: packets the upstream stage emits on
/// `port` flow to the downstream stage's input buffer.
struct EdgeSpec {
  std::size_t from_stage = 0;
  std::size_t to_stage = 0;
  std::size_t port = 0;
};

struct PipelineSpec {
  std::string name = "pipeline";
  std::vector<SourceSpec> sources;
  std::vector<StageSpec> stages;
  std::vector<EdgeSpec> edges;

  /// Checks indices, acyclicity, and that every stage is fed (directly or
  /// transitively) by at least one source.
  Status validate() const;

  /// Stage indices in a topological order (valid only after validate()).
  std::vector<std::size_t> topological_order() const;

  /// Downstream edges of one stage.
  std::vector<EdgeSpec> edges_from(std::size_t stage) const;
  /// Number of inputs (source and stage edges) feeding one stage.
  std::size_t fan_in(std::size_t stage) const;
};

/// Per-stage placement produced by the Deployer (or written by hand in
/// tests): placement[i] is the node hosting stage i.
struct Placement {
  std::vector<NodeId> stage_nodes;
};

/// CPU speed model of the hosting nodes: service times divide by the
/// factor. Missing entries default to 1.0.
struct HostModel {
  std::vector<double> cpu_factor;
  /// Core budget per node: the ceiling on how many stage replicas the
  /// adaptation controller may run on that host. Missing entries default
  /// to `default_cores`.
  std::vector<std::size_t> cores;
  std::size_t default_cores = 4;

  double at(NodeId node) const {
    if (node < cpu_factor.size()) return cpu_factor[node];
    return 1.0;
  }

  std::size_t cores_at(NodeId node) const {
    if (node < cores.size() && cores[node] > 0) return cores[node];
    return default_cores;
  }
};

}  // namespace gates::core
