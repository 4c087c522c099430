// Real-time engine: runs a pipeline on actual threads with wall-clock
// bandwidth throttling — the closest in-process analogue of the paper's
// deployment (one JVM per stage, TCP links with introduced delay).
//
// Topology maps to one thread per source and per stage; stage input buffers
// are bounded queues; inter-node flows acquire wall-clock-paced tokens from
// a shared per-(src,dst) throttle before a blocking push, so both bandwidth
// limits and full buffers backpressure the sending thread exactly like a
// blocking socket send. The control thread runs the identical QueueMonitor
// / ParameterController code as the DES engine, on wall time.
//
// Use the SimEngine for experiments (deterministic, fast); use this engine
// to demonstrate the middleware on live threads and in soak tests.
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gates/common/clock.hpp"
#include "gates/common/idle_strategy.hpp"
#include "gates/common/status.hpp"
#include "gates/core/failover.hpp"
#include "gates/core/pipeline.hpp"
#include "gates/core/report.hpp"
#include "gates/net/link_shaper.hpp"
#include "gates/net/message.hpp"
#include "gates/net/remote_link.hpp"
#include "gates/net/topology.hpp"

namespace gates::core {

class RtEngine {
 public:
  struct Config {
    /// Control loop period in wall seconds (experiments are short, so the
    /// default is much tighter than the DES default).
    Duration control_period = 0.05;
    net::WireFormat wire;
    std::uint64_t seed = 1;
    bool adaptation_enabled = true;
    /// Watchdog: a run not finished after this many wall seconds is force-
    /// stopped and reported as incomplete.
    Duration max_wall_time = 120;
    /// Data-plane batching (see DESIGN.md "Zero-copy, batched data path").
    struct Batching {
      /// Max packets moved per queue/throttle/retention transaction.
      /// 1 restores the pre-batching per-packet behavior.
      std::size_t max_batch = 32;
      /// Sources flush their staged batch whenever the accumulated
      /// inter-arrival pacing debt reaches this many seconds, so slow
      /// sources (gap >= this) still emit packet-by-packet and pacing is
      /// distorted by at most one batch flush.
      double max_source_delay = 1e-3;
    };
    Batching batching;
    /// Fault tolerance. Disabled (default): a killed stage's thread exits
    /// silently and the control loop raises EOS on its behalf. Enabled: the
    /// worker publishes heartbeats, the control loop declares the stage dead
    /// after `suspicion_beats` missed beats, restarts it in place with a
    /// fresh processor, and replays the unacknowledged tail of every
    /// inbound flow from bounded retention.
    FailoverConfig failover;
    /// Thread-to-core placement. When `pin` is set, each pipeline node's
    /// worker threads (sources, serial stages, a pool's dispatcher and
    /// replicas) round-robin onto that node's core list, so a replica pool
    /// lands on one NUMA node and keeps its rings in a shared LLC.
    struct Placement {
      /// Master switch (gates_run --pin). Off by default: pinning is a
      /// deliberate act on a dedicated box, not a universal win.
      bool pin = false;
      /// Per pipeline-node core lists (index = node id, from the grid XML
      /// `cores` attribute). Empty with pin on: the process's allowed cores
      /// are partitioned contiguously across nodes. Pinning failures (bad
      /// id, restrictive cpuset, non-Linux) leave threads unpinned.
      std::vector<std::vector<int>> node_cores;
    };
    Placement thread_placement;
    /// Idle behavior for hot-path waits: stage inbox full/empty and merge
    /// window backpressure (spin -> yield -> park; see idle_strategy.hpp).
    /// Defaults to the host-adapted park mode: park at once when threads
    /// may use more than one CPU, yield 16 times first when they may use
    /// one (where a yield hands the core to the peer more cheaply).
    IdleConfig idle = IdleConfig::for_host();
    /// Cross-process transport endpoints (gates_node deployments). An
    /// egress link turns the indexed stage into a remote outlet: drained
    /// input is framed and sent instead of processed, with a local
    /// RetentionRing released by exact acks from the wire so replay works
    /// across a peer restart. An ingress link turns the indexed source
    /// into a remote inlet: its run loop decodes frames from the link and
    /// sends them through the source's outlet like any source's packets
    /// (throttle, retention, serving a parked target in place; never a
    /// shaper), acking upstream as items clear local processing. Both maps
    /// are empty for single-process runs.
    struct Remote {
      std::map<std::size_t, std::shared_ptr<net::RemoteLink>> egress_links;
      std::map<std::size_t, std::shared_ptr<net::RemoteLink>> ingress_links;
      /// Wire-side retention per egress link (unacked packets replayable
      /// after a peer restart).
      std::size_t retention_packets = 8192;
      /// How long an egress waits after sending EOS for the peer to ack
      /// everything before giving up (a crashed, never-revived peer).
      Duration eos_barrier_timeout = 10.0;
    };
    Remote remote;
    /// Live migration (DESIGN.md §10).
    struct Migration {
      /// How long the coordinator waits for the worker to reach its quiesce
      /// (ack) boundary before aborting the migration. The worker checks
      /// between batches, so the clean-path bound is ~heartbeat_period plus
      /// one batch's service time; a stuck worker aborts here instead.
      Duration quiesce_timeout = 5.0;
    };
    Migration migration;
  };

  RtEngine(PipelineSpec spec, Placement placement, HostModel hosts,
           net::Topology topology, Config config);
  ~RtEngine();
  RtEngine(const RtEngine&) = delete;
  RtEngine& operator=(const RtEngine&) = delete;

  /// Runs to completion (all sources bounded) or the watchdog.
  Status run();
  /// Runs unbounded sources for `seconds` of wall time, then winds down.
  Status run_for(Duration seconds);

  const RunReport& report() const { return report_; }
  StreamProcessor& processor(std::size_t stage_index);

  /// Live per-stage health as JSON: heartbeat/lease state ("alive",
  /// "suspect", "dead", "finished"), queue length, and active replicas.
  /// Thread-safe against a running engine (reads only atomics and
  /// internally locked queues) — this backs the introspection endpoint's
  /// /healthz route.
  std::string health_json();

  // -- replica pools (StageSpec::parallelism != kSerial) -----------------------
  /// Replicas currently active on a stage (1 for serial stages).
  std::size_t replica_count(std::size_t stage_index) const;
  /// One replica's processor instance. For pooled stages, processor(i)
  /// returns replica 0.
  StreamProcessor& replica_processor(std::size_t stage_index,
                                     std::size_t replica);
  /// Whether the stage's inbox took the lock-free SPSC fast path (test
  /// hook: a stage fed by a replicated upstream must NOT, since every
  /// replica is a distinct producer).
  bool stage_inbox_spsc(std::size_t stage_index) const;

  // -- link impairment ---------------------------------------------------------
  /// Replaces the LinkSpec (bandwidth, latency, impairments) of the flow
  /// from -> to while the engine runs. Thread-safe: chaos drivers call this
  /// from a second thread while run() blocks. Bandwidth always applies (the
  /// throttle gate re-rates); latency/impairments need the flow's shaper,
  /// which exists when the configured topology spec is already impaired or
  /// the flow was registered with prepare_link_change() before run().
  void apply_link_change(NodeId from, NodeId to, const net::LinkSpec& spec);
  /// Registers a flow for mid-run impairment: its shaper is built at setup
  /// even when the configured spec is clean. Must precede run(). Without
  /// this, a clean flow keeps the zero-overhead direct path and a later
  /// apply_link_change can only change its bandwidth.
  void prepare_link_change(NodeId from, NodeId to);

  // -- crash injection ---------------------------------------------------------
  /// At `t` wall seconds into the run, crash-stops every stage hosted on
  /// `node` (threads exit; queued input is lost). Must precede run().
  void schedule_node_failure(NodeId node, TimePoint t);
  /// Immediately crash-stops one stage. Thread-safe: tests call this from a
  /// second thread while run() blocks, to kill a stage mid-run.
  void kill_stage(std::size_t stage_index);

  /// Optional hook consulted when a crashed stage restarts: returns the
  /// factory building its replacement processor. Without one the stage's
  /// own spec factory is reused — fine for programmatic pipelines, but
  /// grid-deployed factories are single-shot service instances; wire a
  /// provider that restarts the instance (GatesServiceInstance::restart)
  /// there. Must precede run().
  using RecoveryFactoryProvider =
      std::function<ProcessorFactory(std::size_t stage_index)>;
  void set_recovery_factory_provider(RecoveryFactoryProvider provider);

  // -- live migration (DESIGN.md §10) -----------------------------------------
  /// Thread-safe: requests a live migration of the stage to `target`
  /// (kInvalidNode = re-matchmake via the migration provider / least-loaded
  /// policy). The control loop executes it on its next tick: quiesce the
  /// worker at a batch/ack boundary, checkpoint every replica, resume on
  /// the target placement with the inbox intact (the unacked tail never
  /// leaves the process). The MigrationRecord lands in report().migrations.
  /// Requires failover.enabled; aborts degrade to crash-failover.
  void request_migration(std::size_t stage_index, NodeId target = kInvalidNode);
  /// At `t` wall seconds into the run, migrates the stage (see above).
  /// Must precede run().
  void schedule_migration(std::size_t stage_index, TimePoint t,
                          NodeId target = kInvalidNode);
  /// Matchmaking for migration targets; without one, explicit targets are
  /// honored and kInvalidNode falls back to a least-loaded policy.
  void set_migration_provider(MigrationProvider provider);
  /// Chaos hook: force-fail the named protocol step of every migration.
  void set_migration_fault_injector(MigrationCoordinator::FaultInjector inject);
  /// Daemon mode: ships the captured checkpoint out of process (CHECKPOINT
  /// wire frame + exact ack) during the transfer step. Failure aborts the
  /// migration into crash-failover. Must precede run().
  using MigrationTransferHook =
      std::function<bool(const StageCheckpoint&, std::string& error)>;
  void set_migration_transfer(MigrationTransferHook hook);

 private:
  class StageWorker;
  class SourceWorker;
  struct ThrottleGate;
  struct ReplayChannel;
  /// One in-flight queue entry (packet + replay bookkeeping); shared by the
  /// stage and source data paths.
  struct FlowItem;
  /// Pooled parking lot for batches in transit through a LinkShaper: slots
  /// are recycled, so shaped sends stop allocating a shared_ptr'd vector
  /// per batch (see net::TransitSink).
  class TransitPool;
  /// One flow's send path (staging, batched or shaped sends, EOS); sources
  /// and stage routes use the same one.
  class Outlet;

  /// Workers signal this after setting their finished flag so the control
  /// loop wakes immediately instead of discovering completion up to one
  /// control period late (a visible bias on short benchmark runs).
  void notify_stage_finished();

  Status setup();
  Status execute(Duration source_horizon);
  std::shared_ptr<ThrottleGate> gate_for_flow(NodeId from, NodeId to);
  /// Canonical gate/shaper map key for a flow (loopback / shared-ingress /
  /// pair) plus the flow's configured topology spec.
  std::pair<std::pair<NodeId, NodeId>, net::LinkSpec> flow_key(
      NodeId from, NodeId to) const;
  /// The flow's impairment shaper, created lazily at setup; nullptr for
  /// clean flows that were not registered via prepare_link_change() — those
  /// keep the direct gate -> inbox path with zero added cost.
  std::shared_ptr<net::LinkShaper> shaper_for_flow(NodeId from, NodeId to);
  /// Control-loop pass over injected/killed stages: detects dead workers by
  /// heartbeat staleness, then restarts (failover on) or raises EOS on
  /// their behalf (failover off).
  void handle_failures(TimePoint run_started);
  void restart_stage(std::size_t stage_index, FailureReport& record);
  /// Control-loop pass over scheduled/requested migrations.
  void process_migrations(TimePoint run_started);
  /// Runs one migration through the MigrationCoordinator (control thread).
  void migrate_stage_now(std::size_t stage_index, NodeId target,
                         TimePoint run_started);
  /// Fallback matchmaking when no migration provider is installed:
  /// least_loaded_target over the live stages, as in the SimEngine.
  std::optional<ReplacementDecision> default_migration_target(
      std::size_t stage_index) const;
  /// Publishes every shaper's accumulated planned hold time into its link
  /// PhaseClock (overwrite — the shaper owns the running total).
  void store_link_phases();

  PipelineSpec spec_;
  Placement placement_;
  HostModel hosts_;
  net::Topology topology_;
  Config config_;

  Rng root_rng_;
  WallClock clock_;
  std::vector<std::unique_ptr<StageWorker>> stages_;
  std::vector<std::unique_ptr<SourceWorker>> sources_;
  std::map<std::pair<NodeId, NodeId>, std::shared_ptr<ThrottleGate>> gates_;
  /// Guards gates_/shapers_: read-mostly after setup, but a live migration
  /// (control thread) may lazily create the re-homed stage's flows while a
  /// chaos thread applies a link change.
  mutable std::mutex flow_mu_;
  /// Declared after stages_ so shaper threads are torn down (deliveries
  /// drained) while the stage workers they push into are still alive.
  std::map<std::pair<NodeId, NodeId>, std::shared_ptr<net::LinkShaper>>
      shapers_;
  std::set<std::pair<NodeId, NodeId>> prepared_flows_;
  std::uint64_t impair_stream_ = 0;  // Rng sub-stream per shaper
  struct NodeFailure {
    NodeId node;
    TimePoint time;
    bool fired = false;
  };
  std::vector<NodeFailure> node_failures_;
  std::vector<FailureReport> failures_;  // control thread only
  RecoveryFactoryProvider recovery_factory_provider_;
  struct TimedMigration {
    std::size_t stage;
    TimePoint time;
    NodeId target;
    bool fired = false;
  };
  std::vector<TimedMigration> timed_migrations_;  // control thread after setup
  std::mutex migration_mu_;  // guards pending_migrations_ (any thread -> control)
  std::vector<std::pair<std::size_t, NodeId>> pending_migrations_;
  std::vector<MigrationRecord> migration_records_;  // control thread only
  MigrationProvider migration_provider_;
  MigrationCoordinator::FaultInjector migration_fault_injector_;
  MigrationTransferHook migration_transfer_;
  /// Atomic so health_json() (introspection thread) can check it against a
  /// concurrently running setup().
  std::atomic<bool> setup_done_{false};
  /// Completion wakeup (see notify_stage_finished()).
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  RunReport report_;
};

}  // namespace gates::core
