// Multi-process deployment: the gates_node daemon and its coordinator.
//
// A gates_node daemon is a ServiceContainer host on one process: it
// accepts one control connection, speaks RPC frames (wire.hpp) over it,
// and serves deploy / connect / start / status / report / shutdown. The
// coordinator (gates_run --daemons N, bench/wire_path, the dist-smoke CI
// job) spawns N daemons, ships them the *same* grid and application XML it
// parsed itself, and relies on deterministic deployment + partitioning
// (partition.hpp) so every process independently computes identical
// placement and channel maps — no serialized factories cross the wire,
// matching the paper's model of repositories resolving stage code locally
// at each grid node.
//
// Control-plane phases:
//   hello     version / liveness check
//   deploy    grid+app XML, process index, transport; the daemon launches,
//             partitions, takes its part, binds a TCP listener (or creates
//             the shm rings) per inbound channel, and answers with the
//             bound ports
//   connect   resolved peer endpoints; the daemon dials its outbound
//             channels and arms the inbound ones
//   start     builds the RtEngine over its part with the channel links in
//             Config::Remote and runs it on a background thread
//   status    pending | running | done | failed
//   report    the part's RunReport as JSON
//   shutdown  orderly exit
//
// Failure drill: the coordinator can SIGKILL a daemon mid-run and respawn
// it with the same channel ports (TCP only — a killed co-located process
// leaves its shm segments behind, so the shm transport does not support
// respawn). Peer egress links reconnect and replay their unacked retention
// tail, exercising the failover path across a real process boundary.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gates/common/status.hpp"

namespace gates::grid {

/// The deploy-phase payload, serialized as XML on the control channel.
struct NodeDeployRequest {
  std::string grid_text;
  std::string app_text;
  std::size_t process = 0;
  std::size_t processes = 1;
  std::string transport = "tcp";  // "tcp" | "shm"
  std::uint64_t seed = 42;
  double horizon = 0;
  bool adapt = true;
  bool failover = false;
  std::size_t retention = 256;        // in-process replay retention
  std::size_t wire_retention = 8192;  // per-egress-link retention ring
  std::size_t max_batch = 32;
  bool pin = false;
  std::string idle;  // "" = host default, else spin|balanced|park
  double control_period = 0;  // 0 = engine default
  double max_wall = 120;
  std::size_t shm_ring_bytes = 1u << 20;
  /// Channel id -> shm segment base name (coordinator-chosen, so both ends
  /// of a channel agree without negotiation).
  std::map<std::uint32_t, std::string> shm_bases;
  /// Channel id -> required TCP port for the inbound listener; absent or 0
  /// binds an ephemeral port. A respawn passes the original ports so peer
  /// egress links reconnect to the address they already hold.
  std::map<std::uint32_t, std::uint16_t> ingress_ports;
  /// Live migration (DESIGN.md §10): migrate `migrate_stage` at engine time
  /// `migrate_at` to `migrate_target` (SIZE_MAX = directory-chosen). Every
  /// daemon receives the same triple; the one hosting the stage schedules
  /// it, the rest ignore it. Deploy-time scheduling (rather than a runtime
  /// RPC) keeps the trigger deterministic and survives a respawn redeploy.
  std::string migrate_stage;
  double migrate_at = -1;  // < 0 disables
  std::size_t migrate_target = static_cast<std::size_t>(-1);

  std::string to_xml() const;
  static StatusOr<NodeDeployRequest> parse(const std::string& xml_text);
};

/// One daemon process (tools/gates_node.cpp is a thin main around this).
class NodeDaemon {
 public:
  struct Options {
    std::uint16_t control_port = 0;  // 0 = ephemeral
    /// The bound control port is written here (the coordinator polls it).
    std::string port_file;
    bool verbose = false;
  };

  /// Serves the control connection until shutdown or coordinator loss.
  static Status run(const Options& options);
};

/// Coordinator options (gates_run --daemons maps its flags here).
struct DistributedOptions {
  std::string grid_text;
  std::string app_text;
  std::size_t daemons = 2;
  std::string transport = "tcp";  // "tcp" | "shm"
  std::string node_bin;           // path to the gates_node binary
  std::uint64_t seed = 42;
  double horizon = 0;
  bool adapt = true;
  bool failover = false;
  std::size_t retention = 256;
  std::size_t wire_retention = 8192;
  std::size_t max_batch = 32;
  bool pin = false;
  std::string idle;
  double control_period = 0;
  double max_wall = 120;
  std::size_t shm_ring_bytes = 1u << 20;
  /// Kill daemon `first` with SIGKILL `second` seconds after start, then
  /// respawn it on the same ports (requires failover and tcp transport).
  std::optional<std::pair<std::size_t, double>> kill_daemon;
  /// Live migration: stage name, engine time, explicit target node
  /// (SIZE_MAX = let the directory pick). Empty stage disables.
  std::string migrate_stage;
  double migrate_at = -1;
  std::size_t migrate_target = static_cast<std::size_t>(-1);
  bool verbose = false;
};

struct DistributedResult {
  /// Merged JSON: run metadata plus every daemon's raw RunReport.
  std::string merged_report_json;
  /// Per-process raw RunReport JSON, indexed by process.
  std::vector<std::string> daemon_reports;
  bool completed = true;
  std::size_t respawns = 0;
  /// CHECKPOINT frames the coordinator observed on the control connections
  /// (daemon-side migration transfers) and their total body bytes.
  std::uint64_t checkpoint_frames = 0;
  std::uint64_t checkpoint_bytes = 0;
};

/// Spawns the daemons, drives the phases, waits for completion, merges the
/// reports and shuts everything down. Daemons are killed on error paths.
StatusOr<DistributedResult> run_distributed(const DistributedOptions& options);

}  // namespace gates::grid
