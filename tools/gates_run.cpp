// gates_run — the command-line face of the middleware: load a grid
// description and an application configuration, launch through the
// Launcher/Deployer, run on the chosen engine, and print the run report.
//
//   gates_run --grid configs/grid_demo.xml --app configs/count_samps.xml
//   gates_run --grid g.xml --app a.xml --engine rt --horizon 5
//
// Flags:
//   --grid FILE        grid description XML (required)
//   --app FILE         application configuration XML (required)
//   --engine sim|rt    engine selection (default sim)
//   --horizon SECONDS  run_for horizon; 0 = run to completion (default 0)
//   --seed N           RNG seed (default 42)
//   --control-period S adaptation period (default 1.0 sim / 0.05 rt)
//   --wire-message N   per-message wire overhead bytes (default 32)
//   --wire-record N    per-record wire overhead bytes (default 0)
//   --no-adapt         disable parameter adaptation (monitors still run)
//   --failover         enable failure detection + stage failover + replay
//   --retention N      replay retention per flow, in packets (default 256)
//   --kill-node N@T    crash node N at T seconds into the run (repeatable)
//   --recover-node N@T return node N to the candidate pool at T (sim only)
//   --replicas S=N     run stage S as N replica workers (repeatable); a
//                      serial stage is promoted to a stateless pool
//   --link A-B=BW:DELAY:LOSS  override the directed link from node A to node
//                      B (bytes/s, seconds, loss probability in retransmit
//                      mode; repeatable)
//   --chaos NAME       run a chaos scenario against the deployed pipeline's
//                      first inter-node flow (degrade, flap, partition,
//                      asymmetric, slow-start-burst, crash-flap); invariant
//                      verdicts print after the run and failures exit 1
//   --chaos-report FILE  write the chaos RunReport + verdicts as JSON
//   --migrate STAGE@T[:NODE]  live-migrate stage STAGE at T seconds into the
//                      run, to node NODE or the directory's best candidate
//                      (repeatable; requires --failover). The stage is
//                      quiesced at an ack boundary, checkpointed, and
//                      resumed on the target with state intact; an abort at
//                      any step degrades to the crash-failover path
//   --verbose          middleware INFO logging
//
// Multi-process deployment (rt engine only; see grid/node_remote.hpp):
//   --daemons N        split the pipeline across N gates_node daemon
//                      processes (node id % N picks the process) connected
//                      by the wire transports, and run it there
//   --transport T      inter-daemon transport: tcp (default) or shm
//   --node-bin PATH    gates_node binary (default: next to this binary)
//   --kill-daemon K@T  SIGKILL daemon K at T seconds, then respawn it on
//                      the same ports (requires --failover and tcp): the
//                      cross-process failover/replay drill
//
// Telemetry artifacts (each flag enables the subsystem behind it):
//   --metrics-out FILE      Prometheus text dump of the metrics registry
//   --events-out FILE       JSONL trace event log
//   --trace-out FILE        Chrome trace_event JSON (chrome://tracing, Perfetto)
//   --trace-buffer N        trace buffer capacity in events (default 65536)
//   --trace-sample N        causal packet tracing, 1-in-N packets (0 = off;
//                           sampled hops render as Perfetto flows)
//   --attribution-out FILE  bottleneck attribution report as JSON
//   --introspect-port N     serve /metrics /healthz /trace /attribution over
//                           HTTP on 127.0.0.1:N while the run is live
//   --emit-report-json FILE full RunReport as JSON
//   --print-trajectories    print every (t, value) parameter sample
//   --pin                   pin rt-engine threads to cores: the grid's
//                           <node cores="0,2,4-7"> lists when given, else a
//                           contiguous partition of the allowed cores
//   --idle MODE             hot-path wait behavior: spin | balanced | park
//                           (default: park, host-adapted: at once on a
//                           multi-CPU mask, after 16 yields on one CPU)
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "gates/apps/registration.hpp"
#include "gates/chaos/runner.hpp"
#include "gates/chaos/scenario.hpp"
#include "gates/common/log.hpp"
#include "gates/common/string_util.hpp"
#include "gates/core/rt_engine.hpp"
#include "gates/core/sim_engine.hpp"
#include "gates/grid/grid_config.hpp"
#include "gates/grid/launcher.hpp"
#include "gates/grid/node_remote.hpp"
#include "gates/obs/exporters.hpp"
#include "gates/obs/introspect.hpp"
#include "gates/obs/metrics.hpp"
#include "gates/obs/profiler.hpp"
#include "gates/obs/trace.hpp"
#include "gates/obs/trace_context.hpp"

namespace {

using namespace gates;

struct Options {
  std::string grid_file;
  std::string app_file;
  std::string engine = "sim";
  double horizon = 0;
  std::uint64_t seed = 42;
  std::optional<double> control_period;
  std::size_t wire_message = 32;
  std::size_t wire_record = 0;
  bool adapt = true;
  bool failover = false;
  std::size_t retention = 256;
  std::vector<std::pair<NodeId, double>> kill_nodes;
  std::vector<std::pair<NodeId, double>> recover_nodes;
  std::vector<std::pair<std::string, std::size_t>> replicas;
  struct LinkOverride {
    NodeId from;
    NodeId to;
    double bandwidth;
    double delay;
    double loss;
  };
  std::vector<LinkOverride> links;
  struct MigrateSpec {
    std::string stage;
    double at = 0;
    NodeId target = kInvalidNode;  // kInvalidNode = directory picks
  };
  std::vector<MigrateSpec> migrations;
  std::string chaos;
  std::string chaos_report;
  /// Multi-process deployment: > 0 runs the pipeline across this many
  /// gates_node daemons instead of in-process.
  std::size_t daemons = 0;
  std::string transport = "tcp";
  std::string node_bin;
  std::optional<std::pair<std::size_t, double>> kill_daemon;
  bool verbose = false;
  std::string metrics_out;
  std::string events_out;
  std::string trace_out;
  std::string attribution_out;
  std::string report_json_out;
  std::size_t trace_buffer = 0;  // 0 = TraceBuffer::kDefaultCapacity
  std::uint64_t trace_sample = 0;  // 0 = causal packet tracing off
  int introspect_port = -1;  // -1 = no endpoint; 0 = ephemeral port
  bool print_trajectories = false;
  /// Thread-to-core pinning (rt engine): stage/source/control threads are
  /// pinned per the grid's <node cores="..."> lists, or a contiguous
  /// partition of the process's allowed cores when no lists are given.
  bool pin = false;
  /// Idle strategy override for hot-path waits ("spin", "balanced",
  /// "park"); empty keeps the host-adapted default.
  std::string idle;
};

/// Parses "STAGE=N", e.g. "detect=4".
bool parse_stage_count(const char* text,
                       std::pair<std::string, std::size_t>& out) {
  const std::string s = text;
  const auto eq = s.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  long long n;
  if (!parse_int(s.substr(eq + 1), n) || n <= 0) return false;
  out = {s.substr(0, eq), static_cast<std::size_t>(n)};
  return true;
}

/// Parses "NODE@TIME", e.g. "2@5.5".
bool parse_node_time(const char* text, std::pair<NodeId, double>& out) {
  const std::string s = text;
  const auto at = s.find('@');
  if (at == std::string::npos) return false;
  long long node;
  double t;
  if (!parse_int(s.substr(0, at), node) || node < 0) return false;
  if (!parse_double(s.substr(at + 1), t) || t < 0) return false;
  out = {static_cast<NodeId>(node), t};
  return true;
}

/// Parses "STAGE@T" or "STAGE@T:NODE", e.g. "count@2.5" / "count@2.5:3".
bool parse_migrate(const char* text, Options::MigrateSpec& out) {
  const std::string s = text;
  const auto at = s.find('@');
  if (at == std::string::npos || at == 0) return false;
  Options::MigrateSpec m;
  m.stage = s.substr(0, at);
  std::string rest = s.substr(at + 1);
  const auto colon = rest.find(':');
  if (colon != std::string::npos) {
    long long node;
    if (!parse_int(rest.substr(colon + 1), node) || node < 0) return false;
    m.target = static_cast<NodeId>(node);
    rest = rest.substr(0, colon);
  }
  if (!parse_double(rest, m.at) || m.at < 0) return false;
  out = m;
  return true;
}

/// Parses "A-B=BW:DELAY:LOSS", e.g. "1-0=50e3:0.1:0.02".
bool parse_link_override(const char* text, Options::LinkOverride& out) {
  const std::string s = text;
  const auto dash = s.find('-');
  const auto eq = s.find('=');
  if (dash == std::string::npos || eq == std::string::npos || dash > eq)
    return false;
  long long from, to;
  if (!parse_int(s.substr(0, dash), from) || from < 0) return false;
  if (!parse_int(s.substr(dash + 1, eq - dash - 1), to) || to < 0) return false;
  const std::string rest = s.substr(eq + 1);
  const auto c1 = rest.find(':');
  if (c1 == std::string::npos) return false;
  const auto c2 = rest.find(':', c1 + 1);
  if (c2 == std::string::npos) return false;
  Options::LinkOverride lo;
  lo.from = static_cast<NodeId>(from);
  lo.to = static_cast<NodeId>(to);
  if (!parse_double(rest.substr(0, c1), lo.bandwidth) || lo.bandwidth <= 0)
    return false;
  if (!parse_double(rest.substr(c1 + 1, c2 - c1 - 1), lo.delay) || lo.delay < 0)
    return false;
  if (!parse_double(rest.substr(c2 + 1), lo.loss) || lo.loss < 0 ||
      lo.loss > 1)
    return false;
  out = lo;
  return true;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --grid FILE --app FILE [--engine sim|rt] "
               "[--horizon S] [--seed N]\n"
               "       [--control-period S] [--wire-message N] "
               "[--wire-record N] [--no-adapt] [--verbose]\n"
               "       [--failover] [--retention N] [--kill-node N@T] "
               "[--recover-node N@T] [--replicas STAGE=N]\n"
               "       [--link A-B=BW:DELAY:LOSS] [--chaos NAME] "
               "[--chaos-report FILE] [--migrate STAGE@T[:NODE]]\n"
               "       [--metrics-out FILE] [--events-out FILE] "
               "[--trace-out FILE] [--trace-buffer N]\n"
               "       [--trace-sample N] [--attribution-out FILE] "
               "[--introspect-port N]\n"
               "       [--emit-report-json FILE] [--print-trajectories]\n"
               "       [--pin] [--idle spin|balanced|park]\n"
               "       [--daemons N] [--transport tcp|shm] [--node-bin PATH] "
               "[--kill-daemon K@T]\n"
               "chaos scenarios:",
               argv0);
  for (const std::string& name : gates::chaos::scenario_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// gates_node is expected to sit next to gates_run unless --node-bin says
/// otherwise.
std::string default_node_bin() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "gates_node";
  buf[n] = '\0';
  const std::string self(buf);
  const auto slash = self.rfind('/');
  if (slash == std::string::npos) return "gates_node";
  return self.substr(0, slash + 1) + "gates_node";
}

/// The multi-process path: hand everything to the coordinator and report.
int run_with_daemons(const Options& options, const std::string& grid_text,
                     const std::string& app_text) {
  if (options.engine != "rt") {
    std::fprintf(stderr, "--daemons requires --engine rt\n");
    return 2;
  }
  if (!options.chaos.empty() || !options.replicas.empty() ||
      !options.kill_nodes.empty() || !options.links.empty()) {
    std::fprintf(stderr,
                 "--chaos/--replicas/--kill-node/--link are not supported "
                 "with --daemons\n");
    return 2;
  }
  grid::DistributedOptions dopts;
  dopts.grid_text = grid_text;
  dopts.app_text = app_text;
  dopts.daemons = options.daemons;
  dopts.transport = options.transport;
  dopts.node_bin =
      options.node_bin.empty() ? default_node_bin() : options.node_bin;
  dopts.seed = options.seed;
  dopts.horizon = options.horizon;
  dopts.adapt = options.adapt;
  dopts.failover = options.failover;
  dopts.retention = options.retention;
  dopts.pin = options.pin;
  dopts.idle = options.idle;
  if (options.control_period) dopts.control_period = *options.control_period;
  dopts.kill_daemon = options.kill_daemon;
  if (!options.migrations.empty()) {
    if (options.migrations.size() > 1) {
      std::fprintf(stderr, "--daemons supports a single --migrate\n");
      return 2;
    }
    dopts.migrate_stage = options.migrations[0].stage;
    dopts.migrate_at = options.migrations[0].at;
    dopts.migrate_target = options.migrations[0].target == kInvalidNode
                               ? static_cast<std::size_t>(-1)
                               : options.migrations[0].target;
  }
  dopts.verbose = options.verbose;
  std::printf("distributed: %zu daemons over %s (%s)\n", dopts.daemons,
              dopts.transport.c_str(), dopts.node_bin.c_str());
  auto result = grid::run_distributed(dopts);
  if (!result.ok()) {
    std::fprintf(stderr, "distributed run: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }
  std::printf("distributed run %s (%zu respawns)\n",
              result->completed ? "completed" : "FAILED", result->respawns);
  if (!options.report_json_out.empty()) {
    if (auto s = obs::write_text_file(options.report_json_out,
                                      result->merged_report_json);
        !s.is_ok()) {
      std::fprintf(stderr, "artifact: %s\n", s.to_string().c_str());
      return 1;
    }
  }
  return result->completed ? 0 : 1;
}

/// Resolves --migrate stage names against the launched pipeline and arms
/// the engine's schedule. Unknown names are a usage error.
template <typename Engine>
bool schedule_migrations(const Options& options,
                         const core::PipelineSpec& pipeline, Engine& engine) {
  for (const auto& m : options.migrations) {
    const auto it =
        std::find_if(pipeline.stages.begin(), pipeline.stages.end(),
                     [&](const core::StageSpec& s) { return s.name == m.stage; });
    if (it == pipeline.stages.end()) {
      std::fprintf(stderr, "--migrate: no stage named '%s'\n",
                   m.stage.c_str());
      return false;
    }
    engine.schedule_migration(
        static_cast<std::size_t>(it - pipeline.stages.begin()), m.at,
        m.target);
    std::printf("  migrate '%s' at t=%.2f%s\n", m.stage.c_str(), m.at,
                m.target == kInvalidNode ? " (directory picks the target)"
                                         : "");
  }
  return true;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--grid") {
      const char* v = next();
      if (!v) return false;
      options.grid_file = v;
    } else if (arg == "--app") {
      const char* v = next();
      if (!v) return false;
      options.app_file = v;
    } else if (arg == "--engine") {
      const char* v = next();
      if (!v) return false;
      options.engine = v;
    } else if (arg == "--horizon") {
      const char* v = next();
      if (!v || !parse_double(v, options.horizon)) return false;
    } else if (arg == "--seed") {
      const char* v = next();
      long long seed;
      if (!v || !parse_int(v, seed) || seed < 0) return false;
      options.seed = static_cast<std::uint64_t>(seed);
    } else if (arg == "--control-period") {
      const char* v = next();
      double period;
      if (!v || !parse_double(v, period) || period <= 0) return false;
      options.control_period = period;
    } else if (arg == "--wire-message") {
      const char* v = next();
      long long n;
      if (!v || !parse_int(v, n) || n < 0) return false;
      options.wire_message = static_cast<std::size_t>(n);
    } else if (arg == "--wire-record") {
      const char* v = next();
      long long n;
      if (!v || !parse_int(v, n) || n < 0) return false;
      options.wire_record = static_cast<std::size_t>(n);
    } else if (arg == "--no-adapt") {
      options.adapt = false;
    } else if (arg == "--failover") {
      options.failover = true;
    } else if (arg == "--retention") {
      const char* v = next();
      long long n;
      if (!v || !parse_int(v, n) || n < 0) return false;
      options.retention = static_cast<std::size_t>(n);
    } else if (arg == "--kill-node") {
      const char* v = next();
      std::pair<NodeId, double> nt;
      if (!v || !parse_node_time(v, nt)) return false;
      options.kill_nodes.push_back(nt);
    } else if (arg == "--recover-node") {
      const char* v = next();
      std::pair<NodeId, double> nt;
      if (!v || !parse_node_time(v, nt)) return false;
      options.recover_nodes.push_back(nt);
    } else if (arg == "--replicas") {
      const char* v = next();
      std::pair<std::string, std::size_t> sc;
      if (!v || !parse_stage_count(v, sc)) return false;
      options.replicas.push_back(sc);
    } else if (arg == "--link") {
      const char* v = next();
      Options::LinkOverride lo;
      if (!v || !parse_link_override(v, lo)) return false;
      options.links.push_back(lo);
    } else if (arg == "--migrate") {
      const char* v = next();
      Options::MigrateSpec m;
      if (!v || !parse_migrate(v, m)) return false;
      options.migrations.push_back(m);
    } else if (arg == "--chaos") {
      const char* v = next();
      if (!v) return false;
      options.chaos = v;
    } else if (arg == "--chaos-report") {
      const char* v = next();
      if (!v) return false;
      options.chaos_report = v;
    } else if (arg == "--daemons") {
      const char* v = next();
      long long n;
      if (!v || !parse_int(v, n) || n < 0) return false;
      options.daemons = static_cast<std::size_t>(n);
    } else if (arg == "--transport") {
      const char* v = next();
      if (!v) return false;
      options.transport = v;
      if (options.transport != "tcp" && options.transport != "shm") {
        std::fprintf(stderr, "--transport must be tcp or shm\n");
        return false;
      }
    } else if (arg == "--node-bin") {
      const char* v = next();
      if (!v) return false;
      options.node_bin = v;
    } else if (arg == "--kill-daemon") {
      const char* v = next();
      std::pair<NodeId, double> nt;
      if (!v || !parse_node_time(v, nt)) return false;
      options.kill_daemon = {static_cast<std::size_t>(nt.first), nt.second};
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return false;
      options.metrics_out = v;
    } else if (arg == "--events-out") {
      const char* v = next();
      if (!v) return false;
      options.events_out = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return false;
      options.trace_out = v;
    } else if (arg == "--trace-buffer") {
      const char* v = next();
      long long n;
      if (!v || !parse_int(v, n) || n <= 0) return false;
      options.trace_buffer = static_cast<std::size_t>(n);
    } else if (arg == "--trace-sample") {
      const char* v = next();
      long long n;
      if (!v || !parse_int(v, n) || n < 0) return false;
      options.trace_sample = static_cast<std::uint64_t>(n);
    } else if (arg == "--attribution-out") {
      const char* v = next();
      if (!v) return false;
      options.attribution_out = v;
    } else if (arg == "--introspect-port") {
      const char* v = next();
      long long n;
      if (!v || !parse_int(v, n) || n < 0 || n > 65535) return false;
      options.introspect_port = static_cast<int>(n);
    } else if (arg == "--emit-report-json") {
      const char* v = next();
      if (!v) return false;
      options.report_json_out = v;
    } else if (arg == "--print-trajectories") {
      options.print_trajectories = true;
    } else if (arg == "--pin") {
      options.pin = true;
    } else if (arg == "--idle") {
      const char* v = next();
      if (!v) return false;
      options.idle = v;
      if (options.idle != "spin" && options.idle != "balanced" &&
          options.idle != "park") {
        std::fprintf(stderr, "--idle must be spin, balanced or park\n");
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return false;
    }
  }
  return !options.grid_file.empty() && !options.app_file.empty() &&
         (options.engine == "sim" || options.engine == "rt");
}

void print_report(const core::RunReport& report) {
  std::printf("\nexecution time: %.2f s%s\n", report.execution_time,
              report.completed ? "" : "  (INCOMPLETE: horizon reached)");
  std::printf("%-14s %5s %10s %10s %9s %11s %11s %9s\n", "stage", "node",
              "processed", "emitted", "queue~", "latency~ms", "latencyMax",
              "excpt i/o");
  for (const auto& stage : report.stages) {
    std::printf(
        "%-14s %5u %10llu %10llu %9.1f %11.1f %11.1f %4llu/%llu\n",
        stage.name.c_str(), stage.node,
        static_cast<unsigned long long>(stage.packets_processed),
        static_cast<unsigned long long>(stage.packets_emitted),
        stage.queue_length.mean(), stage.packet_latency.mean() * 1e3,
        stage.packet_latency.max() * 1e3,
        static_cast<unsigned long long>(stage.exceptions_received),
        static_cast<unsigned long long>(stage.overload_exceptions_sent +
                                        stage.underload_exceptions_sent));
    for (const auto& [name, trajectory] : stage.parameter_trajectories) {
      if (trajectory.empty()) continue;
      std::printf("  %-12s %.4g -> %.4g over %zu control periods\n",
                  name.c_str(), trajectory.front().second,
                  trajectory.back().second, trajectory.size());
    }
  }
  if (!report.links.empty()) {
    std::printf("%-24s %10s %12s %8s %9s\n", "link", "messages", "bytes",
                "util", "stalled s");
    for (const auto& link : report.links) {
      std::printf("%-24s %10llu %12llu %7.1f%% %9.1f\n", link.name.c_str(),
                  static_cast<unsigned long long>(link.messages_delivered),
                  static_cast<unsigned long long>(link.bytes_delivered),
                  100 * link.utilization, link.stalled_time);
    }
  }
  if (!report.failures.empty()) {
    std::printf("%-14s %5s %9s %9s %-14s %8s %9s %6s\n", "failed stage",
                "node", "at", "detect s", "outcome", "replayed", "lost", "tries");
    for (const auto& f : report.failures) {
      char where[32] = "";
      if (f.outcome == core::FailureReport::Outcome::kRecovered) {
        std::snprintf(where, sizeof(where), " -> node %u at %.2f",
                      f.recovered_on, f.recovered_at);
      }
      std::printf("%-14s %5u %9.2f %9.2f %-14s %8llu %9llu %6zu%s\n",
                  f.stage.c_str(), f.node, f.failed_at, f.detection_latency(),
                  core::FailureReport::outcome_name(f.outcome),
                  static_cast<unsigned long long>(f.packets_replayed),
                  static_cast<unsigned long long>(f.packets_lost_retention),
                  f.attempts, where);
    }
  }
  if (!report.migrations.empty()) {
    std::printf("%-14s %11s %9s %11s %9s %8s %-10s %s\n", "migrated stage",
                "nodes", "at", "downtime ms", "ckpt B", "replayed", "outcome",
                "detail");
    for (const auto& m : report.migrations) {
      char nodes[24];
      std::snprintf(nodes, sizeof(nodes), "%u -> %u", m.from, m.to);
      std::printf("%-14s %11s %9.2f %11.2f %9llu %8llu %-10s %s\n",
                  m.stage.c_str(), nodes, m.requested_at, m.downtime * 1e3,
                  static_cast<unsigned long long>(m.checkpoint_bytes),
                  static_cast<unsigned long long>(m.packets_replayed),
                  core::MigrationRecord::outcome_name(m.outcome),
                  m.detail.c_str());
    }
  }
}

void print_trajectories(const core::RunReport& report) {
  for (const auto& stage : report.stages) {
    for (const auto& [name, trajectory] : stage.parameter_trajectories) {
      for (const auto& [t, v] : trajectory) {
        std::printf("trajectory %s %s %.6f %.6g\n", stage.name.c_str(),
                    name.c_str(), t, v);
      }
    }
  }
}

/// Persists whatever artifacts the flags asked for. Failures are reported
/// but do not fail the run — the run itself succeeded.
int write_artifacts(const Options& options, const core::RunReport& report) {
  int rc = 0;
  auto persist = [&rc](const std::string& path, const std::string& content) {
    if (auto s = obs::write_text_file(path, content); !s.is_ok()) {
      std::fprintf(stderr, "artifact: %s\n", s.to_string().c_str());
      rc = 1;
    }
  };
  if (options.print_trajectories) print_trajectories(report);
  if (!options.report_json_out.empty()) {
    persist(options.report_json_out, report.to_json() + "\n");
  }
  if (!options.attribution_out.empty()) {
    persist(options.attribution_out, report.attribution.to_json() + "\n");
  }
  if (!report.attribution.entries.empty() &&
      (options.verbose || !options.attribution_out.empty())) {
    std::printf("\nbottleneck attribution:\n%s",
                report.attribution.summary().c_str());
  }
  if (!options.metrics_out.empty()) {
    persist(options.metrics_out,
            obs::MetricsRegistry::global().prometheus_text());
  }
  const auto& buffer = obs::TraceBuffer::global();
  if (!options.events_out.empty()) {
    persist(options.events_out, obs::to_jsonl(buffer.events()));
  }
  if (!options.trace_out.empty()) {
    persist(options.trace_out, obs::to_chrome_trace(buffer.events()));
  }
  if (buffer.enabled() && buffer.dropped() > 0) {
    std::fprintf(stderr,
                 "trace buffer full: %llu events dropped "
                 "(raise --trace-buffer)\n",
                 static_cast<unsigned long long>(buffer.dropped()));
  }
  return rc;
}

/// Prints the invariant verdicts, writes the chaos artifact when asked, and
/// turns a failed invariant into a nonzero exit.
int finish_chaos(const Options& options, const chaos::ChaosScenario& scenario,
                 const char* engine_name, const core::RunReport& report) {
  const auto events = obs::TraceBuffer::global().events();
  const chaos::ChaosReport chaos_report =
      chaos::make_report(scenario, engine_name, options.seed, report, events,
                         /*bounded_run=*/options.horizon <= 0);
  std::printf("\nchaos '%s' invariants:\n", scenario.name.c_str());
  for (const auto& r : chaos_report.invariants) {
    std::printf("  [%s] %-28s %s\n", r.passed ? "PASS" : "FAIL",
                r.name.c_str(), r.detail.c_str());
  }
  int rc = chaos_report.all_passed() ? 0 : 1;
  if (!options.chaos_report.empty()) {
    if (auto s = obs::write_text_file(options.chaos_report,
                                      chaos_report.to_json() + "\n");
        !s.is_ok()) {
      std::fprintf(stderr, "chaos report: %s\n", s.to_string().c_str());
      rc = 1;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) return usage(argv[0]);
  Logger::global().set_level(options.verbose ? LogLevel::kInfo
                                             : LogLevel::kWarn);

  // Telemetry switches: each artifact flag turns on the subsystem feeding it.
  const bool introspect_on = options.introspect_port >= 0;
  if (!options.metrics_out.empty() || !options.report_json_out.empty() ||
      introspect_on) {
    obs::MetricsRegistry::global().set_enabled(true);
  }
  if (!options.events_out.empty() || !options.trace_out.empty() ||
      !options.report_json_out.empty() || !options.chaos.empty() ||
      introspect_on) {
    // Chaos runs always trace: the invariant checkers read the event log.
    // The introspection endpoint traces too, so /trace has something to say.
    obs::TraceBuffer::global().set_enabled(true);
  }
  if (options.trace_buffer > 0) {
    obs::TraceBuffer::global().set_capacity(options.trace_buffer);
  }
  if (!options.attribution_out.empty() || !options.report_json_out.empty() ||
      introspect_on) {
    // Per-stage/link phase attribution (inbox wait, service, merge hold,
    // shaper delay, ack/retention) behind cheap per-batch atomics.
    obs::Profiler::global().set_enabled(true);
    obs::MetricsRegistry::global().set_enabled(true);
  }
  if (options.trace_sample > 0) {
    obs::PacketTracer::global().set_sample_period(options.trace_sample);
  }

  const auto grid_text = read_file(options.grid_file);
  if (!grid_text) {
    std::fprintf(stderr, "cannot read grid file '%s'\n",
                 options.grid_file.c_str());
    return 1;
  }
  const auto app_text = read_file(options.app_file);
  if (!app_text) {
    std::fprintf(stderr, "cannot read app file '%s'\n",
                 options.app_file.c_str());
    return 1;
  }

  auto grid = grid::parse_grid_config(*grid_text);
  if (!grid.ok()) {
    std::fprintf(stderr, "grid config: %s\n", grid.status().to_string().c_str());
    return 1;
  }
  std::printf("grid '%s': %zu nodes\n", grid->name.c_str(),
              grid->directory.size());
  for (const auto& lo : options.links) {
    net::LinkSpec spec = grid->topology.between(lo.from, lo.to);
    spec.bandwidth = lo.bandwidth;
    spec.latency = lo.delay;
    spec.impair.loss = lo.loss;
    spec.impair.loss_mode = net::LossMode::kRetransmit;
    // TCP-flavored RTO: one round trip before the head retries.
    spec.impair.retransmit_delay = 2 * lo.delay;
    grid->topology.set_pair(lo.from, lo.to, spec);
    std::printf("  link %u->%u: bw=%g B/s delay=%gs loss=%g\n", lo.from, lo.to,
                lo.bandwidth, lo.delay, lo.loss);
  }

  apps::register_all();
  if (!options.migrations.empty() && !options.failover) {
    // Migration rides the failover machinery (quiesce gating, retention
    // replay on abort), so the flag combination is required, not implied.
    std::fprintf(stderr, "--migrate requires --failover\n");
    return 2;
  }
  if (options.daemons > 0) {
    return run_with_daemons(options, *grid_text, *app_text);
  }
  grid::RepositoryRegistry repos;
  grid::Deployer deployer(grid->directory, repos,
                          grid::ProcessorRegistry::global());
  grid::Launcher launcher(deployer, grid::GeneratorRegistry::global());
  // Command-line replica overrides win over the app config's <parallelism>.
  // They must land before deployment: the deployer bakes the parallelism
  // declaration into the stage factories (one service instance per replica
  // for pooled stages), so a post-launch rewrite would be ignored.
  const auto apply_replicas = [&options](core::PipelineSpec& pipeline) {
    for (const auto& [name, count] : options.replicas) {
      auto& stages = pipeline.stages;
      const auto it = std::find_if(
          stages.begin(), stages.end(),
          [&](const core::StageSpec& s) { return s.name == name; });
      if (it == stages.end()) {
        return invalid_argument("--replicas: no stage named '" + name + "'");
      }
      if (it->parallelism.mode == core::ParallelismMode::kSerial) {
        it->parallelism.mode = core::ParallelismMode::kStateless;
      }
      it->parallelism.replicas = count;
      if (it->parallelism.max_replicas != 0 &&
          it->parallelism.max_replicas < count) {
        it->parallelism.max_replicas = count;
      }
      std::printf("  stage '%s': %zu replicas (command line)\n", name.c_str(),
                  count);
    }
    return Status::ok();
  };
  auto app = launcher.launch_text(*app_text, apply_replicas);
  if (!app.ok()) {
    std::fprintf(stderr, "launch: %s\n", app.status().to_string().c_str());
    return 1;
  }
  std::printf("application '%s': %zu stages, %zu sources\n", app->name.c_str(),
              app->pipeline.stages.size(), app->pipeline.sources.size());
  for (const auto& decision : app->deployment.decisions) {
    std::printf("  %s\n", decision.c_str());
  }

  chaos::ChaosScenario scenario;
  const bool chaos_on = !options.chaos.empty();
  if (chaos_on) {
    const chaos::ChaosTarget target = chaos::default_target(
        app->pipeline, app->deployment.placement, grid->topology);
    const double horizon = options.horizon > 0 ? options.horizon : 10.0;
    if (!chaos::scenario_by_name(options.chaos, target, horizon, &scenario)) {
      std::fprintf(stderr, "unknown chaos scenario '%s'\n",
                   options.chaos.c_str());
      return usage(argv[0]);
    }
    std::printf("chaos '%s': %zu actions on flow %u->%u over %.1f s\n",
                scenario.name.c_str(), scenario.actions.size(), target.from,
                target.to, horizon);
    if (scenario.has_migrations && !options.failover) {
      std::fprintf(stderr, "chaos '%s' migrates stages: --failover required\n",
                   scenario.name.c_str());
      return 2;
    }
  }

  if (options.engine == "sim") {
    core::SimEngine::Config config;
    config.seed = options.seed;
    config.adaptation_enabled = options.adapt;
    config.wire.per_message_overhead = options.wire_message;
    config.wire.per_record_overhead = options.wire_record;
    if (options.control_period) config.control_period = *options.control_period;
    config.failover.enabled = options.failover;
    config.failover.replay_buffer_packets = options.retention;
    core::SimEngine engine(app->pipeline, app->deployment.placement,
                           app->deployment.hosts, grid->topology, config);
    for (const auto& [node, t] : options.kill_nodes) {
      engine.schedule_node_failure(node, t);
    }
    for (const auto& [node, t] : options.recover_nodes) {
      engine.schedule_node_recovery(node, t);
    }
    if (chaos_on) {
      chaos::apply_to_sim(engine, scenario, app->deployment.placement);
    }
    if (options.failover) {
      engine.set_replacement_provider(grid::make_replacement_provider(
          deployer, app->pipeline, app->deployment));
    }
    if (!options.migrations.empty() || (chaos_on && scenario.has_migrations)) {
      if (!schedule_migrations(options, app->pipeline, engine)) {
        return usage(argv[0]);
      }
      engine.set_migration_provider(grid::make_migration_provider(
          deployer, app->pipeline, app->deployment));
    }
    obs::IntrospectServer introspect;
    if (introspect_on) {
      obs::IntrospectServer::Config icfg;
      icfg.port = static_cast<std::uint16_t>(options.introspect_port);
      if (auto s = introspect.start(icfg); !s.is_ok()) {
        std::fprintf(stderr, "introspect: %s\n", s.to_string().c_str());
        return 1;
      }
      std::printf("introspect: http://127.0.0.1:%u\n", introspect.port());
      std::fflush(stdout);
    }
    const auto status = options.horizon > 0 ? engine.run_for(options.horizon)
                                            : engine.run();
    introspect.stop();
    if (!status.is_ok()) {
      std::fprintf(stderr, "run: %s\n", status.to_string().c_str());
      // Flush whatever telemetry the run accumulated before it failed — a
      // watchdog timeout is exactly when the trace is worth reading.
      write_artifacts(options, engine.report());
      return 1;
    }
    print_report(engine.report());
    int rc = write_artifacts(options, engine.report());
    if (chaos_on) {
      rc |= finish_chaos(options, scenario, "sim", engine.report());
    }
    return rc;
  } else {
    core::RtEngine::Config config;
    config.seed = options.seed;
    config.adaptation_enabled = options.adapt;
    config.wire.per_message_overhead = options.wire_message;
    config.wire.per_record_overhead = options.wire_record;
    if (options.control_period) config.control_period = *options.control_period;
    config.failover.enabled = options.failover;
    config.failover.replay_buffer_packets = options.retention;
    config.thread_placement.pin = options.pin;
    if (options.pin) {
      for (const auto& node : grid->directory.all_nodes()) {
        config.thread_placement.node_cores.push_back(node.resources.cores);
      }
    }
    if (options.idle == "spin") {
      config.idle = IdleConfig::spin();
    } else if (options.idle == "balanced") {
      config.idle = IdleConfig::balanced();
    } else if (options.idle == "park") {
      config.idle = IdleConfig::park();
    }
    core::RtEngine engine(app->pipeline, app->deployment.placement,
                          app->deployment.hosts, grid->topology, config);
    for (const auto& [node, t] : options.kill_nodes) {
      engine.schedule_node_failure(node, t);
    }
    if (!options.recover_nodes.empty()) {
      std::fprintf(stderr, "--recover-node applies to the sim engine only\n");
    }
    if (options.failover) {
      // Grid-deployed factories run through the service-instance lifecycle;
      // restart the crashed stage's instance in place before
      // re-instantiating (pooled stages get one instance per replica slot).
      auto* deployment = &app->deployment;
      auto* pipeline = &app->pipeline;
      engine.set_recovery_factory_provider(
          [deployment, pipeline](std::size_t i) -> core::ProcessorFactory {
            return grid::make_recovery_factory(*pipeline, *deployment, i);
          });
    }
    if (!options.migrations.empty() || (chaos_on && scenario.has_migrations)) {
      if (!schedule_migrations(options, app->pipeline, engine)) {
        return usage(argv[0]);
      }
      engine.set_migration_provider(grid::make_migration_provider(
          deployer, app->pipeline, app->deployment));
    }
    std::optional<chaos::RtChaosDriver> driver;
    if (chaos_on) {
      chaos::prepare_rt(engine, scenario);
      driver.emplace(engine, scenario);
      driver->start();
    }
    obs::IntrospectServer introspect;
    if (introspect_on) {
      obs::IntrospectServer::Config icfg;
      icfg.port = static_cast<std::uint16_t>(options.introspect_port);
      introspect.set_provider("/healthz",
                              [&engine] { return engine.health_json(); });
      if (auto s = introspect.start(icfg); !s.is_ok()) {
        std::fprintf(stderr, "introspect: %s\n", s.to_string().c_str());
        return 1;
      }
      std::printf("introspect: http://127.0.0.1:%u\n", introspect.port());
      std::fflush(stdout);
    }
    const auto status = options.horizon > 0 ? engine.run_for(options.horizon)
                                            : engine.run();
    if (driver) driver->finish();
    introspect.stop();
    if (!status.is_ok()) {
      std::fprintf(stderr, "run: %s\n", status.to_string().c_str());
      // Flush whatever telemetry the run accumulated before it failed — a
      // watchdog timeout is exactly when the trace is worth reading.
      write_artifacts(options, engine.report());
      return 1;
    }
    print_report(engine.report());
    int rc = write_artifacts(options, engine.report());
    if (chaos_on) {
      rc |= finish_chaos(options, scenario, "rt", engine.report());
    }
    return rc;
  }
}
