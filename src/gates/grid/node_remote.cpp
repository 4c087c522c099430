#include "gates/grid/node_remote.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "gates/common/idle_strategy.hpp"
#include "gates/common/log.hpp"
#include "gates/common/string_util.hpp"
#include "gates/core/migration.hpp"
#include "gates/core/rt_engine.hpp"
#include "gates/grid/grid_config.hpp"
#include "gates/grid/launcher.hpp"
#include "gates/grid/partition.hpp"
#include "gates/net/shm_link.hpp"
#include "gates/net/tcp_link.hpp"
#include "gates/xml/xml.hpp"

namespace gates::grid {
namespace {

constexpr const char* kComponent = "node-remote";

std::string buffer_to_string(const ByteBuffer& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

StatusOr<long long> attr_int(const xml::Element& e, std::string_view key,
                             long long fallback) {
  const auto text = e.attr(key);
  if (!text) return fallback;
  long long v;
  if (!parse_int(*text, v)) {
    return invalid_argument("bad integer attribute '" + std::string(key) +
                            "' = '" + *text + "'");
  }
  return v;
}

StatusOr<double> attr_double(const xml::Element& e, std::string_view key,
                             double fallback) {
  const auto text = e.attr(key);
  if (!text) return fallback;
  double v;
  if (!parse_double(*text, v)) {
    return invalid_argument("bad number attribute '" + std::string(key) +
                            "' = '" + *text + "'");
  }
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Deploy request (de)serialization
// ---------------------------------------------------------------------------

std::string NodeDeployRequest::to_xml() const {
  std::ostringstream out;
  out << "<deploy process=\"" << process << "\" processes=\"" << processes
      << "\" transport=\"" << transport << "\" seed=\"" << seed
      << "\" horizon=\"" << horizon << "\" adapt=\"" << (adapt ? 1 : 0)
      << "\" failover=\"" << (failover ? 1 : 0) << "\" retention=\""
      << retention << "\" wire-retention=\"" << wire_retention
      << "\" max-batch=\"" << max_batch << "\" pin=\"" << (pin ? 1 : 0)
      << "\" idle=\"" << xml::escape(idle)
      << "\" control-period=\"" << control_period << "\" max-wall=\""
      << max_wall << "\" shm-ring-bytes=\"" << shm_ring_bytes
      << "\" migrate-at=\"" << migrate_at << "\" migrate-target=\""
      << migrate_target << "\" migrate-stage=\"" << xml::escape(migrate_stage)
      << "\">\n";
  out << "  <grid>" << xml::escape(grid_text) << "</grid>\n";
  out << "  <app>" << xml::escape(app_text) << "</app>\n";
  for (const auto& [cid, base] : shm_bases) {
    out << "  <shm id=\"" << cid << "\" base=\"" << xml::escape(base)
        << "\"/>\n";
  }
  for (const auto& [cid, port] : ingress_ports) {
    out << "  <bind id=\"" << cid << "\" port=\"" << port << "\"/>\n";
  }
  out << "</deploy>\n";
  return out.str();
}

StatusOr<NodeDeployRequest> NodeDeployRequest::parse(
    const std::string& xml_text) {
  auto doc = xml::parse(xml_text);
  if (!doc.ok()) return doc.status();
  const xml::Element& root = *doc->root;
  if (root.name() != "deploy") {
    return invalid_argument("deploy request: root must be <deploy>");
  }
  NodeDeployRequest req;
#define GATES_ATTR_INT(field, key, fallback)                      \
  {                                                               \
    auto v = attr_int(root, key, fallback);                       \
    if (!v.ok()) return v.status();                               \
    req.field = static_cast<decltype(req.field)>(*v);             \
  }
  GATES_ATTR_INT(process, "process", 0)
  GATES_ATTR_INT(processes, "processes", 1)
  GATES_ATTR_INT(seed, "seed", 42)
  GATES_ATTR_INT(retention, "retention", 256)
  GATES_ATTR_INT(wire_retention, "wire-retention", 8192)
  GATES_ATTR_INT(max_batch, "max-batch", 32)
  GATES_ATTR_INT(shm_ring_bytes, "shm-ring-bytes", 1u << 20)
  GATES_ATTR_INT(migrate_target, "migrate-target", -1)
#undef GATES_ATTR_INT
  {
    auto v = attr_int(root, "adapt", 1);
    if (!v.ok()) return v.status();
    req.adapt = *v != 0;
  }
  {
    auto v = attr_int(root, "failover", 0);
    if (!v.ok()) return v.status();
    req.failover = *v != 0;
  }
  {
    auto v = attr_int(root, "pin", 0);
    if (!v.ok()) return v.status();
    req.pin = *v != 0;
  }
  {
    auto v = attr_double(root, "horizon", 0);
    if (!v.ok()) return v.status();
    req.horizon = *v;
  }
  {
    auto v = attr_double(root, "control-period", 0);
    if (!v.ok()) return v.status();
    req.control_period = *v;
  }
  {
    auto v = attr_double(root, "max-wall", 120);
    if (!v.ok()) return v.status();
    req.max_wall = *v;
  }
  {
    auto v = attr_double(root, "migrate-at", -1);
    if (!v.ok()) return v.status();
    req.migrate_at = *v;
  }
  req.transport = root.attr_or("transport", "tcp");
  req.idle = root.attr_or("idle", "");
  req.migrate_stage = root.attr_or("migrate-stage", "");
  const xml::Element* grid = root.child("grid");
  const xml::Element* app = root.child("app");
  if (!grid || !app) {
    return invalid_argument("deploy request: <grid> and <app> are required");
  }
  req.grid_text = grid->text();
  req.app_text = app->text();
  for (const xml::Element* shm : root.children_named("shm")) {
    auto id = attr_int(*shm, "id", -1);
    if (!id.ok()) return id.status();
    req.shm_bases[static_cast<std::uint32_t>(*id)] = shm->attr_or("base", "");
  }
  for (const xml::Element* bind : root.children_named("bind")) {
    auto id = attr_int(*bind, "id", -1);
    if (!id.ok()) return id.status();
    auto port = attr_int(*bind, "port", 0);
    if (!port.ok()) return port.status();
    req.ingress_ports[static_cast<std::uint32_t>(*id)] =
        static_cast<std::uint16_t>(*port);
  }
  return req;
}

// ---------------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------------

namespace {

/// Everything a daemon accumulates across the control phases.
struct DaemonState {
  NodeDeployRequest req;
  std::optional<GridConfig> grid;
  std::optional<LaunchedApplication> app;
  RepositoryRegistry repos;
  PartitionPlan plan;
  PartitionPart* part = nullptr;
  std::map<std::uint32_t, std::shared_ptr<net::TcpListener>> listeners;
  std::map<std::uint32_t, std::shared_ptr<net::RemoteLink>> links;
  std::unique_ptr<core::RtEngine> engine;
  std::thread run_thread;
  // 0 = pending, 1 = running, 2 = done, 3 = failed
  std::atomic<int> run_state{0};
  std::mutex mu;
  std::string run_error;
  std::string report_json = "{}";
  /// Control connection, shared between the serve loop (RPC responses) and
  /// the engine's control thread (CHECKPOINT transfer frames); control_mu
  /// serializes every send on it.
  std::shared_ptr<net::RemoteLink> control;
  std::mutex control_mu;
  std::uint64_t checkpoint_transfers = 0;  // transfer ids, under control_mu

  ~DaemonState() {
    if (run_thread.joinable()) run_thread.join();
  }

  const char* state_name() const {
    switch (run_state.load()) {
      case 1: return "running";
      case 2: return "done";
      case 3: return "failed";
      default: return "pending";
    }
  }
};

std::string channel_link_name(std::uint32_t cid, bool inbound) {
  return "ch" + std::to_string(cid) + (inbound ? ":in" : ":out");
}

StatusOr<std::string> handle_deploy(DaemonState& state,
                                    const std::string& body) {
  auto req = NodeDeployRequest::parse(body);
  if (!req.ok()) return req.status();
  state.req = std::move(*req);

  auto grid = parse_grid_config(state.req.grid_text);
  if (!grid.ok()) {
    return Status(grid.status().code(),
                  "deploy: grid config: " + grid.status().message());
  }
  state.grid = std::move(*grid);

  Deployer deployer(state.grid->directory, state.repos,
                    ProcessorRegistry::global());
  Launcher launcher(deployer, GeneratorRegistry::global());
  auto app = launcher.launch_text(state.req.app_text);
  if (!app.ok()) {
    return Status(app.status().code(),
                  "deploy: launch: " + app.status().message());
  }
  state.app = std::move(*app);

  auto plan = partition_pipeline(state.app->pipeline,
                                 state.app->deployment.placement,
                                 state.req.processes);
  if (!plan.ok()) return plan.status();
  state.plan = std::move(*plan);
  if (state.req.process >= state.plan.parts.size()) {
    return invalid_argument("deploy: process index out of range");
  }
  state.part = &state.plan.parts[state.req.process];

  std::ostringstream out;
  out << "<deployed stages=\"" << state.part->spec.stages.size()
      << "\" sources=\"" << state.part->spec.sources.size() << "\">\n";
  for (const auto& [local_source, cid] : state.part->ingress_channels) {
    (void)local_source;
    if (state.req.transport == "shm") {
      const auto it = state.req.shm_bases.find(cid);
      if (it == state.req.shm_bases.end() || it->second.empty()) {
        return invalid_argument("deploy: no shm base for channel " +
                                std::to_string(cid));
      }
      auto link = net::ShmRemoteLink::serve(it->second, cid,
                                            channel_link_name(cid, true),
                                            state.req.shm_ring_bytes);
      if (!link.ok()) return link.status();
      state.links[cid] = std::move(*link);
    } else {
      std::uint16_t want = 0;
      const auto it = state.req.ingress_ports.find(cid);
      if (it != state.req.ingress_ports.end()) want = it->second;
      auto listener = net::TcpListener::listen(want);
      if (!listener.ok()) return listener.status();
      out << "  <channel id=\"" << cid << "\" port=\"" << (*listener)->port()
          << "\"/>\n";
      state.listeners[cid] = std::move(*listener);
    }
  }
  out << "</deployed>\n";
  return out.str();
}

StatusOr<std::string> handle_connect(DaemonState& state,
                                     const std::string& body) {
  if (!state.part) return failed_precondition("connect before deploy");
  auto doc = xml::parse(body);
  if (!doc.ok()) return doc.status();
  std::map<std::uint32_t, std::pair<std::string, std::uint16_t>> endpoints;
  for (const xml::Element* ch : doc->root->children_named("channel")) {
    auto id = attr_int(*ch, "id", -1);
    if (!id.ok()) return id.status();
    auto port = attr_int(*ch, "port", 0);
    if (!port.ok()) return port.status();
    endpoints[static_cast<std::uint32_t>(*id)] = {
        ch->attr_or("host", "127.0.0.1"), static_cast<std::uint16_t>(*port)};
  }

  for (const auto& [local_stage, cid] : state.part->egress_channels) {
    (void)local_stage;
    if (state.req.transport == "shm") {
      const auto it = state.req.shm_bases.find(cid);
      if (it == state.req.shm_bases.end()) {
        return invalid_argument("connect: no shm base for channel " +
                                std::to_string(cid));
      }
      auto link = net::ShmRemoteLink::dial(it->second, cid,
                                           channel_link_name(cid, false));
      if (!link.ok()) return link.status();
      state.links[cid] = std::move(*link);
    } else {
      const auto it = endpoints.find(cid);
      if (it == endpoints.end()) {
        return invalid_argument("connect: no endpoint for channel " +
                                std::to_string(cid));
      }
      state.links[cid] = net::TcpRemoteLink::dial(
          it->second.first, it->second.second, cid,
          channel_link_name(cid, false));
    }
  }
  if (state.req.transport != "shm") {
    for (const auto& [local_source, cid] : state.part->ingress_channels) {
      (void)local_source;
      const auto it = state.listeners.find(cid);
      if (it == state.listeners.end()) {
        return internal_error("connect: missing listener for channel " +
                              std::to_string(cid));
      }
      state.links[cid] = net::TcpRemoteLink::serve(
          it->second, cid, channel_link_name(cid, true),
          /*accept_timeout_seconds=*/60.0);
    }
  }
  return std::string("<ok/>");
}

StatusOr<std::string> handle_start(DaemonState& state) {
  if (!state.part) return failed_precondition("start before deploy");
  if (state.run_state.load() != 0) {
    return failed_precondition("start: already started");
  }
  if (state.part->spec.stages.empty()) {
    // Idle process (every stage hashed elsewhere): nothing to run.
    std::lock_guard<std::mutex> lock(state.mu);
    state.run_state.store(2);
    return std::string("<ok idle=\"1\"/>");
  }

  core::RtEngine::Config config;
  config.seed = state.req.seed;
  config.adaptation_enabled = state.req.adapt;
  if (state.req.control_period > 0) {
    config.control_period = state.req.control_period;
  }
  config.max_wall_time = state.req.max_wall;
  config.batching.max_batch = state.req.max_batch;
  config.failover.enabled = state.req.failover;
  config.failover.replay_buffer_packets = state.req.retention;
  config.remote.retention_packets = state.req.wire_retention;
  config.thread_placement.pin = state.req.pin;
  if (state.req.pin) {
    for (const auto& node : state.grid->directory.all_nodes()) {
      config.thread_placement.node_cores.push_back(node.resources.cores);
    }
  }
  if (state.req.idle == "spin") {
    config.idle = IdleConfig::spin();
  } else if (state.req.idle == "balanced") {
    config.idle = IdleConfig::balanced();
  } else if (state.req.idle == "park") {
    config.idle = IdleConfig::park();
  }
  for (const auto& [local_stage, cid] : state.part->egress_channels) {
    const auto it = state.links.find(cid);
    if (it == state.links.end()) {
      return failed_precondition("start: channel " + std::to_string(cid) +
                                 " not connected");
    }
    config.remote.egress_links[local_stage] = it->second;
  }
  for (const auto& [local_source, cid] : state.part->ingress_channels) {
    const auto it = state.links.find(cid);
    if (it == state.links.end()) {
      return failed_precondition("start: channel " + std::to_string(cid) +
                                 " not connected");
    }
    config.remote.ingress_links[local_source] = it->second;
  }

  state.engine = std::make_unique<core::RtEngine>(
      state.part->spec, state.part->placement, state.app->deployment.hosts,
      state.grid->topology, config);
  // Daemon-side migration: before the stage resumes, the captured state is
  // shipped to the coordinator as a CHECKPOINT wire frame on the control
  // connection (the SIGKILL drill interrupts exactly this hook). A send
  // failure fails the transfer step, degrading to crash-failover.
  DaemonState* ckpt_state = &state;
  state.engine->set_migration_transfer(
      [ckpt_state](const core::StageCheckpoint& ckpt, std::string& error) {
        ByteBuffer blob;
        ckpt.encode(blob);
        std::lock_guard<std::mutex> lock(ckpt_state->control_mu);
        if (!ckpt_state->control) {
          error = "checkpoint transfer: no control connection";
          return false;
        }
        const Status sent = ckpt_state->control->send_control(
            net::wire::FrameType::kCheckpoint,
            ++ckpt_state->checkpoint_transfers, {},
            std::string_view(reinterpret_cast<const char*>(blob.data()),
                             blob.size()));
        if (!sent.is_ok()) {
          error = "checkpoint transfer: " + sent.to_string();
          return false;
        }
        return true;
      });
  // Deploy-time migration schedule: the daemon whose part holds the stage
  // arms it, everyone else sees a name that hashed elsewhere and ignores it.
  if (state.req.migrate_at >= 0 && !state.req.migrate_stage.empty()) {
    for (std::size_t i = 0; i < state.part->spec.stages.size(); ++i) {
      if (state.part->spec.stages[i].name != state.req.migrate_stage) continue;
      state.engine->schedule_migration(
          i, state.req.migrate_at,
          static_cast<NodeId>(state.req.migrate_target));
      break;
    }
  }
  const double horizon = state.req.horizon;
  state.run_state.store(1);
  core::RtEngine* engine = state.engine.get();
  DaemonState* sp = &state;
  state.run_thread = std::thread([engine, horizon, sp] {
    const Status status = horizon > 0 ? engine->run_for(horizon)
                                      : engine->run();
    std::lock_guard<std::mutex> lock(sp->mu);
    sp->report_json = engine->report().to_json();
    if (status.is_ok()) {
      sp->run_state.store(2);
    } else {
      sp->run_error = status.to_string();
      sp->run_state.store(3);
    }
  });
  return std::string("<ok/>");
}

/// Runtime migration trigger: <migrate stage="NAME" target="N"/>. The stage
/// is looked up in this daemon's part; a name hashed to another process
/// answers <ok local="0"/> so the coordinator can fan the request out.
StatusOr<std::string> handle_migrate(DaemonState& state,
                                     const std::string& body) {
  if (state.run_state.load() != 1 || !state.engine) {
    return failed_precondition("migrate: engine not running");
  }
  auto doc = xml::parse(body);
  if (!doc.ok()) return doc.status();
  const std::string stage = doc->root->attr_or("stage", "");
  auto target = attr_int(*doc->root, "target", -1);
  if (!target.ok()) return target.status();
  for (std::size_t i = 0; i < state.part->spec.stages.size(); ++i) {
    if (state.part->spec.stages[i].name != stage) continue;
    state.engine->request_migration(i, static_cast<NodeId>(*target));
    return std::string("<ok local=\"1\" stage=\"") + std::to_string(i) +
           "\"/>";
  }
  return std::string("<ok local=\"0\"/>");
}

}  // namespace

Status NodeDaemon::run(const Options& options) {
  auto listener = net::TcpListener::listen(options.control_port);
  if (!listener.ok()) return listener.status();
  if (!options.port_file.empty()) {
    std::FILE* f = std::fopen(options.port_file.c_str(), "w");
    if (!f) return internal_error("cannot write port file");
    std::fprintf(f, "%u\n", (*listener)->port());
    std::fclose(f);
  }
  GATES_LOG(kInfo, kComponent)
      << "gates_node pid " << ::getpid() << " control port "
      << (*listener)->port();

  auto control = net::TcpRemoteLink::serve(*listener, 0, "control",
                                           /*accept_timeout_seconds=*/600.0);
  DaemonState state;
  state.control = control;
  bool shutdown = false;
  while (!shutdown) {
    auto ev = control->recv(0.25);
    if (!ev.ok()) {
      // Coordinator gone (or never arrived): a daemon has no life of its
      // own, so exit rather than linger as an orphan.
      GATES_LOG(kWarn, kComponent)
          << "control connection lost: " << ev.status().to_string();
      break;
    }
    if (ev->kind == net::RecvEvent::Kind::kNone) continue;
    if (ev->kind == net::RecvEvent::Kind::kShutdown) break;
    if (ev->kind != net::RecvEvent::Kind::kRpcRequest) continue;

    const std::string method = ev->method;
    const std::string body = buffer_to_string(ev->body);
    StatusOr<std::string> response = std::string("<ok/>");
    if (method == "hello") {
      response = "<hello pid=\"" + std::to_string(::getpid()) + "\"/>";
    } else if (method == "deploy") {
      response = handle_deploy(state, body);
    } else if (method == "connect") {
      response = handle_connect(state, body);
    } else if (method == "start") {
      response = handle_start(state);
    } else if (method == "status") {
      std::lock_guard<std::mutex> lock(state.mu);
      response = "<status state=\"" + std::string(state.state_name()) +
                 "\" detail=\"" + xml::escape(state.run_error) + "\"/>";
    } else if (method == "migrate") {
      response = handle_migrate(state, body);
    } else if (method == "report") {
      std::lock_guard<std::mutex> lock(state.mu);
      response = state.report_json;
    } else if (method == "shutdown") {
      shutdown = true;
    } else {
      response = invalid_argument("unknown method '" + method + "'");
    }

    Status sent;
    {
      // Shares the link with the engine's checkpoint-transfer hook.
      std::lock_guard<std::mutex> lock(state.control_mu);
      if (response.ok()) {
        sent = control->send_control(net::wire::FrameType::kRpcResponse,
                                     ev->base_seq, method, *response);
      } else {
        sent = control->send_control(net::wire::FrameType::kRpcResponse,
                                     ev->base_seq, "error",
                                     response.status().to_string());
      }
    }
    if (!sent.is_ok()) {
      GATES_LOG(kWarn, kComponent)
          << "control send failed: " << sent.to_string();
      break;
    }
  }
  // If the engine is mid-run when the coordinator disappears, don't block
  // shutdown on the watchdog: the process exit tears the threads down.
  if (state.run_state.load() == 1) {
    control->close();
    std::_Exit(0);
  }
  control->close();
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

namespace {

struct DaemonHandle {
  pid_t pid = -1;
  std::uint16_t control_port = 0;
  std::shared_ptr<net::TcpRemoteLink> control;
  std::uint64_t next_request = 1;
  std::string port_file;
  bool respawned = false;
  /// CHECKPOINT frames this daemon shipped during migrations (drained by
  /// rpc_call between responses).
  std::uint64_t checkpoint_frames = 0;
  std::uint64_t checkpoint_bytes = 0;
};

StatusOr<std::string> rpc_call(DaemonHandle& d, std::string_view method,
                               std::string_view body, double timeout) {
  if (!d.control) return failed_precondition("no control connection");
  const std::uint64_t id = d.next_request++;
  if (auto s = d.control->send_control(net::wire::FrameType::kRpcRequest, id,
                                       method, body);
      !s.is_ok()) {
    return s;
  }
  WallClock clock;
  const TimePoint deadline = clock.now() + timeout;
  while (true) {
    const double remaining = deadline - clock.now();
    if (remaining <= 0) {
      return unavailable("rpc '" + std::string(method) + "' timed out");
    }
    auto ev = d.control->recv(remaining > 0.25 ? 0.25 : remaining);
    if (!ev.ok()) return ev.status();
    if (ev->kind == net::RecvEvent::Kind::kCheckpoint) {
      // Migration state transfer riding the control connection: account it
      // (run_distributed surfaces the totals) and keep waiting.
      d.checkpoint_frames++;
      d.checkpoint_bytes += ev->body.size();
      GATES_LOG(kInfo, kComponent)
          << "checkpoint frame: transfer " << ev->base_seq << ", "
          << ev->body.size() << " bytes";
      continue;
    }
    if (ev->kind != net::RecvEvent::Kind::kRpcResponse) continue;
    if (ev->base_seq != id) continue;  // stale response from a timed-out call
    if (ev->method == "error") {
      return internal_error("daemon: " + buffer_to_string(ev->body));
    }
    return buffer_to_string(ev->body);
  }
}

Status spawn_daemon(const DistributedOptions& options, std::size_t index,
                    DaemonHandle& d, const std::string& tmp_dir,
                    std::size_t generation) {
  d.port_file = tmp_dir + "/node-" + std::to_string(index) + "-" +
                std::to_string(generation) + ".port";
  ::unlink(d.port_file.c_str());

  const pid_t pid = ::fork();
  if (pid < 0) return internal_error("fork failed");
  if (pid == 0) {
    std::vector<std::string> args = {options.node_bin, "--port-file",
                                     d.port_file};
    if (options.verbose) args.push_back("--verbose");
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(options.node_bin.c_str(), argv.data());
    std::fprintf(stderr, "execv %s: %s\n", options.node_bin.c_str(),
                 std::strerror(errno));
    std::_Exit(127);
  }
  d.pid = pid;

  // Wait for the daemon to publish its control port.
  WallClock clock;
  const TimePoint deadline = clock.now() + 15.0;
  while (clock.now() < deadline) {
    std::FILE* f = std::fopen(d.port_file.c_str(), "r");
    if (f) {
      unsigned port = 0;
      const int got = std::fscanf(f, "%u", &port);
      std::fclose(f);
      if (got == 1 && port > 0 && port < 65536) {
        d.control_port = static_cast<std::uint16_t>(port);
        break;
      }
    }
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, WNOHANG) == pid) {
      d.pid = -1;
      return internal_error("gates_node " + std::to_string(index) +
                            " exited before publishing its port");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (d.control_port == 0) {
    return unavailable("gates_node " + std::to_string(index) +
                       " did not publish a control port");
  }
  d.control = net::TcpRemoteLink::dial(
      "127.0.0.1", d.control_port, 0,
      "ctl-" + std::to_string(index), /*connect_timeout_seconds=*/15.0);
  d.next_request = 1;
  auto hello = rpc_call(d, "hello", "", 15.0);
  if (!hello.ok()) return hello.status();
  return Status::ok();
}

void kill_and_reap(DaemonHandle& d) {
  if (d.pid <= 0) return;
  ::kill(d.pid, SIGKILL);
  ::waitpid(d.pid, nullptr, 0);
  d.pid = -1;
}

/// Deploy one daemon's part: it binds every inbound channel listener / shm
/// ring and reports the bound ports back into `channel_ports`. `force_ports`
/// pins the daemon's inbound listeners to previously recorded ports
/// (respawn); otherwise ephemeral ports are bound. Must run for EVERY daemon
/// before any connect_start_daemon: an egress dial needs the peer's port.
Status deploy_daemon(const DistributedOptions& options, std::size_t index,
                     DaemonHandle& d, const PartitionPlan& plan,
                     const std::map<std::uint32_t, std::string>& shm_bases,
                     std::map<std::uint32_t, std::uint16_t>& channel_ports,
                     bool force_ports) {
  NodeDeployRequest req;
  req.grid_text = options.grid_text;
  req.app_text = options.app_text;
  req.process = index;
  req.processes = options.daemons;
  req.transport = options.transport;
  req.seed = options.seed;
  req.horizon = options.horizon;
  req.adapt = options.adapt;
  req.failover = options.failover;
  req.retention = options.retention;
  req.wire_retention = options.wire_retention;
  req.max_batch = options.max_batch;
  req.pin = options.pin;
  req.idle = options.idle;
  req.control_period = options.control_period;
  req.max_wall = options.max_wall;
  req.shm_ring_bytes = options.shm_ring_bytes;
  req.shm_bases = shm_bases;
  req.migrate_stage = options.migrate_stage;
  req.migrate_at = options.migrate_at;
  req.migrate_target = options.migrate_target;
  if (force_ports) {
    for (const PartitionChannel& ch : plan.channels) {
      if (ch.to_process != index) continue;
      const auto it = channel_ports.find(ch.id);
      if (it != channel_ports.end()) req.ingress_ports[ch.id] = it->second;
    }
  }

  auto deployed = rpc_call(d, "deploy", req.to_xml(), 30.0);
  if (!deployed.ok()) return deployed.status();
  auto doc = xml::parse(*deployed);
  if (!doc.ok()) return doc.status();
  for (const xml::Element* ch : doc->root->children_named("channel")) {
    auto id = attr_int(*ch, "id", -1);
    if (!id.ok()) return id.status();
    auto port = attr_int(*ch, "port", 0);
    if (!port.ok()) return port.status();
    channel_ports[static_cast<std::uint32_t>(*id)] =
        static_cast<std::uint16_t>(*port);
  }
  return Status::ok();
}

/// Connect + start one deployed daemon. Requires every daemon's deploy to
/// have completed (channel_ports holds every inbound endpoint).
Status connect_start_daemon(
    DaemonHandle& d, const PartitionPlan& plan,
    const std::map<std::uint32_t, std::uint16_t>& channel_ports) {
  std::ostringstream connect;
  connect << "<connect>\n";
  for (const PartitionChannel& ch : plan.channels) {
    const auto it = channel_ports.find(ch.id);
    connect << "  <channel id=\"" << ch.id << "\" host=\"127.0.0.1\" port=\""
            << (it != channel_ports.end() ? it->second : 0) << "\"/>\n";
  }
  connect << "</connect>\n";
  auto connected = rpc_call(d, "connect", connect.str(), 60.0);
  if (!connected.ok()) return connected.status();

  auto started = rpc_call(d, "start", "", 30.0);
  if (!started.ok()) return started.status();
  return Status::ok();
}

}  // namespace

StatusOr<DistributedResult> run_distributed(const DistributedOptions& options) {
  if (options.daemons == 0) {
    return invalid_argument("run_distributed: need at least one daemon");
  }
  if (options.transport != "tcp" && options.transport != "shm") {
    return invalid_argument("run_distributed: transport must be tcp or shm");
  }
  if (options.node_bin.empty() ||
      ::access(options.node_bin.c_str(), X_OK) != 0) {
    return invalid_argument("run_distributed: gates_node binary '" +
                            options.node_bin + "' is not executable");
  }
  if (options.kill_daemon) {
    if (!options.failover) {
      return invalid_argument("--kill-daemon requires --failover");
    }
    if (options.transport != "tcp") {
      return invalid_argument(
          "--kill-daemon requires the tcp transport (a killed process "
          "leaves its shm segments behind; respawn uses fresh sockets)");
    }
    if (options.kill_daemon->first >= options.daemons) {
      return invalid_argument("--kill-daemon: process index out of range");
    }
  }
  if (!options.migrate_stage.empty() && options.migrate_at >= 0 &&
      !options.failover) {
    // Migration shares the failover machinery (quiesce gating, abort
    // degradation to crash-replay), so it is meaningless without it.
    return invalid_argument("--migrate requires --failover in daemon mode");
  }

  // Compute the same plan the daemons will: the coordinator only needs the
  // channel topology, but deriving it identically guarantees agreement.
  auto grid = parse_grid_config(options.grid_text);
  if (!grid.ok()) return grid.status();
  RepositoryRegistry repos;
  Deployer deployer(grid->directory, repos, ProcessorRegistry::global());
  Launcher launcher(deployer, GeneratorRegistry::global());
  auto app = launcher.launch_text(options.app_text);
  if (!app.ok()) return app.status();
  auto plan = partition_pipeline(app->pipeline, app->deployment.placement,
                                 options.daemons);
  if (!plan.ok()) return plan.status();

  std::map<std::uint32_t, std::string> shm_bases;
  for (const PartitionChannel& ch : plan->channels) {
    shm_bases[ch.id] = "/gates-" + std::to_string(::getpid()) + "-" +
                       std::to_string(ch.id);
  }

  char tmp_template[] = "/tmp/gates-dist-XXXXXX";
  const char* tmp_dir_c = ::mkdtemp(tmp_template);
  if (!tmp_dir_c) return internal_error("mkdtemp failed");
  const std::string tmp_dir = tmp_dir_c;

  std::vector<DaemonHandle> daemons(options.daemons);
  auto fail = [&](Status status) -> StatusOr<DistributedResult> {
    for (DaemonHandle& d : daemons) kill_and_reap(d);
    return status;
  };

  std::map<std::uint32_t, std::uint16_t> channel_ports;
  for (std::size_t k = 0; k < options.daemons; ++k) {
    if (auto s = spawn_daemon(options, k, daemons[k], tmp_dir, 0);
        !s.is_ok()) {
      return fail(s);
    }
  }
  // Deploy everyone first (binding every inbound listener / shm ring), then
  // connect + start: egress dials need the peer's bound port, and a TCP
  // dial retries until the peer's lazy accept arms, so ordering within the
  // second phase is free.
  for (std::size_t k = 0; k < options.daemons; ++k) {
    if (auto s = deploy_daemon(options, k, daemons[k], *plan, shm_bases,
                               channel_ports, /*force_ports=*/false);
        !s.is_ok()) {
      return fail(s);
    }
  }
  for (std::size_t k = 0; k < options.daemons; ++k) {
    if (auto s = connect_start_daemon(daemons[k], *plan, channel_ports);
        !s.is_ok()) {
      return fail(s);
    }
  }

  WallClock clock;
  const TimePoint started = clock.now();
  const TimePoint deadline = started + options.max_wall + 30.0;
  std::optional<std::pair<std::size_t, double>> kill = options.kill_daemon;
  std::size_t respawns = 0;
  std::vector<std::string> states(options.daemons, "running");
  while (true) {
    if (kill && clock.now() - started >= kill->second) {
      const std::size_t victim = kill->first;
      GATES_LOG(kWarn, kComponent)
          << "killing gates_node " << victim << " (pid "
          << daemons[victim].pid << ") at t=" << (clock.now() - started);
      kill_and_reap(daemons[victim]);
      kill.reset();
      if (auto s = spawn_daemon(options, victim, daemons[victim], tmp_dir,
                                ++respawns);
          !s.is_ok()) {
        return fail(s);
      }
      daemons[victim].respawned = true;
      // Same inbound ports as before, so surviving egress peers reconnect
      // to the endpoint they already hold and replay their retention tail.
      if (auto s = deploy_daemon(options, victim, daemons[victim], *plan,
                                 shm_bases, channel_ports,
                                 /*force_ports=*/true);
          !s.is_ok()) {
        return fail(s);
      }
      if (auto s = connect_start_daemon(daemons[victim], *plan, channel_ports);
          !s.is_ok()) {
        return fail(s);
      }
    }

    bool all_done = true;
    for (std::size_t k = 0; k < options.daemons; ++k) {
      if (states[k] == "done" || states[k] == "failed") continue;
      auto status = rpc_call(daemons[k], "status", "", 5.0);
      if (!status.ok()) {
        int wstatus = 0;
        if (daemons[k].pid > 0 &&
            ::waitpid(daemons[k].pid, &wstatus, WNOHANG) == daemons[k].pid) {
          daemons[k].pid = -1;
          return fail(internal_error("gates_node " + std::to_string(k) +
                                     " died mid-run"));
        }
        return fail(status.status());
      }
      auto doc = xml::parse(*status);
      if (doc.ok() && doc->root->name() == "status") {
        states[k] = doc->root->attr_or("state", "running");
      }
      if (states[k] != "done" && states[k] != "failed") all_done = false;
    }
    if (all_done) {
      if (kill) {
        GATES_LOG(kWarn, kComponent)
            << "run finished before the --kill-daemon time; skipping kill";
      }
      break;
    }
    if (clock.now() > deadline) {
      return fail(unavailable("distributed run exceeded max wall time"));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  DistributedResult result;
  result.respawns = respawns;
  result.daemon_reports.resize(options.daemons);
  for (std::size_t k = 0; k < options.daemons; ++k) {
    auto report = rpc_call(daemons[k], "report", "", 30.0);
    if (!report.ok()) return fail(report.status());
    result.daemon_reports[k] = std::move(*report);
    if (states[k] == "failed") result.completed = false;
    result.checkpoint_frames += daemons[k].checkpoint_frames;
    result.checkpoint_bytes += daemons[k].checkpoint_bytes;
  }
  for (std::size_t k = 0; k < options.daemons; ++k) {
    (void)rpc_call(daemons[k], "shutdown", "", 5.0);
    if (daemons[k].pid > 0) {
      // Give the daemon a moment for an orderly exit, then force it.
      const TimePoint grace = clock.now() + 5.0;
      while (clock.now() < grace) {
        if (::waitpid(daemons[k].pid, nullptr, WNOHANG) == daemons[k].pid) {
          daemons[k].pid = -1;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      kill_and_reap(daemons[k]);
    }
  }

  std::ostringstream merged;
  merged << "{\n  \"distributed\": true,\n  \"processes\": "
         << options.daemons << ",\n  \"transport\": \"" << options.transport
         << "\",\n  \"channels\": " << plan->channels.size()
         << ",\n  \"respawns\": " << respawns
         << ",\n  \"checkpoint_frames\": " << result.checkpoint_frames
         << ",\n  \"checkpoint_bytes\": " << result.checkpoint_bytes
         << ",\n  \"completed\": "
         << (result.completed ? "true" : "false") << ",\n  \"daemons\": [\n";
  for (std::size_t k = 0; k < options.daemons; ++k) {
    merged << "    {\"process\": " << k << ", \"state\": \"" << states[k]
           << "\", \"respawned\": " << (daemons[k].respawned ? "true" : "false")
           << ", \"report\": " << result.daemon_reports[k] << "}";
    merged << (k + 1 < options.daemons ? ",\n" : "\n");
  }
  merged << "  ]\n}\n";
  result.merged_report_json = merged.str();
  return result;
}

}  // namespace gates::grid
