#include "gates/core/sim_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "gates/common/check.hpp"
#include "gates/common/log.hpp"
#include "gates/core/checkpoint.hpp"
#include "gates/core/retention_ring.hpp"
#include "gates/core/stage_adaptation.hpp"
#include "gates/obs/attribution.hpp"
#include "gates/obs/metrics.hpp"
#include "gates/obs/profiler.hpp"
#include "gates/obs/trace.hpp"
#include "gates/obs/trace_context.hpp"

namespace gates::core {

// ---------------------------------------------------------------------------
// Delivery: what rides in a SimMessage payload. The replay origin lets the
// receiving stage acknowledge the packet after processing it, releasing it
// from the sender's bounded retention buffer. Null origin = retention off.
// ---------------------------------------------------------------------------
struct SimEngine::Delivery {
  Packet packet;
  ReplayChannel* origin = nullptr;
  std::uint64_t seq = 0;
  /// Destination incarnation at send time. A revived stage rejects messages
  /// stamped for a previous incarnation: they were in flight across its
  /// outage, their retained copies have already been replayed, and accepting
  /// both would deliver duplicates.
  std::uint64_t dest_incarnation = 0;
  /// Observability: virtual send time and the link the message rode, so the
  /// receiver can charge now - sent_at to the link's shaper-delay phase and
  /// render a causal link hop for sampled packets. Arrival time (set by
  /// try_deliver) is the base for inbox-wait attribution.
  TimePoint sent_at = 0;
  const net::SimLink* via = nullptr;
  TimePoint arrived_at = 0;
};

// ---------------------------------------------------------------------------
// ReplayChannel: sender-side bounded retention for one flow (one route, or
// one source's feed). Holds the last N unacknowledged packets; EOS markers
// are pinned regardless of capacity — losing a termination marker would
// wedge the recovered stage forever.
// ---------------------------------------------------------------------------
struct SimEngine::ReplayChannel {
  explicit ReplayChannel(std::size_t cap) : ring(cap) {}

  RetentionRing ring;  // O(1)-amortized retain/ack/evict (was a deque scan)
  std::uint64_t evicted_reported = 0;  // already attributed to a FailureReport

  std::uint64_t retain(const Packet& packet) { return ring.retain(packet); }

  /// Exact ack. Impaired links reorder deliveries, so processing seq does
  /// NOT imply earlier seqs arrived — a cumulative ack here would release a
  /// reorder-held packet from retention and lose it if the receiver crashed
  /// before it landed. On FIFO flows exact acks advance the window
  /// identically, so the clean path is unchanged.
  void ack(std::uint64_t seq) { ring.ack_exact(seq); }
};

// ---------------------------------------------------------------------------
// MonitoredLink: a non-loopback link plus its queue monitor and the adaptive
// stages that send on it (receivers of its load exceptions).
// ---------------------------------------------------------------------------
struct SimEngine::MonitoredLink {
  net::SimLink* link = nullptr;
  adapt::QueueMonitor monitor;
  std::vector<StageRuntime*> senders;
  RunningStats queue_samples;
  std::uint64_t overload_sent = 0;
  std::uint64_t underload_sent = 0;

  explicit MonitoredLink(net::SimLink* l, adapt::QueueMonitorConfig cfg)
      : link(l), monitor(cfg) {}

  /// Control-tick sampling into the registry; handles resolved on first use.
  void sample_metrics() {
    if (backlog_gauge_ == nullptr) {
      auto& reg = obs::MetricsRegistry::global();
      const obs::Labels labels = {{"link", link->config().name}};
      backlog_gauge_ = &reg.gauge("gates_link_backlog_seconds", labels);
      delivered_ = &reg.counter("gates_link_messages_delivered", labels);
      bytes_ = &reg.counter("gates_link_bytes_delivered", labels);
      overload_ = &reg.counter("gates_link_overload_exceptions", labels);
      underload_ = &reg.counter("gates_link_underload_exceptions", labels);
    }
    backlog_gauge_->set(link->backlog_seconds());
    delivered_->set(link->stats().messages_delivered);
    bytes_->set(link->stats().bytes_delivered);
    overload_->set(overload_sent);
    underload_->set(underload_sent);
  }

 private:
  obs::Gauge* backlog_gauge_ = nullptr;
  obs::Counter* delivered_ = nullptr;
  obs::Counter* bytes_ = nullptr;
  obs::Counter* overload_ = nullptr;
  obs::Counter* underload_ = nullptr;

 public:
  void add_sender(StageRuntime* s) {
    if (s == nullptr) return;
    if (std::find(senders.begin(), senders.end(), s) == senders.end()) {
      senders.push_back(s);
    }
  }
};

// ---------------------------------------------------------------------------
// StageRuntime: one deployed stage. Implements the stage's network sink, the
// processor's emitter and its middleware context.
// ---------------------------------------------------------------------------
class SimEngine::StageRuntime final : public net::MessageSink,
                                      public Emitter,
                                      public ProcessorContext {
 public:
  struct Route {
    net::SimLink* link = nullptr;
    StageRuntime* dest = nullptr;
    std::size_t port = 0;
    /// Retention buffer for this flow; null when failover is disabled.
    ReplayChannel* channel = nullptr;
  };

  StageRuntime(SimEngine& engine, std::size_t index, const StageSpec& spec,
               NodeId node, double cpu_factor, Rng rng)
      : engine_(engine),
        index_(index),
        spec_(spec),
        node_(node),
        cpu_factor_(cpu_factor),
        adaptation_(spec, engine.hosts_.cores_at(node)),
        rng_(rng),
        active_replicas_(spec.parallelism.replicas),
        max_replicas_used_(spec.parallelism.replicas) {
    GATES_CHECK(cpu_factor_ > 0);
    processor_ = spec_.factory();
    GATES_CHECK_MSG(processor_ != nullptr,
                    "factory for stage '" + spec_.name + "' returned null");
  }

  void init() {
    // Observability handles, re-resolved on revive (idempotent): the
    // PhaseClock is stable for the stage name's lifetime.
    profile_ = obs::Profiler::global().enabled()
                   ? &obs::Profiler::global().stage(spec_.name)
                   : nullptr;
    tracer_active_ = obs::PacketTracer::global().active();
    in_init_ = true;
    processor_->init(*this);
    in_init_ = false;
  }

  // -- wiring (engine setup) -------------------------------------------------
  void add_route(Route route) {
    if (route.channel == nullptr && engine_.config_.failover.enabled) {
      channels_.push_back(std::make_unique<ReplayChannel>(
          engine_.config_.failover.replay_buffer_packets));
      route.channel = channels_.back().get();
    }
    routes_.push_back(route);
  }
  void add_inbound_link(net::SimLink* link) {
    if (std::find(inbound_links_.begin(), inbound_links_.end(), link) ==
        inbound_links_.end()) {
      inbound_links_.push_back(link);
    }
  }
  void clear_inbound_links() { inbound_links_.clear(); }
  void add_upstream(StageRuntime* stage) {
    if (stage != nullptr &&
        std::find(upstreams_.begin(), upstreams_.end(), stage) ==
            upstreams_.end()) {
      upstreams_.push_back(stage);
    }
  }
  void set_eos_expected(std::size_t n) { eos_expected_ = n; }
  NodeId node() const { return node_; }
  std::vector<Route>& routes() { return routes_; }
  /// Dynamic resource variation: subsequent services run at the new speed.
  void set_cpu_factor(double factor) {
    GATES_CHECK(factor > 0);
    cpu_factor_ = factor;
  }

  /// Crashes this stage: discards its queue, refuses future deliveries, and
  /// raises EOS downstream on its behalf (the middleware's failure
  /// detection). Counts toward pipeline completion. The legacy, no-failover
  /// degradation.
  void fail() {
    if (finished_ || failed_) return;
    failed_ = true;
    ++incarnation_;
    const std::size_t discarded = queue_.size();
    queue_.clear();
    packets_dropped_ += discarded;
    for (net::SimLink* link : inbound_links_) link->notify_space();
    GATES_TRACE(.time = engine_.sim_.now(), .kind = obs::TraceKind::kCrash,
                .component = spec_.name, .detail = "fail (eos on behalf)",
                .value_new = static_cast<double>(discarded));
    raise_eos_on_behalf();
    GATES_LOG(kWarn, "sim-engine")
        << "stage '" << spec_.name << "' failed at t=" << engine_.sim_.now();
  }

  /// Crash-stop for the failover path: the stage goes dark (queued input
  /// and in-flight messages toward it are lost) but no EOS is raised — the
  /// failure detector and the re-placement path decide what happens next.
  void crash() {
    if (finished_ || failed_) return;
    failed_ = true;
    ++incarnation_;
    packets_dropped_ += queue_.size();
    queue_.clear();
    for (net::SimLink* link : inbound_links_) {
      packets_dropped_ += link->drop_messages_for(this);
      link->notify_space();
    }
    GATES_TRACE(.time = engine_.sim_.now(), .kind = obs::TraceKind::kCrash,
                .component = spec_.name, .detail = "crash-stop");
    trace_heartbeat_transition(spec_.name, engine_.sim_.now(), "suspect");
    GATES_LOG(kWarn, "sim-engine")
        << "stage '" << spec_.name << "' crashed at t=" << engine_.sim_.now();
  }

  /// Failover gave up on this crashed stage: degrade exactly like fail().
  void abandon() {
    if (finished_ || !failed_) return;
    GATES_TRACE(.time = engine_.sim_.now(), .kind = obs::TraceKind::kAbandoned,
                .component = spec_.name);
    raise_eos_on_behalf();
    GATES_LOG(kWarn, "sim-engine")
        << "stage '" << spec_.name << "' abandoned at t=" << engine_.sim_.now();
  }

  /// Re-deploys this stage on `node` with a fresh processor from `factory`
  /// (empty = the stage's own spec factory). Counters and EOS bookkeeping
  /// carry over; processor state starts from init() + on_recover().
  void revive(NodeId node, double cpu_factor, const ProcessorFactory& factory) {
    GATES_CHECK(failed_ && !finished_);
    node_ = node;
    cpu_factor_ = cpu_factor;
    processor_ = factory ? factory() : spec_.factory();
    GATES_CHECK_MSG(processor_ != nullptr,
                    "replacement factory for stage '" + spec_.name +
                        "' returned null");
    adaptation_.clear_parameters();
    failed_ = false;
    busy_ = false;
    // New incarnation: anything still in flight from before the revival is
    // stale (its retained copy is about to be replayed) and must not be
    // double-delivered.
    ++incarnation_;
    ++recoveries_;
    init();
    processor_->on_recover(*this);
  }

  bool failed() const { return failed_; }
  std::uint64_t incarnation() const { return incarnation_; }

  // -- net::MessageSink --------------------------------------------------------
  bool try_deliver(net::SimMessage&& msg) override {
    const auto* peek = std::any_cast<Delivery>(&msg.payload);
    if (failed_ || peek->dest_incarnation != incarnation_) {
      // A crashed host blackholes traffic, and a revived one rejects stale
      // in-flight messages from before its outage; the sender's
      // backpressure and the failure handling (EOS on behalf, or detection
      // + replay) cover the rest.
      ++packets_dropped_;
      GATES_TRACE(.time = engine_.sim_.now(),
                  .kind = obs::TraceKind::kPacketDrop, .component = spec_.name,
                  .detail = failed_ ? "blackholed (host down)"
                                    : "stale incarnation",
                  .value_new = 1);
      return true;
    }
    if (queue_.size() >= spec_.input_capacity) return false;
    Delivery d = std::any_cast<Delivery>(std::move(msg.payload));
    d.arrived_at = engine_.sim_.now();
    if (d.via != nullptr) {
      if (profile_ != nullptr) {
        // Link transit (latency + serialization + backlog) charged to the
        // link's shaper-delay phase, same family as the Rt LinkShaper.
        engine_.link_clock_for(d.via)->add(obs::Phase::kShaperDelay,
                                           d.arrived_at - d.sent_at);
      }
      if (tracer_active_ && d.packet.trace.sampled()) {
        GATES_TRACE(.time = d.sent_at, .duration = d.arrived_at - d.sent_at,
                    .kind = obs::TraceKind::kPacketHop,
                    .component = d.via->config().name, .detail = "link",
                    .trace_id = d.packet.trace.trace_id,
                    .hop = d.packet.trace.hop);
      }
    }
    queue_.push_back(std::move(d));
    begin_service();
    return true;
  }

  // -- Emitter -----------------------------------------------------------------
  void emit(Packet packet, std::size_t port = 0) override {
    ++packets_emitted_;
    bool routed = false;
    for (auto& route : routes_) {
      if (route.port != port) continue;
      net::SimMessage msg;
      msg.wire_bytes = engine_.config_.wire.wire_size(packet.payload_bytes(),
                                                      packet.records);
      msg.sink = route.dest;
      msg.source_stage = static_cast<StageId>(index_);
      msg.barrier = packet.is_eos();
      Delivery d;
      d.packet = packet;  // copy: the same packet may take several routes
      d.dest_incarnation = route.dest->incarnation();
      d.sent_at = engine_.sim_.now();
      d.via = route.link;
      if (route.channel != nullptr) {
        d.origin = route.channel;
        d.seq = route.channel->retain(d.packet);
      }
      msg.payload = std::move(d);
      if (!route.link->send(std::move(msg))) {
        ++packets_dropped_;
        GATES_TRACE(.time = engine_.sim_.now(),
                    .kind = obs::TraceKind::kPacketDrop,
                    .component = spec_.name, .detail = "link send failed",
                    .value_new = 1);
      }
      routed = true;
    }
    if (!routed && !packet.is_eos()) {
      ++packets_unrouted_;
    }
  }

  // -- ProcessorContext ---------------------------------------------------------
  AdjustmentParameter& specify_parameter(
      AdjustmentParameter::Spec param_spec) override {
    GATES_CHECK_MSG(in_init_, "specify_parameter must be called from init()");
    return adaptation_.specify(std::move(param_spec));
  }
  const Properties& properties() const override { return spec_.properties; }
  Rng& rng() override { return rng_; }
  TimePoint now() const override { return engine_.sim_.now(); }
  StageId stage_id() const override { return static_cast<StageId>(index_); }
  const std::string& stage_name() const override { return spec_.name; }

  // -- adaptation ---------------------------------------------------------------
  StageAdaptation& adaptation() { return adaptation_; }

  /// One control period over the stage's own queue. A scale step takes
  /// effect at once: the DES pool is one server at a multiplied rate.
  void control_step() {
    if (failed_) return;
    const StageAdaptation::Outcome out = adaptation_.step(
        static_cast<double>(queue_.size()), active_replicas_,
        engine_.sim_.now(), engine_.config_.adaptation_enabled,
        {packets_processed_, packets_emitted_, packets_dropped_});
    active_replicas_ = out.replicas;
    max_replicas_used_ = std::max(max_replicas_used_, active_replicas_);
    for (StageRuntime* up : upstreams_) up->adaptation().receive(out.propagate);
  }

  /// True while any outbound link's backlog exceeds the send buffer; the
  /// stage stops consuming input (blocking-send semantics).
  bool outbound_blocked() const {
    for (const auto& route : routes_) {
      if (route.link->backlog_seconds() >= spec_.send_buffer_seconds) {
        return true;
      }
    }
    return false;
  }

  // -- service loop ---------------------------------------------------------------
  void begin_service() {
    if (busy_ || finished_ || failed_ || queue_.empty()) return;
    if (outbound_blocked()) {
      ++blocked_events_;
      return;  // resumed by the link's drain listener
    }
    busy_ = true;
    Delivery item = std::move(queue_.front());
    queue_.pop_front();
    // Space freed: let stalled inbound links resume delivery.
    for (net::SimLink* link : inbound_links_) link->notify_space();
    // Replicated stages serve at a multiplied rate: the DES models the pool
    // as a single server `active_replicas_` times faster (order-preserving
    // merge makes the pool externally indistinguishable from that).
    const Duration service = spec_.cost.service_time(item.packet) /
                             (cpu_factor_ * static_cast<double>(active_replicas_));
    busy_time_ += service;
    if (profile_ != nullptr) {
      if (item.arrived_at > 0) {
        profile_->add(obs::Phase::kInboxWait,
                      engine_.sim_.now() - item.arrived_at);
      }
      profile_->add(obs::Phase::kService, service);
    }
    if (!tracer_active_) {
      // Legacy behaviour (sampling off): every service gets a span whenever
      // the TraceBuffer is enabled.
      GATES_TRACE(.time = engine_.sim_.now(), .duration = service,
                  .kind = obs::TraceKind::kServiceSpan,
                  .component = spec_.name);
    } else if (item.packet.trace.sampled()) {
      ++item.packet.trace.hop;
      if (item.arrived_at > 0 &&
          engine_.sim_.now() > item.arrived_at) {
        GATES_TRACE(.time = item.arrived_at,
                    .duration = engine_.sim_.now() - item.arrived_at,
                    .kind = obs::TraceKind::kPacketHop,
                    .component = spec_.name, .detail = "inbox-wait",
                    .trace_id = item.packet.trace.trace_id,
                    .hop = item.packet.trace.hop);
      }
      GATES_TRACE(.time = engine_.sim_.now(), .duration = service,
                  .kind = obs::TraceKind::kPacketHop,
                  .component = spec_.name, .detail = "service",
                  .trace_id = item.packet.trace.trace_id,
                  .hop = item.packet.trace.hop);
    }
    auto shared = std::make_shared<Delivery>(std::move(item));
    const std::uint64_t inc = incarnation_;
    engine_.sim_.schedule_after(service, [this, shared, inc] {
      complete_service(std::move(*shared), inc);
    });
  }

  void complete_service(Delivery item, std::uint64_t incarnation) {
    if (incarnation != incarnation_) return;  // crashed while serving
    busy_ = false;
    if (failed_) return;
    // Processing is the acknowledgment point: the packet's effects are now
    // in this stage's state (and anything it emitted is downstream), so the
    // sender may release it from retention.
    if (item.origin != nullptr) item.origin->ack(item.seq);
    Packet& packet = item.packet;
    if (packet.is_eos()) {
      ++eos_received_;
      if (eos_received_ >= eos_expected_ && !finished_) {
        processor_->finish(*this);
        for (auto& route : routes_) {
          send_eos_on_route(route, packet.stream);
        }
        finished_ = true;
        GATES_TRACE(.time = engine_.sim_.now(),
                    .kind = obs::TraceKind::kStageFinished,
                    .component = spec_.name);
        engine_.on_stage_finished();
        return;
      }
    } else {
      ++packets_processed_;
      records_processed_ += packet.records;
      bytes_processed_ += packet.payload_bytes();
      if (profile_ != nullptr) profile_->add_packets(1);
      latency_.add(engine_.sim_.now() - packet.created_at);
      processor_->process(packet, *this);
    }
    begin_service();
  }

  // -- failover support --------------------------------------------------------
  /// Re-sends every retained (unacked) packet of `route`'s channel — called
  /// after the route's destination was revived and rewired.
  std::uint64_t replay_route(Route& route) {
    if (route.channel == nullptr) return 0;
    std::uint64_t n = 0;
    route.channel->ring.for_each_unacked([&](std::uint64_t seq,
                                             const Packet& packet) {
      net::SimMessage msg;
      msg.wire_bytes = engine_.config_.wire.wire_size(packet.payload_bytes(),
                                                      packet.records);
      msg.sink = route.dest;
      msg.source_stage = static_cast<StageId>(index_);
      msg.barrier = packet.is_eos();
      Delivery d;
      d.packet = packet;
      d.origin = route.channel;
      d.seq = seq;
      d.dest_incarnation = route.dest->incarnation();
      d.sent_at = engine_.sim_.now();
      d.via = route.link;
      if (tracer_active_ && d.packet.trace.sampled()) {
        GATES_TRACE(.time = engine_.sim_.now(),
                    .kind = obs::TraceKind::kPacketHop,
                    .component = spec_.name,
                    .detail = "replay",
                    .trace_id = d.packet.trace.trace_id,
                    .hop = d.packet.trace.hop);
      }
      msg.payload = std::move(d);
      if (route.link->send(std::move(msg))) ++n;
    });
    return n;
  }

  // -- migration support -------------------------------------------------------
  /// Serializes the live processor into one replica blob (empty when the
  /// processor declines checkpoint()). No quiesce work is needed here: the
  /// DES delivers one event at a time and processing is the ack point, so
  /// any event boundary is an ack boundary — state reflects exactly the
  /// acked packets, the unacked tail sits in the senders' retention rings.
  bool capture_checkpoint(StageCheckpoint& out) {
    out.incarnation = incarnation_;
    ByteBuffer blob;
    StateWriter w(blob);
    const bool wrote = processor_->checkpoint(w);
    out.replicas.clear();
    out.replicas.push_back(wrote ? std::move(blob) : ByteBuffer{});
    return true;
  }

  /// revive() for a *live* stage: fresh processor on the target restored
  /// from the checkpoint (or via on_recover() when it was declined), the
  /// incarnation bump cancelling in-flight deliveries and the pending
  /// service completion, the queue dropped — its contents are unacked, so
  /// the replay tail re-delivers them to the new incarnation.
  void resume_migrated(NodeId node, double cpu_factor,
                       const ProcessorFactory& factory,
                       const StageCheckpoint& ckpt, bool& used_checkpoint) {
    GATES_CHECK(!failed_ && !finished_);
    node_ = node;
    cpu_factor_ = cpu_factor;
    processor_ = factory ? factory() : spec_.factory();
    GATES_CHECK_MSG(processor_ != nullptr,
                    "migration factory for stage '" + spec_.name +
                        "' returned null");
    adaptation_.clear_parameters();
    queue_.clear();  // unacked: replayed below, not lost
    busy_ = false;
    ++incarnation_;
    init();
    used_checkpoint = false;
    if (!ckpt.replicas.empty() && ckpt.replicas.front().size() != 0) {
      StateReader r(ckpt.replicas.front());
      used_checkpoint = processor_->restore(r);
    }
    if (!used_checkpoint) processor_->on_recover(*this);
  }

  // -- reporting --------------------------------------------------------------------
  StageReport build_report() const {
    StageReport r;
    r.name = spec_.name;
    r.node = node_;
    r.packets_processed = packets_processed_;
    r.records_processed = records_processed_;
    r.bytes_processed = bytes_processed_;
    r.packets_emitted = packets_emitted_;
    r.packets_dropped = packets_dropped_;
    r.busy_time = busy_time_;
    r.packet_latency = latency_;
    r.final_replicas = active_replicas_;
    r.max_replicas_used = max_replicas_used_;
    adaptation_.fill(r);
    return r;
  }

  StreamProcessor& processor() { return *processor_; }
  std::size_t active_replicas() const { return active_replicas_; }
  bool finished() const { return finished_; }
  const std::string& name() const { return spec_.name; }
  std::size_t recoveries() const { return recoveries_; }

 private:
  void raise_eos_on_behalf() {
    for (auto& route : routes_) {
      send_eos_on_route(route, 0);
    }
    finished_ = true;
    engine_.on_stage_finished();
  }

  void send_eos_on_route(Route& route, StreamId stream) {
    Packet eos = Packet::eos(stream, engine_.sim_.now());
    net::SimMessage msg;
    msg.wire_bytes = engine_.config_.wire.per_message_overhead;
    msg.sink = route.dest;
    msg.source_stage = static_cast<StageId>(index_);
    msg.barrier = true;
    Delivery d;
    d.packet = std::move(eos);
    d.dest_incarnation = route.dest->incarnation();
    d.sent_at = engine_.sim_.now();
    d.via = route.link;
    if (route.channel != nullptr) {
      d.origin = route.channel;
      d.seq = route.channel->retain(d.packet);
    }
    msg.payload = std::move(d);
    route.link->send(std::move(msg));
  }

  SimEngine& engine_;
  std::size_t index_;
  const StageSpec& spec_;
  NodeId node_;
  double cpu_factor_;

  std::unique_ptr<StreamProcessor> processor_;
  std::deque<Delivery> queue_;
  std::vector<net::SimLink*> inbound_links_;
  std::vector<Route> routes_;
  std::vector<std::unique_ptr<ReplayChannel>> channels_;
  std::vector<StageRuntime*> upstreams_;

  StageAdaptation adaptation_;
  Rng rng_;

  // Replica pool model (1 server, multiplied service rate).
  std::size_t active_replicas_;
  std::size_t max_replicas_used_;

  bool in_init_ = false;
  bool busy_ = false;
  bool finished_ = false;
  bool failed_ = false;
  /// Bumped on every crash; stale service-completion events compare against
  /// it and abort, so a revived stage never sees pre-crash completions.
  std::uint64_t incarnation_ = 0;
  std::size_t recoveries_ = 0;
  std::size_t eos_expected_ = 0;
  std::size_t eos_received_ = 0;

  std::uint64_t packets_processed_ = 0;
  std::uint64_t records_processed_ = 0;
  std::uint64_t bytes_processed_ = 0;
  std::uint64_t packets_emitted_ = 0;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t packets_unrouted_ = 0;
  std::uint64_t blocked_events_ = 0;
  Duration busy_time_ = 0;
  RunningStats latency_;

  // Observability handles, resolved at init() (and re-resolved on revive).
  obs::PhaseClock* profile_ = nullptr;
  bool tracer_active_ = false;
};

// ---------------------------------------------------------------------------
// SourceRuntime: a data-stream source pinned to a node, feeding one stage.
// ---------------------------------------------------------------------------
class SimEngine::SourceRuntime {
 public:
  SourceRuntime(SimEngine& engine, const SourceSpec& spec,
                StageRuntime* target, net::SimLink* link, Rng rng)
      : engine_(engine), spec_(spec), target_(target), link_(link), rng_(rng) {
    if (engine_.config_.failover.enabled) {
      channel_ = std::make_unique<ReplayChannel>(
          engine_.config_.failover.replay_buffer_packets);
    }
  }

  void start() { schedule_next(0.0); }

  StageRuntime* target() { return target_; }
  /// Failover rewiring: subsequent (and replayed) packets use the new link.
  void set_link(net::SimLink* link) { link_ = link; }
  ReplayChannel* channel() { return channel_.get(); }

  std::uint64_t replay() {
    if (channel_ == nullptr) return 0;
    std::uint64_t n = 0;
    channel_->ring.for_each_unacked([&](std::uint64_t seq,
                                        const Packet& packet) {
      net::SimMessage msg;
      msg.wire_bytes = engine_.config_.wire.wire_size(packet.payload_bytes(),
                                                      packet.records);
      msg.sink = target_;
      msg.barrier = packet.is_eos();
      Delivery d;
      d.packet = packet;
      d.origin = channel_.get();
      d.seq = seq;
      d.dest_incarnation = target_->incarnation();
      d.sent_at = engine_.sim_.now();
      d.via = link_;
      msg.payload = std::move(d);
      if (link_->send(std::move(msg))) ++n;
    });
    return n;
  }

 private:
  void schedule_next(Duration delay) {
    engine_.sim_.schedule_after(delay, [this] { emit_one(); });
  }

  void send_packet(Packet packet, std::size_t wire_bytes) {
    net::SimMessage msg;
    msg.wire_bytes = wire_bytes;
    msg.sink = target_;
    msg.barrier = packet.is_eos();
    Delivery d;
    d.packet = std::move(packet);
    d.dest_incarnation = target_->incarnation();
    d.sent_at = engine_.sim_.now();
    d.via = link_;
    if (channel_ != nullptr) {
      d.origin = channel_.get();
      d.seq = channel_->retain(d.packet);
    }
    msg.payload = std::move(d);
    link_->send(std::move(msg));
  }

  void emit_one() {
    auto& sim = engine_.sim_;
    Packet packet;
    if (spec_.generator) {
      packet = spec_.generator(seq_, rng_);
    } else {
      packet.payload.resize(spec_.packet_bytes);
    }
    packet.stream = spec_.stream;
    packet.sequence = seq_;
    packet.created_at = sim.now();
    ++seq_;
    if (obs::PacketTracer::global().active()) {
      packet.trace = obs::PacketTracer::global().maybe_sample();
      if (packet.trace.sampled()) {
        GATES_TRACE(.time = packet.created_at,
                    .kind = obs::TraceKind::kPacketHop,
                    .component = "source:" + std::to_string(spec_.stream),
                    .detail = "emit",
                    .trace_id = packet.trace.trace_id,
                    .hop = packet.trace.hop);
      }
    }

    const std::size_t wire =
        engine_.config_.wire.wire_size(packet.payload_bytes(), packet.records);
    send_packet(std::move(packet), wire);

    if (spec_.total_packets != 0 && seq_ >= spec_.total_packets) {
      // End of stream: an EOS marker follows the last data packet FIFO.
      send_packet(Packet::eos(spec_.stream, sim.now()),
                  engine_.config_.wire.per_message_overhead);
      return;
    }
    const Duration gap = spec_.poisson ? rng_.exponential(spec_.rate_hz)
                                       : 1.0 / spec_.rate_hz;
    schedule_next(gap);
  }

  SimEngine& engine_;
  const SourceSpec& spec_;
  StageRuntime* target_;
  net::SimLink* link_;
  std::unique_ptr<ReplayChannel> channel_;
  Rng rng_;
  std::uint64_t seq_ = 0;
};

// ---------------------------------------------------------------------------
// SimEngine
// ---------------------------------------------------------------------------

adapt::QueueMonitorConfig SimEngine::default_link_monitor() {
  // Link monitors observe backlog in SECONDS (queued bytes / bandwidth), so
  // thresholds are drain times: more than 5 s of queued data is an
  // over-load observation, under half a second an under-load one.
  adapt::QueueMonitorConfig cfg;
  cfg.capacity = 120;
  cfg.expected_length = 1;
  cfg.over_threshold = 2.5;
  cfg.under_threshold = 0.25;
  cfg.window = 12;
  cfg.alpha = 0.7;
  cfg.p1 = 0.15;
  cfg.p2 = 0.35;
  cfg.p3 = 0.50;
  cfg.lt1 = -0.10;
  cfg.lt2 = +0.10;
  cfg.dbar_window = 8;
  return cfg;
}

SimEngine::SimEngine(PipelineSpec spec, Placement placement, HostModel hosts,
                     net::Topology topology, Config config)
    : spec_(std::move(spec)),
      placement_(std::move(placement)),
      hosts_(std::move(hosts)),
      topology_(std::move(topology)),
      config_(config),
      root_rng_(config.seed),
      retry_rng_(root_rng_.fork(3000)) {}

SimEngine::~SimEngine() = default;

net::SimLink* SimEngine::link_for_flow(NodeId from, NodeId to) {
  if (from == to) {
    auto& slot = loopback_links_[to];
    if (!slot) {
      net::SimLink::Config cfg;
      cfg.name = "loopback@" + std::to_string(to);
      const auto spec = net::Topology::loopback();
      cfg.bandwidth = spec.bandwidth;
      cfg.latency = spec.latency;
      slot = std::make_unique<net::SimLink>(sim_, cfg);
    }
    return slot.get();
  }
  if (auto shared = topology_.shared_ingress(to)) {
    auto& slot = ingress_links_[to];
    if (!slot) {
      net::SimLink::Config cfg;
      cfg.name = "ingress@" + std::to_string(to);
      cfg.bandwidth = shared->bandwidth;
      cfg.latency = shared->latency;
      cfg.impair = shared->impair;
      cfg.rng = root_rng_.fork(2000 + impair_stream_++);
      slot = std::make_unique<net::SimLink>(sim_, cfg);
      monitored_links_.push_back(
          std::make_unique<MonitoredLink>(slot.get(), config_.link_monitor));
    }
    return slot.get();
  }
  auto key = std::make_pair(from, to);
  auto& slot = pair_links_[key];
  if (!slot) {
    const auto spec = topology_.between(from, to);
    net::SimLink::Config cfg;
    cfg.name = "link:" + std::to_string(from) + "->" + std::to_string(to);
    cfg.bandwidth = spec.bandwidth;
    cfg.latency = spec.latency;
    cfg.impair = spec.impair;
    cfg.rng = root_rng_.fork(2000 + impair_stream_++);
    slot = std::make_unique<net::SimLink>(sim_, cfg);
    monitored_links_.push_back(
        std::make_unique<MonitoredLink>(slot.get(), config_.link_monitor));
  }
  return slot.get();
}

obs::PhaseClock* SimEngine::link_clock_for(const net::SimLink* link) {
  auto& slot = link_clocks_[link];
  if (slot == nullptr) {
    // Profiler::link() takes a mutex; the DES is single-threaded, so cache
    // the handle per link and pay the lookup once.
    slot = &obs::Profiler::global().link(link->config().name);
  }
  return slot;
}

net::SimLink* SimEngine::attach_flow(StageRuntime* sender, StageRuntime* dest) {
  net::SimLink* link = link_for_flow(sender->node(), dest->node());
  for (auto& ml : monitored_links_) {
    if (ml->link == link) ml->add_sender(sender);
  }
  // Blocking-send resume: when the link drains, blocked senders retry.
  link->add_drain_listener([sender] { sender->begin_service(); });
  dest->add_inbound_link(link);
  return link;
}

Status SimEngine::setup() {
  if (setup_done_) return Status::ok();
  if (auto s = spec_.validate(); !s.is_ok()) return s;
  if (placement_.stage_nodes.size() != spec_.stages.size()) {
    return invalid_argument("placement covers " +
                            std::to_string(placement_.stage_nodes.size()) +
                            " stages but pipeline has " +
                            std::to_string(spec_.stages.size()));
  }
  for (const auto& stage : spec_.stages) {
    if (!stage.factory) {
      return failed_precondition(
          "stage '" + stage.name +
          "' has no processor factory (deploy through gates::grid::Deployer "
          "to resolve its URI, or set StageSpec::factory)");
    }
  }

  // Instantiate stages.
  for (std::size_t i = 0; i < spec_.stages.size(); ++i) {
    stages_.push_back(std::make_unique<StageRuntime>(
        *this, i, spec_.stages[i], placement_.stage_nodes[i],
        hosts_.at(placement_.stage_nodes[i]), root_rng_.fork(1000 + i)));
  }

  // Wire stage-to-stage edges.
  for (const auto& edge : spec_.edges) {
    StageRuntime* sender = stages_[edge.from_stage].get();
    StageRuntime* dest = stages_[edge.to_stage].get();
    net::SimLink* link = attach_flow(sender, dest);
    sender->add_route({link, dest, edge.port, nullptr});
    dest->add_upstream(sender);
  }

  // Wire sources.
  for (std::size_t i = 0; i < spec_.sources.size(); ++i) {
    const auto& src = spec_.sources[i];
    StageRuntime* target = stages_[src.target_stage].get();
    net::SimLink* link =
        link_for_flow(src.location, placement_.stage_nodes[src.target_stage]);
    target->add_inbound_link(link);
    sources_.push_back(std::make_unique<SourceRuntime>(
        *this, src, target, link, root_rng_.fork(i)));
  }

  // EOS bookkeeping.
  for (std::size_t i = 0; i < spec_.stages.size(); ++i) {
    stages_[i]->set_eos_expected(spec_.fan_in(i));
  }

  // Initialize processors (parameters get registered here).
  for (auto& stage : stages_) stage->init();

  // Dynamic resource variation events.
  for (const auto& change : cpu_changes_) {
    sim_.schedule_at(change.time, [this, change] {
      for (auto& stage : stages_) {
        if (stage->node() == change.node) stage->set_cpu_factor(change.factor);
      }
      GATES_LOG(kInfo, "sim-engine")
          << "node " << change.node << " cpu factor -> " << change.factor;
    });
  }
  for (const auto& change : bandwidth_changes_) {
    // Resolve (or create) the link now so the event is cheap and the change
    // also applies when the flow has not carried traffic yet.
    net::SimLink* link = link_for_flow(change.from, change.to);
    sim_.schedule_at(change.time, [link, change] {
      link->set_bandwidth(change.bandwidth);
      GATES_LOG(kInfo, "sim-engine")
          << "flow " << change.from << "->" << change.to << " bandwidth -> "
          << change.bandwidth;
    });
  }

  for (const auto& change : link_changes_) {
    net::SimLink* link = link_for_flow(change.from, change.to);
    // The transition is classified against the flow's *configured* spec, so
    // a later change back to it traces as a restore.
    const net::LinkSpec base =
        change.from == change.to ? net::Topology::loopback()
        : topology_.shared_ingress(change.to)
            ? *topology_.shared_ingress(change.to)
            : topology_.between(change.from, change.to);
    sim_.schedule_at(change.time, [this, link, change, base] {
      link->apply_spec(change.spec);
      const net::LinkTransition tr =
          net::classify_transition(base, change.spec);
      const obs::TraceKind kind =
          tr == net::LinkTransition::kPartition ? obs::TraceKind::kPartition
          : tr == net::LinkTransition::kDegrade ? obs::TraceKind::kLinkDegrade
                                                : obs::TraceKind::kLinkRestore;
      GATES_TRACE(.time = sim_.now(), .kind = kind,
                  .component = link->config().name,
                  .detail = net::describe_spec(change.spec),
                  .value_old = base.bandwidth,
                  .value_new = change.spec.bandwidth);
      GATES_LOG(kInfo, "sim-engine")
          << "flow " << change.from << "->" << change.to << " link change: "
          << net::describe_spec(change.spec);
    });
  }

  // Lease validation (heartbeats travel the same impaired links as data): a
  // lease shorter than one period + 2x the worst one-way delay can expire
  // on delay alone, so widen suspicion_beats to the false-positive-free
  // floor before the detector arms.
  if (config_.failover.enabled) {
    Duration worst = topology_.worst_case_one_way();
    for (const auto& change : link_changes_) {
      worst = std::max(worst, change.spec.worst_case_one_way());
    }
    const std::size_t beats = lease_beats_for_delay(
        config_.failover.heartbeat_period, worst,
        config_.failover.suspicion_beats);
    if (beats > config_.failover.suspicion_beats) {
      GATES_LOG(kInfo, "sim-engine")
          << "lease " << config_.failover.lease() << "s cannot cover worst "
          << "one-way delay " << worst << "s; suspicion_beats "
          << config_.failover.suspicion_beats << " -> " << beats;
      config_.failover.suspicion_beats = beats;
    }
  }

  for (const auto& failure : node_failures_) {
    sim_.schedule_at(failure.time, [this, failure] {
      on_node_failure(failure.node, failure.time);
    });
  }
  for (const auto& recovery : node_recoveries_) {
    sim_.schedule_at(recovery.time, [this, recovery] {
      auto it =
          std::find(down_nodes_.begin(), down_nodes_.end(), recovery.node);
      if (it != down_nodes_.end()) down_nodes_.erase(it);
      GATES_LOG(kInfo, "sim-engine")
          << "node " << recovery.node << " recovered at t=" << sim_.now();
    });
  }

  for (const auto& req : migration_requests_) {
    sim_.schedule_at(req.time, [this, req] {
      migrate_stage(req.stage, req.target);
    });
  }

  // Start sources and the control loop.
  for (auto& source : sources_) source->start();
  control_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, config_.control_period, [this] {
        control_tick();
        return !completed_;
      });

  setup_done_ = true;
  return Status::ok();
}

void SimEngine::control_tick() {
  // Real (not virtual) time: the fold cost gauge measures how expensive the
  // observability pass is for the process, and virtual time does not advance
  // inside a tick.
  const auto tick_start = std::chrono::steady_clock::now();
  // Links first: network pressure reaches the sending stages in the same
  // period as stage-queue pressure.
  for (auto& ml : monitored_links_) {
    const double d = ml->link->backlog_seconds();
    ml->queue_samples.add(d);
    adapt::LoadSignal signal = ml->monitor.observe(d);
    // A stalled link is empty only because its receiver refuses delivery;
    // that is not spare capacity, so it must not solicit more data.
    if (signal == adapt::LoadSignal::kUnderload && ml->link->stalled()) {
      signal = adapt::LoadSignal::kNone;
    }
    if (signal == adapt::LoadSignal::kOverload) {
      ++ml->overload_sent;
      GATES_TRACE(.time = sim_.now(),
                  .kind = obs::TraceKind::kOverloadException,
                  .component = ml->link->config().name, .dtilde = d);
    }
    if (signal == adapt::LoadSignal::kUnderload) {
      ++ml->underload_sent;
      GATES_TRACE(.time = sim_.now(),
                  .kind = obs::TraceKind::kUnderloadException,
                  .component = ml->link->config().name, .dtilde = d);
    }
    for (StageRuntime* sender : ml->senders) {
      sender->adaptation().receive(signal);
    }
    if (obs::MetricsRegistry::global().enabled()) ml->sample_metrics();
  }
  for (auto& stage : stages_) stage->control_step();
  if (obs::Profiler::global().enabled()) {
    obs::fold_profiler_into_metrics(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      tick_start)
            .count());
  }
}

void SimEngine::on_stage_finished() {
  ++finished_stages_;
  if (finished_stages_ == stages_.size()) {
    completed_ = true;
    completion_time_ = sim_.now();
    sim_.stop();
  }
}

// -- failover ----------------------------------------------------------------

bool SimEngine::node_down(NodeId node) const {
  return std::find(down_nodes_.begin(), down_nodes_.end(), node) !=
         down_nodes_.end();
}

Duration SimEngine::heartbeat_delay(NodeId node) const {
  Duration d = topology_.worst_case_one_way(node);
  for (const auto& change : link_changes_) {
    if (change.from == node || change.to == node) {
      d = std::max(d, change.spec.worst_case_one_way());
    }
  }
  return d;
}

void SimEngine::on_node_failure(NodeId node, TimePoint t) {
  if (!node_down(node)) {
    down_nodes_.push_back(node);
    std::sort(down_nodes_.begin(), down_nodes_.end());
  }
  const auto& fo = config_.failover;
  // Failure detector model: the node beats every heartbeat_period; the K-th
  // consecutive missed beat declares it down. Deterministic by arithmetic
  // instead of simulating each beat. The last heartbeat that did arrive was
  // in flight for up to the worst one-way delay of the node's links, which
  // shifts the whole observation window later by that much.
  const TimePoint detect_t =
      fo.heartbeat_period *
          (std::floor(t / fo.heartbeat_period) +
           static_cast<double>(fo.suspicion_beats)) +
      heartbeat_delay(node);
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    StageRuntime* stage = stages_[i].get();
    if (stage->node() != node || stage->finished() || stage->failed()) continue;
    FailureReport rec;
    rec.node = node;
    rec.stage = stage->name();
    rec.failed_at = t;
    if (!fo.enabled) {
      // Legacy path: omniscient detection, EOS on the stage's behalf.
      rec.detected_at = t;
      rec.outcome = FailureReport::Outcome::kEosOnBehalf;
      failures_.push_back(std::move(rec));
      stage->fail();
      continue;
    }
    const TimePoint when = std::max(detect_t, t);
    rec.detected_at = when;
    failures_.push_back(std::move(rec));
    const std::size_t report_index = failures_.size() - 1;
    stage->crash();
    sim_.schedule_at(when, [this, i, report_index] {
      on_failure_detected(i, report_index);
    });
  }
}

void SimEngine::on_failure_detected(std::size_t stage_index,
                                    std::size_t report_index) {
  StageRuntime* stage = stages_[stage_index].get();
  if (stage->finished() || !stage->failed()) return;  // already resolved
  GATES_TRACE(.time = sim_.now(), .kind = obs::TraceKind::kFailureDetected,
              .component = stage->name(),
              .value_old = failures_[report_index].failed_at);
  trace_heartbeat_transition(stage->name(), sim_.now(), "dead");
  GATES_LOG(kInfo, "sim-engine")
      << "failure of stage '" << stage->name() << "' detected at t="
      << sim_.now();
  try_failover(stage_index, report_index, 0);
}

std::optional<ReplacementDecision> SimEngine::default_replacement(
    std::size_t stage_index) const {
  std::vector<NodeId> nodes;
  for (const auto& stage : stages_) nodes.push_back(stage->node());
  return least_loaded_target(
      spec_, hosts_, nodes, [this](NodeId n) { return !node_down(n); },
      [&](std::size_t i) { return i != stage_index && !stages_[i]->failed(); });
}

void SimEngine::try_failover(std::size_t stage_index, std::size_t report_index,
                             std::size_t attempt) {
  StageRuntime* stage = stages_[stage_index].get();
  if (stage->finished() || !stage->failed()) return;
  FailureReport& rec = failures_[report_index];
  rec.attempts = attempt + 1;
  std::optional<ReplacementDecision> decision =
      replacement_provider_ ? replacement_provider_(stage_index, down_nodes_)
                            : default_replacement(stage_index);
  if (decision && decision->node != kInvalidNode &&
      !node_down(decision->node)) {
    revive_stage(stage_index, *decision, rec);
    return;
  }
  if (config_.failover.retry.exhausted(attempt + 1)) {
    rec.outcome = FailureReport::Outcome::kAbandoned;
    stage->abandon();
    return;
  }
  // Jittered backoff (satellite of the chaos work): replicas knocked out by
  // one partition must not retry in lockstep. retry_rng_ is a forked seeded
  // stream, so the schedule stays deterministic per (config, seed).
  sim_.schedule_after(config_.failover.retry.delay(attempt + 1, retry_rng_),
                      [this, stage_index, report_index, attempt] {
                        try_failover(stage_index, report_index, attempt + 1);
                      });
}

void SimEngine::revive_stage(std::size_t stage_index,
                             const ReplacementDecision& decision,
                             FailureReport& record) {
  StageRuntime* stage = stages_[stage_index].get();
  const NodeId node = decision.node;
  stage->revive(node, hosts_.at(node), decision.factory);

  // Rewire: inbound flows now terminate at the stage's new node, outbound
  // flows originate from it. Links are created lazily as needed.
  stage->clear_inbound_links();
  std::uint64_t replayed = 0;
  std::uint64_t lost = 0;
  auto account = [&](ReplayChannel* ch) {
    if (ch == nullptr) return;
    lost += ch->ring.evicted() - ch->evicted_reported;
    ch->evicted_reported = ch->ring.evicted();
  };
  for (auto& up : stages_) {
    for (auto& route : up->routes()) {
      if (route.dest != stage) continue;
      route.link = attach_flow(up.get(), stage);
      account(route.channel);
      replayed += up->replay_route(route);
    }
  }
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    if (sources_[s]->target() != stage) continue;
    // Source locations are fixed (instruments); only the stage end moved.
    net::SimLink* link = link_for_flow(spec_.sources[s].location, node);
    sources_[s]->set_link(link);
    stage->add_inbound_link(link);
    account(sources_[s]->channel());
    replayed += sources_[s]->replay();
  }
  for (auto& route : stage->routes()) {
    route.link = attach_flow(stage, route.dest);
  }

  record.outcome = FailureReport::Outcome::kRecovered;
  record.recovered_on = node;
  record.recovered_at = sim_.now();
  record.packets_replayed = replayed;
  record.packets_lost_retention = lost;
  GATES_TRACE(.time = sim_.now(), .kind = obs::TraceKind::kRecovered,
              .component = stage->name(),
              .value_new = static_cast<double>(node));
  trace_failover_span(stage->name(), record.failed_at, sim_.now(), node,
                      replayed, lost);
  trace_heartbeat_transition(stage->name(), sim_.now(), "alive");
  GATES_LOG(kInfo, "sim-engine")
      << "stage '" << stage->name() << "' failed over to node " << node
      << " at t=" << sim_.now() << " (" << replayed << " replayed, " << lost
      << " lost to retention)";
}

void SimEngine::migrate_stage(std::size_t stage_index, NodeId target) {
  StageRuntime* stage = stages_[stage_index].get();
  const NodeId from = stage->node();
  ReplacementDecision decision;

  MigrationCoordinator::Hooks hooks;
  hooks.quiesce = [&](std::string& error) {
    if (!config_.failover.enabled) {
      error = "failover disabled (no retention to cover the gap)";
      return false;
    }
    if (stage->finished()) {
      error = "stage already finished";
      return false;
    }
    if (stage->failed()) {
      error = "stage is crashed (failover owns it)";
      return false;
    }
    // Nothing to drain: this event boundary *is* the ack barrier (see
    // capture_checkpoint). The stage is quiesced by construction.
    return true;
  };
  hooks.capture = [&](StageCheckpoint& out, std::string& error) {
    (void)error;
    return stage->capture_checkpoint(out);
  };
  hooks.transfer = [&](const StageCheckpoint&, std::string& error) {
    // In-process "transfer" is the matchmaking + (for grid pipelines) the
    // service-instance creation on the target; the blob itself stays local.
    std::optional<ReplacementDecision> d;
    if (migration_provider_) {
      d = migration_provider_(stage_index, target);
    } else if (target != kInvalidNode) {
      d.emplace();
      d->node = target;
    } else {
      d = default_replacement(stage_index);
    }
    if (!d || d->node == kInvalidNode) {
      error = "no candidate target";
      return false;
    }
    if (node_down(d->node)) {
      error = "target node is down";
      return false;
    }
    if (d->node == from) {
      error = "no better placement than current node";
      return false;
    }
    decision = *d;
    return true;
  };
  hooks.resume = [&](const StageCheckpoint& ckpt, MigrationRecord& rec,
                     std::string& error) {
    (void)error;
    bool used = false;
    stage->resume_migrated(decision.node, hosts_.at(decision.node),
                           decision.factory, ckpt, used);
    rec.checkpointed = used;
    rec.to = decision.node;
    // Rewire + replay, the same path revive_stage takes after a crash.
    stage->clear_inbound_links();
    std::uint64_t replayed = 0;
    for (auto& up : stages_) {
      for (auto& route : up->routes()) {
        if (route.dest != stage) continue;
        route.link = attach_flow(up.get(), stage);
        replayed += up->replay_route(route);
      }
    }
    for (std::size_t s = 0; s < sources_.size(); ++s) {
      if (sources_[s]->target() != stage) continue;
      net::SimLink* link = link_for_flow(spec_.sources[s].location,
                                         decision.node);
      sources_[s]->set_link(link);
      stage->add_inbound_link(link);
      replayed += sources_[s]->replay();
    }
    for (auto& route : stage->routes()) {
      route.link = attach_flow(stage, route.dest);
    }
    rec.packets_replayed = replayed;
    GATES_LOG(kInfo, "sim-engine")
        << "stage '" << stage->name() << "' migrated " << from << " -> "
        << decision.node << " at t=" << sim_.now() << " ("
        << (used ? "checkpoint restored" : "on_recover fallback") << ", "
        << replayed << " replayed)";
    return true;
  };
  hooks.abort_fallback = [&](MigrationStep step, const std::string& why) {
    // Degrade to crash-failover: crash-stop the stage and let the existing
    // detector + retention-replay machinery recover it. Never lost data —
    // only the failover latency.
    if (stage->finished() || stage->failed()) return;
    const TimePoint t = sim_.now();
    GATES_LOG(kWarn, "sim-engine")
        << "migration of '" << stage->name() << "' aborted at "
        << migration_step_name(step) << " (" << why
        << "); degrading to crash-failover";
    FailureReport rec;
    rec.node = stage->node();
    rec.stage = stage->name();
    rec.failed_at = t;
    const auto& fo = config_.failover;
    const TimePoint when = std::max(
        fo.heartbeat_period * (std::floor(t / fo.heartbeat_period) +
                               static_cast<double>(fo.suspicion_beats)) +
            heartbeat_delay(stage->node()),
        t);
    rec.detected_at = when;
    failures_.push_back(std::move(rec));
    const std::size_t report_index = failures_.size() - 1;
    stage->crash();
    sim_.schedule_at(when, [this, stage_index, report_index] {
      on_failure_detected(stage_index, report_index);
    });
  };

  migration_records_.push_back(MigrationCoordinator().run(
      stage->name(), from, target, [this] { return sim_.now(); }, hooks,
      migration_fault_injector_));
}

Status SimEngine::run() {
  if (auto s = setup(); !s.is_ok()) return s;
  sim_.run_until(config_.max_time);
  finalize_report(completed_);
  return Status::ok();
}

Status SimEngine::run_for(Duration horizon) {
  if (auto s = setup(); !s.is_ok()) return s;
  sim_.run_until(horizon);
  finalize_report(completed_);
  return Status::ok();
}

void SimEngine::finalize_report(bool completed) {
  report_ = RunReport{};
  report_.completed = completed;
  report_.execution_time = completed ? completion_time_ : sim_.now();
  report_.events_executed = sim_.events_executed();
  for (const auto& stage : stages_) {
    report_.stages.push_back(stage->build_report());
  }
  report_.failures = failures_;
  report_.migrations = migration_records_;
  // Host facts only: a simulated run has no pin/idle configuration, and its
  // figures do not depend on the wall-clock machine — but the row should
  // still say where it ran.
  report_.host = HostInfo::detect();
  auto add_link_report = [&](const net::SimLink& link, const MonitoredLink* ml) {
    LinkReport r;
    r.name = link.config().name;
    r.messages_delivered = link.stats().messages_delivered;
    r.bytes_delivered = link.stats().bytes_delivered;
    r.utilization = link.utilization();
    r.stalled_time = link.stats().stalled_time;
    r.messages_lost = link.stats().messages_lost;
    r.messages_retransmitted = link.stats().messages_retransmitted;
    if (ml != nullptr) {
      r.queue_length = ml->queue_samples;
      r.overload_exceptions_sent = ml->overload_sent;
      r.underload_exceptions_sent = ml->underload_sent;
    }
    report_.links.push_back(std::move(r));
  };
  auto monitored_for = [&](const net::SimLink* link) -> const MonitoredLink* {
    for (const auto& ml : monitored_links_) {
      if (ml->link == link) return ml.get();
    }
    return nullptr;
  };
  for (const auto& [node, link] : ingress_links_) {
    add_link_report(*link, monitored_for(link.get()));
  }
  for (const auto& [key, link] : pair_links_) {
    add_link_report(*link, monitored_for(link.get()));
  }
  if (obs::Profiler::global().enabled()) {
    // One last fold so packets processed after the final control tick are
    // visible in both the metrics snapshot and the attribution report.
    obs::fold_profiler_into_metrics(0.0);
    report_.attribution = obs::make_bottleneck_report();
  }
  if (obs::MetricsRegistry::global().enabled()) {
    report_.metrics = obs::MetricsRegistry::global().snapshot();
  }
  if (obs::TraceBuffer::global().enabled()) {
    report_.trace_summary = obs::TraceBuffer::global().summary();
  }
}

StreamProcessor& SimEngine::processor(std::size_t stage_index) {
  GATES_CHECK(stage_index < stages_.size());
  return stages_[stage_index]->processor();
}

std::size_t SimEngine::replica_count(std::size_t stage_index) const {
  GATES_CHECK(stage_index < stages_.size());
  return stages_[stage_index]->active_replicas();
}

void SimEngine::schedule_cpu_change(NodeId node, TimePoint t, double factor) {
  GATES_CHECK_MSG(!setup_done_, "schedule_cpu_change must precede run()");
  GATES_CHECK(factor > 0);
  cpu_changes_.push_back({node, t, factor});
}

void SimEngine::schedule_bandwidth_change(NodeId from, NodeId to, TimePoint t,
                                          Bandwidth bandwidth) {
  GATES_CHECK_MSG(!setup_done_, "schedule_bandwidth_change must precede run()");
  GATES_CHECK(bandwidth > 0);
  bandwidth_changes_.push_back({from, to, t, bandwidth});
}

void SimEngine::schedule_link_change(NodeId from, NodeId to, TimePoint t,
                                     net::LinkSpec spec) {
  GATES_CHECK_MSG(!setup_done_, "schedule_link_change must precede run()");
  GATES_CHECK(spec.bandwidth > 0);
  GATES_CHECK(spec.latency >= 0);
  link_changes_.push_back({from, to, t, spec});
}

void SimEngine::schedule_node_failure(NodeId node, TimePoint t) {
  GATES_CHECK_MSG(!setup_done_, "schedule_node_failure must precede run()");
  node_failures_.push_back({node, t});
}

void SimEngine::schedule_node_recovery(NodeId node, TimePoint t) {
  GATES_CHECK_MSG(!setup_done_, "schedule_node_recovery must precede run()");
  node_recoveries_.push_back({node, t});
}

void SimEngine::set_replacement_provider(ReplacementProvider provider) {
  GATES_CHECK_MSG(!setup_done_, "set_replacement_provider must precede run()");
  replacement_provider_ = std::move(provider);
}

void SimEngine::schedule_migration(std::size_t stage_index, TimePoint t,
                                   NodeId target) {
  GATES_CHECK_MSG(!setup_done_, "schedule_migration must precede run()");
  GATES_CHECK_MSG(stage_index < spec_.stages.size(),
                  "schedule_migration: bad stage index");
  migration_requests_.push_back({stage_index, t, target});
}

void SimEngine::set_migration_provider(MigrationProvider provider) {
  GATES_CHECK_MSG(!setup_done_, "set_migration_provider must precede run()");
  migration_provider_ = std::move(provider);
}

void SimEngine::set_migration_fault_injector(
    MigrationCoordinator::FaultInjector inject) {
  migration_fault_injector_ = std::move(inject);
}

double SimEngine::parameter_value(std::size_t stage_index,
                                  const std::string& name) const {
  GATES_CHECK(stage_index < stages_.size());
  StageRuntime& stage = *stages_[stage_index];
  const AdjustmentParameter* p = stage.adaptation().parameter(name);
  GATES_CHECK_MSG(p != nullptr, "no parameter '" + name + "' on stage '" +
                                    stage.name() + "'");
  return p->suggested_value();
}

}  // namespace gates::core
