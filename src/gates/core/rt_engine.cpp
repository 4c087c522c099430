#include "gates/core/rt_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "gates/common/affinity.hpp"
#include "gates/common/arena.hpp"
#include "gates/common/check.hpp"
#include "gates/common/clock.hpp"
#include "gates/common/json.hpp"
#include "gates/common/log.hpp"
#include "gates/common/token_bucket.hpp"
#include "gates/core/checkpoint.hpp"
#include "gates/core/failover.hpp"
#include "gates/core/retention_ring.hpp"
#include "gates/core/stage_adaptation.hpp"
#include "gates/core/stage_inbox.hpp"
#include "gates/obs/attribution.hpp"
#include "gates/obs/metrics.hpp"
#include "gates/obs/profiler.hpp"
#include "gates/obs/trace.hpp"
#include "gates/obs/trace_context.hpp"

namespace gates::core {
namespace {

void sleep_seconds(Duration s) {
  if (s > 0) std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// A generator call for a batch's first packet, or a remote ingress's recv
/// of its next frame, that takes longer than this blocked for its input (a
/// schedule, a socket, a file): the source is idle, not saturated. A
/// non-blocking generator returns in well under 1 µs.
constexpr Duration kInputWait = 20e-6;

}  // namespace

// ---------------------------------------------------------------------------
// ThrottleGate: wall-clock token bucket shared by every flow between one
// (src,dst) node pair. acquire() blocks the calling thread until the bytes
// fit the bandwidth budget.
// ---------------------------------------------------------------------------
struct RtEngine::ThrottleGate {
  ThrottleGate(Bandwidth bandwidth, const Clock& clock)
      : clock_(clock),
        unthrottled_(bandwidth >= 1e12),
        bucket_(bandwidth, std::max(bandwidth / 20, 2048.0), clock.now()) {}

  void acquire(std::size_t bytes) {
    if (unthrottled_.load(std::memory_order_relaxed)) return;
    const double need = static_cast<double>(bytes);
    TimePoint ready;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const TimePoint now = clock_.now();
      ready = bucket_.time_available(need, now);
      bucket_.consume_debt(need, now);
    }
    // Precise pacing: plain sleep_for undershoots at sub-millisecond gaps
    // (timer granularity), which deflates effective bandwidth; the hybrid
    // sleep-then-spin holds the configured rate.
    precise_sleep(ready - clock_.now());
  }

  /// One relaxed load — the emit fast path checks this per packet to decide
  /// whether wire accounting can be skipped entirely.
  bool unthrottled() const {
    return unthrottled_.load(std::memory_order_relaxed);
  }

  /// Mid-run bandwidth change (chaos transition). The bucket is rebuilt so
  /// the burst depth tracks the new rate — a degraded link must not keep
  /// the old rate's burst allowance.
  void set_rate(Bandwidth bandwidth) {
    std::lock_guard<std::mutex> lock(mu_);
    bucket_ = TokenBucket(bandwidth, std::max(bandwidth / 20, 2048.0),
                          clock_.now());
    unthrottled_.store(bandwidth >= 1e12, std::memory_order_relaxed);
  }

  const Clock& clock_;
  std::atomic<bool> unthrottled_;
  std::mutex mu_;
  TokenBucket bucket_;
};

// ---------------------------------------------------------------------------
// ReplayChannel: sender-side bounded retention for one flow, shared between
// the sending thread (retain), the receiving thread (ack) and the control
// thread (snapshot for replay) — hence the mutex. The batch entry points
// take it once per batch, which is what makes retention affordable on the
// hot path. Storage is the O(1)-amortized RetentionRing; retained payloads
// alias the sender's allocation (COW ByteBuffer), so retention adds a
// refcount bump, not a copy. EOS markers are pinned: evicting one would
// wedge the revived receiver's termination.
// ---------------------------------------------------------------------------
struct RtEngine::ReplayChannel {
  explicit ReplayChannel(std::size_t cap) : ring(cap) {}

  std::mutex mu;
  RetentionRing ring;
  std::uint64_t evicted_reported = 0;
  /// A remote ingress's channel (set at engine setup, before any thread
  /// starts): each retained packet's `sequence` is its wire seq, and an ack
  /// of the local seq releases that wire seq to the sending process. The
  /// pairs live beside the ring, not in it, so an entry the ring evicted
  /// still forwards its wire ack once it is processed.
  bool forwards_wire_acks = false;
  std::unordered_map<std::uint64_t, std::uint64_t> wire_seq_of;
  /// Wire seqs acked here and not yet taken by the ingress (take_wire_acks).
  std::vector<std::uint64_t> wire_acks;

  std::uint64_t retain(const Packet& packet) {
    std::lock_guard<std::mutex> lock(mu);
    const std::uint64_t seq = ring.retain(packet);
    if (forwards_wire_acks) wire_seq_of.emplace(seq, packet.sequence);
    return seq;
  }

  /// Stamps origin and seq onto every item of an outgoing batch under one
  /// lock acquisition.
  template <typename ItemT>
  void retain_batch(std::vector<ItemT>& items) {
    std::lock_guard<std::mutex> lock(mu);
    for (auto& item : items) {
      item.origin = this;
      item.seq = ring.retain(item.packet);
    }
    if (forwards_wire_acks) {
      for (const auto& item : items) {
        wire_seq_of.emplace(item.seq, item.packet.sequence);
      }
    }
  }

  /// Exact, not cumulative: across a restart, a replayed tail interleaves
  /// with new traffic, so a processed high seq does NOT imply earlier seqs
  /// were delivered — acking only what was actually processed keeps the
  /// undelivered tail replayable.
  void ack_batch(const std::vector<std::uint64_t>& seqs) {
    std::lock_guard<std::mutex> lock(mu);
    for (const std::uint64_t seq : seqs) ring.ack_exact(seq);
    if (forwards_wire_acks) {
      for (const std::uint64_t seq : seqs) {
        const auto it = wire_seq_of.find(seq);
        if (it == wire_seq_of.end()) continue;  // a replayed duplicate
        wire_acks.push_back(it->second);
        wire_seq_of.erase(it);
      }
    }
  }

  /// Remote ingress: appends the wire seqs acked since the last call to
  /// `out`; returns whether retained wire seqs are still unacked.
  bool take_wire_acks(std::vector<std::uint64_t>& out) {
    std::lock_guard<std::mutex> lock(mu);
    out.insert(out.end(), wire_acks.begin(), wire_acks.end());
    wire_acks.clear();
    return !wire_seq_of.empty();
  }

  std::vector<std::pair<std::uint64_t, Packet>> snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<std::pair<std::uint64_t, Packet>> out;
    ring.for_each_unacked([&](std::uint64_t seq, const Packet& packet) {
      out.emplace_back(seq, packet);
    });
    return out;
  }

  /// Evictions not yet attributed to a FailureReport.
  std::uint64_t take_unreported_evictions() {
    std::lock_guard<std::mutex> lock(mu);
    const std::uint64_t n = ring.evicted() - evicted_reported;
    evicted_reported = ring.evicted();
    return n;
  }
};

// ---------------------------------------------------------------------------
// FlowItem / TransitPool: shared data-path plumbing
// ---------------------------------------------------------------------------

/// One queue entry: the packet plus its replay origin, so the receiving
/// worker can acknowledge it after processing. Null origin (failover
/// disabled, or the control thread's EOS-on-behalf) never acks.
struct RtEngine::FlowItem {
  Packet packet;
  ReplayChannel* origin = nullptr;
  std::uint64_t seq = 0;
  /// Stamped at queue-push time when the Profiler or PacketTracer is on
  /// (0 otherwise): the base for inbox-wait attribution. Stamping is
  /// amortized to one clock read per flushed batch.
  TimePoint queued_at = 0;
};

/// Slot store for batches handed to a LinkShaper: check_in() swaps the
/// sender's staged vector into a recycled slot (the sender gets the retired
/// slot's capacity back), the shaper thread resolves the returned token via
/// deliver(). Steady state runs with zero allocation where the old path
/// heap-allocated a shared_ptr + vector per shaped batch. Slots live in a
/// deque so in-flight slot references survive growth; the mutex only guards
/// the free list and slot handout, never the push into the destination.
class RtEngine::TransitPool final : public net::TransitSink {
 public:
  /// `stamp`: set queued_at on arrival (Profiler or PacketTracer on).
  TransitPool(StageWorker* dest, bool stamp) : dest_(dest), stamp_(stamp) {}
  std::uint64_t check_in(std::vector<FlowItem>& items);
  void deliver(std::uint64_t token) override;

 private:
  StageWorker* const dest_;
  const bool stamp_;
  std::mutex mu_;
  std::deque<std::vector<FlowItem>> slots_;
  std::vector<std::uint64_t> free_;
};

// ---------------------------------------------------------------------------
// Outlet: the send path of one flow, shared by sources and stages
// ---------------------------------------------------------------------------

/// The sending end of one flow — a source's link into its target stage, or
/// one route out of a stage — driven by the sending thread alone. Packets
/// are staged and sent a batch at a time: one throttle acquire, one
/// retention lock and one queue transaction per batch, or one pooled
/// hand-off to the flow's shaper. A clean flow skips staging and moves each
/// packet straight into the destination's SPSC ring.
class RtEngine::Outlet {
 public:
  Outlet(RtEngine& engine, std::shared_ptr<ThrottleGate> gate,
         StageWorker* dest, std::size_t port,
         std::shared_ptr<net::LinkShaper> shaper);

  /// Resolves the per-run flags when the sending thread (re)starts.
  void arm(bool profile, bool tracer);
  /// Queues one packet; returns what a batch-full send could not deliver
  /// (see flush()). Takes an rvalue so a single-route emit moves its packet
  /// end to end. Forced inline: it runs per packet in every sending loop.
  [[gnu::always_inline]] std::size_t stage(Packet&& packet);
  /// Sends the staged batch and settles the deferred consumer wakeup.
  /// Returns how many packets a closed (crashed or force-stopped)
  /// destination refused: with retention they survive in the channel and
  /// return via replay, without it they are lost. `idle`: the sending
  /// thread has nothing else to do — a stage about to park, a source that
  /// waited for its input — so it serves a parked destination in place
  /// instead of waking it (StageWorker::serve_inline).
  std::size_t flush(bool idle = false);
  /// EOS rides the shaper in FIFO order but is never subject to loss or
  /// jitter — termination stays reliable on any link. `idle` as in flush().
  /// `sequence`: a remote ingress passes the EOS frame's wire seq, which the
  /// channel forwards as that frame's ack.
  void send_eos(StreamId stream, bool idle = false,
                std::uint64_t sequence = 0);
  /// Drops the staged batch (a pool restart discards half-staged outputs;
  /// their inputs were never acked, so upstream replay regenerates them).
  void discard();

  std::shared_ptr<ThrottleGate> gate;
  StageWorker* dest;
  std::size_t port;
  std::shared_ptr<ReplayChannel> channel;
  /// Parks batches in transit through the shaper (built by arm() when the
  /// flow has one). Declared before shaper: a shaper may still drain token
  /// deliveries when this outlet drops its last reference.
  std::unique_ptr<TransitPool> transit;
  /// Impairment shaper for the flow; null on clean flows.
  std::shared_ptr<net::LinkShaper> shaper;

 private:
  /// The staged batch's push, with its consumer wakeup left pending.
  std::size_t send();
  /// Settles the pending consumer wakeup: serve in place or wake.
  void wake(bool idle);
  void flush_shaped();

  RtEngine* engine_;
  std::vector<FlowItem> items_;
  std::size_t wire_bytes_ = 0;
  /// Packets pushed since the last settled consumer wakeup.
  bool wake_pending_ = false;
  /// No shaper, no retention, no profiler stamping and an SPSC inbox. The
  /// throttle is re-checked per packet, so a mid-run rate change falls
  /// back to the charged path.
  bool direct_ = false;
  bool profile_ = false;
  bool tracer_ = false;
};

// ---------------------------------------------------------------------------
// StageWorker
// ---------------------------------------------------------------------------
class RtEngine::StageWorker final : public Emitter, public ProcessorContext {
 public:
  /// Per-batch counter deltas of one servicing thread (service_one fills,
  /// publish_tally folds them into the shared counters once per batch).
  struct Tally {
    std::uint64_t packets = 0;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    Duration service = 0;
    /// Set once the batch head gave its latency sample.
    bool latency_sampled = false;
    /// Profiler on: the batch's one clock read (taken at its first item)
    /// and the summed queue residency of its stamped items.
    TimePoint consumed_at = 0;
    Duration inbox_wait = 0;
  };
  /// One processed input awaiting its exact ack (see ack_grouped).
  struct PendingAck {
    ReplayChannel* origin;
    std::uint64_t seq;
  };

  // -- replica pool types (parallelism != kSerial) ----------------------------
  /// What one replica hands back through the merge window: the emissions its
  /// process()/finish() call produced, plus the ack bookkeeping of the input
  /// that produced them. Released strictly in input-arrival order.
  struct Completion {
    std::vector<std::pair<Packet, std::size_t>> emissions;  // (packet, port)
    ReplayChannel* origin = nullptr;
    std::uint64_t ack_seq = 0;
    TimePoint created_at = 0;
    /// When the replica deposited this completion; the releaser charges
    /// now - completed_at to merge-hold attribution.
    TimePoint completed_at = 0;
    bool has_data = false;
    /// Set on the last finish() result: its releaser runs the stage's
    /// downstream-EOS epilogue.
    bool is_final = false;
  };
  /// One entry in a replica's private SPSC queue.
  struct PoolItem {
    Packet packet;
    ReplayChannel* origin = nullptr;
    std::uint64_t ack_seq = 0;
    std::uint64_t merge_seq = 0;
    /// Carried over from the inbox FlowItem, so a pooled stage's inbox-wait
    /// attribution covers inbox + replica-queue time in one measurement.
    TimePoint queued_at = 0;
    bool finish_marker = false;
    bool is_final = false;
  };
  /// Captures a replica's emissions instead of routing them: ordering is
  /// restored by the merge window before anything goes downstream.
  class CaptureEmitter final : public Emitter {
   public:
    explicit CaptureEmitter(std::vector<std::pair<Packet, std::size_t>>& out)
        : out_(out) {}
    void emit(Packet packet, std::size_t port = 0) override {
      out_.emplace_back(std::move(packet), port);
    }

   private:
    std::vector<std::pair<Packet, std::size_t>>& out_;
  };
  /// Per-replica ProcessorContext: shares the stage's identity/properties
  /// but forks the Rng so replicas draw independent, deterministic streams.
  class ReplicaContext final : public ProcessorContext {
   public:
    ReplicaContext(StageWorker& worker, Rng rng) : worker_(worker), rng_(rng) {}
    AdjustmentParameter& specify_parameter(
        AdjustmentParameter::Spec param_spec) override {
      return worker_.specify_parameter(std::move(param_spec));
    }
    const Properties& properties() const override {
      return worker_.properties();
    }
    Rng& rng() override { return rng_; }
    TimePoint now() const override { return worker_.now(); }
    StageId stage_id() const override { return worker_.stage_id(); }
    const std::string& stage_name() const override {
      return worker_.stage_name();
    }

   private:
    StageWorker& worker_;
    Rng rng_;
  };
  /// One replica slot. All budget slots are built at setup so the control
  /// thread can read queue sizes without racing slot creation; only the
  /// active prefix has running threads.
  struct Replica {
    std::unique_ptr<StreamProcessor> processor;
    std::unique_ptr<ReplicaContext> context;
    std::unique_ptr<StageInbox<PoolItem>> queue;
    std::thread thread;
    Duration busy_time = 0;  // replica thread only, read after join
    std::atomic<std::uint64_t> packets{0};
  };

  StageWorker(RtEngine& engine, std::size_t index, const StageSpec& spec,
              NodeId node, double cpu_factor, Rng rng, const Clock& clock)
      : engine_(engine),
        index_(index),
        spec_(spec),
        node_(node),
        cpu_factor_(cpu_factor),
        max_batch_(
            std::max<std::size_t>(engine.config_.batching.max_batch, 1)),
        queue_(spec.input_capacity),
        adaptation_(spec, engine.hosts_.cores_at(node)),
        rng_(rng),
        clock_(clock) {
    queue_.set_idle(engine_.config_.idle);
    if (!pooled()) {
      processor_ = spec_.factory();
      GATES_CHECK_MSG(processor_ != nullptr,
                      "factory for stage '" + spec_.name + "' returned null");
      return;
    }
    const Parallelism& par = spec_.parallelism;
    const std::size_t budget = adaptation_.replica_budget();
    replica_cap_ = std::max<std::size_t>(2 * max_batch_, 4);
    // Window sized so every replica can have a full queue plus in-flight
    // work without the dispatcher stalling on the merge ring.
    merge_ = std::make_unique<ReorderMerge<Completion>>(budget *
                                                        (replica_cap_ + 2));
    merge_->set_idle(engine_.config_.idle);
    for (std::size_t r = 0; r < budget; ++r) {
      auto rep = std::make_unique<Replica>();
      rep->processor = spec_.factory();
      GATES_CHECK_MSG(rep->processor != nullptr,
                      "factory for stage '" + spec_.name + "' returned null");
      rep->context = std::make_unique<ReplicaContext>(*this, rng_.fork(r + 1));
      rep->queue = std::make_unique<StageInbox<PoolItem>>(replica_cap_);
      rep->queue->set_idle(engine_.config_.idle);
      // Dispatcher is the only producer, the replica the only consumer.
      rep->queue->use_spsc();
      replicas_.push_back(std::move(rep));
    }
    active_replicas_.store(par.replicas, std::memory_order_relaxed);
    scale_target_.store(par.replicas, std::memory_order_relaxed);
    max_replicas_used_ = par.replicas;
  }

  bool pooled() const {
    return spec_.parallelism.mode != ParallelismMode::kSerial;
  }

  void init() {
    if (!pooled()) {
      in_init_ = true;
      processor_->init(*this);
      in_init_ = false;
      return;
    }
    for (auto& rep : replicas_) {
      in_init_ = true;
      rep->processor->init(*rep->context);
      in_init_ = false;
    }
  }

  void add_route(Outlet route) { routes_.push_back(std::move(route)); }
  void add_upstream(StageWorker* up) {
    if (up != nullptr) upstreams_.push_back(up);
  }
  void set_eos_expected(std::size_t n) { eos_expected_ = n; }
  /// Turns this stage into a remote outlet (engine setup, before start()):
  /// consumed input is framed onto `link` instead of being processed. The
  /// stage's processor is never invoked.
  void set_remote_egress(std::shared_ptr<net::RemoteLink> link) {
    remote_egress_ = std::move(link);
  }

  StageInbox<FlowItem>& queue() { return queue_; }
  /// Core list for this stage's threads (engine setup, before start()):
  /// index 0 pins the serial worker / pool dispatcher, replica r takes
  /// (r + 1) % size — a pool fills its node's cores before wrapping.
  void set_pin_cores(std::vector<int> cores) { pin_cores_ = std::move(cores); }
  NodeId node() const { return node_; }
  const std::string& name() const { return spec_.name; }
  std::vector<Outlet>& routes() { return routes_; }

  void start() {
    // Resolved once, before any worker thread exists: the PhaseClock handle
    // is stable for the stage's lifetime and the flags are read-only on the
    // data path (one predicted branch when observability is off).
    profile_ = obs::Profiler::global().enabled()
                   ? &obs::Profiler::global().stage(spec_.name)
                   : nullptr;
    tracer_active_ = obs::PacketTracer::global().active();
    zero_service_ = spec_.cost.is_zero();
    for (Outlet& route : routes_) {
      route.arm(profile_ != nullptr, tracer_active_);
    }
    last_beat_.store(clock_.now(), std::memory_order_release);
    if (pooled()) {
      const std::size_t active =
          active_replicas_.load(std::memory_order_relaxed);
      for (std::size_t r = 0; r < active; ++r) {
        replicas_[r]->thread = std::thread([this, r] { replica_loop(r); });
      }
    }
    thread_ = std::thread([this] { run_loop(); });
  }
  void join() {
    if (thread_.joinable()) thread_.join();
    for (auto& rep : replicas_) {
      if (rep->thread.joinable()) rep->thread.join();
    }
  }
  void force_stop() { queue_.close(); }
  bool finished() const { return finished_.load(std::memory_order_acquire); }

  // -- crash injection / failover (control thread + any injector thread) -----
  /// Crash-stop: the worker thread exits at its next queue interaction
  /// without flushing or sending EOS; queued input is discarded.
  void crash(TimePoint now) {
    bool expected = false;
    if (!crashed_.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
      return;  // already crashed
    }
    crash_time_.store(now, std::memory_order_release);
    queue_.close();
    close_pool();  // no-op for serial stages
    engine_.wake_control();
    GATES_TRACE(.time = now, .kind = obs::TraceKind::kCrash,
                .component = spec_.name, .detail = "crash-stop");
    trace_heartbeat_transition(spec_.name, now, "suspect");
  }
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  TimePoint crash_time() const {
    return crash_time_.load(std::memory_order_acquire);
  }
  TimePoint last_beat() const {
    return last_beat_.load(std::memory_order_acquire);
  }

  /// Restart in place after a crash: fresh processor, reopened (emptied)
  /// queue, new thread. EOS bookkeeping carries over; upstream replay
  /// restores the unacknowledged input. Caller must have join()ed the dead
  /// thread first.
  void revive(const ProcessorFactory& factory) {
    GATES_CHECK(crashed() && !finished());
    join();
    queue_.reopen();
    adaptation_.clear_parameters();
    pending_acks_.clear();  // the dead worker's unflushed batch
    ++recoveries_;
    if (!pooled()) {
      processor_ = factory ? factory() : spec_.factory();
      GATES_CHECK_MSG(processor_ != nullptr,
                      "replacement factory for stage '" + spec_.name +
                          "' returned null");
      init();
      processor_->on_recover(*this);
    } else {
      // Pool restart: every slot gets a fresh processor (crash semantics:
      // in-memory state is lost), the merge window rewinds to a fresh
      // sequence space, and half-staged outputs/acks are discarded — their
      // inputs were never acked, so upstream replay regenerates them.
      merge_->reset();
      next_seq_ = 0;
      rr_next_ = 0;
      for (Outlet& route : routes_) route.discard();
      emitted_pending_ = 0;
      dropped_pending_ = 0;
      for (auto& rep : replicas_) {
        rep->queue->reopen();
        rep->processor = factory ? factory() : spec_.factory();
        GATES_CHECK_MSG(rep->processor != nullptr,
                        "replacement factory for stage '" + spec_.name +
                            "' returned null");
      }
      init();
      for (auto& rep : replicas_) rep->processor->on_recover(*rep->context);
    }
    crashed_.store(false, std::memory_order_release);
    start();
  }

  /// Failover disabled: degrade a crashed stage the legacy way — EOS on its
  /// behalf so downstream still terminates. Runs on the control thread, so
  /// it uses the inbox's aux lane (the ring is reserved for the flows' own
  /// producer threads).
  void finish_on_behalf() {
    GATES_CHECK(crashed() && !finished());
    join();
    for (const auto& route : routes_) {
      route.gate->acquire(engine_.config_.wire.per_message_overhead);
      route.dest->queue().push_aux({Packet::eos(0, clock_.now()), nullptr, 0});
    }
    GATES_TRACE(.time = clock_.now(), .kind = obs::TraceKind::kAbandoned,
                .component = spec_.name, .detail = "eos-on-behalf");
    finished_.store(true, std::memory_order_release);
    engine_.wake_control();
  }

  std::size_t recoveries() const { return recoveries_; }

  // -- live migration (control thread; see RtEngine::migrate_stage_now) -------
  bool remote_outlet() const { return remote_egress_ != nullptr; }
  bool quiesced() const { return quiesced_.load(std::memory_order_acquire); }
  /// Asks the worker to stop at its next batch/ack boundary without
  /// finishing or crashing; it sets quiesced_ and returns with the inbox
  /// open and intact.
  void request_quiesce() {
    quiesce_requested_.store(true, std::memory_order_release);
    queue_.kick();  // don't wait out a full idle beat
  }
  void cancel_quiesce() {
    quiesce_requested_.store(false, std::memory_order_release);
  }

  /// Control thread, after a successful quiesce: the worker threads stopped
  /// at the ack boundary; join them and serialize every active replica's
  /// processor (serial stages: one blob). An empty blob records a processor
  /// that declined to checkpoint — restore falls back to on_recover().
  /// Returns false if a crash landed meanwhile (caller aborts into the
  /// normal failover path).
  bool capture_checkpoint(StageCheckpoint& out) {
    GATES_CHECK(quiesced());
    if (crashed()) return false;
    join();
    out.incarnation = recoveries_;
    auto capture_one = [&](StreamProcessor& p) {
      ByteBuffer blob;
      StateWriter w(blob);
      if (!p.checkpoint(w)) blob = ByteBuffer{};
      out.replicas.push_back(std::move(blob));
    };
    if (!pooled()) {
      capture_one(*processor_);
    } else {
      const std::size_t active =
          active_replicas_.load(std::memory_order_relaxed);
      for (std::size_t r = 0; r < active; ++r) {
        capture_one(*replicas_[r]->processor);
      }
    }
    return true;
  }

  /// Counterpart of revive() for a quiesced (not crashed) worker: the inbox
  /// survives intact — its contents are exactly the unacked tail, so the
  /// restored incarnation consumes them in place and nothing needs replay.
  /// Fresh processors adopt the checkpoint per replica (on_recover() covers
  /// a missing or rejected blob; the replica count is unchanged, so a keyed
  /// pool's shard -> replica mapping is preserved), and the stage re-homes
  /// on `node`: new cpu factor, outbound gates/shapers resolved from the
  /// new placement. Inbound gates belong to upstream workers and keep
  /// charging the old flow's rate until their own placement changes — a
  /// documented approximation. Returns false if a crash landed during the
  /// protocol (caller aborts into the normal failover path).
  bool resume_migrated(NodeId node, double cpu_factor,
                       const ProcessorFactory& factory,
                       const StageCheckpoint& ckpt, bool& used_checkpoint) {
    GATES_CHECK(quiesced() && !finished());
    used_checkpoint = false;
    if (crashed()) return false;
    join();
    node_ = node;
    cpu_factor_ = cpu_factor;
    adaptation_.clear_parameters();
    ++recoveries_;
    auto make = [&]() {
      auto p = factory ? factory() : spec_.factory();
      GATES_CHECK_MSG(p != nullptr, "migration factory for stage '" +
                                        spec_.name + "' returned null");
      return p;
    };
    auto restore_one = [&](StreamProcessor& p, std::size_t r) {
      if (r < ckpt.replicas.size() && ckpt.replicas[r].size() != 0) {
        StateReader reader(ckpt.replicas[r]);
        if (p.restore(reader)) return true;
      }
      return false;
    };
    if (!pooled()) {
      processor_ = make();
      init();
      if (restore_one(*processor_, 0)) {
        used_checkpoint = true;
      } else {
        processor_->on_recover(*this);
      }
    } else {
      // The merge window, sequence counters and half of the dispatcher
      // state carry over verbatim: quiesce_pool() drained everything
      // in-flight, so the window is empty and next_seq_ continues.
      for (auto& rep : replicas_) {
        rep->queue->reopen();
        rep->processor = make();
      }
      init();
      for (std::size_t r = 0; r < replicas_.size(); ++r) {
        if (restore_one(*replicas_[r]->processor, r)) {
          used_checkpoint = true;
        } else {
          replicas_[r]->processor->on_recover(*replicas_[r]->context);
        }
      }
    }
    // Re-gate outbound flows from the new placement (this worker's threads
    // are all dead, so the routes are safe to mutate; start() re-resolves
    // the direct flag against the new shaper).
    for (Outlet& route : routes_) {
      route.gate = engine_.gate_for_flow(node_, route.dest->node());
      route.shaper = engine_.shaper_for_flow(node_, route.dest->node());
    }
    cancel_quiesce();
    quiesced_.store(false, std::memory_order_release);
    start();
    return true;
  }

  /// Abort after the worker quiesced: clear the handshake and convert the
  /// stop into a plain crash, so the lease detector and retention replay
  /// own the recovery (the queued input is discarded with the queue;
  /// upstream retention still holds everything unacked).
  void abort_migration(TimePoint now) {
    cancel_quiesce();
    quiesced_.store(false, std::memory_order_release);
    crash(now);
  }

  // -- Emitter ---------------------------------------------------------------
  /// Stages the packet on every matching route; each staged copy aliases
  /// the same payload (COW ByteBuffer), so fan-out is a refcount bump per
  /// route, not a deep copy. The staged batch is flushed — one throttle
  /// acquire, one retention lock, one queue transaction per route — when it
  /// reaches max_batch or when the worker finishes its input batch.
  void emit(Packet packet, std::size_t port = 0) override {
    ++emitted_pending_;
    // The last matching route takes the packet by move (for the common
    // single-route stage that makes every emit copy-free); earlier matches
    // still alias the payload via the COW refcount bump.
    std::size_t last = routes_.size();
    for (std::size_t r = 0; r < routes_.size(); ++r) {
      if (routes_[r].port == port) last = r;
    }
    if (last == routes_.size()) return;  // no route on this port
    for (std::size_t r = 0; r < last; ++r) {
      if (routes_[r].port == port) {
        dropped_pending_ += routes_[r].stage(Packet(packet));
      }
    }
    dropped_pending_ += routes_[last].stage(std::move(packet));
  }

  /// Flushes every route's staging and publishes the per-batch counter
  /// deltas (exact packet counts, one atomic add per counter per batch).
  /// `idle`: this stage's inbox is empty, so it serves parked destinations
  /// in place (Outlet::flush).
  void flush_emits(bool idle = false) {
    for (Outlet& route : routes_) dropped_pending_ += route.flush(idle);
    if (emitted_pending_ != 0) {
      packets_emitted_.fetch_add(emitted_pending_, std::memory_order_relaxed);
      emitted_pending_ = 0;
    }
    if (dropped_pending_ != 0) {
      packets_dropped_.fetch_add(dropped_pending_, std::memory_order_relaxed);
      dropped_pending_ = 0;
    }
  }

  /// Engine setup, before any thread exists: whether the upstream stage or
  /// source may serve this one in place. Only a serial, local stage whose
  /// SPSC inbox has one producer, and with a zero cost model: a modelled
  /// service time stands for CPU on this stage's own node, so it must not
  /// sleep on an upstream's thread.
  void resolve_claimable() {
    claimable_ = !pooled() && queue_.spsc() && remote_egress_ == nullptr &&
                 spec_.cost.is_zero();
  }

  /// Called by the thread that produces into this inbox (the upstream
  /// stage or source) when it is idle: if this stage's worker is parked,
  /// claims its consumer role, serves one batch on the calling thread and
  /// hands the role back, so the worker stays asleep. A terminal EOS served
  /// here kicks the worker, which runs finish() on its own thread. Returns
  /// false (the caller wakes the worker instead) when the stage is not
  /// claimable, is migrating or crashed, or its worker is not parked.
  bool serve_inline() {
    if (!claimable_ || quiesce_requested_.load(std::memory_order_acquire) ||
        crashed_.load(std::memory_order_acquire) || !queue_.try_claim()) {
      return false;
    }
    const std::size_t n = serve_batch([&](auto&& f) {
      return queue_.consume_claimed(f, max_batch_);
    });
    if (n != 0) inline_batches_.fetch_add(1, std::memory_order_relaxed);
    if (stop_after_flush_) queue_.kick();
    queue_.release_claim();
    return true;
  }

  // -- ProcessorContext --------------------------------------------------------
  AdjustmentParameter& specify_parameter(
      AdjustmentParameter::Spec param_spec) override {
    GATES_CHECK_MSG(in_init_, "specify_parameter must be called from init()");
    return adaptation_.specify(std::move(param_spec));
  }
  const Properties& properties() const override { return spec_.properties; }
  Rng& rng() override { return rng_; }
  TimePoint now() const override { return clock_.now(); }
  StageId stage_id() const override { return static_cast<StageId>(index_); }
  const std::string& stage_name() const override { return spec_.name; }

  // -- control thread interface (single-threaded with respect to monitors) ---
  StageAdaptation& adaptation() { return adaptation_; }

  /// One control period. The dispatcher applies the returned replica target
  /// between batches (apply_scale).
  void control_step(bool adapt) {
    // A pooled stage's backlog is the dispatcher inbox plus every active
    // replica's private queue — the monitor must see work the dispatcher
    // already handed out.
    double d = static_cast<double>(queue_.size());
    if (pooled()) {
      const std::size_t active =
          active_replicas_.load(std::memory_order_acquire);
      for (std::size_t r = 0; r < active; ++r) {
        d += static_cast<double>(replicas_[r]->queue->size());
      }
    }
    const StageAdaptation::Outcome out = adaptation_.step(
        d, scale_target_.load(std::memory_order_relaxed), clock_.now(), adapt,
        {packets_processed_.load(std::memory_order_relaxed),
         packets_emitted_.load(std::memory_order_relaxed),
         packets_dropped_.load(std::memory_order_relaxed),
         inline_batches_.load(std::memory_order_relaxed)});
    scale_target_.store(out.replicas, std::memory_order_release);
    if (pooled() && obs::MetricsRegistry::global().enabled()) {
      publish_pool_metrics();
    }
    for (StageWorker* up : upstreams_) up->adaptation().receive(out.propagate);
  }

  /// The pool's own metrics; handles resolved on the first sampled tick.
  void publish_pool_metrics() {
    if (replicas_gauge_ == nullptr) {
      auto& reg = obs::MetricsRegistry::global();
      replicas_gauge_ =
          &reg.gauge("gates_stage_replicas", {{"stage", spec_.name}});
      replica_ctrs_.resize(replicas_.size());
      for (std::size_t r = 0; r < replicas_.size(); ++r) {
        replica_ctrs_[r] = &reg.counter(
            "gates_stage_replica_packets_processed",
            {{"stage", spec_.name}, {"replica", std::to_string(r)}});
      }
    }
    replicas_gauge_->set(static_cast<double>(
        active_replicas_.load(std::memory_order_relaxed)));
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      replica_ctrs_[r]->set(
          replicas_[r]->packets.load(std::memory_order_relaxed));
    }
  }

  StageReport build_report() const {
    StageReport r;
    r.name = spec_.name;
    r.node = node_;
    r.packets_processed = packets_processed_.load(std::memory_order_relaxed);
    r.records_processed = records_processed_.load(std::memory_order_relaxed);
    r.bytes_processed = bytes_processed_.load(std::memory_order_relaxed);
    r.packets_emitted = packets_emitted_.load(std::memory_order_relaxed);
    r.packets_dropped = packets_dropped_.load(std::memory_order_relaxed);
    r.busy_time = busy_time_;
    r.packet_latency = latency_;
    r.inline_batches = inline_batches_.load(std::memory_order_relaxed);
    adaptation_.fill(r);
    if (pooled()) {
      r.final_replicas = active_replicas_.load(std::memory_order_relaxed);
      r.max_replicas_used = max_replicas_used_;
      Duration busy = 0;
      for (const auto& rep : replicas_) busy += rep->busy_time;
      r.busy_time = busy;
    }
    return r;
  }

  StreamProcessor& processor() {
    return pooled() ? *replicas_[0]->processor : *processor_;
  }
  StreamProcessor& replica_processor(std::size_t r) {
    GATES_CHECK(pooled() && r < replicas_.size());
    return *replicas_[r]->processor;
  }
  std::size_t active_replicas() const {
    return pooled() ? active_replicas_.load(std::memory_order_acquire) : 1;
  }

 private:
  /// Exact acks for `entries`, grouped per origin: one retention lock per
  /// distinct channel; leaves `entries` empty. Callers flush their outputs
  /// first, so an input is never released from upstream retention before
  /// the outputs derived from it are durably downstream (at-least-once
  /// across a crash between the two steps). Ack/retention attribution
  /// brackets only this section; the emit flush before it is charged to
  /// the gates/shapers it waits on.
  void ack_grouped(std::vector<PendingAck>& entries) {
    const std::size_t n = entries.size();
    const bool timed = profile_ != nullptr && n != 0;
    const TimePoint ack_start = timed ? clock_.now() : 0;
    for (std::size_t i = 0; i < n; ++i) {
      ReplayChannel* origin = entries[i].origin;
      if (origin == nullptr) continue;
      ack_seqs_.clear();
      for (std::size_t j = i; j < n; ++j) {
        if (entries[j].origin == origin) {
          ack_seqs_.push_back(entries[j].seq);
          entries[j].origin = nullptr;
        }
      }
      origin->ack_batch(ack_seqs_);
    }
    entries.clear();
    if (timed) {
      profile_->add(obs::Phase::kAckRetention, clock_.now() - ack_start);
    }
  }

  /// The per-packet service step every stage loop shares: pays the modelled
  /// service time (charged to the caller's `busy` clock), traces a sampled
  /// packet's inbox-wait and service hops, counts EOS, and tallies data
  /// packets — the batch head also gives the latency sample, so the
  /// estimate errs high, never low. Returns false when the stage crashed
  /// meanwhile: the packet stays uncounted and the caller exits without
  /// processing it (upstream retention still holds it). Forced inline: it
  /// runs per packet in every stage loop.
  [[gnu::always_inline]] bool service_one(Packet& packet, TimePoint queued_at,
                                          Duration& busy, Tally& tally) {
    // Zero-cost stages (resolved once in start()) skip the service-time
    // arithmetic and the sleep call per packet.
    Duration service = 0;
    if (!zero_service_) {
      service = spec_.cost.service_time(packet) / cpu_factor_;
      sleep_seconds(service);
      busy += service;
      tally.service += service;
    }
    if (tracer_active_ && packet.trace.sampled()) {
      const TimePoint done = clock_.now();
      ++packet.trace.hop;
      if (queued_at > 0 && done - service > queued_at) {
        GATES_TRACE(.time = queued_at,
                    .duration = done - service - queued_at,
                    .kind = obs::TraceKind::kPacketHop,
                    .component = spec_.name, .detail = "inbox-wait",
                    .trace_id = packet.trace.trace_id,
                    .hop = packet.trace.hop);
      }
      GATES_TRACE(.time = done - service, .duration = service,
                  .kind = obs::TraceKind::kPacketHop,
                  .component = spec_.name, .detail = "service",
                  .trace_id = packet.trace.trace_id, .hop = packet.trace.hop);
    }
    if (crashed_.load(std::memory_order_acquire)) return false;
    if (packet.is_eos()) {
      ++eos_received_;
      return true;
    }
    ++tally.packets;
    tally.records += packet.records;
    tally.bytes += packet.payload_bytes();
    if (!tally.latency_sampled) {
      latency_.add(clock_.now() - packet.created_at);
      tally.latency_sampled = true;
    }
    return true;
  }

  /// Publishes one batch's tally: one atomic add per counter per batch.
  void publish_tally(const Tally& tally) {
    if (tally.packets != 0) {
      packets_processed_.fetch_add(tally.packets, std::memory_order_relaxed);
      records_processed_.fetch_add(tally.records, std::memory_order_relaxed);
      bytes_processed_.fetch_add(tally.bytes, std::memory_order_relaxed);
    }
    if (profile_ != nullptr) {
      profile_->add(obs::Phase::kInboxWait, tally.inbox_wait);
      profile_->add(obs::Phase::kService, tally.service);
      profile_->add_packets(tally.packets);
    }
  }

  /// Profiler on: charges one consumed item's queue residency (push ->
  /// consume) to the batch's inbox-wait, with one clock read per batch.
  /// Items without a stamp (EOS, aux-channel injections) are skipped.
  void charge_inbox_wait(TimePoint queued_at, Tally& tally) {
    if (profile_ == nullptr) return;
    if (tally.consumed_at == 0) tally.consumed_at = clock_.now();
    if (queued_at > 0 && tally.consumed_at > queued_at) {
      tally.inbox_wait += tally.consumed_at - queued_at;
    }
  }

  /// One batch of the serial stage, on its worker thread or on an upstream
  /// thread that holds the inbox claim (serve_inline): `take(f)` consumes
  /// up to max_batch_ items, each serviced in place (in the ring slots on
  /// an SPSC inbox); then the counters are published, the outputs flushed
  /// — serving parked destinations in place when the inbox is now empty —
  /// and only then the inputs acked. Returns the items consumed; a crash
  /// skips the epilogue (upstream retention still holds every unacked
  /// input, so nothing is lost).
  template <typename Take>
  std::size_t serve_batch(Take&& take) {
    Tally tally;
    const std::size_t n = take([&](FlowItem& item) {
      // Tail items after a terminal EOS (or a crash) are dropped unacked;
      // upstream retention still holds them.
      if (stop_after_flush_ || crashed_.load(std::memory_order_acquire)) {
        return;
      }
      charge_inbox_wait(item.queued_at, tally);
      Packet& packet = item.packet;
      if (!service_one(packet, item.queued_at, busy_time_, tally)) return;
      if (item.origin != nullptr) {
        pending_acks_.push_back({item.origin, item.seq});
      }
      if (!packet.is_eos()) {
        processor_->process(packet, *this);
      } else if (eos_received_ >= eos_expected_) {
        stop_after_flush_ = true;
      }
    });
    if (n == 0 || crashed_.load(std::memory_order_acquire)) return n;
    publish_tally(tally);
    flush_emits(queue_.size() == 0);
    ack_grouped(pending_acks_);
    return n;
  }

  /// The serial stage loop, for every failover, profiler and inbox-mode
  /// setting: one serve_batch per consumed batch. With failover on the
  /// consume is timed, so the heartbeat advances even while idle (an idle
  /// beat returns 0 with the inbox still open).
  void run_loop() {
    if (!pin_cores_.empty()) pin_current_thread_to_core(pin_cores_[0]);
    if (remote_egress_) return run_loop_remote_egress();
    if (pooled()) return run_loop_pooled();
    const bool failover = engine_.config_.failover.enabled;
    const double wait =
        failover ? engine_.config_.failover.heartbeat_period : -1.0;
    stop_after_flush_ = false;
    while (!stop_after_flush_) {
      // Migration quiesce: the previous batch's effects are flushed and
      // acked, so this is an exact ack boundary. Park here with the inbox
      // open and intact; the control thread owns the handshake from now on.
      if (quiesce_requested_.load(std::memory_order_acquire)) {
        quiesced_.store(true, std::memory_order_release);
        engine_.wake_control();
        return;
      }
      if (failover) last_beat_.store(clock_.now(), std::memory_order_release);
      const std::size_t n = serve_batch(
          [&](auto&& f) { return queue_.consume(f, max_batch_, wait); });
      // Crash-stop: exit without flushing, acking, or sending EOS.
      if (crashed_.load(std::memory_order_acquire)) return;
      // Closed and drained, or force-stopped; 0 is otherwise an idle beat
      // or a kick (quiesce, or a terminal EOS served in place).
      if (n == 0 && queue_.closed()) break;
    }
    // Either all upstreams ended or the queue was force-closed; flush.
    processor_->finish(*this);
    flush_emits(true);
    finish_stage();
  }

  /// Remote outlet: the stage's consumed input is framed and sent over the
  /// egress link instead of being processed (the processor is never
  /// invoked). Every outgoing packet is retained in a local RetentionRing
  /// keyed by its wire seq; the peer acks exactly what its downstream
  /// stages processed, so after a peer restart the unacked tail replays
  /// over the reconnected link — the same at-least-once discipline as
  /// in-process failover, rendered across the wire. The per-upstream EOS
  /// fan-in collapses to one EOS control frame whose ring entry doubles as
  /// the completion barrier: when base_seq catches next_seq, the peer has
  /// durably processed everything.
  void run_loop_remote_egress() {
    net::RemoteLink& link = *remote_egress_;
    const bool failover = engine_.config_.failover.enabled;
    RetentionRing ring(engine_.config_.remote.retention_packets);
    std::vector<net::wire::WirePacket> wps;
    wps.reserve(max_batch_);

    // Resends the whole unacked ring tail after a reconnect. Payloads are
    // aliased out of the ring (refcount bumps); the retained copies stay
    // until the revived peer acks them.
    auto replay = [&]() -> Status {
      Status st = Status::ok();
      std::vector<net::wire::WirePacket> rp;
      rp.reserve(max_batch_);
      ring.for_each_unacked([&](std::uint64_t seq, const Packet& packet) {
        if (!st.is_ok()) return;
        if (packet.is_eos()) {
          if (!rp.empty()) {
            st = link.send_data(rp);
            rp.clear();
            if (!st.is_ok()) return;
          }
          st = link.send_eos(seq);
          return;
        }
        net::wire::WirePacket wp;
        wp.seq = seq;
        wp.stream = packet.stream;
        wp.kind = packet.kind;
        wp.records = static_cast<std::uint32_t>(packet.records);
        wp.payload = packet.payload;
        rp.push_back(std::move(wp));
        if (rp.size() >= max_batch_) {
          st = link.send_data(rp);
          rp.clear();
        }
      });
      if (st.is_ok() && !rp.empty()) st = link.send_data(rp);
      return st;
    };
    // After a send/recv failure: reconnect and replay, bounded so a peer
    // that never comes back degrades the run instead of wedging it. The
    // original send is never retried — the ring already holds everything
    // unacked, and replay() resends it.
    auto recover = [&]() -> bool {
      if (!failover) return false;
      const TimePoint give_up =
          clock_.now() + engine_.config_.remote.eos_barrier_timeout;
      while (!crashed_.load(std::memory_order_acquire)) {
        last_beat_.store(clock_.now(), std::memory_order_release);
        if (Status r = link.reconnect(); r.is_ok()) {
          if (Status rp = replay(); rp.is_ok()) return true;
        }
        if (clock_.now() > give_up) return false;
        sleep_seconds(0.05);
      }
      return false;
    };
    // A failed link operation: surface the cause, then attempt recovery
    // (reconnect + replay) when failover is on.
    auto fail = [&](const char* what, const Status& s) -> bool {
      GATES_LOG(kWarn, "rt-engine")
          << "egress '" << spec_.name << "' " << what << " on link '"
          << link.name() << "': " << s.to_string();
      return recover();
    };
    // Drains every ack frame currently available; waits at most `timeout`
    // for the first one.
    auto drain_acks = [&](double timeout) -> Status {
      for (;;) {
        auto ev = link.recv(timeout);
        if (!ev.ok()) return ev.status();
        if (ev.value().kind == net::RecvEvent::Kind::kNone) {
          return Status::ok();
        }
        if (ev.value().kind == net::RecvEvent::Kind::kAcks) {
          for (const std::uint64_t s : ev.value().acks) ring.ack_exact(s);
        }
        timeout = 0;
      }
    };

    bool link_ok = true;
    bool eos_done = false;
    while (!eos_done) {
      last_beat_.store(clock_.now(), std::memory_order_release);
      // Acks first, so the retains below see the freshest ring window.
      if (link_ok) {
        if (Status s = drain_acks(0); !s.is_ok()) {
          link_ok = fail("ack drain failed", s);
        }
      }
      wps.clear();
      Tally tally;
      const std::size_t n = queue_.consume(
          [&](FlowItem& item) {
            charge_inbox_wait(item.queued_at, tally);
            if (item.origin != nullptr) {
              pending_acks_.push_back({item.origin, item.seq});
            }
            Packet& p = item.packet;
            if (p.is_eos()) {
              // Collapse the per-upstream fan-in: one EOS crosses the wire.
              if (++eos_received_ >= eos_expected_) eos_done = true;
              return;
            }
            net::wire::WirePacket wp;
            wp.seq = ring.retain(p);  // retains a payload alias, not a copy
            wp.stream = p.stream;
            wp.kind = p.kind;
            wp.records = static_cast<std::uint32_t>(p.records);
            wp.payload = std::move(p.payload);
            ++tally.packets;
            tally.records += wp.records;
            tally.bytes += wp.payload.size();
            wps.push_back(std::move(wp));
          },
          max_batch_, 0.0005);
      if (crashed_.load(std::memory_order_acquire)) return;
      if (n == 0) {
        if (queue_.closed()) break;  // force-stopped
        continue;
      }
      if (!wps.empty() && link_ok) {
        if (Status s = link.send_data(wps); !s.is_ok()) {
          link_ok = fail("send failed", s);
        }
      }
      if (profile_ != nullptr) {
        profile_->add(obs::Phase::kSerialize, clock_.now() - tally.consumed_at);
      }
      publish_tally(tally);
      // Local acks release upstream retention in this process — after the
      // outputs were durably handed to the transport (an egress stage has
      // no routes, so there is nothing else to flush first).
      ack_grouped(pending_acks_);
    }
    if (eos_done && link_ok) {
      Packet eos = Packet::eos(0, clock_.now());
      const std::uint64_t eseq = ring.retain(eos);
      if (Status s = link.send_eos(eseq); !s.is_ok()) {
        link_ok = fail("EOS send failed", s);
      }
      // Barrier: every retained entry (data tail + the EOS marker) must be
      // acked before this stage reports finished, so "pipeline done" means
      // the remote process durably consumed everything.
      const TimePoint deadline =
          clock_.now() + engine_.config_.remote.eos_barrier_timeout;
      while (link_ok && ring.base_seq() != ring.next_seq()) {
        last_beat_.store(clock_.now(), std::memory_order_release);
        if (crashed_.load(std::memory_order_acquire)) return;
        if (Status s = drain_acks(0.005); !s.is_ok()) {
          link_ok = fail("barrier ack drain failed", s);
        }
        if (clock_.now() > deadline) {
          GATES_LOG(kWarn, "rt-engine")
              << "egress '" << spec_.name << "' EOS barrier timed out with "
              << (ring.next_seq() - ring.base_seq()) << " unacked";
          break;
        }
      }
    }
    if (!link_ok) {
      GATES_LOG(kWarn, "rt-engine")
          << "egress '" << spec_.name << "' gave up on link '" << link.name()
          << "'";
    }
    finish_stage();  // no routes: only marks the stage finished
  }

  // -- replica pool data plane ------------------------------------------------
  /// Dispatcher thread body (parallelism != serial). The stage's own thread
  /// consumes the inbox exactly like the serial loop (same heartbeat, same
  /// EOS counting), but instead of servicing packets it stamps each with a
  /// dense merge sequence and hands it to a replica — round-robin when
  /// stateless, shard_fn(packet) % active when keyed. EOS and finish() run
  /// through the same merge window, so ordering, acks, and termination are
  /// indistinguishable from the serial path as seen from downstream.
  void run_loop_pooled() {
    const bool failover = engine_.config_.failover.enabled;
    const double wait =
        failover ? engine_.config_.failover.heartbeat_period : -1.0;
    const bool keyed = spec_.parallelism.mode == ParallelismMode::kKeyed;
    bool terminal = false;
    while (!terminal) {
      // Migration quiesce at the dispatch boundary: drain the pool to its
      // merge barrier and park (see quiesce_pool).
      if (quiesce_requested_.load(std::memory_order_acquire)) {
        return quiesce_pool();
      }
      apply_scale();
      if (failover) last_beat_.store(clock_.now(), std::memory_order_release);
      const std::size_t n = queue_.consume(
          [&](FlowItem& item) {
            if (terminal || crashed_.load(std::memory_order_acquire)) return;
            const std::uint64_t mseq = next_seq_++;
            if (!merge_->acquire(mseq)) return;  // closed: crashed meanwhile
            if (item.packet.is_eos()) {
              // The dispatcher completes EOS itself: it carries no service
              // work, only ack bookkeeping, and must hold its arrival-order
              // slot so acks stay ordered behind the data that preceded it.
              Completion c;
              c.origin = item.origin;
              c.ack_seq = item.seq;
              merge_->complete(mseq, std::move(c));
              if (++eos_received_ >= eos_expected_) terminal = true;
              return;
            }
            const std::size_t active =
                active_replicas_.load(std::memory_order_relaxed);
            std::size_t r;
            if (keyed) {
              r = static_cast<std::size_t>(
                  spec_.parallelism.shard_fn(item.packet) % active);
            } else {
              r = rr_next_;
              rr_next_ = (rr_next_ + 1) % active;
            }
            PoolItem pi;
            pi.packet = std::move(item.packet);
            pi.origin = item.origin;
            pi.ack_seq = item.seq;
            pi.merge_seq = mseq;
            // Keep the original push stamp: the replica charges inbox +
            // replica-queue residency to inbox-wait in one measurement.
            pi.queued_at = item.queued_at;
            if (!replicas_[r]->queue->push(std::move(pi)) &&
                !crashed_.load(std::memory_order_acquire)) {
              merge_->complete(mseq, Completion{});  // keep the window moving
            }
          },
          max_batch_, wait);
      if (crashed_.load(std::memory_order_acquire)) return close_pool();
      if (n == 0) {
        if (queue_.closed()) break;  // force-stopped: wind down like serial
        continue;                    // idle beat
      }
      release_pass();
    }
    wind_down_pool();
  }

  /// Replica worker body: consume the private queue, pay the service time,
  /// run the processor with emissions captured, and deposit the result in
  /// the merge window. Whoever completes the window head releases (below).
  void replica_loop(std::size_t r) {
    Replica& rep = *replicas_[r];
    if (!pin_cores_.empty()) {
      pin_current_thread_to_core(pin_cores_[(r + 1) % pin_cores_.size()]);
    }
    while (true) {
      Tally tally;
      // Pool latency is sampled by the releaser, in arrival order.
      tally.latency_sampled = true;
      const std::size_t n = rep.queue->consume(
          [&](PoolItem& item) {
            if (crashed_.load(std::memory_order_acquire)) return;
            charge_inbox_wait(item.queued_at, tally);
            Completion c;
            c.origin = item.origin;
            c.ack_seq = item.ack_seq;
            CaptureEmitter capture(c.emissions);
            if (item.finish_marker) {
              rep.processor->finish(capture);
              c.is_final = item.is_final;
            } else {
              // No inbox-wait hop: a pooled stage's queueing spans the
              // dispatcher, and charge_inbox_wait above already covers it.
              if (!service_one(item.packet, 0, rep.busy_time, tally)) return;
              c.created_at = item.packet.created_at;
              c.has_data = true;
              rep.processor->process(item.packet, capture);
            }
            if (profile_ != nullptr) c.completed_at = clock_.now();
            merge_->complete(item.merge_seq, std::move(c));
            release_pass();
          },
          max_batch_);
      // Closed and drained (retired or winding down), or crashed.
      if (n == 0 || crashed_.load(std::memory_order_acquire)) return;
      publish_tally(tally);
      rep.packets.fetch_add(tally.packets, std::memory_order_relaxed);
    }
  }

  /// Release election (see ReorderMerge): whoever completed the window head
  /// drains every contiguous ready completion, stages its emissions through
  /// the normal route batching, flushes, then acks the released inputs —
  /// outputs-before-acks, exactly like the serial loop. The
  /// merge mutex hands the releaser role (and the non-atomic staging state
  /// it touches) between threads with a happens-before edge.
  void release_pass() {
    while (merge_->claim_release()) {
      bool latency_sampled = false;
      bool final_seen = false;
      // Merge-hold: how long each completion waited for its turn in the
      // in-order window. One clock read per release pass.
      const TimePoint release_at = profile_ != nullptr ? clock_.now() : 0;
      Duration held = 0;
      while (auto c = merge_->pop_ready()) {
        if (c->completed_at > 0 && release_at > c->completed_at) {
          held += release_at - c->completed_at;
        }
        if (c->has_data && !latency_sampled) {
          latency_.add(clock_.now() - c->created_at);
          latency_sampled = true;
        }
        for (auto& [packet, port] : c->emissions) {
          emit(std::move(packet), port);
        }
        if (c->origin != nullptr) {
          pending_acks_.push_back({c->origin, c->ack_seq});
        }
        final_seen |= c->is_final;
      }
      if (profile_ != nullptr) {
        profile_->add(obs::Phase::kMergeHold, held);
      }
      flush_emits();
      ack_grouped(pending_acks_);
      if (final_seen) finish_stage();
      merge_->end_release();
    }
  }

  /// The downstream half of every stage epilogue: EOS on each route, then
  /// the finished flag. A pool runs it once, from whichever releaser pops
  /// the final finish() completion.
  void finish_stage() {
    for (Outlet& route : routes_) route.send_eos(0, !pooled());
    GATES_TRACE(.time = clock_.now(), .kind = obs::TraceKind::kStageFinished,
                .component = spec_.name);
    finished_.store(true, std::memory_order_release);
    engine_.wake_control();
  }

  /// Terminal EOS (or force-stop): every active replica gets a finish
  /// marker — each replica processor must flush its partial state, in a
  /// merge slot ordered after all data — then the pool queues close so the
  /// replica threads exit once drained. The last marker carries is_final;
  /// its releaser runs finish_stage().
  void wind_down_pool() {
    const std::size_t active = active_replicas_.load(std::memory_order_relaxed);
    for (std::size_t r = 0; r < active; ++r) {
      const std::uint64_t mseq = next_seq_++;
      if (!merge_->acquire(mseq)) return close_pool();
      PoolItem marker;
      marker.finish_marker = true;
      marker.is_final = r + 1 == active;
      marker.merge_seq = mseq;
      if (!replicas_[r]->queue->push(std::move(marker))) {
        Completion c;
        c.is_final = r + 1 == active;
        merge_->complete(mseq, std::move(c));
      }
    }
    for (auto& rep : replicas_) rep->queue->close();
    release_pass();
  }

  /// Migration quiesce for a pool (dispatcher thread): stop dispatching,
  /// close the replica queues so each replica finishes its in-flight items
  /// into the merge window and exits, join them, then run a final
  /// release_pass — every dispatched input is now flushed downstream, in
  /// order through the merge outlet, and exactly acked. The merge window,
  /// sequence counters and the inbox all survive for the resumed
  /// incarnation (resume_migrated reopens the replica queues).
  void quiesce_pool() {
    for (auto& rep : replicas_) rep->queue->close();
    for (auto& rep : replicas_) {
      if (rep->thread.joinable()) rep->thread.join();
    }
    release_pass();
    quiesced_.store(true, std::memory_order_release);
    engine_.wake_control();
  }

  /// Crash-stop teardown: unblock everyone, complete nothing.
  void close_pool() {
    if (!pooled()) return;
    merge_->close();
    for (auto& rep : replicas_) rep->queue->close();
  }

  /// Dispatcher-side application of the control thread's scale target,
  /// between batches. Grow revives the next parked slot (join its retired
  /// thread, reopen its queue, start a fresh thread); shrink retires the
  /// highest active slot by closing its queue — the replica completes what
  /// it already holds into the merge window and exits. Invariant: slot r is
  /// active iff r < active_replicas_.
  void apply_scale() {
    const std::size_t target = scale_target_.load(std::memory_order_acquire);
    std::size_t active = active_replicas_.load(std::memory_order_relaxed);
    if (target == active) return;
    while (active < target) {
      Replica& rep = *replicas_[active];
      if (rep.thread.joinable()) rep.thread.join();
      rep.queue->reopen();
      const std::size_t r = active;
      rep.thread = std::thread([this, r] { replica_loop(r); });
      ++active;
      max_replicas_used_ = std::max(max_replicas_used_, active);
    }
    while (active > target && active > 1) {
      --active;
      replicas_[active]->queue->close();
    }
    active_replicas_.store(active, std::memory_order_release);
    if (rr_next_ >= active) rr_next_ = 0;
  }

  RtEngine& engine_;
  std::size_t index_;
  const StageSpec& spec_;
  NodeId node_;
  double cpu_factor_;
  /// Packets per consume (Batching::max_batch, at least one).
  const std::size_t max_batch_;
  std::unique_ptr<StreamProcessor> processor_;
  StageInbox<FlowItem> queue_;
  std::vector<Outlet> routes_;
  // Worker-thread staging (no locks): counter deltas accumulated across a
  // batch, and an ack-seq scratch vector.
  std::uint64_t emitted_pending_ = 0;
  std::uint64_t dropped_pending_ = 0;
  std::vector<std::uint64_t> ack_seqs_;
  std::vector<StageWorker*> upstreams_;
  StageAdaptation adaptation_;  // control thread only
  Rng rng_;
  const Clock& clock_;
  std::thread thread_;
  bool in_init_ = false;
  std::size_t eos_expected_ = 0;
  std::size_t eos_received_ = 0;
  /// Set by the batch that consumes the terminal EOS, on whichever thread
  /// serves it; the worker then finishes the stage.
  bool stop_after_flush_ = false;
  /// See resolve_claimable(); set at setup, read-only afterwards.
  bool claimable_ = false;
  std::atomic<bool> finished_{false};
  std::atomic<bool> crashed_{false};
  /// Migration quiesce handshake (control thread <-> worker threads).
  std::atomic<bool> quiesce_requested_{false};
  std::atomic<bool> quiesced_{false};
  std::atomic<TimePoint> crash_time_{0};
  std::atomic<TimePoint> last_beat_{0};
  std::size_t recoveries_ = 0;  // control thread only

  // Observability plumbing, resolved in start() before any worker thread
  // exists and read-only afterwards. profile_ is null when the Profiler is
  // off; the PhaseClock itself is all relaxed atomics, so replicas and the
  // dispatcher share it without coordination.
  obs::PhaseClock* profile_ = nullptr;
  bool tracer_active_ = false;
  /// True when the stage's cost model is all zeros (resolved in start()):
  /// the data loops skip service arithmetic and sleeps entirely.
  bool zero_service_ = false;
  /// Cores for this stage's threads; empty = unpinned (see set_pin_cores).
  std::vector<int> pin_cores_;
  /// Remote outlet transport; non-null switches run_loop to the egress
  /// loop (see run_loop_remote_egress).
  std::shared_ptr<net::RemoteLink> remote_egress_;

  // Written by the stage thread; relaxed atomics so the control thread can
  // sample them into the MetricsRegistry mid-run (final values are still
  // read after join()).
  std::atomic<std::uint64_t> packets_processed_{0};
  std::atomic<std::uint64_t> records_processed_{0};
  std::atomic<std::uint64_t> bytes_processed_{0};
  std::atomic<std::uint64_t> packets_emitted_{0};
  std::atomic<std::uint64_t> packets_dropped_{0};
  /// Batches an upstream thread served in place (serve_inline).
  std::atomic<std::uint64_t> inline_batches_{0};
  // Stage thread only, read after join().
  Duration busy_time_ = 0;
  RunningStats latency_;

  // -- replica pool state (empty/unused for serial stages) --------------------
  std::size_t replica_cap_ = 0;  // per-replica queue capacity
  std::unique_ptr<ReorderMerge<Completion>> merge_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::atomic<std::size_t> active_replicas_{1};
  /// Written by the control thread (control_step), applied by the
  /// dispatcher (apply_scale) between batches.
  std::atomic<std::size_t> scale_target_{1};
  std::size_t max_replicas_used_ = 1;  // dispatcher thread; read after join
  std::uint64_t next_seq_ = 0;         // dispatcher thread only
  std::size_t rr_next_ = 0;            // dispatcher thread only
  /// Acks of the inputs behind the outputs not yet flushed: the serial and
  /// egress loops fill it per batch, a pool's releaser per release pass
  /// (handed between threads by the merge mutex).
  std::vector<PendingAck> pending_acks_;

  // Pool metric handles (resolved on the first sampled control tick).
  obs::Gauge* replicas_gauge_ = nullptr;
  std::vector<obs::Counter*> replica_ctrs_;
};

// ---------------------------------------------------------------------------
// TransitPool (out of line: deliver() needs StageWorker's definition)
// ---------------------------------------------------------------------------

std::uint64_t RtEngine::TransitPool::check_in(std::vector<FlowItem>& items) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t token;
  if (!free_.empty()) {
    token = free_.back();
    free_.pop_back();
  } else {
    token = slots_.size();
    slots_.emplace_back();
  }
  // Swap, don't move: the sender walks away with the retired slot's vector
  // (empty but with grown capacity), so its next staging round reuses it.
  slots_[static_cast<std::size_t>(token)].swap(items);
  return token;
}

void RtEngine::TransitPool::deliver(std::uint64_t token) {
  std::vector<FlowItem>* items;
  {
    // Address is stable (deque) once taken; an in-flight slot is owned by
    // the shaper thread alone, so the push below runs unlocked.
    std::lock_guard<std::mutex> lock(mu_);
    items = &slots_[static_cast<std::size_t>(token)];
  }
  if (stamp_) {
    // Queued-at reflects arrival at the inbox, not send time: link delay
    // must land in shaper-delay attribution, not inbox-wait.
    const TimePoint t = dest_->now();
    for (FlowItem& it : *items) it.queued_at = t;
  }
  const std::size_t n = items->size();
  const std::size_t pushed = dest_->queue().push_all(*items);
  if (pushed < n) {
    // Receiver gone mid-flight: with retention the packets replay after
    // failover; without it they are the crash's loss window, traced
    // against the receiver like the unshaped path does.
    GATES_TRACE(.time = dest_->now(), .kind = obs::TraceKind::kPacketDrop,
                .component = dest_->stage_name(),
                .detail = "downstream queue closed",
                .value_new = static_cast<double>(n - pushed));
  }
  items->clear();
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(token);
}

// ---------------------------------------------------------------------------
// Outlet (out of line: the send path needs StageWorker's definition)
// ---------------------------------------------------------------------------

RtEngine::Outlet::Outlet(RtEngine& engine, std::shared_ptr<ThrottleGate> gate,
                         StageWorker* dest, std::size_t port,
                         std::shared_ptr<net::LinkShaper> shaper)
    : gate(std::move(gate)),
      dest(dest),
      port(port),
      shaper(std::move(shaper)),
      engine_(&engine) {
  if (engine.config_.failover.enabled) {
    channel = std::make_shared<ReplayChannel>(
        engine.config_.failover.replay_buffer_packets);
  }
}

void RtEngine::Outlet::arm(bool profile, bool tracer) {
  profile_ = profile;
  tracer_ = tracer;
  direct_ = shaper == nullptr && channel == nullptr && !profile &&
            dest->queue().spsc();
  if (shaper != nullptr && transit == nullptr) {
    transit = std::make_unique<TransitPool>(dest, profile || tracer);
  }
}

inline std::size_t RtEngine::Outlet::stage(Packet&& packet) {
  // Direct fast path: a clean, currently-unthrottled flow into an SPSC
  // inbox moves the packet straight into the destination ring — no
  // staging vector, no wire-byte accounting (the gate would no-op anyway),
  // no batched flush. The consumer wakeup is deferred to the next flush,
  // since the wake fence costs more than the push. A full ring (or a
  // mid-run rate change) falls back to the staged, charged, blocking path
  // below; the empty-staging guard keeps direct and staged items in order.
  if (direct_ && items_.empty() && gate->unthrottled()) {
    TimePoint queued_at = 0;
    if (tracer_ && packet.trace.sampled()) queued_at = engine_->clock_.now();
    const bool pushed = dest->queue().try_produce([&](FlowItem& slot) {
      slot.packet = std::move(packet);
      slot.origin = nullptr;
      slot.seq = 0;
      slot.queued_at = queued_at;
    });
    if (pushed) {
      wake_pending_ = true;
      return 0;
    }
  }
  wire_bytes_ += engine_->config_.wire.wire_size(packet.payload_bytes(),
                                                 packet.records);
  items_.push_back({std::move(packet), nullptr, 0});
  return items_.size() >= engine_->config_.batching.max_batch ? send() : 0;
}

inline void RtEngine::Outlet::wake(bool idle) {
  if (wake_pending_) {
    wake_pending_ = false;
    if (!idle || !dest->serve_inline()) dest->queue().wake_consumer();
  }
}

inline std::size_t RtEngine::Outlet::flush(bool idle) {
  const std::size_t refused = send();
  wake(idle);
  return refused;
}

inline std::size_t RtEngine::Outlet::send() {
  if (items_.empty()) return 0;
  if (shaper != nullptr) {
    flush_shaped();
    return 0;
  }
  // A throttled acquire may sleep: wake the consumer for what it already
  // holds first. push_all settles it likewise before parking on a full
  // ring.
  if (!gate->unthrottled()) wake(false);
  gate->acquire(wire_bytes_);
  wire_bytes_ = 0;
  if (profile_) {
    const TimePoint t = engine_->clock_.now();
    for (FlowItem& it : items_) it.queued_at = t;
  } else if (tracer_) {
    // Sampling means almost no item needs the inbox-arrival stamp; read
    // the clock only when a sampled packet actually sits in the batch.
    TimePoint t = 0;
    for (FlowItem& it : items_) {
      if (it.packet.trace.sampled()) {
        if (t == 0) t = engine_->clock_.now();
        it.queued_at = t;
      }
    }
  }
  if (channel) channel->retain_batch(items_);
  // Blocking push: a full downstream buffer backpressures this thread.
  const std::size_t n = items_.size();
  const std::size_t refused =
      n - dest->queue().push_all(items_, /*defer_wake=*/true);
  wake_pending_ |= refused != n;
  if (refused != 0) {
    GATES_TRACE(.time = engine_->clock_.now(),
                .kind = obs::TraceKind::kPacketDrop,
                .component = dest->stage_name(),
                .detail = "downstream queue closed",
                .value_new = static_cast<double>(refused));
  }
  items_.clear();
  return refused;
}

/// The sender thread samples per-item loss/delay plans (so retention order
/// matches wire order), charges the throttle gate for the surviving bytes
/// plus retransmissions, retains, and hands the queue push to the shaper
/// thread after the batch's delay. Jitter is per-batch (max over items) — a
/// batch is one wire burst.
void RtEngine::Outlet::flush_shaped() {
  std::size_t wire = wire_bytes_;
  wire_bytes_ = 0;
  Duration extra = 0;
  std::size_t kept = 0;
  std::size_t lost = 0;
  for (std::size_t i = 0; i < items_.size(); ++i) {
    Packet& packet = items_[i].packet;
    const net::LinkShaper::Plan plan = shaper->plan_send();
    const std::size_t item_wire =
        engine_->config_.wire.wire_size(packet.payload_bytes(), packet.records);
    if (plan.dropped) {
      // Link loss (kDrop): the message never reaches retention or the
      // receiver. Accounted on the link, not the sender — drop counters
      // keep meaning "receiver queue closed".
      wire -= item_wire;
      ++lost;
      continue;
    }
    if (tracer_ && packet.trace.sampled()) {
      // Causal link hop: the sampled packet's planned time on the wire
      // (base latency + RTO/jitter hold-back), attributed to the link.
      GATES_TRACE(.time = engine_->clock_.now(),
                  .duration = plan.base_latency + plan.extra_delay,
                  .kind = obs::TraceKind::kPacketHop,
                  .component = shaper->name(), .detail = "link",
                  .trace_id = packet.trace.trace_id, .hop = packet.trace.hop);
    }
    wire += item_wire * plan.retransmissions;
    extra = std::max(extra, plan.extra_delay);
    if (kept != i) items_[kept] = std::move(items_[i]);
    ++kept;
  }
  if (lost != 0) {
    GATES_TRACE(.time = engine_->clock_.now(),
                .kind = obs::TraceKind::kPacketDrop,
                .component = shaper->name(), .detail = "link loss",
                .value_new = static_cast<double>(lost));
  }
  items_.resize(kept);
  if (wire > 0) gate->acquire(wire);
  if (items_.empty()) return;
  if (channel) channel->retain_batch(items_);
  // Pooled hand-off: the batch parks in a recycled TransitPool slot (the
  // swap returns a retired slot's capacity to items_) and the shaper
  // releases it by token — no per-batch allocation.
  shaper->deliver_after(extra, transit.get(), transit->check_in(items_));
}

void RtEngine::Outlet::send_eos(StreamId stream, bool idle,
                                std::uint64_t sequence) {
  gate->acquire(engine_->config_.wire.per_message_overhead);
  FlowItem item{Packet::eos(stream, engine_->clock_.now()), nullptr, 0};
  item.packet.sequence = sequence;
  if (channel) {
    item.origin = channel.get();
    item.seq = channel->retain(item.packet);
  }
  if (shaper != nullptr) {
    auto shared = std::make_shared<FlowItem>(std::move(item));
    StageWorker* to = dest;
    shaper->deliver_in_order(
        [to, shared] { to->queue().push(std::move(*shared)); });
  } else if (dest->queue().try_produce(
                 [&](FlowItem& slot) { slot = std::move(item); })) {
    wake_pending_ = true;
    wake(idle);
  } else {
    dest->queue().push(std::move(item));
  }
}

void RtEngine::Outlet::discard() {
  items_.clear();
  wire_bytes_ = 0;
}

// ---------------------------------------------------------------------------
// SourceWorker
// ---------------------------------------------------------------------------
class RtEngine::SourceWorker {
 public:
  SourceWorker(RtEngine& engine, const SourceSpec& spec, Outlet outlet,
               Rng rng, const Clock& clock)
      : engine_(engine),
        spec_(spec),
        outlet_(std::move(outlet)),
        rng_(rng),
        clock_(clock) {}

  const Outlet& outlet() const { return outlet_; }
  /// Pin the source thread to `core` (engine setup, before start()).
  void set_pin_core(int core) { pin_core_ = core; }

  /// Turns this source into a remote inlet (engine setup, before start()):
  /// instead of generating packets it decodes frames from `link` and feeds
  /// the local target stage through its outlet. Its replay channel, if
  /// any, forwards acks as wire acks from the first packet on.
  void set_remote_ingress(std::shared_ptr<net::RemoteLink> link) {
    remote_ingress_ = std::move(link);
    if (outlet_.channel) outlet_.channel->forwards_wire_acks = true;
  }

  /// horizon <= 0 means "run until total_packets".
  void start(Duration horizon) {
    horizon_ = horizon;
    thread_ = std::thread([this] { run_loop(); });
  }
  void join() {
    if (thread_.joinable()) thread_.join();
  }
  void request_stop() { stop_.store(true, std::memory_order_release); }

 private:
  void run_loop() {
    if (pin_core_ >= 0) pin_current_thread_to_core(pin_core_);
    const bool tracer_active = obs::PacketTracer::global().active();
    outlet_.arm(obs::Profiler::global().enabled(), tracer_active);
    if (remote_ingress_) return run_loop_remote_ingress();
    const std::string trace_name = "source:" + std::to_string(spec_.stream);
    const std::size_t max_batch = std::max<std::size_t>(
        engine_.config_.batching.max_batch, 1);
    // Packets produced since the last flush boundary — counts direct pushes
    // too, so pacing/flush cadence is unchanged by the fast path.
    std::size_t batch_fill = 0;
    // Pacing debt: inter-arrival gaps accumulate while a batch builds and
    // are slept in one go at each flush. A flush is forced whenever the
    // debt reaches max_source_delay, so slow sources (gap >= the bound)
    // still emit packet-by-packet and pacing error stays under one bound.
    Duration owed_sleep = 0;
    // Hoisted divide: the uniform inter-arrival gap is loop-invariant.
    const Duration uniform_gap = 1.0 / spec_.rate_hz;
    std::uint64_t seq = 0;
    // Local sampling head (see the tracer_active block below): 0 means
    // "sample the next packet", so the first packet anchors the trace.
    std::uint64_t sample_countdown = 0;
    // Default (generator-less) sources send identical zero-filled payloads:
    // build the buffer once and alias it into every packet — a refcount
    // bump instead of an allocation. Any downstream mutation detaches via
    // COW, so sharing is invisible to processors.
    ByteBuffer proto(spec_.packet_bytes);
    const TimePoint start = clock_.now();
    // One clock read per flushed batch, not per packet: packets staged in
    // the same batch share a created_at stamp (skew bounded by one batch
    // build — microseconds at hot rates) and the horizon check rides the
    // same cached timestamp.
    TimePoint batch_now = start;
    // The source waited for this batch's input, so it is idle and serves a
    // parked target in place (Outlet::flush) instead of waking it; an
    // unpaced source never waits, so a loaded pipeline stays parallel.
    bool waited = false;
    // Flush (serve) time an engine-paced source spent while it owed sleep:
    // it comes out of the sleep it owes, so serving does not lower the
    // offered rate, and a source that is behind does not serve until it
    // has caught up.
    Duration late = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      if (spec_.total_packets != 0 && seq >= spec_.total_packets) break;
      if (horizon_ > 0 && batch_now - start >= horizon_) break;
      Packet packet;
      if (spec_.generator) {
        packet = spec_.generator(seq, rng_);
        if (batch_fill == 0) {
          // A generator source reads the batch clock after its first call:
          // the read tells whether the generator blocked, and keeps that
          // wait out of the batch's created_at.
          const TimePoint got = clock_.now();
          waited = got - batch_now > kInputWait;
          batch_now = got;
        }
      } else {
        packet.payload = proto;
      }
      packet.stream = spec_.stream;
      packet.sequence = seq;
      packet.created_at = batch_now;
      if (tracer_active) {
        // Causal sampling decision is made exactly once, at the origin; the
        // context then rides the packet through fan-out, retention, replay
        // and failover re-delivery. Hop 0 anchors the Perfetto flow. The
        // 1-in-period head runs on a source-local countdown so unsampled
        // packets — the 1023-in-1024 common case — pay one decrement, not a
        // shared fetch_add + modulo (which used to be the single biggest
        // tracing cost at millions of packets per second).
        if (sample_countdown == 0) {
          packet.trace = obs::PacketTracer::global().sample_now();
          sample_countdown = obs::PacketTracer::global().sample_period();
          GATES_TRACE(.time = packet.created_at,
                      .kind = obs::TraceKind::kPacketHop,
                      .component = trace_name, .detail = "emit",
                      .trace_id = packet.trace.trace_id,
                      .hop = packet.trace.hop);
        }
        --sample_countdown;
      }
      ++seq;
      owed_sleep += spec_.poisson ? rng_.exponential(spec_.rate_hz)
                                  : uniform_gap;
      std::size_t refused = outlet_.stage(std::move(packet));
      const bool boundary =
          ++batch_fill >= max_batch ||
          owed_sleep >= engine_.config_.batching.max_source_delay;
      if (boundary) {
        const bool owes = owed_sleep > late;
        const TimePoint flush_at = owes ? clock_.now() : 0;
        refused += outlet_.flush(waited || owes);
        if (owes) late += clock_.now() - flush_at;
      }
      // A closed target without retention means a force-stopped run: stop
      // producing. With retention a crashed target's tail survives in the
      // channel for replay, so production goes on.
      if (refused != 0 && !outlet_.channel) {
        return outlet_.send_eos(spec_.stream);
      }
      if (boundary) {
        batch_fill = 0;
        // Settle the accumulated inter-arrival debt, less `late`.
        // precise_sleep holds sub-millisecond gaps that sleep_for's timer
        // granularity would undershoot — high-rate paced sources used to
        // drift slow because each settle overslept and the debt ledger
        // never saw it. What `late` overran carries to the next settle, at
        // most one settle's worth: a stall (a long serve, a full inbox)
        // never turns into a burst of more than one batch.
        precise_sleep(owed_sleep - late);
        late = std::clamp(late - owed_sleep, Duration{0}, owed_sleep);
        owed_sleep = 0;
        batch_now = clock_.now();
      }
    }
    const bool idle = waited || owed_sleep > late;
    outlet_.flush(idle);
    outlet_.send_eos(spec_.stream, idle);
  }

  /// Remote inlet: receives DATA frames from the ingress link, lands each
  /// payload in an arena block (the decode's one copy), and sends them into
  /// the local target stage through the outlet, as a generating source
  /// does: the throttle reproduces the original cross-node bandwidth, the
  /// ReplayChannel makes the wire hop transparent to local failover, and a
  /// frame that the ingress waited for serves a parked target in place.
  /// Wire acks are deferred until downstream processing acks the local
  /// retention (the channel translates local seqs back to wire seqs), so
  /// the sender's ring only releases what this process durably handled.
  /// Without failover there is no local retention and delivery into the
  /// inbox acks at once.
  void run_loop_remote_ingress() {
    net::RemoteLink& link = *remote_ingress_;
    // Null without failover.
    ReplayChannel* const channel = outlet_.channel.get();
    obs::PhaseClock* profile = obs::Profiler::global().enabled()
                                   ? &obs::Profiler::global().stage(spec_.name)
                                   : nullptr;
    // Wire seqs to ack back to the sender; kept across a failed send.
    std::vector<std::uint64_t> acks;
    bool unacked = false;
    bool eos_seen = false;
    TimePoint eos_at = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      // Propagate releases: whatever downstream acked since the last pass
      // goes back to the sender as one exact-ack frame. A broken link keeps
      // them for the next pass; the recv below fails too and recovers.
      if (channel != nullptr) unacked = channel->take_wire_acks(acks);
      if (!acks.empty() && link.send_acks(acks).is_ok()) acks.clear();
      if (eos_seen && !unacked && acks.empty()) break;
      if (eos_seen &&
          clock_.now() - eos_at >
              engine_.config_.remote.eos_barrier_timeout) {
        GATES_LOG(kWarn, "rt-engine")
            << "ingress '" << spec_.name
            << "' exiting with unacked wire packets (barrier timeout)";
        break;
      }
      const TimePoint polled = clock_.now();
      auto ev = link.recv(0.001);
      if (!ev.ok()) {
        if (channel == nullptr) {
          // Legacy semantics without failover: a dead peer degrades to EOS
          // so the local pipeline still terminates.
          GATES_LOG(kWarn, "rt-engine")
              << "ingress '" << spec_.name << "' lost link '" << link.name()
              << "': " << ev.status().to_string();
          return outlet_.send_eos(spec_.stream);
        }
        while (!stop_.load(std::memory_order_acquire)) {
          if (Status r = link.reconnect(); r.is_ok()) break;
          sleep_seconds(0.05);
        }
        continue;
      }
      net::RecvEvent& e = ev.value();
      if (e.kind == net::RecvEvent::Kind::kShutdown) return;
      if (e.kind != net::RecvEvent::Kind::kData &&
          e.kind != net::RecvEvent::Kind::kEos) {
        continue;  // kNone poll timeout, or control noise — ignore
      }
      // The recv blocked for this frame: the ingress is idle, as a source
      // whose generator waited, and serves a parked target in place.
      const TimePoint now = clock_.now();
      const bool waited = now - polled > kInputWait;
      if (e.kind == net::RecvEvent::Kind::kEos) {
        eos_seen = true;
        eos_at = now;
        outlet_.send_eos(spec_.stream, waited, e.base_seq);
        if (channel == nullptr) acks.push_back(e.base_seq);
        continue;
      }
      std::size_t refused = 0;
      for (auto& wp : e.packets) {
        Packet packet;
        packet.stream = wp.stream;
        packet.sequence = wp.seq;  // the wire seq the channel acks with
        packet.created_at = now;   // latency restarts at the hop
        packet.kind = wp.kind;
        packet.records = wp.records;
        packet.payload = std::move(wp.payload);
        refused += outlet_.stage(std::move(packet));
      }
      if (profile != nullptr) {
        profile->add(obs::Phase::kDeserialize, clock_.now() - now);
        profile->add_packets(e.packets.size());
      }
      refused += outlet_.flush(waited);
      if (channel != nullptr) continue;
      // Force-stopped with nothing to replay.
      if (refused != 0) return;
      // No local retention: delivery into the inbox is the ack.
      for (const auto& wp : e.packets) acks.push_back(wp.seq);
    }
    // Last chance for the sender's barrier: push out anything still
    // pending (best effort — the link may be gone).
    if (channel != nullptr) channel->take_wire_acks(acks);
    if (!acks.empty()) (void)link.send_acks(acks);
  }

  RtEngine& engine_;
  const SourceSpec& spec_;
  Outlet outlet_;
  std::shared_ptr<net::RemoteLink> remote_ingress_;
  Rng rng_;
  const Clock& clock_;
  std::thread thread_;
  Duration horizon_ = 0;
  int pin_core_ = -1;
  std::atomic<bool> stop_{false};
};

// ---------------------------------------------------------------------------
// RtEngine
// ---------------------------------------------------------------------------

RtEngine::RtEngine(PipelineSpec spec, Placement placement, HostModel hosts,
                   net::Topology topology, Config config)
    : spec_(std::move(spec)),
      placement_(std::move(placement)),
      hosts_(std::move(hosts)),
      topology_(std::move(topology)),
      config_(config),
      root_rng_(config.seed) {}

RtEngine::~RtEngine() {
  for (auto& s : sources_) s->join();
  for (auto& s : stages_) {
    s->force_stop();
    s->join();
  }
}

std::pair<std::pair<NodeId, NodeId>, net::LinkSpec> RtEngine::flow_key(
    NodeId from, NodeId to) const {
  // Same-node flows and flows into a shared-ingress node reuse one gate (and
  // shaper) so concurrent senders share the bandwidth, mirroring SimEngine's
  // links.
  if (from == to) return {{to, to}, net::Topology::loopback()};
  if (auto shared = topology_.shared_ingress(to)) {
    return {{kInvalidNode, to}, *shared};
  }
  return {{from, to}, topology_.between(from, to)};
}

std::shared_ptr<RtEngine::ThrottleGate> RtEngine::gate_for_flow(NodeId from,
                                                                NodeId to) {
  const auto [key, spec] = flow_key(from, to);
  std::lock_guard<std::mutex> lock(flow_mu_);
  auto& slot = gates_[key];
  if (!slot) slot = std::make_shared<ThrottleGate>(spec.bandwidth, clock_);
  return slot;
}

std::shared_ptr<net::LinkShaper> RtEngine::shaper_for_flow(NodeId from,
                                                           NodeId to) {
  if (from == to) return nullptr;  // loopback is never shaped
  const auto [key, spec] = flow_key(from, to);
  std::lock_guard<std::mutex> lock(flow_mu_);
  auto it = shapers_.find(key);
  if (it != shapers_.end()) return it->second;
  const bool prepared = prepared_flows_.count(key) != 0;
  if (spec.latency <= 0 && !spec.impair.any() && !prepared) {
    // Clean flow: direct gate -> inbox path, zero added cost (the perf-gate
    // configuration compiles the shaper in but never routes through it).
    return nullptr;
  }
  net::LinkShaper::Config cfg;
  cfg.name = key.first == kInvalidNode
                 ? "ingress@" + std::to_string(key.second)
                 : "link:" + std::to_string(key.first) + "->" +
                       std::to_string(key.second);
  cfg.latency = spec.latency;
  cfg.impair = spec.impair;
  cfg.rng = root_rng_.fork(2000 + impair_stream_++);
  auto shaper = std::make_shared<net::LinkShaper>(std::move(cfg));
  shapers_[key] = shaper;
  return shaper;
}

void RtEngine::prepare_link_change(NodeId from, NodeId to) {
  GATES_CHECK_MSG(!setup_done_, "prepare_link_change must precede run()");
  prepared_flows_.insert(flow_key(from, to).first);
}

void RtEngine::apply_link_change(NodeId from, NodeId to,
                                 const net::LinkSpec& spec) {
  GATES_CHECK_MSG(setup_done_, "apply_link_change targets a running engine");
  GATES_CHECK(spec.bandwidth > 0);
  // flow_mu_ orders these lookups against a migration lazily creating the
  // re-homed stage's flows; the objects themselves are internally
  // synchronized, and std::map iterators survive later insertions.
  const auto [key, base] = flow_key(from, to);
  std::unique_lock<std::mutex> flow_lock(flow_mu_);
  auto git = gates_.find(key);
  if (git != gates_.end()) git->second->set_rate(spec.bandwidth);
  auto sit = shapers_.find(key);
  flow_lock.unlock();
  if (sit != shapers_.end()) {
    sit->second->set_spec(spec.latency, spec.impair);
  } else if (spec.latency > 0 || spec.impair.any()) {
    GATES_LOG(kWarn, "rt-engine")
        << "flow " << from << "->" << to << " has no shaper; call "
        << "prepare_link_change() before run() to impair a clean flow";
  }
  if (git == gates_.end() && sit == shapers_.end()) {
    GATES_LOG(kWarn, "rt-engine")
        << "link change for unknown flow " << from << "->" << to
        << " ignored";
    return;
  }
  const net::LinkTransition tr = net::classify_transition(base, spec);
  const obs::TraceKind kind =
      tr == net::LinkTransition::kPartition ? obs::TraceKind::kPartition
      : tr == net::LinkTransition::kDegrade ? obs::TraceKind::kLinkDegrade
                                            : obs::TraceKind::kLinkRestore;
  const std::string name =
      sit != shapers_.end()
          ? sit->second->name()
          : "link:" + std::to_string(from) + "->" + std::to_string(to);
  GATES_TRACE(.time = clock_.now(), .kind = kind, .component = name,
              .detail = net::describe_spec(spec), .value_old = base.bandwidth,
              .value_new = spec.bandwidth);
  GATES_LOG(kInfo, "rt-engine") << "flow " << from << "->" << to
                                << " link change: " << net::describe_spec(spec);
}

Status RtEngine::setup() {
  if (setup_done_) return Status::ok();
  if (auto s = spec_.validate(); !s.is_ok()) return s;
  if (placement_.stage_nodes.size() != spec_.stages.size()) {
    return invalid_argument("placement does not cover all stages");
  }
  for (const auto& stage : spec_.stages) {
    if (!stage.factory) {
      return failed_precondition("stage '" + stage.name +
                                 "' has no processor factory");
    }
  }

  for (std::size_t i = 0; i < spec_.stages.size(); ++i) {
    stages_.push_back(std::make_unique<StageWorker>(
        *this, i, spec_.stages[i], placement_.stage_nodes[i],
        hosts_.at(placement_.stage_nodes[i]), root_rng_.fork(1000 + i),
        clock_));
  }
  for (const auto& edge : spec_.edges) {
    const NodeId from = placement_.stage_nodes[edge.from_stage];
    const NodeId to = placement_.stage_nodes[edge.to_stage];
    stages_[edge.from_stage]->add_route(
        Outlet(*this, gate_for_flow(from, to), stages_[edge.to_stage].get(),
               edge.port, shaper_for_flow(from, to)));
    stages_[edge.to_stage]->add_upstream(stages_[edge.from_stage].get());
  }
  for (std::size_t i = 0; i < spec_.sources.size(); ++i) {
    const auto& src = spec_.sources[i];
    const NodeId to = placement_.stage_nodes[src.target_stage];
    // A remote inlet's packets crossed a real link: a shaper would drop
    // wire packets that no one replays, so its outlet has none.
    const bool remote = config_.remote.ingress_links.count(i) != 0;
    sources_.push_back(std::make_unique<SourceWorker>(
        *this, src,
        Outlet(*this, gate_for_flow(src.location, to),
               stages_[src.target_stage].get(), 0,
               remote ? nullptr : shaper_for_flow(src.location, to)),
        root_rng_.fork(i), clock_));
  }
  for (std::size_t i = 0; i < spec_.stages.size(); ++i) {
    stages_[i]->set_eos_expected(spec_.fan_in(i));
  }
  // Single-producer inboxes for 1:1 flows: a stage whose inbox has exactly
  // one data-plane producer thread (one inbound edge XOR one source) skips
  // the producer lock and may be served in place. Fan-in stages keep the
  // shared (locked) producer side; control-plane injections (replay,
  // EOS-on-behalf) use the inbox's aux lane either way, so they never
  // break the single-producer invariant. A replicated upstream edge is NOT
  // one producer: its outputs are pushed by whichever thread wins the
  // merge-release election (any replica or the dispatcher), so it counts
  // as multiple producers.
  std::vector<std::size_t> producers(spec_.stages.size(), 0);
  // A shaped flow's pushes come from its shaper thread, which may be shared
  // with other flows into the same stage — count it like a pooled upstream
  // (2) so the inbox conservatively stays shared.
  for (auto& stage : stages_) {
    for (const Outlet& route : stage->routes()) {
      const bool shared = stage->pooled() || route.shaper != nullptr;
      producers[route.dest->stage_id()] += shared ? 2 : 1;
    }
  }
  for (const auto& source : sources_) {
    const Outlet& outlet = source->outlet();
    producers[outlet.dest->stage_id()] += outlet.shaper != nullptr ? 2 : 1;
  }
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (producers[i] == 1) stages_[i]->queue().use_spsc();
  }
  // Thread-to-core placement: resolve each pipeline node's core list, then
  // hand it to the workers hosted there (threads pin themselves at loop
  // start). Explicit per-node lists come from the config (grid XML `cores`
  // attribute); otherwise the process's allowed cores are partitioned
  // contiguously across the nodes in use, so co-hosted stages share a
  // cache domain and distinct nodes do not migrate onto each other.
  if (config_.thread_placement.pin) {
    std::set<NodeId> nodes;
    for (const NodeId n : placement_.stage_nodes) nodes.insert(n);
    for (const auto& src : spec_.sources) nodes.insert(src.location);
    const auto& explicit_cores = config_.thread_placement.node_cores;
    bool have_explicit = false;
    for (const auto& list : explicit_cores) have_explicit |= !list.empty();
    std::map<NodeId, std::vector<int>> node_cores;
    if (have_explicit) {
      for (const NodeId n : nodes) {
        if (static_cast<std::size_t>(n) < explicit_cores.size()) {
          node_cores[n] = explicit_cores[static_cast<std::size_t>(n)];
        }
      }
    } else {
      const int hw = hardware_core_count();
      const std::size_t parts = nodes.size();
      std::size_t idx = 0;
      for (const NodeId n : nodes) {
        const int begin = static_cast<int>(idx * hw / parts);
        const int end = static_cast<int>((idx + 1) * hw / parts);
        for (int c = begin; c < end; ++c) node_cores[n].push_back(c);
        // More nodes than cores: share, don't leave a node coreless.
        if (node_cores[n].empty()) {
          node_cores[n].push_back(static_cast<int>(idx) % hw);
        }
        ++idx;
      }
    }
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      auto it = node_cores.find(placement_.stage_nodes[i]);
      if (it != node_cores.end() && !it->second.empty()) {
        stages_[i]->set_pin_cores(it->second);
      }
    }
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      auto it = node_cores.find(spec_.sources[i].location);
      if (it != node_cores.end() && !it->second.empty()) {
        sources_[i]->set_pin_core(it->second[i % it->second.size()]);
      }
    }
  }
  // Remote transports (gates_node deployments): hand each link to its
  // worker before any thread starts, so the dispatch flags and ack hooks
  // are immutable by the time the loops run.
  for (const auto& [idx, link] : config_.remote.egress_links) {
    if (idx >= stages_.size() || !link) {
      return invalid_argument("remote egress link index out of range");
    }
    stages_[idx]->set_remote_egress(link);
  }
  for (const auto& [idx, link] : config_.remote.ingress_links) {
    if (idx >= sources_.size() || !link) {
      return invalid_argument("remote ingress link index out of range");
    }
    sources_[idx]->set_remote_ingress(link);
  }
  for (auto& stage : stages_) {
    stage->resolve_claimable();
    stage->init();
  }
  setup_done_ = true;
  return Status::ok();
}

Status RtEngine::run() { return execute(0); }

Status RtEngine::run_for(Duration seconds) { return execute(seconds); }

Status RtEngine::execute(Duration source_horizon) {
  if (auto s = setup(); !s.is_ok()) return s;

  // Packet-path allocation accounting is process-global (the arena and the
  // COW copy counter are shared), so the report uses start-to-end deltas.
  const ArenaStats alloc_start = PayloadArena::global().stats();
  const std::uint64_t copies_start = ByteBuffer::deep_copies();

  const TimePoint start = clock_.now();
  for (auto& stage : stages_) stage->start();
  for (auto& source : sources_) source->start(source_horizon);

  // Control loop doubles as the watchdog and the failure detector.
  const bool profiling = obs::Profiler::global().enabled();
  bool timed_out = false;
  auto all_finished = [this] {
    for (auto& stage : stages_) {
      if (!stage->finished()) return false;
    }
    return true;
  };
  // Pool/arena counters, published once per control tick (handles resolved
  // lazily so disabled-metrics runs never touch the registry).
  obs::Counter* pool_acquired_ctr = nullptr;
  obs::Counter* pool_recycled_ctr = nullptr;
  obs::Counter* pool_fallback_ctr = nullptr;
  obs::Gauge* pool_hugepage_gauge = nullptr;
  auto publish_pool = [&] {
    auto& reg = obs::MetricsRegistry::global();
    if (!reg.enabled()) return;
    if (pool_acquired_ctr == nullptr) {
      pool_acquired_ctr = &reg.counter("gates_pool_acquired_total");
      pool_recycled_ctr = &reg.counter("gates_pool_recycled_total");
      pool_fallback_ctr = &reg.counter("gates_pool_heap_fallback_total");
      pool_hugepage_gauge = &reg.gauge("gates_pool_hugepage_bytes");
    }
    const ArenaStats st = PayloadArena::global().stats();
    pool_acquired_ctr->set(st.acquired);
    pool_recycled_ctr->set(st.recycled);
    pool_fallback_ctr->set(st.heap_fallback);
    pool_hugepage_gauge->set(
        static_cast<double>(PayloadArena::global().hugepage_bytes()));
  };
  // Per-link wire counters (frames, bytes, packets, acks, reconnects),
  // published on the same cadence. Handles resolve once per link.
  auto publish_wire = [&] {
    auto& reg = obs::MetricsRegistry::global();
    if (!reg.enabled()) return;
    if (config_.remote.egress_links.empty() &&
        config_.remote.ingress_links.empty()) {
      return;
    }
    auto publish_link = [&](net::RemoteLink& link) {
      const net::WireStats& st = link.stats();
      const obs::Labels labels{{"link", link.name()}};
      reg.counter("gates_wire_frames_out_total", labels)
          .set(st.frames_out.load(std::memory_order_relaxed));
      reg.counter("gates_wire_frames_in_total", labels)
          .set(st.frames_in.load(std::memory_order_relaxed));
      reg.counter("gates_wire_bytes_out_total", labels)
          .set(st.bytes_out.load(std::memory_order_relaxed));
      reg.counter("gates_wire_bytes_in_total", labels)
          .set(st.bytes_in.load(std::memory_order_relaxed));
      reg.counter("gates_wire_packets_out_total", labels)
          .set(st.packets_out.load(std::memory_order_relaxed));
      reg.counter("gates_wire_packets_in_total", labels)
          .set(st.packets_in.load(std::memory_order_relaxed));
      reg.counter("gates_wire_acks_out_total", labels)
          .set(st.acks_out.load(std::memory_order_relaxed));
      reg.counter("gates_wire_acks_in_total", labels)
          .set(st.acks_in.load(std::memory_order_relaxed));
      reg.counter("gates_wire_reconnects_total", labels)
          .set(st.reconnects.load(std::memory_order_relaxed));
    };
    for (const auto& [idx, link] : config_.remote.egress_links) {
      publish_link(*link);
    }
    for (const auto& [idx, link] : config_.remote.ingress_links) {
      publish_link(*link);
    }
  };
  while (true) {
    // One control period, or until the last stage finishes.
    control_wake_.await(all_finished, deadline_after(config_.control_period));
    handle_failures(start);
    process_migrations(start);
    if (all_finished()) break;
    const TimePoint tick_start = clock_.now();
    for (auto& stage : stages_) {
      // A crashed stage's closed inbox keeps its frozen backlog; like the
      // SimEngine, it raises no exceptions until it is revived.
      if (!stage->crashed()) stage->control_step(config_.adaptation_enabled);
    }
    publish_pool();
    publish_wire();
    if (profiling) {
      // Links accumulate planned hold time inside the shaper; publish the
      // running total (overwrite, not add) and fold the whole profile into
      // the MetricsRegistry, charging the fold's own cost to obs_fold_micros.
      store_link_phases();
      obs::fold_profiler_into_metrics(clock_.now() - tick_start);
    }
    if (clock_.now() - start > config_.max_wall_time) {
      timed_out = true;
      GATES_LOG(kWarn, "rt-engine") << "watchdog fired; force-stopping";
      for (auto& source : sources_) source->request_stop();
      for (auto& stage : stages_) stage->force_stop();
      break;
    }
  }
  for (auto& source : sources_) source->join();
  for (auto& stage : stages_) stage->join();
  // Drain shaper queues before reading any stats: in-flight deliveries land
  // (into closed queues on a timed-out run) and the shaper threads exit.
  for (auto& [key, shaper] : shapers_) shaper->stop();
  const TimePoint end = clock_.now();

  report_ = RunReport{};
  report_.completed = !timed_out;
  report_.execution_time = end - start;
  for (const auto& stage : stages_) {
    report_.stages.push_back(stage->build_report());
  }
  report_.failures = failures_;
  report_.migrations = migration_records_;
  for (const auto& [key, shaper] : shapers_) {
    const net::LinkShaper::Stats st = shaper->stats();
    LinkReport lr;
    lr.name = shaper->name();
    lr.messages_delivered = st.messages_shaped - st.messages_lost;
    lr.messages_lost = st.messages_lost;
    lr.messages_retransmitted = st.messages_retransmitted;
    report_.links.push_back(std::move(lr));
  }
  if (profiling) {
    // Final link totals (the last tick may have missed the tail), then a
    // closing fold so /metrics and the report agree at end of run.
    const TimePoint fold_start = clock_.now();
    store_link_phases();
    obs::fold_profiler_into_metrics(clock_.now() - fold_start);
  }
  report_.attribution = obs::make_bottleneck_report();
  const ArenaStats alloc_end = PayloadArena::global().stats();
  report_.allocation.pool_acquired = alloc_end.acquired - alloc_start.acquired;
  report_.allocation.pool_recycled = alloc_end.recycled - alloc_start.recycled;
  report_.allocation.pool_heap_fallback =
      alloc_end.heap_fallback - alloc_start.heap_fallback;
  report_.allocation.pool_slab_allocs =
      alloc_end.slab_allocs - alloc_start.slab_allocs;
  report_.allocation.payload_deep_copies =
      ByteBuffer::deep_copies() - copies_start;
  for (const auto& s : report_.stages) {
    report_.allocation.packets += s.packets_processed;
  }
  report_.host = HostInfo::detect();
  report_.host.pinned = config_.thread_placement.pin;
  switch (config_.idle.mode) {
    case IdleConfig::kSpin: report_.host.idle = "spin"; break;
    case IdleConfig::kBalanced: report_.host.idle = "balanced"; break;
    case IdleConfig::kPark: report_.host.idle = "park"; break;
  }
  report_.host.arena_hugepage_bytes = PayloadArena::global().hugepage_bytes();
  publish_pool();
  publish_wire();
  if (obs::MetricsRegistry::global().enabled()) {
    // The last tick may have missed the pools' tail: sample them once more
    // so /metrics and the stage reports agree at end of run.
    for (auto& stage : stages_) {
      if (stage->pooled()) stage->publish_pool_metrics();
    }
    report_.metrics = obs::MetricsRegistry::global().snapshot();
  }
  if (obs::TraceBuffer::global().enabled()) {
    report_.trace_summary = obs::TraceBuffer::global().summary();
  }
  return Status::ok();
}

void RtEngine::store_link_phases() {
  for (const auto& [key, shaper] : shapers_) {
    obs::Profiler::global()
        .link(shaper->name())
        .store(obs::Phase::kShaperDelay, shaper->stats().delay_seconds);
  }
}

std::string RtEngine::health_json() {
  // Reads only thread-safe state (atomics and internally locked queues), so
  // the introspection thread can call it mid-run. Before setup there are no
  // stages to report.
  JsonWriter w;
  w.begin_object();
  const TimePoint now = clock_.now();
  const auto& fo = config_.failover;
  w.kv("now", now).kv("failover", fo.enabled);
  w.key("stages").begin_array();
  if (setup_done_.load(std::memory_order_acquire)) {
    for (const auto& stage : stages_) {
      const TimePoint beat = stage->last_beat();
      const char* state = "alive";
      if (stage->finished()) {
        state = "finished";
      } else if (stage->crashed()) {
        state = "dead";
      } else if (stage->quiesced()) {
        state = "migrating";
      } else if (fo.enabled &&
                 now - beat > fo.heartbeat_period * fo.suspicion_beats) {
        state = "suspect";
      }
      w.begin_object()
          .kv("name", stage->name())
          .kv("node", static_cast<std::uint64_t>(stage->node()))
          .kv("state", state)
          .kv("last_beat", beat)
          .kv("queue_length",
              static_cast<std::uint64_t>(stage->queue().size()))
          .kv("replicas",
              static_cast<std::uint64_t>(stage->active_replicas()))
          .end_object();
    }
  }
  w.end_array().end_object();
  return w.str();
}

void RtEngine::handle_failures(TimePoint run_started) {
  const TimePoint now = clock_.now();
  for (auto& f : node_failures_) {
    if (f.fired || now - run_started < f.time) continue;
    f.fired = true;
    for (auto& stage : stages_) {
      if (stage->node() == f.node) stage->crash(now);
    }
  }
  const auto& fo = config_.failover;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    StageWorker* stage = stages_[i].get();
    if (!stage->crashed() || stage->finished()) continue;
    // Detection: the dead worker stopped publishing heartbeats; its lease
    // expires after `suspicion_beats` periods. (crashed() gates the check —
    // a slow-but-alive worker is never declared dead, so join() below
    // cannot hang.) With failover off there are no beats; the legacy path
    // reacts on the next control tick.
    if (fo.enabled &&
        now - stage->last_beat() < fo.heartbeat_period * fo.suspicion_beats) {
      continue;
    }
    FailureReport rec;
    rec.node = stage->node();
    rec.stage = stage->name();
    rec.failed_at = stage->crash_time() - run_started;
    rec.detected_at = now - run_started;
    rec.attempts = 1;
    if (fo.enabled) {
      GATES_TRACE(.time = now, .kind = obs::TraceKind::kFailureDetected,
                  .component = stage->name(),
                  .value_old = stage->crash_time());
      trace_heartbeat_transition(stage->name(), now, "dead");
    }
    if (!fo.enabled) {
      rec.outcome = FailureReport::Outcome::kEosOnBehalf;
      stage->finish_on_behalf();
      GATES_LOG(kWarn, "rt-engine")
          << "stage '" << stage->name() << "' crashed; EOS on its behalf";
    } else {
      restart_stage(i, rec);
      rec.recovered_at = clock_.now() - run_started;
      if (rec.outcome == FailureReport::Outcome::kRecovered) {
        // Absolute wall times, like every other RtEngine event (the Chrome
        // exporter re-bases the whole trace to its earliest event).
        trace_failover_span(rec.stage, stage->crash_time(), clock_.now(),
                            rec.recovered_on, rec.packets_replayed,
                            rec.packets_lost_retention);
        trace_heartbeat_transition(rec.stage, clock_.now(), "alive");
      }
    }
    failures_.push_back(std::move(rec));
  }
}

void RtEngine::restart_stage(std::size_t stage_index, FailureReport& record) {
  StageWorker* stage = stages_[stage_index].get();
  stage->revive(recovery_factory_provider_ ? recovery_factory_provider_(stage_index)
                                           : ProcessorFactory{});
  // Replay the unacknowledged tail of every inbound flow. The recovery
  // burst bypasses the throttle gates (it is bounded by the retention
  // capacity, which also bounds the aux lane it goes through). New
  // traffic from live senders may interleave with the replayed tail — the
  // flows are at-least-once, not ordered, across a restart.
  std::uint64_t replayed = 0;
  std::uint64_t lost = 0;
  auto replay = [&](ReplayChannel* ch) {
    if (ch == nullptr) return;
    lost += ch->take_unreported_evictions();
    for (auto& [seq, packet] : ch->snapshot()) {
      // Aux lane: this runs on the control thread, which must not touch
      // the ring (that is the flow producers' lane) nor block on it.
      if (stage->queue().push_aux({packet, ch, seq})) {
        ++replayed;
        if (packet.trace.sampled()) {
          // Failover re-delivery: the retained copy carries the original
          // TraceContext, so the replayed leg renders on the same flow.
          GATES_TRACE(.time = clock_.now(),
                      .kind = obs::TraceKind::kPacketHop,
                      .component = stage->name(), .detail = "replay",
                      .trace_id = packet.trace.trace_id,
                      .hop = packet.trace.hop);
        }
      }
    }
  };
  auto replay_into = [&](const Outlet& outlet) {
    if (outlet.dest == stage) replay(outlet.channel.get());
  };
  for (auto& up : stages_) {
    for (const Outlet& route : up->routes()) replay_into(route);
  }
  for (auto& src : sources_) replay_into(src->outlet());
  record.outcome = FailureReport::Outcome::kRecovered;
  record.recovered_on = stage->node();
  record.packets_replayed = replayed;
  record.packets_lost_retention = lost;
  GATES_TRACE(.time = clock_.now(), .kind = obs::TraceKind::kRecovered,
              .component = stage->name(),
              .value_new = static_cast<double>(stage->node()));
  GATES_LOG(kInfo, "rt-engine")
      << "stage '" << stage->name() << "' restarted (" << replayed
      << " replayed, " << lost << " lost to retention)";
}

void RtEngine::schedule_node_failure(NodeId node, TimePoint t) {
  GATES_CHECK_MSG(!setup_done_, "schedule_node_failure must precede run()");
  node_failures_.push_back({node, t, false});
}

void RtEngine::set_recovery_factory_provider(RecoveryFactoryProvider provider) {
  GATES_CHECK_MSG(!setup_done_,
                  "set_recovery_factory_provider must precede run()");
  recovery_factory_provider_ = std::move(provider);
}

void RtEngine::kill_stage(std::size_t stage_index) {
  GATES_CHECK(stage_index < spec_.stages.size());
  GATES_CHECK_MSG(setup_done_, "kill_stage targets a running engine");
  stages_[stage_index]->crash(clock_.now());
}

// ---------------------------------------------------------------------------
// Live migration (DESIGN.md §10). Everything below the request queue runs on
// the control thread, which also owns handle_failures — the quiesce
// handshake and the failure detector can never race each other.
// ---------------------------------------------------------------------------

void RtEngine::request_migration(std::size_t stage_index, NodeId target) {
  GATES_CHECK(stage_index < spec_.stages.size());
  std::lock_guard<std::mutex> lock(migration_mu_);
  pending_migrations_.emplace_back(stage_index, target);
}

void RtEngine::schedule_migration(std::size_t stage_index, TimePoint t,
                                  NodeId target) {
  GATES_CHECK_MSG(!setup_done_, "schedule_migration must precede run()");
  GATES_CHECK(stage_index < spec_.stages.size());
  timed_migrations_.push_back({stage_index, t, target, false});
}

void RtEngine::set_migration_provider(MigrationProvider provider) {
  GATES_CHECK_MSG(!setup_done_, "set_migration_provider must precede run()");
  migration_provider_ = std::move(provider);
}

void RtEngine::set_migration_fault_injector(
    MigrationCoordinator::FaultInjector inject) {
  GATES_CHECK_MSG(!setup_done_,
                  "set_migration_fault_injector must precede run()");
  migration_fault_injector_ = std::move(inject);
}

void RtEngine::set_migration_transfer(MigrationTransferHook hook) {
  GATES_CHECK_MSG(!setup_done_, "set_migration_transfer must precede run()");
  migration_transfer_ = std::move(hook);
}

void RtEngine::process_migrations(TimePoint run_started) {
  const TimePoint now = clock_.now();
  for (auto& m : timed_migrations_) {
    if (m.fired || now - run_started < m.time) continue;
    m.fired = true;
    migrate_stage_now(m.stage, m.target, run_started);
  }
  std::vector<std::pair<std::size_t, NodeId>> pending;
  {
    std::lock_guard<std::mutex> lock(migration_mu_);
    pending.swap(pending_migrations_);
  }
  for (const auto& [idx, target] : pending) {
    migrate_stage_now(idx, target, run_started);
  }
}

std::optional<ReplacementDecision> RtEngine::default_migration_target(
    std::size_t stage_index) const {
  std::vector<NodeId> nodes;
  for (const auto& stage : stages_) nodes.push_back(stage->node());
  return least_loaded_target(
      spec_, hosts_, nodes, [](NodeId) { return true; },
      [&](std::size_t i) {
        return i != stage_index && !stages_[i]->crashed() &&
               !stages_[i]->finished();
      });
}

void RtEngine::migrate_stage_now(std::size_t stage_index, NodeId target,
                                 TimePoint run_started) {
  StageWorker* stage = stages_[stage_index].get();
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
    if (stage->crashed()) {
      error = "stage is crashed (failover owns it)";
      return false;
    }
    if (stage->remote_outlet()) {
      error = "remote egress outlet owns the wire";
      return false;
    }
    stage->request_quiesce();
    const auto quiesced = [&] { return stage->quiesced(); };
    control_wake_.await(
        [&] { return quiesced() || stage->finished() || stage->crashed(); },
        deadline_after(config_.migration.quiesce_timeout));
    if (quiesced()) return true;
    if (stage->finished() || stage->crashed()) {
      stage->cancel_quiesce();
      error = stage->finished() ? "stage finished during quiesce"
                                : "stage crashed during quiesce";
      return false;
    }
    // Withdraw the request, then grant one beat of grace for a worker that
    // loaded the flag concurrently and is about to park; a worker that never
    // saw it keeps running on the withdrawn flag.
    stage->cancel_quiesce();
    if (!control_wake_.await(
            quiesced, deadline_after(config_.failover.heartbeat_period))) {
      error = "quiesce timeout";
      return false;
    }
    return true;
  };
  hooks.capture = [&](StageCheckpoint& out, std::string& error) {
    if (!stage->capture_checkpoint(out)) {
      error = "stage crashed during capture";
      return false;
    }
    return true;
  };
  hooks.transfer = [&](const StageCheckpoint& ckpt, std::string& error) {
    std::optional<ReplacementDecision> d;
    if (migration_provider_) {
      d = migration_provider_(stage_index, target);
    } else if (target != kInvalidNode) {
      d = ReplacementDecision{target, ProcessorFactory{}};
    } else {
      d = default_migration_target(stage_index);
    }
    if (!d || d->node == kInvalidNode) {
      error = "no candidate target";
      return false;
    }
    if (d->node == from) {
      error = "no better placement than current node";
      return false;
    }
    decision = std::move(*d);
    if (migration_transfer_ && !migration_transfer_(ckpt, error)) {
      if (error.empty()) error = "checkpoint transfer failed";
      return false;
    }
    return true;
  };
  hooks.resume = [&](const StageCheckpoint& ckpt, MigrationRecord& rec,
                     std::string& error) {
    bool used = false;
    if (!stage->resume_migrated(decision.node, hosts_.at(decision.node),
                                decision.factory, ckpt, used)) {
      error = "stage crashed during resume";
      return false;
    }
    rec.to = decision.node;
    rec.checkpointed = used;
    // In-process the inbox survives the whole protocol, so the unacked
    // tail is consumed in place rather than replayed.
    rec.packets_replayed = 0;
    GATES_LOG(kInfo, "rt-engine")
        << "stage '" << stage->name() << "' migrated node " << from << " -> "
        << decision.node
        << (used ? " (checkpoint restored)" : " (stateless rebuild)");
    return true;
  };
  hooks.abort_fallback = [&](MigrationStep step, const std::string& why) {
    // Degrade to crash-failover: the quiesced worker becomes a plain crash
    // and the lease detector + retention replay own the recovery.
    GATES_LOG(kWarn, "rt-engine")
        << "migration of '" << stage->name() << "' aborted at "
        << migration_step_name(step) << " (" << why
        << "); falling back to crash-failover";
    stage->abort_migration(clock_.now());
  };

  migration_records_.push_back(MigrationCoordinator().run(
      stage->name(), from, target,
      [&] { return clock_.now() - run_started; }, hooks,
      migration_fault_injector_));
}

StreamProcessor& RtEngine::processor(std::size_t stage_index) {
  GATES_CHECK(stage_index < stages_.size());
  return stages_[stage_index]->processor();
}

std::size_t RtEngine::replica_count(std::size_t stage_index) const {
  GATES_CHECK(stage_index < stages_.size());
  return stages_[stage_index]->active_replicas();
}

StreamProcessor& RtEngine::replica_processor(std::size_t stage_index,
                                             std::size_t replica) {
  GATES_CHECK(stage_index < stages_.size());
  return stages_[stage_index]->replica_processor(replica);
}

bool RtEngine::stage_inbox_spsc(std::size_t stage_index) const {
  GATES_CHECK(stage_index < stages_.size());
  return stages_[stage_index]->queue().spsc();
}

}  // namespace gates::core
