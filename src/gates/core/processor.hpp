// The stream-processing developer API: StreamProcessor, ProcessorContext,
// Emitter. This is the C++ rendering of the paper's §3.3 interface.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "gates/common/properties.hpp"
#include "gates/common/rng.hpp"
#include "gates/common/types.hpp"
#include "gates/core/packet.hpp"
#include "gates/core/parameter.hpp"

namespace gates::core {

class StateWriter;
class StateReader;

/// Output side of a stage. Emitted packets are routed to the stage's
/// downstream connection(s) on the given port.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void emit(Packet packet, std::size_t port = 0) = 0;
};

/// Everything a processor may ask of its hosting stage.
class ProcessorContext {
 public:
  virtual ~ProcessorContext() = default;

  /// The paper's specifyPara(init_value, max_value, min_value, increment,
  /// direction): registers an adjustment parameter with the middleware and
  /// returns a handle whose suggested_value() the processor polls each
  /// iteration. Must be called from init().
  virtual AdjustmentParameter& specify_parameter(
      AdjustmentParameter::Spec spec) = 0;

  /// Stage configuration (the <param> entries of the XML config).
  virtual const Properties& properties() const = 0;

  /// Deterministic per-stage random stream.
  virtual Rng& rng() = 0;

  /// Engine time (virtual in SimEngine, wall in RtEngine).
  virtual TimePoint now() const = 0;

  virtual StageId stage_id() const = 0;
  virtual const std::string& stage_name() const = 0;
};

/// User-supplied stage logic. Lifecycle: init() once before any data;
/// process() per dequeued packet (never for EOS); finish() once after every
/// upstream reached end-of-stream — emit any final summaries there.
///
/// Failover: when a stage is re-placed after its node crashed, a *fresh*
/// processor instance is built, init() runs, then on_recover() — the hook
/// for re-initializing state the crash lost (re-seeding sketches, asking
/// peers for checkpoints, ...). Unacked input is then replayed at least
/// once from the upstream retention buffers.
///
/// Threads (RtEngine): calls into one processor instance never overlap and
/// each happens-after the previous one, but process() need not run on the
/// same thread every time — an idle upstream stage, or a source that
/// waited for its input, may serve a zero-cost serial stage's batch on its
/// own thread (DESIGN.md §5.5). Keep no thread-local state across calls.
class StreamProcessor {
 public:
  virtual ~StreamProcessor() = default;

  virtual void init(ProcessorContext& ctx) = 0;
  virtual void process(const Packet& packet, Emitter& emitter) = 0;
  virtual void finish(Emitter& /*emitter*/) {}
  /// Called (after init()) on the replacement instance of a failed-over
  /// stage, before any replayed packets arrive.
  virtual void on_recover(ProcessorContext& /*ctx*/) {}

  /// Migration (DESIGN.md §10): serialize operator state into `w` at an ack
  /// boundary — everything acked is reflected in the written state, nothing
  /// unacked is (the replay tail covers it). Return false (the default) to
  /// declare the processor un-checkpointable; migration then falls back to
  /// init() + on_recover() + replay, exactly like crash failover.
  virtual bool checkpoint(StateWriter& /*w*/) { return false; }
  /// Counterpart on the replacement instance, called after init() instead
  /// of on_recover() when a checkpoint is available. Return false (or fail a
  /// read) to reject the blob; the engine then runs on_recover() instead.
  virtual bool restore(StateReader& /*r*/) { return false; }

  /// Diagnostic name (registry key by convention).
  virtual std::string name() const = 0;
};

using ProcessorFactory = std::function<std::unique_ptr<StreamProcessor>()>;

/// How a stage may be replicated into a pool of workers behind its inbox.
enum class ParallelismMode {
  /// One worker, today's behavior (the default).
  kSerial,
  /// Any replica may take any packet (round-robin dispatch). The processor
  /// must not keep cross-packet state that the merge order can't reconstruct.
  kStateless,
  /// Packets are hash-sharded by `shard_fn`; every packet of a key goes to
  /// the same replica, so per-key state stays replica-local.
  kKeyed,
};

/// Maps a packet to a shard key; replica = shard_fn(packet) % replicas.
using ShardFn = std::function<std::uint64_t(const Packet&)>;

/// Replication declaration on a stage. The processor factory is instantiated
/// once per replica; emissions are merged back into input order before
/// anything flows downstream, so acks/EOS/replay semantics are unchanged.
struct Parallelism {
  ParallelismMode mode = ParallelismMode::kSerial;
  /// Initial replica count (>= 1).
  std::size_t replicas = 1;
  /// Scaling ceiling for the adaptation controller; 0 means "the hosting
  /// node's core budget" (HostModel::cores_at).
  std::size_t max_replicas = 0;
  /// Required for kKeyed; ignored otherwise.
  ShardFn shard_fn;
};

}  // namespace gates::core
