// Per-stage self-adaptation: the §4 loop both engines run every control
// period (DESIGN.md §4.2). The engine measures the stage's backlog, calls
// step(), applies the returned replica target and forwards the returned
// exception upstream; everything in between — monitor, scale-before-degrade
// (§5.6), the Eq. 4 controllers, trajectories, traces and the gates_stage_*
// metrics — lives here.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gates/common/stats.hpp"
#include "gates/core/adapt/controller.hpp"
#include "gates/core/pipeline.hpp"
#include "gates/core/report.hpp"
#include "gates/obs/metrics.hpp"

namespace gates::core {

class StageAdaptation {
 public:
  /// Engine-owned stage counters, published next to the adaptation's own.
  struct Counts {
    std::uint64_t processed = 0;
    std::uint64_t emitted = 0;
    std::uint64_t dropped = 0;
    std::uint64_t inline_batches = 0;
  };
  struct Outcome {
    /// Exception for the upstream stages; kNone when none fired or the
    /// replica scaler consumed it.
    adapt::LoadSignal propagate = adapt::LoadSignal::kNone;
    /// Replica target after this period.
    std::size_t replicas = 1;
  };

  /// `host_cores` is the hosting node's core count (HostModel::cores_at).
  StageAdaptation(const StageSpec& spec, std::size_t host_cores);

  /// The paper's specifyPara. A name already declared returns the existing
  /// parameter: a pool's replicas share one parameter per name.
  AdjustmentParameter& specify(AdjustmentParameter::Spec spec);
  /// Drops the processor's parameters before a fresh processor re-declares
  /// them (revive, migrate). The scaler and its history stay.
  void clear_parameters();
  /// An exception reported by a downstream stage or outbound link (kNone
  /// is ignored).
  void receive(adapt::LoadSignal signal);

  /// One control period. `replicas` is the current replica target. With
  /// `adapt` off the monitor and the trajectories still run, but neither a
  /// parameter nor the target moves.
  Outcome step(double backlog, std::size_t replicas, TimePoint now,
               bool adapt, const Counts& counts);

  /// Writes the adaptation fields of a stage report.
  void fill(StageReport& report) const;
  /// Declared parameter by name; null when there is none.
  const AdjustmentParameter* parameter(const std::string& name) const;
  const adapt::QueueMonitor& monitor() const { return monitor_; }
  /// Replica ceiling of a pooled stage: an explicit max_replicas wins, else
  /// the host's core count, never below the initial replica count.
  std::size_t replica_budget() const { return budget_; }

 private:
  void publish(double backlog, const Counts& counts);

  const StageSpec& spec_;
  const std::size_t budget_;
  adapt::QueueMonitor monitor_;
  std::vector<std::unique_ptr<AdjustmentParameter>> params_;
  std::vector<std::unique_ptr<adapt::ParameterController>> controllers_;
  std::unique_ptr<adapt::ReplicaScaler> scaler_;
  std::unique_ptr<AdjustmentParameter> replicas_param_;
  RunningStats queue_samples_;
  std::uint64_t exceptions_received_ = 0;

  // Registry handles, resolved on the first published period.
  obs::Counter* processed_ctr_ = nullptr;
  obs::Counter* emitted_ctr_ = nullptr;
  obs::Counter* dropped_ctr_ = nullptr;
  obs::Counter* inline_ctr_ = nullptr;
  obs::Counter* overload_ctr_ = nullptr;
  obs::Counter* underload_ctr_ = nullptr;
  obs::Counter* received_ctr_ = nullptr;
  obs::Gauge* queue_gauge_ = nullptr;
  obs::Gauge* dtilde_gauge_ = nullptr;
  obs::FixedHistogram* queue_hist_ = nullptr;
};

}  // namespace gates::core
