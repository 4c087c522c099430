// Parameter adjustment — Equation 4 of Section 4.2.
//
//   dP_B = dtilde_B * sigma1(dtilde_B) - phi1(T1, T2) * sigma2(phi1(T1, T2))
//
// dtilde_B is this server's own (normalized) long-term queue factor; T1/T2
// count over-/under-load exceptions reported by downstream server(s).
// sigma1/sigma2 "factor in the rate of variation" of their arguments: when
// the signals are unsteady, steps are larger so P converges quickly; once
// the system settles, dtilde -> 0 and the exception balance -> 0, so dP -> 0
// and the parameter holds.
#pragma once

#include <string>

#include "gates/common/stats.hpp"
#include "gates/core/adapt/load_factors.hpp"
#include "gates/core/adapt/queue_monitor.hpp"
#include "gates/core/parameter.hpp"

namespace gates::core::adapt {

struct ControllerConfig {
  /// Base step size, as a fraction of the parameter's [min,max] range, per
  /// control period at full drive (|dP| = 1).
  double gain = 0.015;
  /// k in sigma(x) = 1 + k * stddev(recent x): variability amplification.
  double variability_weight = 1.0;
  /// Samples in the variability estimators.
  std::size_t variability_window = 8;
  /// Relative weights of the own-queue and downstream-exception terms.
  double queue_weight = 1.0;
  double downstream_weight = 1.0;
  /// Exponential decay applied to the accumulated T1/T2 each control period,
  /// implementing the paper's emphasis on *recently* reported exceptions.
  double exception_decay = 0.7;
  /// Weight of under-load exceptions relative to over-load ones inside
  /// phi1(T1, T2). Over-load means the real-time constraint is being
  /// violated — the middleware's primary objective — while under-load only
  /// flags spare capacity; an idle downstream voting "send more" every
  /// period must not drown out a congested one voting "send less". (A stage
  /// can legitimately receive both at once: its outbound link congested
  /// while the stage behind the link starves.)
  double underload_discount = 0.25;
  /// Hard cap on |step| per period, as a fraction of the range.
  double max_step_fraction = 0.05;
  /// Multiplier on steps that move the parameter toward MORE accuracy (and
  /// more load): accuracy is recovered cautiously, while constraint
  /// violations are backed out at full speed. This is the classic
  /// additive-increase asymmetry that keeps the adaptation from slamming
  /// between its bounds.
  double accuracy_gain_fraction = 0.4;

  void validate() const;
};

/// Drives one AdjustmentParameter from load signals.
class ParameterController {
 public:
  ParameterController(AdjustmentParameter& param, ControllerConfig config);

  /// Called when a downstream server reports an exception.
  void report_downstream_exception(LoadSignal signal);

  /// One control-period update given this server's normalized dtilde
  /// (in [-1,1]). Returns the new parameter value.
  double update(double normalized_dtilde);

  /// Everything the last update() consumed and decided; StageAdaptation
  /// traces it as a kParamAdjust event.
  struct LastUpdate {
    double dtilde = 0;     // normalized dtilde input (Eq. 4 first term)
    double phi1 = 0;       // downstream phi1(T1,T2) input (second term)
    double old_value = 0;  // parameter value before the step
    double new_value = 0;  // value actually stored (clamped / quantized)
    double delta = 0;      // raw dP before gain and caps
  };
  const LastUpdate& last_update() const { return last_update_; }

  // -- diagnostics -----------------------------------------------------------
  double last_delta() const { return last_update_.delta; }
  double t1() const { return t1_; }
  double t2() const { return t2_; }

 private:
  double sigma(const SlidingWindowStats& stats) const;

  AdjustmentParameter& param_;
  ControllerConfig config_;
  /// Decayed exception counts from downstream.
  double t1_ = 0;
  double t2_ = 0;
  SlidingWindowStats nd_history_;
  SlidingWindowStats phi1_history_;
  LastUpdate last_update_;
};

struct ReplicaScalerConfig {
  /// Consecutive overload periods before adding a replica.
  std::size_t up_after = 2;
  /// Consecutive underload periods before retiring a replica (deliberately
  /// slower than up_after: releasing cores is cheap to defer, thrashing
  /// replica pools is not).
  std::size_t down_after = 5;
  /// Quiet periods after a scale step before the next one may fire, giving
  /// the queue monitor time to see the new service rate.
  std::size_t cooldown = 2;

  void validate() const;
};

/// Scale-before-degrade policy for a replicated stage — the middleware-owned
/// leg of §4's adaptation. An overload exception (dtilde > LT2) on a
/// replicated stage first buys cores: the scaler swallows the exception and,
/// after `up_after` consecutive overloaded periods, tells the engine to add
/// a replica. Only when the host's core budget is exhausted do exceptions
/// propagate upstream and degrade accuracy via Eq. 4. Underload is the
/// mirror image: retire replicas down to the configured floor first, and
/// only at the floor let upstream recover accuracy.
class ReplicaScaler {
 public:
  /// What the stage should do with this period's load signal.
  enum class Decision {
    kNone,       // nothing: signal swallowed (or no signal)
    kScaleUp,    // add one replica; do not propagate the exception
    kScaleDown,  // retire one replica; do not propagate the exception
    kPropagate,  // budget/floor reached: forward the exception upstream
  };

  ReplicaScaler(std::size_t min_replicas, std::size_t max_replicas,
                ReplicaScalerConfig config);

  /// One control period. `current` is the replica count now running.
  Decision observe(LoadSignal signal, std::size_t current);

 private:
  std::size_t min_replicas_;
  std::size_t max_replicas_;
  ReplicaScalerConfig config_;
  std::size_t overload_streak_ = 0;
  std::size_t underload_streak_ = 0;
  std::size_t cooldown_left_ = 0;
};

}  // namespace gates::core::adapt
