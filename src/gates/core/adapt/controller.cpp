#include "gates/core/adapt/controller.hpp"

#include <algorithm>
#include <cmath>

#include "gates/common/check.hpp"

namespace gates::core::adapt {

void ControllerConfig::validate() const {
  GATES_CHECK(gain > 0);
  GATES_CHECK(variability_weight >= 0);
  GATES_CHECK(variability_window > 1);
  GATES_CHECK(queue_weight >= 0);
  GATES_CHECK(downstream_weight >= 0);
  GATES_CHECK(exception_decay >= 0 && exception_decay < 1);
  GATES_CHECK(underload_discount > 0 && underload_discount <= 1);
  GATES_CHECK(max_step_fraction > 0 && max_step_fraction <= 1);
  GATES_CHECK(accuracy_gain_fraction > 0 && accuracy_gain_fraction <= 1);
}

ParameterController::ParameterController(AdjustmentParameter& param,
                                         ControllerConfig config)
    : param_(param),
      config_(config),
      nd_history_(config.variability_window),
      phi1_history_(config.variability_window) {
  config_.validate();
}

void ParameterController::report_downstream_exception(LoadSignal signal) {
  switch (signal) {
    case LoadSignal::kOverload:
      t1_ += 1;
      break;
    case LoadSignal::kUnderload:
      t2_ += 1;
      break;
    case LoadSignal::kNone:
      break;
  }
}

double ParameterController::sigma(const SlidingWindowStats& stats) const {
  // Variability gain: steady signals get gain 1, unsteady up to
  // 1 + variability_weight (stddev of values in [-1,1] is at most 1).
  return 1.0 + config_.variability_weight * std::min(1.0, stats.stddev());
}

double ParameterController::update(double normalized_dtilde) {
  GATES_CHECK(normalized_dtilde >= -1.0 - 1e-9 &&
              normalized_dtilde <= 1.0 + 1e-9);

  // Decayed counts below this are noise: without the floor, a residual
  // t1 of 1e-16 against an exact zero t2 reads as phi1 = 1 — full drive
  // from an exception that faded away long ago.
  constexpr double kMaterialCount = 0.05;
  const double downstream_phi1 =
      t1_ + t2_ < kMaterialCount
          ? 0.0
          : phi1(t1_, config_.underload_discount * t2_);
  nd_history_.add(normalized_dtilde);
  phi1_history_.add(downstream_phi1);

  const auto& spec = param_.spec();
  // Equation 4 resolves into two drives on the parameter VALUE:
  //  * own-queue drive: a long queue at B means "do less work per item".
  //    For a direction=+1 parameter (bigger = faster) that is an increase;
  //    for the paper-example direction=-1 parameters (sampling rate,
  //    summary size: bigger = more work and more downstream data) it is a
  //    decrease — so this term carries the direction sign.
  //  * downstream drive: exceptions from C mean "send less per second",
  //    which is a DEcrease for both parameter kinds (a slower B and a
  //    thinner B both relieve C), so this term never flips.
  const double s =
      spec.direction == ParamDirection::kIncreaseSpeedsUp ? +1.0 : -1.0;
  double own = normalized_dtilde;
  // An idle server must not push accuracy (and downstream volume) up while
  // downstream is actively congested: the real-time constraint downstream
  // outranks B's spare capacity.
  if (own < 0 && downstream_phi1 > 0 && s < 0) own = 0;

  const double delta =
      config_.queue_weight * s * own * sigma(nd_history_) -
      config_.downstream_weight * downstream_phi1 * sigma(phi1_history_);
  last_update_ = {normalized_dtilde, downstream_phi1,
                  param_.suggested_value(), param_.suggested_value(), delta};

  // Decay exception counts so only recently reported exceptions influence
  // future periods.
  t1_ *= config_.exception_decay;
  t2_ *= config_.exception_decay;

  const double range = spec.max_value - spec.min_value;
  if (range <= 0) return param_.suggested_value();

  double step = delta * config_.gain * range;
  // "More accurate" is value-up for direction=-1 parameters (bigger summary
  // / higher sampling rate) and value-down for direction=+1 (slower, finer
  // processing); those steps move cautiously.
  const bool toward_accuracy = (s < 0) ? (step > 0) : (step < 0);
  if (toward_accuracy) step *= config_.accuracy_gain_fraction;
  const double cap = config_.max_step_fraction * range;
  step = std::clamp(step, -cap, cap);
  last_update_.new_value = param_.set_value(param_.suggested_value() + step);
  return last_update_.new_value;
}

void ReplicaScalerConfig::validate() const {
  GATES_CHECK(up_after > 0);
  GATES_CHECK(down_after > 0);
}

ReplicaScaler::ReplicaScaler(std::size_t min_replicas,
                             std::size_t max_replicas,
                             ReplicaScalerConfig config)
    : min_replicas_(min_replicas),
      max_replicas_(max_replicas),
      config_(config) {
  config_.validate();
  GATES_CHECK(min_replicas_ >= 1);
  GATES_CHECK(max_replicas_ >= min_replicas_);
}

ReplicaScaler::Decision ReplicaScaler::observe(LoadSignal signal,
                                               std::size_t current) {
  if (cooldown_left_ > 0) --cooldown_left_;
  switch (signal) {
    case LoadSignal::kNone:
      overload_streak_ = 0;
      underload_streak_ = 0;
      return Decision::kNone;
    case LoadSignal::kOverload: {
      underload_streak_ = 0;
      if (current >= max_replicas_) return Decision::kPropagate;
      ++overload_streak_;
      if (overload_streak_ < config_.up_after || cooldown_left_ > 0) {
        return Decision::kNone;  // swallowed: headroom remains
      }
      overload_streak_ = 0;
      cooldown_left_ = config_.cooldown;
      return Decision::kScaleUp;
    }
    case LoadSignal::kUnderload: {
      overload_streak_ = 0;
      if (current <= min_replicas_) return Decision::kPropagate;
      ++underload_streak_;
      if (underload_streak_ < config_.down_after || cooldown_left_ > 0) {
        return Decision::kNone;  // swallowed: retire later if it persists
      }
      underload_streak_ = 0;
      cooldown_left_ = config_.cooldown;
      return Decision::kScaleDown;
    }
  }
  return Decision::kNone;
}

}  // namespace gates::core::adapt
