#include "gates/core/adapt/controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "gates/common/rng.hpp"
#include "gates/core/pipeline.hpp"
#include "gates/core/stage_adaptation.hpp"

namespace gates::core::adapt {
namespace {

AdjustmentParameter::Spec volume_spec() {
  AdjustmentParameter::Spec s;
  s.name = "sampling-rate";
  s.initial = 0.5;
  s.min_value = 0.0;
  s.max_value = 1.0;
  s.direction = ParamDirection::kIncreaseSlowsDown;
  return s;
}

AdjustmentParameter::Spec speed_spec() {
  AdjustmentParameter::Spec s;
  s.name = "skip-factor";
  s.initial = 0.5;
  s.min_value = 0.0;
  s.max_value = 1.0;
  s.direction = ParamDirection::kIncreaseSpeedsUp;
  return s;
}

TEST(ParameterController, VolumeParamDropsOnOwnOverload) {
  AdjustmentParameter p(volume_spec());
  ParameterController c(p, {});
  c.update(0.8);
  EXPECT_LT(p.suggested_value(), 0.5);
}

TEST(ParameterController, SpeedParamRisesOnOwnOverload) {
  AdjustmentParameter p(speed_spec());
  ParameterController c(p, {});
  c.update(0.8);
  EXPECT_GT(p.suggested_value(), 0.5);
}

TEST(ParameterController, VolumeParamDropsOnDownstreamOverload) {
  AdjustmentParameter p(volume_spec());
  ParameterController c(p, {});
  c.report_downstream_exception(LoadSignal::kOverload);
  c.update(0.0);
  EXPECT_LT(p.suggested_value(), 0.5);
}

TEST(ParameterController, SpeedParamDropsOnDownstreamOverload) {
  // "If the load at C is higher ... we want to slow down the rate at which
  // B sends data to C. Therefore, we will like to decrease the value of
  // P_B" (§4.2) — the downstream drive never flips with direction.
  AdjustmentParameter p(speed_spec());
  ParameterController c(p, {});
  c.report_downstream_exception(LoadSignal::kOverload);
  c.update(0.0);
  EXPECT_LT(p.suggested_value(), 0.5);
}

TEST(ParameterController, VolumeParamRisesOnDownstreamUnderload) {
  AdjustmentParameter p(volume_spec());
  ParameterController c(p, {});
  c.report_downstream_exception(LoadSignal::kUnderload);
  c.update(0.0);
  EXPECT_GT(p.suggested_value(), 0.5);
}

TEST(ParameterController, BalancedSystemHolds) {
  AdjustmentParameter p(volume_spec());
  ParameterController c(p, {});
  for (int i = 0; i < 20; ++i) c.update(0.0);
  EXPECT_DOUBLE_EQ(p.suggested_value(), 0.5);
  EXPECT_DOUBLE_EQ(c.last_delta(), 0.0);
}

TEST(ParameterController, IdleStageDefersToCongestedDownstream) {
  // An idle volume stage (own nd < 0) must not push more data while the
  // downstream is overloaded.
  AdjustmentParameter p(volume_spec());
  ControllerConfig cfg;
  cfg.underload_discount = 1.0;  // make the two drives symmetric
  ParameterController c(p, cfg);
  c.report_downstream_exception(LoadSignal::kOverload);
  c.update(-1.0);
  EXPECT_LT(p.suggested_value(), 0.5);
}

TEST(ParameterController, OverloadOutweighsEqualUnderload) {
  AdjustmentParameter p(volume_spec());
  ParameterController c(p, {});  // default underload_discount < 1
  c.report_downstream_exception(LoadSignal::kOverload);
  c.report_downstream_exception(LoadSignal::kUnderload);
  c.update(0.0);
  EXPECT_LT(p.suggested_value(), 0.5);
}

TEST(ParameterController, ExceptionsDecayOverTime) {
  AdjustmentParameter p(volume_spec());
  ControllerConfig cfg;
  cfg.exception_decay = 0.5;
  ParameterController c(p, cfg);
  c.report_downstream_exception(LoadSignal::kOverload);
  c.update(0.0);
  EXPECT_GT(c.t1(), 0.0);
  for (int i = 0; i < 20; ++i) c.update(0.0);
  EXPECT_LT(c.t1(), 1e-3);
}

TEST(ParameterController, StepsAreCappedPerPeriod) {
  AdjustmentParameter p(volume_spec());
  ControllerConfig cfg;
  cfg.gain = 100;  // absurd gain
  cfg.max_step_fraction = 0.1;
  ParameterController c(p, cfg);
  c.update(1.0);
  EXPECT_GE(p.suggested_value(), 0.5 - 0.1 - 1e-9);
}

TEST(ParameterController, ValueStaysInRangeUnderRandomDrive) {
  AdjustmentParameter p(volume_spec());
  ParameterController c(p, {});
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    if (rng.next_bool(0.3)) c.report_downstream_exception(LoadSignal::kOverload);
    if (rng.next_bool(0.3)) c.report_downstream_exception(LoadSignal::kUnderload);
    const double v = c.update(rng.uniform(-1, 1));
    ASSERT_GE(v, 0.0);
    ASSERT_LE(v, 1.0);
  }
}

TEST(ParameterController, AccuracyRecoversSlowerThanItConcedes) {
  AdjustmentParameter up(volume_spec());
  AdjustmentParameter down(volume_spec());
  ControllerConfig cfg;
  cfg.accuracy_gain_fraction = 0.25;
  ParameterController cu(up, cfg), cd(down, cfg);
  cu.report_downstream_exception(LoadSignal::kUnderload);
  cu.update(0.0);
  cd.report_downstream_exception(LoadSignal::kOverload);
  cd.update(0.0);
  const double rise = up.suggested_value() - 0.5;
  const double fall = 0.5 - down.suggested_value();
  EXPECT_GT(rise, 0);
  EXPECT_GT(fall, 0);
  EXPECT_LT(rise, fall);
}

TEST(ParameterController, VariabilityAmplifiesSteps) {
  // Steady drive vs oscillating drive of the same magnitude: sigma should
  // make the unsteady one take larger steps (§4.2: "if the values ... are
  // unsteady, we want dP to be large").
  AdjustmentParameter steady_p(volume_spec()), wild_p(volume_spec());
  ControllerConfig cfg;
  cfg.variability_weight = 3.0;
  ParameterController steady(steady_p, cfg), wild(wild_p, cfg);
  double steady_step = 0, wild_step = 0;
  for (int i = 0; i < 10; ++i) {
    steady.update(0.5);
    steady_step = std::abs(steady.last_delta());
    wild.update(i % 2 ? 0.5 : -0.5);
    if (i % 2 == 0) wild_step = std::abs(wild.last_delta());
  }
  EXPECT_GT(wild_step, steady_step);
}

// Closed-loop property: a toy M/D/1-ish queue whose arrival rate equals the
// parameter value and whose service rate is fixed at mu. The controller
// must settle the parameter near mu (the highest "accuracy" the constraint
// allows) from any starting point.
class ClosedLoopConvergence : public ::testing::TestWithParam<double> {};

TEST_P(ClosedLoopConvergence, SettlesNearServiceRate) {
  const double mu = GetParam();
  AdjustmentParameter::Spec s = volume_spec();
  s.initial = 0.02;
  AdjustmentParameter p(s);
  ParameterController c(p, {});
  QueueMonitorConfig mon_cfg;
  QueueMonitor monitor(mon_cfg);

  double queue = 0;
  double sum_late = 0;
  int late_samples = 0;
  const int kPeriods = 800;
  for (int i = 0; i < kPeriods; ++i) {
    // 100 arrival opportunities per period.
    queue += 100.0 * (p.suggested_value() - mu);
    queue = std::clamp(queue, 0.0, mon_cfg.capacity);
    const LoadSignal signal = monitor.observe(queue);
    c.report_downstream_exception(signal);
    c.update(0.0);
    if (i >= kPeriods * 3 / 4) {
      sum_late += p.suggested_value();
      ++late_samples;
    }
  }
  const double settled = sum_late / late_samples;
  EXPECT_NEAR(settled, mu, 0.25) << "mu=" << mu;
}

INSTANTIATE_TEST_SUITE_P(ServiceRates, ClosedLoopConvergence,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8));

TEST(ControllerConfig, ValidationCatchesBadConfigs) {
  auto check_bad = [](auto mutate) {
    ControllerConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::logic_error);
  };
  check_bad([](auto& c) { c.gain = 0; });
  check_bad([](auto& c) { c.variability_window = 1; });
  check_bad([](auto& c) { c.exception_decay = 1.0; });
  check_bad([](auto& c) { c.max_step_fraction = 0; });
  check_bad([](auto& c) { c.underload_discount = 0; });
  check_bad([](auto& c) { c.accuracy_gain_fraction = 1.5; });
}

// -- replica scaler (scale-before-degrade) -----------------------------------

TEST(ReplicaScaler, ScalesUpAfterConsecutiveOverloadsOnly) {
  ReplicaScalerConfig config;
  config.cooldown = 3;  // outlasts the streak rebuild, so it's observable
  ReplicaScaler scaler(1, 4, config);
  // One overloaded period is not a trend.
  EXPECT_EQ(scaler.observe(LoadSignal::kOverload, 1),
            ReplicaScaler::Decision::kNone);
  EXPECT_EQ(scaler.observe(LoadSignal::kOverload, 1),
            ReplicaScaler::Decision::kScaleUp);
  // Cooldown: the monitor needs time to see the new service rate, so the
  // streak alone (period 4) is not enough; one more period is.
  EXPECT_EQ(scaler.observe(LoadSignal::kOverload, 2),
            ReplicaScaler::Decision::kNone);
  EXPECT_EQ(scaler.observe(LoadSignal::kOverload, 2),
            ReplicaScaler::Decision::kNone);
  EXPECT_EQ(scaler.observe(LoadSignal::kOverload, 2),
            ReplicaScaler::Decision::kScaleUp);
}

TEST(ReplicaScaler, QuietPeriodResetsTheStreak) {
  ReplicaScaler scaler(1, 4, {});
  EXPECT_EQ(scaler.observe(LoadSignal::kOverload, 1),
            ReplicaScaler::Decision::kNone);
  EXPECT_EQ(scaler.observe(LoadSignal::kNone, 1),
            ReplicaScaler::Decision::kNone);
  // The earlier overload no longer counts toward the streak.
  EXPECT_EQ(scaler.observe(LoadSignal::kOverload, 1),
            ReplicaScaler::Decision::kNone);
  EXPECT_EQ(scaler.observe(LoadSignal::kOverload, 1),
            ReplicaScaler::Decision::kScaleUp);
}

TEST(ReplicaScaler, PropagatesWhenBudgetExhausted) {
  ReplicaScaler scaler(1, 2, {});
  // At the core budget the exception goes upstream immediately — Eq. 4 is
  // the fallback, not blocked behind a streak.
  EXPECT_EQ(scaler.observe(LoadSignal::kOverload, 2),
            ReplicaScaler::Decision::kPropagate);
  EXPECT_EQ(scaler.observe(LoadSignal::kOverload, 2),
            ReplicaScaler::Decision::kPropagate);
}

TEST(ReplicaScaler, ScalesDownSlowerAndStopsAtFloor) {
  ReplicaScalerConfig config;
  config.cooldown = 0;
  ReplicaScaler scaler(1, 4, config);
  for (std::size_t i = 0; i < config.down_after - 1; ++i) {
    EXPECT_EQ(scaler.observe(LoadSignal::kUnderload, 3),
              ReplicaScaler::Decision::kNone);
  }
  EXPECT_EQ(scaler.observe(LoadSignal::kUnderload, 3),
            ReplicaScaler::Decision::kScaleDown);
  // At the floor, underload propagates so upstream can recover accuracy.
  EXPECT_EQ(scaler.observe(LoadSignal::kUnderload, 1),
            ReplicaScaler::Decision::kPropagate);
}

TEST(ReplicaScaler, OpposingSignalsResetEachOther) {
  ReplicaScalerConfig config;
  config.cooldown = 0;
  ReplicaScaler scaler(1, 4, config);
  for (std::size_t i = 0; i < config.down_after - 1; ++i) {
    scaler.observe(LoadSignal::kUnderload, 2);
  }
  // A single overload wipes the underload streak.
  EXPECT_EQ(scaler.observe(LoadSignal::kOverload, 2),
            ReplicaScaler::Decision::kNone);
  for (std::size_t i = 0; i < config.down_after - 1; ++i) {
    EXPECT_EQ(scaler.observe(LoadSignal::kUnderload, 2),
              ReplicaScaler::Decision::kNone);
  }
  EXPECT_EQ(scaler.observe(LoadSignal::kUnderload, 2),
            ReplicaScaler::Decision::kScaleDown);
}

TEST(ReplicaScaler, ValidationCatchesBadConfigs) {
  ReplicaScalerConfig bad;
  bad.up_after = 0;
  EXPECT_THROW(ReplicaScaler(1, 4, bad), std::logic_error);
  ReplicaScalerConfig bad2;
  bad2.down_after = 0;
  EXPECT_THROW(ReplicaScaler(1, 4, bad2), std::logic_error);
  EXPECT_THROW(ReplicaScaler(3, 2, {}), std::logic_error);
}

// -- StageAdaptation (one stage's monitor -> scale -> Eq. 4 step) ------------

StageSpec stateless_pool(std::size_t floor) {
  StageSpec spec;
  spec.name = "pool";
  spec.parallelism.mode = ParallelismMode::kStateless;
  spec.parallelism.replicas = floor;
  return spec;
}

TEST(StageAdaptation, StatelessPoolScalesBeforeItPropagates) {
  const StageSpec spec = stateless_pool(1);
  StageAdaptation adaptation(spec, /*budget=*/3);
  std::size_t replicas = 1;
  TimePoint t = 0;
  // A full queue: every overload buys a replica until the budget is spent,
  // and only then reaches upstream.
  LoadSignal propagated = LoadSignal::kNone;
  for (int i = 0; i < 200 && propagated == LoadSignal::kNone; ++i) {
    const auto out = adaptation.step(spec.monitor.capacity, replicas, t += 1,
                                     true, {});
    EXPECT_GE(out.replicas, replicas);
    EXPECT_LE(out.replicas, 3u);
    if (out.propagate != LoadSignal::kNone) EXPECT_EQ(replicas, 3u);
    propagated = out.propagate;
    replicas = out.replicas;
  }
  EXPECT_EQ(propagated, LoadSignal::kOverload);
  EXPECT_EQ(replicas, 3u);
  // An empty queue: the mirror image, down to the floor.
  propagated = LoadSignal::kNone;
  for (int i = 0; i < 500 && propagated == LoadSignal::kNone; ++i) {
    const auto out = adaptation.step(0, replicas, t += 1, true, {});
    EXPECT_LE(out.replicas, replicas);
    EXPECT_GE(out.replicas, 1u);
    if (out.propagate != LoadSignal::kNone) EXPECT_EQ(replicas, 1u);
    propagated = out.propagate;
    replicas = out.replicas;
  }
  EXPECT_EQ(propagated, LoadSignal::kUnderload);
  EXPECT_EQ(replicas, 1u);
}

TEST(StageAdaptation, AdaptOffRecordsButMovesNothing) {
  const StageSpec spec = stateless_pool(1);
  StageAdaptation adaptation(spec, /*budget=*/3);
  AdjustmentParameter& volume = adaptation.specify(volume_spec());
  adaptation.receive(LoadSignal::kOverload);
  std::size_t overloads = 0;
  const int steps = 40;
  for (int i = 0; i < steps; ++i) {
    const auto out = adaptation.step(spec.monitor.capacity, 1, i, false, {});
    EXPECT_EQ(out.replicas, 1u);
    // The scaler is not consulted, so every exception still propagates.
    if (out.propagate == LoadSignal::kOverload) ++overloads;
  }
  EXPECT_GT(overloads, 0u);
  EXPECT_EQ(overloads, adaptation.monitor().overload_signals());
  EXPECT_DOUBLE_EQ(volume.suggested_value(), 0.5);

  StageReport report;
  adaptation.fill(report);
  ASSERT_EQ(report.parameter_trajectories.size(), 2u);
  EXPECT_EQ(report.parameter_trajectories[0].first, "sampling-rate");
  EXPECT_EQ(report.parameter_trajectories[1].first, "replicas");
  for (const auto& [name, trajectory] : report.parameter_trajectories) {
    EXPECT_EQ(trajectory.size(), static_cast<std::size_t>(steps)) << name;
  }
  for (const auto& [t, v] : report.parameter_trajectories[1].second) {
    EXPECT_DOUBLE_EQ(v, 1.0);
  }
}

TEST(StageAdaptation, SpecifyingANameTwiceReturnsTheSameParameter) {
  const StageSpec spec;
  StageAdaptation adaptation(spec, 1);
  AdjustmentParameter& first = adaptation.specify(volume_spec());
  AdjustmentParameter& second = adaptation.specify(volume_spec());
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(adaptation.parameter("sampling-rate"), &first);
  EXPECT_EQ(adaptation.parameter("no-such-parameter"), nullptr);
  adaptation.clear_parameters();
  EXPECT_EQ(adaptation.parameter("sampling-rate"), nullptr);
}

TEST(StageAdaptation, ReportCountsAreTheMonitors) {
  const StageSpec spec;
  StageAdaptation adaptation(spec, 1);
  adaptation.specify(volume_spec());
  TimePoint t = 0;
  for (int i = 0; i < 30; ++i) {
    adaptation.step(spec.monitor.capacity, 1, t += 1, true, {});
  }
  for (int i = 0; i < 60; ++i) adaptation.step(0, 1, t += 1, true, {});
  adaptation.receive(LoadSignal::kOverload);
  adaptation.receive(LoadSignal::kUnderload);
  adaptation.receive(LoadSignal::kNone);  // nothing to receive

  StageReport report;
  adaptation.fill(report);
  const QueueMonitor& monitor = adaptation.monitor();
  EXPECT_GT(monitor.overload_signals(), 0u);
  EXPECT_GT(monitor.underload_signals(), 0u);
  EXPECT_EQ(report.overload_exceptions_sent, monitor.overload_signals());
  EXPECT_EQ(report.underload_exceptions_sent, monitor.underload_signals());
  EXPECT_EQ(report.exceptions_received, 2u);
  EXPECT_EQ(report.queue_length.count(), 90u);
  EXPECT_DOUBLE_EQ(report.final_normalized_dtilde,
                   monitor.normalized_dtilde());
}

}  // namespace
}  // namespace gates::core::adapt
