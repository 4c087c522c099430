#include "gates/core/stage_adaptation.hpp"

#include <algorithm>

#include "gates/obs/attribution.hpp"
#include "gates/obs/trace.hpp"

namespace gates::core {

StageAdaptation::StageAdaptation(const StageSpec& spec,
                                 std::size_t host_cores)
    : spec_(spec),
      budget_(std::max(spec.parallelism.max_replicas != 0
                           ? spec.parallelism.max_replicas
                           : host_cores,
                       spec.parallelism.replicas)),
      monitor_(spec.monitor) {
  const Parallelism& par = spec.parallelism;
  // Dynamic scaling is stateless-only: keyed pools would have to migrate
  // per-key state to re-shard. Keyed exceptions propagate as usual.
  if (par.mode != ParallelismMode::kStateless) return;
  scaler_ = std::make_unique<adapt::ReplicaScaler>(
      par.replicas, budget_, adapt::ReplicaScalerConfig{});
  AdjustmentParameter::Spec rspec;
  rspec.name = "replicas";
  rspec.initial = static_cast<double>(par.replicas);
  rspec.min_value = static_cast<double>(par.replicas);
  rspec.max_value = static_cast<double>(budget_);
  rspec.increment = 1;
  rspec.direction = ParamDirection::kIncreaseSpeedsUp;
  replicas_param_ = std::make_unique<AdjustmentParameter>(rspec);
}

AdjustmentParameter& StageAdaptation::specify(AdjustmentParameter::Spec spec) {
  for (auto& p : params_) {
    if (p->name() == spec.name) return *p;
  }
  params_.push_back(std::make_unique<AdjustmentParameter>(std::move(spec)));
  controllers_.push_back(std::make_unique<adapt::ParameterController>(
      *params_.back(), spec_.controller));
  return *params_.back();
}

void StageAdaptation::clear_parameters() {
  params_.clear();
  controllers_.clear();
}

void StageAdaptation::receive(adapt::LoadSignal signal) {
  if (signal == adapt::LoadSignal::kNone) return;
  ++exceptions_received_;
  for (auto& c : controllers_) c->report_downstream_exception(signal);
}

StageAdaptation::Outcome StageAdaptation::step(double backlog,
                                               std::size_t replicas,
                                               TimePoint now, bool adapt,
                                               const Counts& counts) {
  queue_samples_.add(backlog);
  const adapt::LoadSignal signal = monitor_.observe(backlog);
  Outcome out{signal, replicas};
  if (signal != adapt::LoadSignal::kNone) {
    GATES_TRACE(.time = now,
                .kind = signal == adapt::LoadSignal::kOverload
                            ? obs::TraceKind::kOverloadException
                            : obs::TraceKind::kUnderloadException,
                .component = spec_.name,
                .dtilde = monitor_.normalized_dtilde());
  }
  // Scale-before-degrade (DESIGN.md §5.6): a stateless pool's exception
  // first buys replicas from the core budget; only at the budget (or the
  // floor) does it reach upstream and trade accuracy via Eq. 4.
  if (signal != adapt::LoadSignal::kNone && scaler_ != nullptr && adapt) {
    using Decision = adapt::ReplicaScaler::Decision;
    const Decision decision = scaler_->observe(signal, replicas);
    out.propagate =
        decision == Decision::kPropagate ? signal : adapt::LoadSignal::kNone;
    if (decision == Decision::kScaleUp || decision == Decision::kScaleDown) {
      const bool up = decision == Decision::kScaleUp;
      out.replicas = up ? replicas + 1 : replicas - 1;
      GATES_TRACE(.time = now,
                  .kind = up ? obs::TraceKind::kReplicaScaleUp
                             : obs::TraceKind::kReplicaScaleDown,
                  .component = spec_.name,
                  .value_old = static_cast<double>(replicas),
                  .value_new = static_cast<double>(out.replicas),
                  .dtilde = monitor_.normalized_dtilde(),
                  .annotation = obs::attribution_brief(spec_.name));
    }
  }
  if (replicas_param_ != nullptr) {
    replicas_param_->set_value(static_cast<double>(out.replicas));
    replicas_param_->record(now);
  }
  for (std::size_t i = 0; i < controllers_.size(); ++i) {
    if (adapt) {
      controllers_[i]->update(monitor_.normalized_dtilde_gated());
      const adapt::ParameterController::LastUpdate& u =
          controllers_[i]->last_update();
      // Every Eq. 4 move carries the attribution snapshot that triggered
      // it ("" and elided when the Profiler is off).
      GATES_TRACE(.time = now, .kind = obs::TraceKind::kParamAdjust,
                  .component = spec_.name, .detail = params_[i]->name(),
                  .value_old = u.old_value, .value_new = u.new_value,
                  .dtilde = u.dtilde, .phi1 = u.phi1,
                  .annotation = obs::attribution_brief(spec_.name));
    }
    params_[i]->record(now);
  }
  if (obs::MetricsRegistry::global().enabled()) publish(backlog, counts);
  return out;
}

void StageAdaptation::publish(double backlog, const Counts& counts) {
  if (processed_ctr_ == nullptr) {
    auto& reg = obs::MetricsRegistry::global();
    const obs::Labels labels = {{"stage", spec_.name}};
    processed_ctr_ = &reg.counter("gates_stage_packets_processed", labels);
    emitted_ctr_ = &reg.counter("gates_stage_packets_emitted", labels);
    dropped_ctr_ = &reg.counter("gates_stage_packets_dropped", labels);
    inline_ctr_ = &reg.counter("gates_stage_inline_batches_total", labels);
    overload_ctr_ = &reg.counter("gates_stage_overload_exceptions", labels);
    underload_ctr_ = &reg.counter("gates_stage_underload_exceptions", labels);
    received_ctr_ = &reg.counter("gates_stage_exceptions_received", labels);
    queue_gauge_ = &reg.gauge("gates_stage_queue_length", labels);
    dtilde_gauge_ = &reg.gauge("gates_stage_dtilde", labels);
    queue_hist_ = &reg.histogram("gates_stage_queue_length_hist", 0,
                                 spec_.monitor.capacity, 16, labels);
  }
  processed_ctr_->set(counts.processed);
  emitted_ctr_->set(counts.emitted);
  dropped_ctr_->set(counts.dropped);
  inline_ctr_->set(counts.inline_batches);
  overload_ctr_->set(monitor_.overload_signals());
  underload_ctr_->set(monitor_.underload_signals());
  received_ctr_->set(exceptions_received_);
  queue_gauge_->set(backlog);
  dtilde_gauge_->set(monitor_.normalized_dtilde());
  queue_hist_->observe(backlog);
}

void StageAdaptation::fill(StageReport& report) const {
  report.queue_length = queue_samples_;
  report.overload_exceptions_sent = monitor_.overload_signals();
  report.underload_exceptions_sent = monitor_.underload_signals();
  report.exceptions_received = exceptions_received_;
  report.final_normalized_dtilde = monitor_.normalized_dtilde();
  for (const auto& p : params_) {
    report.parameter_trajectories.emplace_back(p->name(), p->trajectory());
  }
  if (replicas_param_ != nullptr) {
    report.parameter_trajectories.emplace_back(replicas_param_->name(),
                                               replicas_param_->trajectory());
  }
}

const AdjustmentParameter* StageAdaptation::parameter(
    const std::string& name) const {
  for (const auto& p : params_) {
    if (p->name() == name) return p.get();
  }
  return nullptr;
}

}  // namespace gates::core
