#include "response/immunization.h"

#include <stdexcept>

#include "metrics/registry.h"
#include "trace/trace.h"

namespace mvsim::response {

ValidationErrors ImmunizationConfig::validate() const {
  ValidationErrors errors("ImmunizationConfig");
  if (detection_time) {
    errors.require(*detection_time >= SimTime::zero() && detection_time->is_finite(),
                   "detection_time must be finite and >= 0");
  }
  errors.require(development_time >= SimTime::zero() && development_time.is_finite(),
                 "development_time must be finite and >= 0");
  errors.require(deployment_duration >= SimTime::zero() && deployment_duration.is_finite(),
                 "deployment_duration must be finite and >= 0");
  return errors;
}

Immunization::Immunization(const ImmunizationConfig& config) : config_(config) {
  config.validate().throw_if_invalid();
}

void Immunization::on_build(BuildContext& context) {
  if (!context.apply_patch) {
    throw std::invalid_argument("Immunization: build context lacks an apply_patch callback");
  }
  if (context.patch_targets == nullptr) {
    throw std::invalid_argument("Immunization: build context lacks a patch-target list");
  }
  scheduler_ = context.scheduler;
  stream_ = context.response_stream;
  targets_ = *context.patch_targets;
  apply_patch_ = context.apply_patch;
  trace_ = context.trace;
  if (config_.detection_time) {
    scheduler_->schedule_at(*config_.detection_time + config_.development_time,
                            des::EventType::kResponseActivation, [this] { begin_deployment(); });
  }
}

void Immunization::on_detectability_crossed(SimTime) {
  if (scheduler_ == nullptr) throw std::logic_error("Immunization: on_build never ran");
  if (config_.detection_time) return;  // detected out-of-band instead
  scheduler_->schedule_after(config_.development_time, des::EventType::kResponseActivation,
                             [this] { begin_deployment(); });
}

void Immunization::begin_deployment() {
  started_ = true;
  begins_at_ = scheduler_->now();
  ends_at_ = begins_at_ + config_.deployment_duration;
  trace::record_action(trace_, begins_at_, name(), "rollout_started");
  // "The patch is rolled out to the entire phone population uniformly
  // over a period of time": each target gets an independent uniform
  // arrival offset in [0, deployment_duration].
  for (net::PhoneId target : targets_) {
    SimTime offset = config_.deployment_duration > SimTime::zero()
                         ? stream_->uniform(SimTime::zero(), config_.deployment_duration)
                         : SimTime::zero();
    scheduler_->schedule_after(offset, des::EventType::kResponsePatch, [this, target] {
      apply_patch_(target);
      ++applied_;
    });
  }
}

void Immunization::on_metrics(metrics::Registry& registry) const {
  registry.counter("response.immunization.deployments").add(started_ ? 1 : 0);
  registry.counter("response.immunization.patches_applied").add(applied_);
}

}  // namespace mvsim::response
