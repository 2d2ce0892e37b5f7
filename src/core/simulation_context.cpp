#include "core/simulation_context.h"

#include <stdexcept>
#include <string>

namespace mvsim::core {

SimulationContext::SimulationContext(const response::ResponseSuiteConfig& suite,
                                     const response::ResponseRegistry& registry,
                                     bool defer_detection)
    : detector_(std::make_unique<response::DetectabilityMonitor>(suite.detectability_threshold,
                                                                 defer_detection)),
      mechanisms_(registry.build_enabled(suite)) {}

void SimulationContext::attach(net::Gateway& gateway, virus::SendingEnvironment& sending_env,
                               response::BuildContext build) {
  if (attached_) throw std::logic_error("SimulationContext::attach called twice");
  if (build.scheduler == nullptr) {
    throw std::invalid_argument("SimulationContext::attach: build.scheduler must be set");
  }
  attached_ = true;
  scheduler_ = build.scheduler;
  build.detector = detector_.get();

  // Observer order matters for event-for-event reproducibility: the
  // detector sees each submission first (so a mechanism reacting to
  // the same submission already observes detected()==true), then this
  // dispatcher fans out to mechanisms in registration order.
  gateway.add_observer(*detector_);
  detector_->on_detected([this](SimTime at) {
    count_dispatch(detect_subs_.size());
    for (auto* mechanism : detect_subs_) mechanism->on_detectability_crossed(at);
  });
  gateway.add_observer(*this);

  // Precompute per-hook subscriber lists; dispatch then walks only the
  // mechanisms whose overrides can do something with the event.
  for (auto& mechanism : mechanisms_) {
    const std::uint32_t mask = mechanism->subscribed_hooks();
    if (mask & response::hook::kMessageSubmitted) submitted_subs_.push_back(mechanism.get());
    if (mask & response::hook::kMessageBlocked) blocked_subs_.push_back(mechanism.get());
    if (mask & response::hook::kMessageDelivered) delivered_subs_.push_back(mechanism.get());
    if (mask & response::hook::kInfection) infection_subs_.push_back(mechanism.get());
    if (mask & response::hook::kPatch) patch_subs_.push_back(mechanism.get());
    if (mask & response::hook::kDetectabilityCrossed) detect_subs_.push_back(mechanism.get());
  }

  for (auto& mechanism : mechanisms_) mechanism->on_build(build);
  for (auto& mechanism : mechanisms_) {
    if (net::DeliveryFilter* filter = mechanism->as_delivery_filter()) {
      gateway.add_filter(*filter);
    }
  }
  for (auto& mechanism : mechanisms_) {
    if (net::OutgoingMmsPolicy* policy = mechanism->as_outgoing_policy()) {
      sending_env.policies.push_back(policy);
    }
  }
  for (auto& mechanism : mechanisms_) {
    SimTime period = mechanism->tick_period();
    if (period > SimTime::zero()) schedule_tick(mechanism.get(), period);
  }
}

void SimulationContext::schedule_tick(response::ResponseMechanism* mechanism, SimTime period) {
  scheduler_->schedule_after(period, des::EventType::kResponseTick,
                             [this, mechanism, period] {
    count_dispatch(1);
    mechanism->on_tick(scheduler_->now());
    schedule_tick(mechanism, period);
  });
}

void SimulationContext::notify_infection(net::PhoneId phone, SimTime now) {
  count_dispatch(infection_subs_.size());
  for (auto* mechanism : infection_subs_) mechanism->on_infection(phone, now);
}

void SimulationContext::notify_patch(net::PhoneId phone, SimTime now) {
  count_dispatch(patch_subs_.size());
  for (auto* mechanism : patch_subs_) mechanism->on_patch(phone, now);
}

const response::ResponseMechanism* SimulationContext::find(std::string_view name) const {
  for (const auto& mechanism : mechanisms_) {
    if (name == mechanism->name()) return mechanism.get();
  }
  return nullptr;
}

void SimulationContext::on_submitted(const net::MmsMessage& message, SimTime now) {
  count_dispatch(submitted_subs_.size());
  for (auto* mechanism : submitted_subs_) mechanism->on_message_submitted(message, now);
}

void SimulationContext::on_blocked(const net::MmsMessage& message, const char* blocked_by,
                                   SimTime now) {
  count_dispatch(blocked_subs_.size());
  for (auto* mechanism : blocked_subs_) mechanism->on_message_blocked(message, blocked_by, now);
}

void SimulationContext::on_delivered(net::PhoneId recipient, const net::MmsMessage& message,
                                     SimTime now) {
  count_dispatch(delivered_subs_.size());
  for (auto* mechanism : delivered_subs_) mechanism->on_message_delivered(recipient, message, now);
}

void SimulationContext::collect_metrics(metrics::Registry& registry) const {
  registry.counter("core.dispatch.events").add(dispatch_events_);
  registry.counter("core.dispatch.hook_calls").add(dispatch_hook_calls_);
  registry.counter("core.dispatch.hooks_skipped").add(dispatch_hooks_skipped_);
  for (const auto& mechanism : mechanisms_) mechanism->on_metrics(registry);
}

}  // namespace mvsim::core
