#include "response/monitoring.h"

#include <cmath>

#include "metrics/registry.h"
#include "trace/trace.h"

namespace mvsim::response {

ValidationErrors MonitoringConfig::validate() const {
  ValidationErrors errors("MonitoringConfig");
  errors.require(window_message_threshold >= 1, "window_message_threshold must be >= 1");
  errors.require(observation_window > SimTime::zero() && observation_window.is_finite(),
                 "observation_window must be finite and positive");
  errors.require(forced_wait >= SimTime::zero() && forced_wait.is_finite(),
                 "forced_wait must be finite and >= 0");
  return errors;
}

Monitoring::Monitoring(const MonitoringConfig& config) : config_(config) {
  config.validate().throw_if_invalid();
}

void Monitoring::on_build(BuildContext& context) { trace_ = context.trace; }

std::int64_t Monitoring::window_index(SimTime now) const {
  return static_cast<std::int64_t>(std::floor(now / config_.observation_window));
}

void Monitoring::on_message_submitted(const net::MmsMessage& message, SimTime now) {
  PhoneRecord& rec = records_[message.sender];
  std::int64_t window = window_index(now);
  if (window != rec.window_index) {
    rec.window_index = window;
    rec.count_in_window = 0;
    if (!config_.flag_is_permanent) rec.flagged = false;
  }
  ++rec.count_in_window;
  if (!rec.flagged && rec.count_in_window > config_.window_message_threshold) {
    rec.flagged = true;
    ++flagged_total_;
    trace::record_action(trace_, now, name(), "flagged", message.sender);
  }
}

bool Monitoring::is_flagged(net::PhoneId phone) const {
  auto it = records_.find(phone);
  return it != records_.end() && it->second.flagged;
}

void Monitoring::on_metrics(metrics::Registry& registry) const {
  registry.counter("response.monitoring.phones_flagged").add(flagged_total_);
}

SimTime Monitoring::forced_min_gap(net::PhoneId phone, SimTime now) const {
  auto it = records_.find(phone);
  if (it == records_.end()) return SimTime::zero();
  PhoneRecord& rec = it->second;
  if (!config_.flag_is_permanent && rec.flagged && window_index(now) != rec.window_index) {
    // Window rolled over without traffic: clear the stale flag lazily.
    rec.flagged = false;
    rec.window_index = window_index(now);
    rec.count_in_window = 0;
  }
  return rec.flagged ? config_.forced_wait : SimTime::zero();
}

}  // namespace mvsim::response
