#include "response/rate_limiter.h"

#include <cmath>

#include "metrics/registry.h"
#include "trace/trace.h"

namespace mvsim::response {

ValidationErrors RateLimiterConfig::validate() const {
  ValidationErrors errors("RateLimiterConfig");
  errors.require(max_messages_per_window >= 1, "max_messages_per_window must be >= 1");
  errors.require(window > SimTime::zero() && window.is_finite(),
                 "window must be finite and positive");
  return errors;
}

RateLimiter::RateLimiter(const RateLimiterConfig& config) : config_(config) {
  config.validate().throw_if_invalid();
}

void RateLimiter::on_build(BuildContext& context) { trace_ = context.trace; }

std::int64_t RateLimiter::window_index(SimTime now) const {
  return static_cast<std::int64_t>(std::floor(now / config_.window));
}

void RateLimiter::on_message_submitted(const net::MmsMessage& message, SimTime now) {
  PhoneRecord& rec = records_[message.sender];
  std::int64_t window = window_index(now);
  if (window != rec.window_index) {
    rec.window_index = window;
    rec.count_in_window = 0;
  }
  ++rec.count_in_window;
  rec.last_submit = now;
  if (rec.count_in_window == config_.max_messages_per_window) {
    ++windows_capped_;
    limited_phones_.insert(message.sender);
    trace::record_action(trace_, now, name(), "window_capped", message.sender);
  }
}

bool RateLimiter::is_at_cap(net::PhoneId phone, SimTime now) const {
  auto it = records_.find(phone);
  if (it == records_.end()) return false;
  const PhoneRecord& rec = it->second;
  return rec.window_index == window_index(now) &&
         rec.count_in_window >= config_.max_messages_per_window;
}

SimTime RateLimiter::forced_min_gap(net::PhoneId phone, SimTime now) const {
  auto it = records_.find(phone);
  if (it == records_.end()) return SimTime::zero();
  const PhoneRecord& rec = it->second;
  if (rec.window_index != window_index(now)) return SimTime::zero();  // fresh quota
  if (rec.count_in_window < config_.max_messages_per_window) return SimTime::zero();
  // Quota exhausted: the earliest permissible send is the next window
  // boundary. The gap is measured from the phone's last send, which is
  // exactly this record's last submission instant.
  SimTime window_end = config_.window * static_cast<double>(rec.window_index + 1);
  return max(SimTime::zero(), window_end - rec.last_submit);
}

void RateLimiter::on_tick(SimTime now) {
  std::int64_t current = window_index(now);
  for (auto it = records_.begin(); it != records_.end();) {
    // A record one window old still backs forced_min_gap answers right
    // at the boundary; anything older is dead weight.
    if (it->second.window_index < current - 1) {
      it = records_.erase(it);
    } else {
      ++it;
    }
  }
}

void RateLimiter::on_metrics(metrics::Registry& registry) const {
  registry.counter("response.rate_limiter.phones_limited").add(limited_phones_.size());
  registry.counter("response.rate_limiter.windows_capped").add(windows_capped_);
}

}  // namespace mvsim::response
