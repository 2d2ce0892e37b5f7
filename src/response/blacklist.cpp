#include "response/blacklist.h"

#include "metrics/registry.h"
#include "trace/trace.h"

namespace mvsim::response {

ValidationErrors BlacklistConfig::validate() const {
  ValidationErrors errors("BlacklistConfig");
  errors.require(message_threshold >= 1, "message_threshold must be >= 1");
  return errors;
}

Blacklist::Blacklist(const BlacklistConfig& config) : config_(config) {
  config.validate().throw_if_invalid();
}

void Blacklist::on_build(BuildContext& context) { trace_ = context.trace; }

void Blacklist::on_message_submitted(const net::MmsMessage& message, SimTime now) {
  // Only virus traffic transits the simulated network, so every
  // infected message is a "suspected" one; clean traffic (none is
  // simulated) would not be counted.
  if (!message.infected) return;
  std::uint32_t& count = suspected_counts_[message.sender];
  ++count;
  if (count >= config_.message_threshold && blacklisted_.insert(message.sender).second) {
    trace::record_action(trace_, now, name(), "blacklisted", message.sender);
  }
}

void Blacklist::on_metrics(metrics::Registry& registry) const {
  registry.counter("response.blacklist.phones_blacklisted").add(blacklisted_.size());
}

}  // namespace mvsim::response
