#include "analysis/param_registry.h"

#include <optional>

#include "util/checked_integer.h"

namespace mvsim::analysis {

namespace {

// Each apply function enables the mechanism with defaults when the
// base scenario lacks it, then sets the swept knob.

/// Sets an integer knob; false (knob untouched) when `value` is
/// fractional or out of the knob's range, where a cast would run a
/// different value than the sweep reports.
template <typename T>
bool set_integer(T& knob, double value) {
  const std::optional<T> n = util::checked_integer<T>(value);
  if (!n) return false;
  knob = *n;
  return true;
}

bool apply_scan_delay(core::ScenarioConfig& config, double hours) {
  if (!config.responses.gateway_scan) config.responses.gateway_scan.emplace();
  config.responses.gateway_scan->activation_delay = SimTime::hours(hours);
  return true;
}

bool apply_detection_accuracy(core::ScenarioConfig& config, double accuracy) {
  if (!config.responses.gateway_detection) config.responses.gateway_detection.emplace();
  config.responses.gateway_detection->accuracy = accuracy;
  return true;
}

bool apply_detection_period(core::ScenarioConfig& config, double hours) {
  if (!config.responses.gateway_detection) config.responses.gateway_detection.emplace();
  config.responses.gateway_detection->analysis_period = SimTime::hours(hours);
  return true;
}

bool apply_education_acceptance(core::ScenarioConfig& config, double acceptance) {
  if (!config.responses.user_education) config.responses.user_education.emplace();
  config.responses.user_education->eventual_acceptance = acceptance;
  return true;
}

bool apply_immunization_development(core::ScenarioConfig& config, double hours) {
  if (!config.responses.immunization) config.responses.immunization.emplace();
  config.responses.immunization->development_time = SimTime::hours(hours);
  return true;
}

bool apply_immunization_deployment(core::ScenarioConfig& config, double hours) {
  if (!config.responses.immunization) config.responses.immunization.emplace();
  config.responses.immunization->deployment_duration = SimTime::hours(hours);
  return true;
}

bool apply_monitoring_wait(core::ScenarioConfig& config, double minutes) {
  if (!config.responses.monitoring) config.responses.monitoring.emplace();
  config.responses.monitoring->forced_wait = SimTime::minutes(minutes);
  return true;
}

bool apply_monitoring_threshold(core::ScenarioConfig& config, double messages) {
  if (!config.responses.monitoring) config.responses.monitoring.emplace();
  return set_integer(config.responses.monitoring->window_message_threshold, messages);
}

bool apply_blacklist_threshold(core::ScenarioConfig& config, double messages) {
  if (!config.responses.blacklist) config.responses.blacklist.emplace();
  return set_integer(config.responses.blacklist->message_threshold, messages);
}

bool apply_detectability(core::ScenarioConfig& config, double messages) {
  return set_integer(config.responses.detectability_threshold, messages);
}

bool apply_population(core::ScenarioConfig& config, double phones) {
  return set_integer(config.population, phones);
}

bool apply_susceptible_fraction(core::ScenarioConfig& config, double fraction) {
  config.susceptible_fraction = fraction;
  return true;
}

bool apply_eventual_acceptance(core::ScenarioConfig& config, double acceptance) {
  config.eventual_acceptance = acceptance;
  return true;
}

}  // namespace

const std::vector<SweepableParam>& sweepable_params() {
  static const std::vector<SweepableParam> kParams = {
      {"gateway_scan.activation_delay_h", "hours",
       "signature activation delay of the gateway virus scan (Fig. 2)", Stronger::kLower,
       apply_scan_delay},
      {"gateway_detection.accuracy", "fraction",
       "per-message accuracy of the gateway detection algorithm (Fig. 3)", Stronger::kHigher,
       apply_detection_accuracy},
      {"gateway_detection.analysis_period_h", "hours",
       "traffic-analysis period before gateway detection activates", Stronger::kLower,
       apply_detection_period},
      {"user_education.eventual_acceptance", "probability",
       "educated users' eventual acceptance probability (Fig. 4)", Stronger::kLower,
       apply_education_acceptance},
      {"immunization.development_time_h", "hours",
       "patch development time before immunization rollout (Fig. 5)", Stronger::kLower,
       apply_immunization_development},
      {"immunization.deployment_duration_h", "hours",
       "immunization rollout duration across the population (Fig. 5)", Stronger::kLower,
       apply_immunization_deployment},
      {"monitoring.forced_wait_min", "minutes",
       "forced wait between messages of a flagged phone (Fig. 6)", Stronger::kHigher,
       apply_monitoring_wait},
      {"monitoring.window_message_threshold", "messages",
       "messages per window before monitoring flags a phone", Stronger::kLower,
       apply_monitoring_threshold},
      {"blacklist.message_threshold", "messages",
       "suspected messages tolerated before blacklisting (Fig. 7)", Stronger::kLower,
       apply_blacklist_threshold},
      {"detectability_threshold", "messages",
       "infected messages the gateways see before the virus is detectable", Stronger::kLower,
       apply_detectability},
      {"population", "phones", "total phone population", std::nullopt, apply_population},
      {"susceptible_fraction", "fraction", "fraction of phones on the vulnerable platform",
       std::nullopt, apply_susceptible_fraction},
      {"eventual_acceptance", "probability",
       "baseline eventual acceptance probability of the consent curve", std::nullopt,
       apply_eventual_acceptance},
  };
  return kParams;
}

const SweepableParam* find_sweepable(const std::string& name) {
  for (const SweepableParam& param : sweepable_params()) {
    if (name == param.name) return &param;
  }
  return nullptr;
}

}  // namespace mvsim::analysis
