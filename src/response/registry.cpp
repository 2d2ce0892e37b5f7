#include "response/registry.h"

#include <stdexcept>
#include <string>

#include "response/blacklist.h"
#include "response/gateway_detection.h"
#include "response/gateway_scan.h"
#include "response/immunization.h"
#include "response/monitoring.h"
#include "response/rate_limiter.h"
#include "response/user_education.h"
#include "util/duration.h"
#include "util/json_decode.h"

namespace mvsim::response {
namespace {

// --- JSON bindings, one pair per mechanism ------------------------------
// Decode is strict (util::ObjectDecoder rejects unknown keys with the
// full JSON path); encode mirrors the same keys so scenarios
// round-trip.

void decode_gateway_scan(const json::Value& value, const std::string& path,
                         ResponseSuiteConfig& suite) {
  util::ObjectDecoder d(value, path);
  GatewayScanConfig config;
  config.activation_delay = d.duration("activation_delay", config.activation_delay);
  d.finish();
  suite.gateway_scan = config;
}

std::optional<json::Value> encode_gateway_scan(const ResponseSuiteConfig& suite) {
  if (!suite.gateway_scan) return std::nullopt;
  json::Object o;
  o.set("activation_delay", util::format_duration(suite.gateway_scan->activation_delay));
  return json::Value(std::move(o));
}

void decode_gateway_detection(const json::Value& value, const std::string& path,
                              ResponseSuiteConfig& suite) {
  util::ObjectDecoder d(value, path);
  GatewayDetectionConfig config;
  config.accuracy = d.number("accuracy", config.accuracy);
  config.analysis_period = d.duration("analysis_period", config.analysis_period);
  d.finish();
  suite.gateway_detection = config;
}

std::optional<json::Value> encode_gateway_detection(const ResponseSuiteConfig& suite) {
  if (!suite.gateway_detection) return std::nullopt;
  json::Object o;
  o.set("accuracy", suite.gateway_detection->accuracy);
  o.set("analysis_period", util::format_duration(suite.gateway_detection->analysis_period));
  return json::Value(std::move(o));
}

void decode_user_education(const json::Value& value, const std::string& path,
                           ResponseSuiteConfig& suite) {
  util::ObjectDecoder d(value, path);
  UserEducationConfig config;
  config.eventual_acceptance = d.number("eventual_acceptance", config.eventual_acceptance);
  d.finish();
  suite.user_education = config;
}

std::optional<json::Value> encode_user_education(const ResponseSuiteConfig& suite) {
  if (!suite.user_education) return std::nullopt;
  json::Object o;
  o.set("eventual_acceptance", suite.user_education->eventual_acceptance);
  return json::Value(std::move(o));
}

void decode_immunization(const json::Value& value, const std::string& path,
                         ResponseSuiteConfig& suite) {
  util::ObjectDecoder d(value, path);
  ImmunizationConfig config;
  if (d.has("detection_time")) {
    config.detection_time = d.duration("detection_time", SimTime::zero());
  }
  config.development_time = d.duration("development_time", config.development_time);
  config.deployment_duration = d.duration("deployment_duration", config.deployment_duration);
  d.finish();
  suite.immunization = config;
}

std::optional<json::Value> encode_immunization(const ResponseSuiteConfig& suite) {
  if (!suite.immunization) return std::nullopt;
  json::Object o;
  if (suite.immunization->detection_time) {
    o.set("detection_time", util::format_duration(*suite.immunization->detection_time));
  }
  o.set("development_time", util::format_duration(suite.immunization->development_time));
  o.set("deployment_duration", util::format_duration(suite.immunization->deployment_duration));
  return json::Value(std::move(o));
}

void decode_monitoring(const json::Value& value, const std::string& path,
                       ResponseSuiteConfig& suite) {
  util::ObjectDecoder d(value, path);
  MonitoringConfig config;
  config.window_message_threshold =
      d.uint32("window_message_threshold", config.window_message_threshold);
  config.observation_window = d.duration("observation_window", config.observation_window);
  config.forced_wait = d.duration("forced_wait", config.forced_wait);
  config.flag_is_permanent = d.boolean("flag_is_permanent", config.flag_is_permanent);
  d.finish();
  suite.monitoring = config;
}

std::optional<json::Value> encode_monitoring(const ResponseSuiteConfig& suite) {
  if (!suite.monitoring) return std::nullopt;
  json::Object o;
  o.set("window_message_threshold", suite.monitoring->window_message_threshold);
  o.set("observation_window", util::format_duration(suite.monitoring->observation_window));
  o.set("forced_wait", util::format_duration(suite.monitoring->forced_wait));
  o.set("flag_is_permanent", suite.monitoring->flag_is_permanent);
  return json::Value(std::move(o));
}

void decode_blacklist(const json::Value& value, const std::string& path,
                      ResponseSuiteConfig& suite) {
  util::ObjectDecoder d(value, path);
  BlacklistConfig config;
  config.message_threshold = d.uint32("message_threshold", config.message_threshold);
  d.finish();
  suite.blacklist = config;
}

std::optional<json::Value> encode_blacklist(const ResponseSuiteConfig& suite) {
  if (!suite.blacklist) return std::nullopt;
  json::Object o;
  o.set("message_threshold", suite.blacklist->message_threshold);
  return json::Value(std::move(o));
}

void decode_rate_limiter(const json::Value& value, const std::string& path,
                         ResponseSuiteConfig& suite) {
  util::ObjectDecoder d(value, path);
  RateLimiterConfig config;
  config.max_messages_per_window =
      d.uint32("max_messages_per_window", config.max_messages_per_window);
  config.window = d.duration("window", config.window);
  d.finish();
  suite.rate_limiter = config;
}

std::optional<json::Value> encode_rate_limiter(const ResponseSuiteConfig& suite) {
  if (!suite.rate_limiter) return std::nullopt;
  json::Object o;
  o.set("max_messages_per_window", suite.rate_limiter->max_messages_per_window);
  o.set("window", util::format_duration(suite.rate_limiter->window));
  return json::Value(std::move(o));
}

template <typename Config>
ValidationErrors validate_optional(const std::optional<Config>& config) {
  if (config) return config->validate();
  return ValidationErrors(std::string());
}

}  // namespace

void ResponseRegistry::register_mechanism(const MechanismInfo& info) {
  if (find(info.name) != nullptr) {
    throw std::invalid_argument(std::string("ResponseRegistry: duplicate mechanism name '") +
                                info.name + "'");
  }
  mechanisms_.push_back(info);
}

const MechanismInfo* ResponseRegistry::find(std::string_view name) const {
  for (const MechanismInfo& info : mechanisms_) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

std::vector<std::unique_ptr<ResponseMechanism>> ResponseRegistry::build_enabled(
    const ResponseSuiteConfig& suite) const {
  std::vector<std::unique_ptr<ResponseMechanism>> built;
  for (const MechanismInfo& info : mechanisms_) {
    if (!info.enabled(suite)) continue;
    auto mechanism = info.build(suite);
    if (mechanism) built.push_back(std::move(mechanism));
  }
  return built;
}

const ResponseRegistry& ResponseRegistry::built_ins() {
  static const ResponseRegistry registry = [] {
    ResponseRegistry r;
    r.register_mechanism(MechanismInfo{
        "gateway_scan",
        "signature scan in the MMS gateway; perfect but delayed by signature rollout",
        [](const ResponseSuiteConfig& s) { return s.gateway_scan.has_value(); },
        [](const ResponseSuiteConfig& s) { return validate_optional(s.gateway_scan); },
        [](const ResponseSuiteConfig& s) -> std::unique_ptr<ResponseMechanism> {
          return std::make_unique<GatewayScan>(*s.gateway_scan);
        },
        &decode_gateway_scan,
        &encode_gateway_scan,
    });
    r.register_mechanism(MechanismInfo{
        "gateway_detection",
        "behavioral detector in the MMS gateway; immediate-ish but imperfect accuracy",
        [](const ResponseSuiteConfig& s) { return s.gateway_detection.has_value(); },
        [](const ResponseSuiteConfig& s) { return validate_optional(s.gateway_detection); },
        [](const ResponseSuiteConfig& s) -> std::unique_ptr<ResponseMechanism> {
          return std::make_unique<GatewayDetection>(*s.gateway_detection);
        },
        &decode_gateway_detection,
        &encode_gateway_detection,
    });
    r.register_mechanism(MechanismInfo{
        "user_education",
        "education campaign lowering eventual attachment acceptance (standing condition)",
        [](const ResponseSuiteConfig& s) { return s.user_education.has_value(); },
        [](const ResponseSuiteConfig& s) { return validate_optional(s.user_education); },
        // Standing condition: realized through the consent model at
        // population build time (consent_for_suite), no event hooks.
        [](const ResponseSuiteConfig&) -> std::unique_ptr<ResponseMechanism> { return nullptr; },
        &decode_user_education,
        &encode_user_education,
    });
    r.register_mechanism(MechanismInfo{
        "immunization",
        "patch developed after detectability (or a fixed detection_time), rolled out uniformly "
        "to susceptible phones",
        [](const ResponseSuiteConfig& s) { return s.immunization.has_value(); },
        [](const ResponseSuiteConfig& s) { return validate_optional(s.immunization); },
        [](const ResponseSuiteConfig& s) -> std::unique_ptr<ResponseMechanism> {
          return std::make_unique<Immunization>(*s.immunization);
        },
        &decode_immunization,
        &encode_immunization,
    });
    r.register_mechanism(MechanismInfo{
        "monitoring",
        "per-window send-rate anomaly flagging with a forced wait between messages",
        [](const ResponseSuiteConfig& s) { return s.monitoring.has_value(); },
        [](const ResponseSuiteConfig& s) { return validate_optional(s.monitoring); },
        [](const ResponseSuiteConfig& s) -> std::unique_ptr<ResponseMechanism> {
          return std::make_unique<Monitoring>(*s.monitoring);
        },
        &decode_monitoring,
        &encode_monitoring,
    });
    r.register_mechanism(MechanismInfo{
        "blacklist",
        "cumulative suspected-message count; at threshold the phone's MMS service is cut",
        [](const ResponseSuiteConfig& s) { return s.blacklist.has_value(); },
        [](const ResponseSuiteConfig& s) { return validate_optional(s.blacklist); },
        [](const ResponseSuiteConfig& s) -> std::unique_ptr<ResponseMechanism> {
          return std::make_unique<Blacklist>(*s.blacklist);
        },
        &decode_blacklist,
        &encode_blacklist,
    });
    r.register_mechanism(MechanismInfo{
        "rate_limiter",
        "per-phone messages-per-window cap at the gateway; holds, never cuts (extension)",
        [](const ResponseSuiteConfig& s) { return s.rate_limiter.has_value(); },
        [](const ResponseSuiteConfig& s) { return validate_optional(s.rate_limiter); },
        [](const ResponseSuiteConfig& s) -> std::unique_ptr<ResponseMechanism> {
          return std::make_unique<RateLimiter>(*s.rate_limiter);
        },
        &decode_rate_limiter,
        &encode_rate_limiter,
    });
    return r;
  }();
  return registry;
}

}  // namespace mvsim::response
