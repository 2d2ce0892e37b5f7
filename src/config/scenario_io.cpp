#include "config/scenario_io.h"

#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "response/registry.h"
#include "util/duration.h"
#include "util/json_decode.h"

namespace mvsim::config {

namespace {

using json::Array;
using json::Object;
using json::Value;
// The strict decoder lives in util/ so the response registry's JSON
// bindings (a layer below config) can share it.
using util::ObjectDecoder;

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  util::decode_fail(path, why);
}

// ---- enum <-> string tables ----

const char* to_string(virus::TargetingMode mode) {
  switch (mode) {
    case virus::TargetingMode::kContactList: return "contact_list";
    case virus::TargetingMode::kRandomDialing: return "random_dialing";
    case virus::TargetingMode::kNone: return "none";
  }
  return "?";
}

virus::TargetingMode targeting_from_string(const std::string& s, const std::string& path) {
  if (s == "contact_list") return virus::TargetingMode::kContactList;
  if (s == "random_dialing") return virus::TargetingMode::kRandomDialing;
  if (s == "none") return virus::TargetingMode::kNone;
  fail(path, "unknown targeting mode '" + s + "' (contact_list | random_dialing | none)");
}

const char* to_string(virus::BudgetKind kind) {
  switch (kind) {
    case virus::BudgetKind::kUnlimited: return "unlimited";
    case virus::BudgetKind::kPerReboot: return "per_reboot";
    case virus::BudgetKind::kPerDayAligned: return "per_day_aligned";
  }
  return "?";
}

virus::BudgetKind budget_from_string(const std::string& s, const std::string& path) {
  if (s == "unlimited") return virus::BudgetKind::kUnlimited;
  if (s == "per_reboot") return virus::BudgetKind::kPerReboot;
  if (s == "per_day_aligned") return virus::BudgetKind::kPerDayAligned;
  fail(path, "unknown budget kind '" + s + "' (unlimited | per_reboot | per_day_aligned)");
}

const char* to_string(virus::SendTrigger trigger) {
  switch (trigger) {
    case virus::SendTrigger::kActive: return "active";
    case virus::SendTrigger::kPiggyback: return "piggyback";
  }
  return "?";
}

virus::SendTrigger trigger_from_string(const std::string& s, const std::string& path) {
  if (s == "active") return virus::SendTrigger::kActive;
  if (s == "piggyback") return virus::SendTrigger::kPiggyback;
  fail(path, "unknown send trigger '" + s + "' (active | piggyback)");
}

core::TopologyConfig::Kind topology_kind_from_string(const std::string& s,
                                                     const std::string& path) {
  if (s == "power-law") return core::TopologyConfig::Kind::kPowerLaw;
  if (s == "erdos-renyi") return core::TopologyConfig::Kind::kErdosRenyi;
  if (s == "regular-ring") return core::TopologyConfig::Kind::kRegularRing;
  if (s == "barabasi-albert") return core::TopologyConfig::Kind::kBarabasiAlbert;
  fail(path, "unknown topology kind '" + s +
                 "' (power-law | erdos-renyi | regular-ring | barabasi-albert)");
}

virus::VirusProfile preset_by_name(const std::string& name, const std::string& path) {
  if (name == "virus1") return virus::virus1();
  if (name == "virus2") return virus::virus2();
  if (name == "virus3") return virus::virus3();
  if (name == "virus4") return virus::virus4();
  fail(path, "unknown virus preset '" + name + "' (virus1..virus4)");
}

virus::VirusProfile decode_virus(const Value& value, const std::string& path) {
  ObjectDecoder decoder(value, path);
  virus::VirusProfile profile;
  // A "preset" key seeds the profile; remaining keys override fields.
  if (const Value* preset = decoder.optional("preset")) {
    if (!preset->is_string()) fail(path + ".preset", "expected a string");
    profile = preset_by_name(preset->as_string(), path + ".preset");
  }
  profile.name = decoder.string("name", profile.name);
  if (const Value* v = decoder.optional("targeting")) {
    if (!v->is_string()) fail(path + ".targeting", "expected a string");
    profile.targeting = targeting_from_string(v->as_string(), path + ".targeting");
  }
  profile.valid_number_fraction =
      decoder.number("valid_number_fraction", profile.valid_number_fraction);
  profile.min_message_gap = decoder.duration("min_message_gap", profile.min_message_gap);
  profile.extra_gap_mean = decoder.duration("extra_gap_mean", profile.extra_gap_mean);
  profile.recipients_per_message =
      decoder.uint32("recipients_per_message", profile.recipients_per_message);
  if (const Value* v = decoder.optional("budget")) {
    if (!v->is_string()) fail(path + ".budget", "expected a string");
    profile.budget = budget_from_string(v->as_string(), path + ".budget");
  }
  profile.budget_limit = decoder.uint32("budget_limit", profile.budget_limit);
  profile.budget_window = decoder.duration("budget_window", profile.budget_window);
  profile.align_first_burst = decoder.boolean("align_first_burst", profile.align_first_burst);
  profile.one_pass_per_window =
      decoder.boolean("one_pass_per_window", profile.one_pass_per_window);
  profile.dormancy = decoder.duration("dormancy", profile.dormancy);
  if (const Value* v = decoder.optional("trigger")) {
    if (!v->is_string()) fail(path + ".trigger", "expected a string");
    profile.trigger = trigger_from_string(v->as_string(), path + ".trigger");
  }
  profile.legit_traffic_gap_mean =
      decoder.duration("legit_traffic_gap_mean", profile.legit_traffic_gap_mean);
  decoder.finish();
  return profile;
}

core::TopologyConfig decode_topology(const Value& value, const std::string& path) {
  ObjectDecoder decoder(value, path);
  core::TopologyConfig topology;
  if (const Value* v = decoder.optional("kind")) {
    if (!v->is_string()) fail(path + ".kind", "expected a string");
    topology.kind = topology_kind_from_string(v->as_string(), path + ".kind");
  }
  topology.mean_degree = decoder.number("mean_degree", topology.mean_degree);
  topology.alpha = decoder.number("alpha", topology.alpha);
  topology.locality_jitter = decoder.number("locality_jitter", topology.locality_jitter);
  if (decoder.has("shared_seed")) {
    topology.shared_seed = decoder.uint64("shared_seed", 0);
  }
  decoder.finish();
  return topology;
}

response::ResponseSuiteConfig decode_responses(const Value& value, const std::string& path) {
  ObjectDecoder decoder(value, path);
  response::ResponseSuiteConfig suite;
  suite.detectability_threshold =
      decoder.uint64("detectability_threshold", suite.detectability_threshold);
  // Each registered mechanism owns the binding for its sub-object, so
  // a new mechanism needs no change here.
  for (const response::MechanismInfo& info :
       response::ResponseRegistry::built_ins().mechanisms()) {
    if (const Value* v = decoder.optional(info.name)) {
      info.decode(*v, path + "." + info.name, suite);
    }
  }
  decoder.finish();
  return suite;
}

}  // namespace

json::Value to_json(const virus::VirusProfile& profile) {
  Object o;
  o.set("name", Value(profile.name));
  o.set("targeting", Value(to_string(profile.targeting)));
  if (profile.targeting == virus::TargetingMode::kRandomDialing) {
    o.set("valid_number_fraction", Value(profile.valid_number_fraction));
  }
  o.set("min_message_gap", Value(util::format_duration(profile.min_message_gap)));
  o.set("extra_gap_mean", Value(util::format_duration(profile.extra_gap_mean)));
  o.set("recipients_per_message", Value(profile.recipients_per_message));
  o.set("budget", Value(to_string(profile.budget)));
  if (profile.budget != virus::BudgetKind::kUnlimited) {
    o.set("budget_limit", Value(profile.budget_limit));
    o.set("budget_window", Value(util::format_duration(profile.budget_window)));
  }
  if (profile.align_first_burst) o.set("align_first_burst", Value(true));
  if (profile.one_pass_per_window) o.set("one_pass_per_window", Value(true));
  if (profile.dormancy > SimTime::zero()) {
    o.set("dormancy", Value(util::format_duration(profile.dormancy)));
  }
  o.set("trigger", Value(to_string(profile.trigger)));
  if (profile.trigger == virus::SendTrigger::kPiggyback) {
    o.set("legit_traffic_gap_mean", Value(util::format_duration(profile.legit_traffic_gap_mean)));
  }
  return Value(std::move(o));
}

json::Value to_json(const core::TopologyConfig& topology) {
  Object o;
  o.set("kind", Value(core::to_string(topology.kind)));
  o.set("mean_degree", Value(topology.mean_degree));
  if (topology.kind == core::TopologyConfig::Kind::kPowerLaw) {
    o.set("alpha", Value(topology.alpha));
    if (topology.locality_jitter > 0.0) {
      o.set("locality_jitter", Value(topology.locality_jitter));
    }
  }
  if (topology.shared_seed) {
    o.set("shared_seed", Value(static_cast<double>(*topology.shared_seed)));
  }
  return Value(std::move(o));
}

json::Value to_json(const response::ResponseSuiteConfig& suite) {
  Object o;
  o.set("detectability_threshold", Value(suite.detectability_threshold));
  for (const response::MechanismInfo& info :
       response::ResponseRegistry::built_ins().mechanisms()) {
    if (std::optional<Value> sub = info.encode(suite)) {
      o.set(info.name, std::move(*sub));
    }
  }
  return Value(std::move(o));
}

json::Value to_json(const core::ScenarioConfig& config) {
  Object o;
  o.set("name", Value(config.name));
  o.set("population", Value(config.population));
  o.set("susceptible_fraction", Value(config.susceptible_fraction));
  o.set("initial_infected", Value(config.initial_infected));
  o.set("topology", to_json(config.topology));
  o.set("eventual_acceptance", Value(config.eventual_acceptance));
  o.set("read_delay_mean", Value(util::format_duration(config.read_delay_mean)));
  o.set("decision_cutoff", Value(config.decision_cutoff));
  o.set("delivery_delay_mean", Value(util::format_duration(config.delivery_delay_mean)));
  o.set("virus", to_json(config.virus));
  if (config.proximity) {
    Object proximity;
    proximity.set("grid_width", Value(config.proximity->grid_width));
    proximity.set("grid_height", Value(config.proximity->grid_height));
    proximity.set("dwell_mean", Value(util::format_duration(config.proximity->dwell_mean)));
    proximity.set("scan_interval_mean",
                  Value(util::format_duration(config.proximity->scan_interval_mean)));
    o.set("proximity", Value(std::move(proximity)));
  }
  o.set("responses", to_json(config.responses));
  o.set("horizon", Value(util::format_duration(config.horizon)));
  o.set("sample_step", Value(util::format_duration(config.sample_step)));
  return Value(std::move(o));
}

virus::VirusProfile virus_from_json(const json::Value& value) {
  return decode_virus(value, "$.virus");
}

core::TopologyConfig topology_from_json(const json::Value& value) {
  return decode_topology(value, "$.topology");
}

response::ResponseSuiteConfig responses_from_json(const json::Value& value) {
  return decode_responses(value, "$.responses");
}

core::ScenarioConfig scenario_from_json(const json::Value& value) {
  ObjectDecoder decoder(value, "$");
  core::ScenarioConfig config;
  config.name = decoder.string("name", config.name);
  config.population =
      static_cast<graph::PhoneId>(decoder.uint32("population", config.population));
  config.susceptible_fraction =
      decoder.number("susceptible_fraction", config.susceptible_fraction);
  config.initial_infected = decoder.uint32("initial_infected", config.initial_infected);
  if (const Value* v = decoder.optional("topology")) {
    config.topology = decode_topology(*v, "$.topology");
  }
  config.eventual_acceptance =
      decoder.number("eventual_acceptance", config.eventual_acceptance);
  config.read_delay_mean = decoder.duration("read_delay_mean", config.read_delay_mean);
  config.decision_cutoff = decoder.integer("decision_cutoff", config.decision_cutoff);
  config.delivery_delay_mean =
      decoder.duration("delivery_delay_mean", config.delivery_delay_mean);
  if (const Value* v = decoder.optional("virus")) {
    config.virus = decode_virus(*v, "$.virus");
  }
  if (const Value* v = decoder.optional("proximity")) {
    ObjectDecoder sub(*v, "$.proximity");
    core::ProximityChannelConfig proximity;
    proximity.grid_width = sub.uint32("grid_width", proximity.grid_width);
    proximity.grid_height = sub.uint32("grid_height", proximity.grid_height);
    proximity.dwell_mean = sub.duration("dwell_mean", proximity.dwell_mean);
    proximity.scan_interval_mean =
        sub.duration("scan_interval_mean", proximity.scan_interval_mean);
    sub.finish();
    config.proximity = proximity;
  }
  if (const Value* v = decoder.optional("responses")) {
    config.responses = decode_responses(*v, "$.responses");
  }
  config.horizon = decoder.duration("horizon", config.horizon);
  config.sample_step = decoder.duration("sample_step", config.sample_step);
  decoder.finish();
  config.validate().throw_if_invalid();
  return config;
}

core::ScenarioConfig scenario_from_text(const std::string& text) {
  return scenario_from_json(json::parse(text));
}

core::ScenarioConfig load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open scenario file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return scenario_from_text(buffer.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void save_scenario_file(const core::ScenarioConfig& config, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write scenario file '" + path + "'");
  out << json::stringify(to_json(config), 2) << '\n';
  if (!out) throw std::runtime_error("error writing scenario file '" + path + "'");
}

}  // namespace mvsim::config
