// Combined-mechanism suite test: all six paper mechanisms (plus the
// rate-limiter extension) enabled in ONE simulation.
//
// The paper only evaluates mechanisms in isolation; this test pins
// down what the pluggable architecture must guarantee when they stack:
// activation ordering follows each mechanism's configured delay from
// the shared detectability instant, and every mechanism's counters are
// its own (enabling the others does not bleed into them).
#include <gtest/gtest.h>


#include "core/presets.h"
#include "core/simulation.h"
#include "response/blacklist.h"
#include "response/gateway_detection.h"
#include "response/gateway_scan.h"
#include "response/immunization.h"
#include "response/monitoring.h"
#include "response/rate_limiter.h"
#include "response/suite.h"
#include "virus/profile.h"

namespace mvsim::core {
namespace {

/// Virus 3 (random dialer, ~60 msgs/hour) with every mechanism on,
/// activation delays staggered so the ordering is observable.
ScenarioConfig everything_scenario() {
  ScenarioConfig config = baseline_scenario(virus::virus3());
  config.name = "everything";

  response::GatewayScanConfig scan;
  scan.activation_delay = SimTime::hours(2.0);
  config.responses.gateway_scan = scan;

  response::GatewayDetectionConfig detection;
  detection.accuracy = 0.95;
  detection.analysis_period = SimTime::hours(1.0);
  config.responses.gateway_detection = detection;

  response::UserEducationConfig education;
  education.eventual_acceptance = 0.20;
  config.responses.user_education = education;

  response::ImmunizationConfig immunization;
  immunization.development_time = SimTime::hours(4.0);
  immunization.deployment_duration = SimTime::hours(1.0);
  config.responses.immunization = immunization;

  // The two dissemination-point throttles interact when stacked: each
  // caps the send rate the other observes. Parameters are chosen so
  // both still trip against Virus 3 (~1 msg/min): monitoring flags at
  // the 6th in-window message and its 5-minute forced wait still lets
  // a flagged phone accumulate the 8 in-window messages the rate
  // limiter needs.
  response::MonitoringConfig monitoring;
  monitoring.forced_wait = SimTime::minutes(5.0);
  config.responses.monitoring = monitoring;
  config.responses.blacklist = response::BlacklistConfig{};
  response::RateLimiterConfig rate_limiter;
  rate_limiter.max_messages_per_window = 8;
  config.responses.rate_limiter = rate_limiter;

  config.horizon = SimTime::hours(12.0);
  return config;
}

template <typename Mechanism>
const Mechanism& mechanism_as(const Simulation& simulation, const char* name) {
  const response::ResponseMechanism* found = simulation.responses().find(name);
  EXPECT_NE(found, nullptr) << name << " not built";
  const auto* typed = dynamic_cast<const Mechanism*>(found);
  EXPECT_NE(typed, nullptr) << name << " has unexpected concrete type";
  return *typed;
}

TEST(ResponseSuiteSimulation, AllMechanismsBuildAndEducationStaysStanding) {
  ScenarioConfig config = everything_scenario();
  EXPECT_EQ(config.responses.enabled_count(), 7);
  Simulation simulation(config, /*replication_seed=*/42);
  // user_education is a standing condition folded into the consent
  // model; the six event-driven mechanisms become hook objects.
  EXPECT_EQ(simulation.responses().mechanisms().size(), 6u);
  EXPECT_EQ(simulation.responses().find("user_education"), nullptr);
}

TEST(ResponseSuiteSimulation, ActivationFollowsConfiguredDelaysFromOneDetection) {
  ScenarioConfig config = everything_scenario();
  Simulation simulation(config, /*replication_seed=*/42);
  ReplicationResult result = simulation.run();

  // Virus 3 floods the gateway, so the threshold is crossed early.
  ASSERT_TRUE(result.detected_at.is_finite());
  SimTime detected = result.detected_at;

  const auto& scan = mechanism_as<response::GatewayScan>(simulation, "gateway_scan");
  const auto& detection =
      mechanism_as<response::GatewayDetection>(simulation, "gateway_detection");
  const auto& immunization =
      mechanism_as<response::Immunization>(simulation, "immunization");

  // Each mechanism measures its own delay from the SAME detectability
  // instant; with 1h < 2h < 4h the activations are strictly ordered.
  EXPECT_TRUE(detection.active());
  EXPECT_TRUE(scan.active());
  EXPECT_EQ(scan.activated_at(), detected + SimTime::hours(2.0));
  EXPECT_TRUE(immunization.deployment_started());
  EXPECT_EQ(immunization.deployment_begins_at(), detected + SimTime::hours(4.0));
  EXPECT_LT(scan.activated_at(), immunization.deployment_begins_at());
  EXPECT_EQ(immunization.deployment_ends_at(),
            immunization.deployment_begins_at() + SimTime::hours(1.0));
}

TEST(ResponseSuiteSimulation, CountersDoNotInterfere) {
  ScenarioConfig config = everything_scenario();
  Simulation simulation(config, /*replication_seed=*/42);
  ReplicationResult result = simulation.run();

  const auto& scan = mechanism_as<response::GatewayScan>(simulation, "gateway_scan");
  const auto& detection =
      mechanism_as<response::GatewayDetection>(simulation, "gateway_detection");
  const auto& monitoring = mechanism_as<response::Monitoring>(simulation, "monitoring");
  const auto& blacklist = mechanism_as<response::Blacklist>(simulation, "blacklist");
  const auto& limiter = mechanism_as<response::RateLimiter>(simulation, "rate_limiter");

  // Each mechanism's published counter is its own count, and the rate
  // limiter's sits beside the others without displacing any.
  const metrics::Snapshot& m = result.metrics;
  EXPECT_EQ(m.counter_value("response.monitoring.phones_flagged"), monitoring.flagged_count());
  EXPECT_EQ(m.counter_value("response.blacklist.phones_blacklisted"),
            blacklist.blacklisted_count());
  EXPECT_EQ(m.counter_value("response.rate_limiter.phones_limited"), limiter.phones_limited());

  // Virus 3 is loud enough to trip every dissemination-point counter.
  EXPECT_GT(monitoring.flagged_count(), 0u);
  EXPECT_GT(blacklist.blacklisted_count(), 0u);
  EXPECT_GT(limiter.phones_limited(), 0u);

  // Both gateway filters act once active, and their per-mechanism stop
  // counts add up to exactly the gateway's blocked total — nothing is
  // double-counted across the filter chain.
  const std::uint64_t blocked = m.counter_value("net.messages_blocked");
  EXPECT_GT(blocked, 0u);
  EXPECT_EQ(scan.messages_stopped() + detection.messages_stopped(), blocked);
}

TEST(ResponseSuiteSimulation, SuiteRunBeatsEveryCurveMilestone) {
  // Sanity: with everything enabled the outbreak must be contained far
  // below the unrestrained plateau (~800 susceptible phones).
  ScenarioConfig config = everything_scenario();
  Simulation simulation(config, /*replication_seed=*/7);
  ReplicationResult result = simulation.run();
  EXPECT_LT(result.total_infected, 400u);
  EXPECT_GT(result.total_infected, 0u);
}

}  // namespace
}  // namespace mvsim::core
