// Unit tests for src/response: the detectability monitor and every
// response mechanism in isolation.
//
// Mechanisms are constructed from their configs alone; each test wires
// the instance the way core::SimulationContext would — on_build with a
// BuildContext, plus a detector callback forwarding to
// on_detectability_crossed — but by hand, so a failure points at the
// mechanism rather than the dispatch layer.
#include <gtest/gtest.h>

#include "des/scheduler.h"
#include "metrics/registry.h"
#include "net/gateway.h"
#include "response/blacklist.h"
#include "response/detectability.h"
#include "response/gateway_detection.h"
#include "response/gateway_scan.h"
#include "response/immunization.h"
#include "response/monitoring.h"
#include "response/rate_limiter.h"
#include "response/registry.h"
#include "response/suite.h"
#include "response/user_education.h"
#include "rng/stream.h"

namespace mvsim::response {
namespace {

net::MmsMessage infected(net::PhoneId sender) {
  net::MmsMessage m;
  m.sender = sender;
  m.recipients = {{sender + 1, true}};
  m.infected = true;
  return m;
}

net::MmsMessage clean(net::PhoneId sender) {
  net::MmsMessage m = infected(sender);
  m.infected = false;
  return m;
}

/// Wires `mechanism` to scheduler/stream/detector the way the core's
/// dispatch context would.
void wire(ResponseMechanism& mechanism, des::Scheduler& scheduler,
          DetectabilityMonitor& monitor, rng::Stream* stream = nullptr) {
  BuildContext build;
  build.scheduler = &scheduler;
  build.response_stream = stream;
  build.detector = &monitor;
  mechanism.on_build(build);
  monitor.on_detected([&mechanism](SimTime at) { mechanism.on_detectability_crossed(at); });
}

TEST(DetectabilityMonitor, FiresAtThreshold) {
  DetectabilityMonitor monitor(3);
  SimTime fired_at = SimTime::infinity();
  monitor.on_detected([&](SimTime t) { fired_at = t; });
  monitor.on_submitted(infected(0), SimTime::minutes(1.0));
  monitor.on_submitted(infected(0), SimTime::minutes(2.0));
  EXPECT_FALSE(monitor.detected());
  monitor.on_submitted(infected(0), SimTime::minutes(3.0));
  EXPECT_TRUE(monitor.detected());
  EXPECT_EQ(fired_at, SimTime::minutes(3.0));
  EXPECT_EQ(monitor.detected_at(), SimTime::minutes(3.0));
}

TEST(DetectabilityMonitor, IgnoresCleanMessages) {
  DetectabilityMonitor monitor(1);
  monitor.on_submitted(clean(0), SimTime::minutes(1.0));
  EXPECT_FALSE(monitor.detected());
  EXPECT_EQ(monitor.infected_messages_seen(), 0u);
}

TEST(DetectabilityMonitor, FiresOnlyOnce) {
  DetectabilityMonitor monitor(1);
  int fires = 0;
  monitor.on_detected([&](SimTime) { ++fires; });
  monitor.on_submitted(infected(0), SimTime::minutes(1.0));
  monitor.on_submitted(infected(0), SimTime::minutes(2.0));
  EXPECT_EQ(fires, 1);
}

TEST(DetectabilityMonitor, RegistrationAfterDetectionThrows) {
  DetectabilityMonitor monitor(1);
  monitor.on_submitted(infected(0), SimTime::minutes(1.0));
  EXPECT_THROW(monitor.on_detected([](SimTime) {}), std::logic_error);
}

TEST(DetectabilityMonitor, ZeroThresholdRejected) {
  EXPECT_THROW(DetectabilityMonitor(0), std::invalid_argument);
}

TEST(GatewayScan, InactiveUntilDelayElapses) {
  des::Scheduler scheduler;
  DetectabilityMonitor monitor(1);
  GatewayScanConfig config;
  config.activation_delay = SimTime::hours(6.0);
  GatewayScan scan(config);
  wire(scan, scheduler, monitor);

  EXPECT_EQ(scan.inspect(infected(0), scheduler.now()), net::DeliveryFilter::Decision::kDeliver);
  monitor.on_submitted(infected(0), scheduler.now());  // detect at t=0
  scheduler.run_until(SimTime::hours(5.9));
  EXPECT_FALSE(scan.active());
  EXPECT_EQ(scan.inspect(infected(0), scheduler.now()), net::DeliveryFilter::Decision::kDeliver);
  scheduler.run_until(SimTime::hours(6.0));
  EXPECT_TRUE(scan.active());
  EXPECT_EQ(scan.activated_at(), SimTime::hours(6.0));
  EXPECT_EQ(scan.inspect(infected(0), scheduler.now()), net::DeliveryFilter::Decision::kBlock);
  EXPECT_EQ(scan.messages_stopped(), 1u);
}

TEST(GatewayScan, NeverBlocksCleanTraffic) {
  des::Scheduler scheduler;
  DetectabilityMonitor monitor(1);
  GatewayScan scan(GatewayScanConfig{SimTime::zero()});
  wire(scan, scheduler, monitor);
  monitor.on_submitted(infected(0), scheduler.now());
  scheduler.run_to_quiescence();
  EXPECT_TRUE(scan.active());
  EXPECT_EQ(scan.inspect(clean(0), scheduler.now()), net::DeliveryFilter::Decision::kDeliver);
}

TEST(GatewayScan, NeverActivatesWithoutDetection) {
  des::Scheduler scheduler;
  DetectabilityMonitor monitor(100);
  GatewayScan scan(GatewayScanConfig{SimTime::hours(1.0)});
  wire(scan, scheduler, monitor);
  scheduler.run_until(SimTime::days(10.0));
  EXPECT_FALSE(scan.active());
}

TEST(GatewayScan, RejectsNegativeDelay) {
  GatewayScanConfig config;
  config.activation_delay = SimTime::minutes(-1.0);
  EXPECT_THROW(GatewayScan scan(config), std::invalid_argument);
}

TEST(GatewayScan, DetectabilityBeforeBuildThrows) {
  GatewayScan scan(GatewayScanConfig{});
  EXPECT_THROW(scan.on_detectability_crossed(SimTime::zero()), std::logic_error);
}

TEST(GatewayDetection, BlocksAtConfiguredAccuracy) {
  des::Scheduler scheduler;
  rng::Stream stream(3);
  DetectabilityMonitor monitor(1);
  GatewayDetectionConfig config;
  config.accuracy = 0.9;
  config.analysis_period = SimTime::zero();
  GatewayDetection detection(config);
  wire(detection, scheduler, monitor, &stream);
  monitor.on_submitted(infected(0), scheduler.now());
  scheduler.run_to_quiescence();
  ASSERT_TRUE(detection.active());
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) (void)detection.inspect(infected(0), scheduler.now());
  double block_rate =
      static_cast<double>(detection.messages_stopped()) / static_cast<double>(kN);
  EXPECT_NEAR(block_rate, 0.9, 0.01);
  EXPECT_EQ(detection.messages_stopped() + detection.messages_missed(),
            static_cast<std::uint64_t>(kN));
}

TEST(GatewayDetection, PassesEverythingBeforeAnalysisEnds) {
  des::Scheduler scheduler;
  rng::Stream stream(4);
  DetectabilityMonitor monitor(1);
  GatewayDetectionConfig config;
  config.analysis_period = SimTime::hours(6.0);
  GatewayDetection detection(config);
  wire(detection, scheduler, monitor, &stream);
  monitor.on_submitted(infected(0), scheduler.now());
  scheduler.run_until(SimTime::hours(3.0));
  EXPECT_FALSE(detection.active());
  EXPECT_EQ(detection.inspect(infected(0), scheduler.now()),
            net::DeliveryFilter::Decision::kDeliver);
}

TEST(GatewayDetection, PerfectAccuracyBlocksAll) {
  des::Scheduler scheduler;
  rng::Stream stream(5);
  DetectabilityMonitor monitor(1);
  GatewayDetectionConfig config;
  config.accuracy = 1.0;
  config.analysis_period = SimTime::zero();
  GatewayDetection detection(config);
  wire(detection, scheduler, monitor, &stream);
  monitor.on_submitted(infected(0), scheduler.now());
  scheduler.run_to_quiescence();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(detection.inspect(infected(0), scheduler.now()),
              net::DeliveryFilter::Decision::kBlock);
  }
}

TEST(GatewayDetection, ConfigValidation) {
  GatewayDetectionConfig config;
  config.accuracy = 1.5;
  EXPECT_FALSE(config.validate().ok());
  config = GatewayDetectionConfig{};
  config.analysis_period = SimTime::minutes(-1.0);
  EXPECT_FALSE(config.validate().ok());
}

TEST(UserEducation, ProducesRequestedEventualAcceptance) {
  UserEducationConfig config;
  config.eventual_acceptance = 0.20;
  phone::ConsentModel model = apply_user_education(config);
  EXPECT_NEAR(model.eventual_acceptance_probability(), 0.20, 1e-9);
  config.eventual_acceptance = 0.10;
  EXPECT_NEAR(apply_user_education(config).eventual_acceptance_probability(), 0.10, 1e-9);
}

TEST(UserEducation, EducatedFactorIsLowerThanBaseline) {
  UserEducationConfig config;
  config.eventual_acceptance = 0.20;
  EXPECT_LT(apply_user_education(config).acceptance_factor(), phone::kPaperAcceptanceFactor);
}

TEST(UserEducation, ConfigValidation) {
  UserEducationConfig config;
  config.eventual_acceptance = 0.9;
  EXPECT_FALSE(config.validate().ok());
  config.eventual_acceptance = -0.1;
  EXPECT_FALSE(config.validate().ok());
}

TEST(Immunization, RollsOutUniformlyAfterDevelopment) {
  des::Scheduler scheduler;
  rng::Stream stream(6);
  DetectabilityMonitor monitor(1);
  ImmunizationConfig config;
  config.development_time = SimTime::hours(24.0);
  config.deployment_duration = SimTime::hours(6.0);
  std::vector<net::PhoneId> patched;
  std::vector<net::PhoneId> targets = {0, 1, 2, 3, 4};
  Immunization immunization(config);
  BuildContext build;
  build.scheduler = &scheduler;
  build.response_stream = &stream;
  build.detector = &monitor;
  build.patch_targets = &targets;
  build.apply_patch = [&](net::PhoneId id) { patched.push_back(id); };
  immunization.on_build(build);
  monitor.on_detected([&](SimTime at) { immunization.on_detectability_crossed(at); });
  monitor.on_submitted(infected(9), scheduler.now());  // detect at t=0
  scheduler.run_until(SimTime::hours(23.9));
  EXPECT_FALSE(immunization.deployment_started());
  EXPECT_TRUE(patched.empty());
  scheduler.run_until(SimTime::hours(30.0));
  EXPECT_TRUE(immunization.deployment_started());
  EXPECT_EQ(patched.size(), 5u);
  EXPECT_EQ(immunization.patches_applied(), 5u);
  EXPECT_EQ(immunization.deployment_begins_at(), SimTime::hours(24.0));
  EXPECT_EQ(immunization.deployment_ends_at(), SimTime::hours(30.0));
}

TEST(Immunization, InstantDeploymentPatchesAtOnce) {
  des::Scheduler scheduler;
  rng::Stream stream(7);
  DetectabilityMonitor monitor(1);
  ImmunizationConfig config;
  config.development_time = SimTime::hours(1.0);
  config.deployment_duration = SimTime::zero();
  int patched = 0;
  std::vector<net::PhoneId> targets = {0, 1, 2};
  Immunization immunization(config);
  BuildContext build;
  build.scheduler = &scheduler;
  build.response_stream = &stream;
  build.patch_targets = &targets;
  build.apply_patch = [&](net::PhoneId) { ++patched; };
  immunization.on_build(build);
  monitor.on_detected([&](SimTime at) { immunization.on_detectability_crossed(at); });
  monitor.on_submitted(infected(9), scheduler.now());
  scheduler.run_until(SimTime::hours(1.0));
  EXPECT_EQ(patched, 3);
}

TEST(Immunization, NoDetectionMeansNoPatches) {
  des::Scheduler scheduler;
  rng::Stream stream(8);
  DetectabilityMonitor monitor(100);
  int patched = 0;
  std::vector<net::PhoneId> targets = {0, 1};
  Immunization immunization{ImmunizationConfig{}};
  BuildContext build;
  build.scheduler = &scheduler;
  build.response_stream = &stream;
  build.patch_targets = &targets;
  build.apply_patch = [&](net::PhoneId) { ++patched; };
  immunization.on_build(build);
  monitor.on_detected([&](SimTime at) { immunization.on_detectability_crossed(at); });
  scheduler.run_until(SimTime::days(30.0));
  EXPECT_EQ(patched, 0);
  EXPECT_FALSE(immunization.deployment_started());
}

TEST(Immunization, FixedDetectionTimeIgnoresTheCrossing) {
  des::Scheduler scheduler;
  rng::Stream stream(10);
  DetectabilityMonitor monitor(1);
  ImmunizationConfig config;
  config.detection_time = SimTime::hours(10.0);
  config.development_time = SimTime::hours(2.0);
  config.deployment_duration = SimTime::zero();
  int patched = 0;
  std::vector<net::PhoneId> targets = {0, 1, 2};
  Immunization immunization(config);
  EXPECT_EQ(immunization.subscribed_hooks(), hook::kNone);
  BuildContext build;
  build.scheduler = &scheduler;
  build.response_stream = &stream;
  build.patch_targets = &targets;
  build.apply_patch = [&](net::PhoneId) { ++patched; };
  immunization.on_build(build);
  // A gateway crossing at t=0 would start development at once; with an
  // out-of-band detection time it changes nothing.
  immunization.on_detectability_crossed(SimTime::zero());
  scheduler.run_until(SimTime::hours(11.9));
  EXPECT_EQ(patched, 0);
  scheduler.run_until(SimTime::hours(12.0));
  EXPECT_EQ(patched, 3);
  EXPECT_EQ(immunization.deployment_begins_at(), SimTime::hours(12.0));
  scheduler.run_until(SimTime::days(5.0));
  EXPECT_EQ(immunization.patches_applied(), 3u) << "one rollout, not two";

  config.detection_time = SimTime::hours(-1.0);
  EXPECT_FALSE(config.validate().ok());
}

TEST(Immunization, BuildRequiresCallbackAndTargets) {
  des::Scheduler scheduler;
  rng::Stream stream(9);
  std::vector<net::PhoneId> targets = {0};
  Immunization immunization{ImmunizationConfig{}};
  BuildContext no_callback;
  no_callback.scheduler = &scheduler;
  no_callback.response_stream = &stream;
  no_callback.patch_targets = &targets;
  EXPECT_THROW(immunization.on_build(no_callback), std::invalid_argument);
  BuildContext no_targets;
  no_targets.scheduler = &scheduler;
  no_targets.response_stream = &stream;
  no_targets.apply_patch = [](net::PhoneId) {};
  EXPECT_THROW(immunization.on_build(no_targets), std::invalid_argument);
}

TEST(Monitoring, FlagsPhoneAboveThreshold) {
  MonitoringConfig config;
  config.window_message_threshold = 3;
  config.forced_wait = SimTime::minutes(15.0);
  Monitoring monitoring(config);
  SimTime t = SimTime::minutes(1.0);
  for (int i = 0; i < 3; ++i) monitoring.on_message_submitted(infected(7), t);
  EXPECT_FALSE(monitoring.is_flagged(7));
  EXPECT_EQ(monitoring.forced_min_gap(7, t), SimTime::zero());
  monitoring.on_message_submitted(infected(7), t);  // 4th message in the window
  EXPECT_TRUE(monitoring.is_flagged(7));
  EXPECT_EQ(monitoring.forced_min_gap(7, t), SimTime::minutes(15.0));
  EXPECT_EQ(monitoring.flagged_count(), 1u);
}

TEST(Monitoring, CountsCleanMessagesToo) {
  MonitoringConfig config;
  config.window_message_threshold = 2;
  Monitoring monitoring(config);
  SimTime t = SimTime::minutes(1.0);
  monitoring.on_message_submitted(clean(7), t);
  monitoring.on_message_submitted(clean(7), t);
  monitoring.on_message_submitted(clean(7), t);
  EXPECT_TRUE(monitoring.is_flagged(7)) << "monitoring cannot tell infected from clean";
}

TEST(Monitoring, WindowResetUnflagsWhenNotPermanent) {
  MonitoringConfig config;
  config.window_message_threshold = 1;
  config.observation_window = SimTime::hours(1.0);
  config.flag_is_permanent = false;
  Monitoring monitoring(config);
  monitoring.on_message_submitted(infected(7), SimTime::minutes(10.0));
  monitoring.on_message_submitted(infected(7), SimTime::minutes(11.0));
  EXPECT_TRUE(monitoring.is_flagged(7));
  // Next window: the flag clears.
  EXPECT_EQ(monitoring.forced_min_gap(7, SimTime::minutes(70.0)), SimTime::zero());
}

TEST(Monitoring, PermanentFlagSurvivesWindows) {
  MonitoringConfig config;
  config.window_message_threshold = 1;
  config.observation_window = SimTime::hours(1.0);
  Monitoring monitoring(config);
  monitoring.on_message_submitted(infected(7), SimTime::minutes(10.0));
  monitoring.on_message_submitted(infected(7), SimTime::minutes(11.0));
  EXPECT_EQ(monitoring.forced_min_gap(7, SimTime::hours(50.0)), config.forced_wait);
}

TEST(Monitoring, PerPhoneIsolation) {
  MonitoringConfig config;
  config.window_message_threshold = 2;
  Monitoring monitoring(config);
  SimTime t = SimTime::minutes(1.0);
  for (int i = 0; i < 5; ++i) monitoring.on_message_submitted(infected(1), t);
  EXPECT_TRUE(monitoring.is_flagged(1));
  EXPECT_FALSE(monitoring.is_flagged(2));
  EXPECT_FALSE(monitoring.is_blocked(1, t)) << "monitoring never blocks outright";
}

TEST(Monitoring, ConfigValidation) {
  MonitoringConfig config;
  config.window_message_threshold = 0;
  EXPECT_FALSE(config.validate().ok());
  config = MonitoringConfig{};
  config.observation_window = SimTime::zero();
  EXPECT_FALSE(config.validate().ok());
  config = MonitoringConfig{};
  config.forced_wait = SimTime::minutes(-5.0);
  EXPECT_FALSE(config.validate().ok());
}

TEST(Blacklist, BlocksAtThreshold) {
  BlacklistConfig config;
  config.message_threshold = 3;
  Blacklist blacklist(config);
  SimTime t = SimTime::minutes(1.0);
  blacklist.on_message_submitted(infected(5), t);
  blacklist.on_message_submitted(infected(5), t);
  EXPECT_FALSE(blacklist.is_blocked(5, t));
  blacklist.on_message_submitted(infected(5), t);
  EXPECT_TRUE(blacklist.is_blocked(5, t));
  EXPECT_TRUE(blacklist.is_blacklisted(5));
  EXPECT_EQ(blacklist.blacklisted_count(), 1u);
}

TEST(Blacklist, IgnoresCleanMessages) {
  BlacklistConfig config;
  config.message_threshold = 1;
  Blacklist blacklist(config);
  SimTime t = SimTime::minutes(1.0);
  for (int i = 0; i < 10; ++i) blacklist.on_message_submitted(clean(5), t);
  EXPECT_FALSE(blacklist.is_blacklisted(5)) << "blacklist counts only suspected messages";
}

TEST(Blacklist, InvalidRecipientsStillCount) {
  // A random-dialing virus's messages to dead numbers still transit the
  // provider's switch and count toward suspicion (paper §5.2).
  BlacklistConfig config;
  config.message_threshold = 2;
  Blacklist blacklist(config);
  net::MmsMessage m;
  m.sender = 5;
  m.recipients = {{0, false}};
  m.infected = true;
  SimTime t = SimTime::minutes(1.0);
  blacklist.on_message_submitted(m, t);
  blacklist.on_message_submitted(m, t);
  EXPECT_TRUE(blacklist.is_blacklisted(5));
}

TEST(Blacklist, NeverImposesGap) {
  Blacklist blacklist{BlacklistConfig{}};
  EXPECT_EQ(blacklist.forced_min_gap(1, SimTime::zero()), SimTime::zero());
}

TEST(Blacklist, MultiRecipientMessageCountsOnce) {
  BlacklistConfig config;
  config.message_threshold = 3;
  Blacklist blacklist(config);
  net::MmsMessage burst;
  burst.sender = 5;
  burst.infected = true;
  for (net::PhoneId i = 0; i < 100; ++i) burst.recipients.push_back({i + 10, true});
  blacklist.on_message_submitted(burst, SimTime::zero());
  EXPECT_FALSE(blacklist.is_blacklisted(5))
      << "Virus 2's evasion: 100 recipients ride one counted message";
}

TEST(Blacklist, ConfigValidation) {
  BlacklistConfig config;
  config.message_threshold = 0;
  EXPECT_FALSE(config.validate().ok());
}

TEST(RateLimiter, HoldsUntilWindowRollsOver) {
  RateLimiterConfig config;
  config.max_messages_per_window = 3;
  config.window = SimTime::hours(1.0);
  RateLimiter limiter(config);
  SimTime t = SimTime::minutes(10.0);
  for (int i = 0; i < 2; ++i) limiter.on_message_submitted(infected(5), t);
  EXPECT_FALSE(limiter.is_at_cap(5, t));
  EXPECT_EQ(limiter.forced_min_gap(5, t), SimTime::zero());
  limiter.on_message_submitted(infected(5), t);  // 3rd: quota exhausted
  EXPECT_TRUE(limiter.is_at_cap(5, t));
  // Gap from the last send (t=10min) to the window boundary (60min).
  EXPECT_EQ(limiter.forced_min_gap(5, t), SimTime::minutes(50.0));
  // Next window: fresh quota.
  SimTime next = SimTime::minutes(70.0);
  EXPECT_FALSE(limiter.is_at_cap(5, next));
  EXPECT_EQ(limiter.forced_min_gap(5, next), SimTime::zero());
  EXPECT_EQ(limiter.phones_limited(), 1u);
  EXPECT_EQ(limiter.windows_capped(), 1u);
}

TEST(RateLimiter, NeverBlocksOutright) {
  RateLimiterConfig config;
  config.max_messages_per_window = 1;
  RateLimiter limiter(config);
  SimTime t = SimTime::minutes(1.0);
  for (int i = 0; i < 10; ++i) limiter.on_message_submitted(infected(5), t);
  EXPECT_FALSE(limiter.is_blocked(5, t)) << "rate limiting holds, never cuts service";
}

TEST(RateLimiter, PerPhoneQuotas) {
  RateLimiterConfig config;
  config.max_messages_per_window = 2;
  RateLimiter limiter(config);
  SimTime t = SimTime::minutes(5.0);
  limiter.on_message_submitted(infected(1), t);
  limiter.on_message_submitted(infected(1), t);
  EXPECT_TRUE(limiter.is_at_cap(1, t));
  EXPECT_FALSE(limiter.is_at_cap(2, t));
  EXPECT_EQ(limiter.forced_min_gap(2, t), SimTime::zero());
}

TEST(RateLimiter, CountsCleanTrafficToo) {
  RateLimiterConfig config;
  config.max_messages_per_window = 2;
  RateLimiter limiter(config);
  SimTime t = SimTime::minutes(5.0);
  limiter.on_message_submitted(clean(1), t);
  limiter.on_message_submitted(clean(1), t);
  EXPECT_TRUE(limiter.is_at_cap(1, t)) << "the cap applies to all traffic, not just infected";
}

TEST(RateLimiter, TickPrunesStaleRecords) {
  RateLimiterConfig config;
  config.max_messages_per_window = 1;
  config.window = SimTime::hours(1.0);
  RateLimiter limiter(config);
  limiter.on_message_submitted(infected(1), SimTime::minutes(5.0));
  EXPECT_TRUE(limiter.is_at_cap(1, SimTime::minutes(5.0)));
  limiter.on_tick(SimTime::hours(5.0));
  // The record is gone, but the ever-limited metric survives pruning.
  EXPECT_EQ(limiter.forced_min_gap(1, SimTime::hours(5.1)), SimTime::zero());
  EXPECT_EQ(limiter.phones_limited(), 1u);
}

TEST(RateLimiter, PublishesMetrics) {
  RateLimiterConfig config;
  config.max_messages_per_window = 1;
  RateLimiter limiter(config);
  limiter.on_message_submitted(infected(3), SimTime::minutes(1.0));
  metrics::Registry registry;
  limiter.on_metrics(registry);
  const metrics::Snapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counter_value("response.rate_limiter.phones_limited"), 1u);
  EXPECT_NE(snapshot.find_counter("response.rate_limiter.windows_capped"), nullptr);
}

TEST(RateLimiter, ConfigValidation) {
  RateLimiterConfig config;
  config.max_messages_per_window = 0;
  EXPECT_FALSE(config.validate().ok());
  config = RateLimiterConfig{};
  config.window = SimTime::zero();
  EXPECT_FALSE(config.validate().ok());
}

TEST(ResponseSuite, CountsEnabledMechanisms) {
  ResponseSuiteConfig suite = no_response();
  EXPECT_FALSE(suite.any_enabled());
  EXPECT_EQ(suite.enabled_count(), 0);
  suite.monitoring = MonitoringConfig{};
  suite.blacklist = BlacklistConfig{};
  EXPECT_TRUE(suite.any_enabled());
  EXPECT_EQ(suite.enabled_count(), 2);
}

TEST(ResponseSuite, ValidationAggregatesSubConfigs) {
  ResponseSuiteConfig suite;
  suite.detectability_threshold = 0;
  EXPECT_FALSE(suite.validate().ok());
  suite = ResponseSuiteConfig{};
  BlacklistConfig bad;
  bad.message_threshold = 0;
  suite.blacklist = bad;
  EXPECT_FALSE(suite.validate().ok());
}

TEST(ResponseSuite, ConsentForSuiteHonorsEducation) {
  ResponseSuiteConfig suite = no_response();
  EXPECT_NEAR(consent_for_suite(suite, 0.40).eventual_acceptance_probability(), 0.40, 1e-9);
  UserEducationConfig education;
  education.eventual_acceptance = 0.10;
  suite.user_education = education;
  EXPECT_NEAR(consent_for_suite(suite, 0.40).eventual_acceptance_probability(), 0.10, 1e-9);
}

TEST(Registry, BuiltInsKeepPaperOrder) {
  const ResponseRegistry& registry = ResponseRegistry::built_ins();
  std::vector<std::string> names;
  for (const MechanismInfo& info : registry.mechanisms()) names.emplace_back(info.name);
  // Registration order is a contract: SimulationContext dispatches in
  // this order, and the golden tests pin it down.
  ASSERT_GE(names.size(), 7u);
  EXPECT_EQ(names[0], "gateway_scan");
  EXPECT_EQ(names[1], "gateway_detection");
  EXPECT_EQ(names[2], "user_education");
  EXPECT_EQ(names[3], "immunization");
  EXPECT_EQ(names[4], "monitoring");
  EXPECT_EQ(names[5], "blacklist");
  EXPECT_EQ(names[6], "rate_limiter");
}

TEST(Registry, FindAndDuplicateRejection) {
  const ResponseRegistry& built_ins = ResponseRegistry::built_ins();
  ASSERT_NE(built_ins.find("blacklist"), nullptr);
  EXPECT_EQ(built_ins.find("no_such_mechanism"), nullptr);

  ResponseRegistry registry;
  registry.register_mechanism(*built_ins.find("blacklist"));
  EXPECT_THROW(registry.register_mechanism(*built_ins.find("blacklist")),
               std::invalid_argument);
}

TEST(Registry, BuildEnabledSkipsStandingConditions) {
  ResponseSuiteConfig suite = no_response();
  suite.user_education = UserEducationConfig{};
  suite.blacklist = BlacklistConfig{};
  auto built = ResponseRegistry::built_ins().build_enabled(suite);
  // user_education builds no event-hook object; only blacklist does.
  ASSERT_EQ(built.size(), 1u);
  EXPECT_STREQ(built[0]->name(), "blacklist");
}

TEST(Registry, MechanismNamesMatchRegistryKeys) {
  // Every buildable mechanism must report the name it is registered
  // under — the registry key doubles as ResponseMechanism::name().
  ResponseSuiteConfig all;
  all.gateway_scan = GatewayScanConfig{};
  all.gateway_detection = GatewayDetectionConfig{};
  all.user_education = UserEducationConfig{};
  all.immunization = ImmunizationConfig{};
  all.monitoring = MonitoringConfig{};
  all.blacklist = BlacklistConfig{};
  all.rate_limiter = RateLimiterConfig{};
  for (const MechanismInfo& info : ResponseRegistry::built_ins().mechanisms()) {
    auto mechanism = info.build(all);
    if (mechanism) {
      EXPECT_STREQ(mechanism->name(), info.name);
    }
  }
}

}  // namespace
}  // namespace mvsim::response
