// Integration tests: full simulations asserting the paper's qualitative
// claims on reduced populations (fast enough for CI; the bench binaries
// reproduce the full-scale figures).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "core/presets.h"
#include "core/runner.h"
#include "core/simulation.h"

namespace mvsim::core {
namespace {

/// Paper-shaped scenario scaled down 4x for test speed: 250 phones,
/// mean contact-list size 20.
ScenarioConfig scaled_scenario(const virus::VirusProfile& profile) {
  ScenarioConfig config = baseline_scenario(profile);
  config.population = 250;
  config.topology.mean_degree = 20.0;
  return config;
}

ExperimentResult run(const ScenarioConfig& config, int reps = 5, std::uint64_t seed = 7777) {
  RunnerOptions options;
  options.replications = reps;
  options.master_seed = seed;
  return run_experiment(config, options);
}

TEST(Baseline, AllVirusesApproachTheExpectedPlateau) {
  // 250 x 0.8 x 0.40 = 80 expected infections at saturation.
  for (const auto& profile : virus::paper_virus_suite()) {
    ScenarioConfig config = scaled_scenario(profile);
    if (profile.name == "Virus 4") config.horizon = SimTime::days(24.0);  // slowest to settle
    ExperimentResult result = run(config);
    EXPECT_NEAR(result.final_infections.mean(), config.expected_unrestrained_plateau(),
                config.expected_unrestrained_plateau() * 0.25)
        << profile.name;
  }
}

TEST(Baseline, VirusSpeedOrderingMatchesFigure1) {
  // Time for the mean curve to reach half the expected plateau:
  // Virus 3 fastest, Virus 2 next, Viruses 1 and 4 slowest.
  //
  // The Virus 1 / Virus 2 ordering depends on the ratio of contact-list
  // size to population (Virus 1's pace is set by how long one pass over
  // the list takes), so this test runs at the paper's full scale —
  // which is cheap, a Virus 1 replication is ~0.1 s.
  std::map<std::string, SimTime> half_time;
  for (const auto& profile : virus::paper_virus_suite()) {
    // Each virus keeps its own paper horizon (running Virus 3's
    // unlimited firehose for 18 days would only burn CPU; it crosses
    // the half-plateau within its first day).
    ScenarioConfig config = baseline_scenario(profile);
    config.sample_step = SimTime::minutes(30.0);
    ExperimentResult result = run(config, 3);
    half_time[profile.name] =
        result.curve.mean_first_time_at_or_above(config.expected_unrestrained_plateau() / 2.0);
  }
  // Virus 1 and Virus 2 have statistically overlapping half-times (in
  // the paper as well: Virus 2 hits 135 infections at ~2 days, about
  // when Virus 1 does); the robust orderings are 3 << {1,2} << 4.
  EXPECT_LT(half_time["Virus 3"], half_time["Virus 2"]);
  EXPECT_LT(half_time["Virus 3"], half_time["Virus 1"]);
  EXPECT_LT(half_time["Virus 1"], half_time["Virus 4"]);
  EXPECT_LT(half_time["Virus 2"], half_time["Virus 4"]);
  EXPECT_LT(half_time["Virus 3"], SimTime::hours(24.0)) << "Virus 3 saturates within a day";
}

TEST(Baseline, Virus2CurveIsStepLike) {
  // Between day boundaries the aligned-burst virus gains little; across
  // a boundary it jumps. Compare growth in the two halves of day 2.
  ScenarioConfig config = scaled_scenario(virus::virus2());
  config.sample_step = SimTime::hours(1.0);
  ExperimentResult result = run(config, 8);
  double start_day2 = result.curve.mean_at(SimTime::hours(24.0));
  double mid_day2 = result.curve.mean_at(SimTime::hours(30.0));
  double end_day2 = result.curve.mean_at(SimTime::hours(47.0));
  double burst_growth = mid_day2 - start_day2;   // includes the day-2 burst wave
  double quiet_growth = end_day2 - mid_day2;     // budget exhausted: near-flat
  EXPECT_GT(burst_growth, 4.0 * std::max(quiet_growth, 0.5))
      << "growth concentrates right after each 24-hour boundary";
}

TEST(GatewayScanStudy, PromptResponseContainsVirus1) {
  ScenarioConfig baseline = scaled_scenario(virus::virus1());
  ExperimentResult base = run(baseline);

  auto scan_config = [&](SimTime delay) {
    ScenarioConfig c = baseline;
    response::GatewayScanConfig scan;
    scan.activation_delay = delay;
    c.responses.gateway_scan = scan;
    return c;
  };
  ExperimentResult fast = run(scan_config(SimTime::hours(6.0)));
  ExperimentResult slow = run(scan_config(SimTime::hours(24.0)));

  EXPECT_LT(fast.final_infections.mean(), slow.final_infections.mean());
  // At the test's reduced scale (contact lists of 20) the virus re-spams
  // each contact 4x faster than at paper scale, so the 24-hour response
  // contains less than the paper's 25%; the full-scale bench reproduces
  // the paper's ratios.
  EXPECT_LT(slow.final_infections.mean(), 0.75 * base.final_infections.mean());
  EXPECT_LT(fast.final_infections.mean(), 0.25 * base.final_infections.mean())
      << "6-hour signature turnaround contains the infection to a small fraction";
}

TEST(GatewayScanStudy, ScanCannotCatchVirus3) {
  ScenarioConfig config = scaled_scenario(virus::virus3());
  response::GatewayScanConfig scan;
  scan.activation_delay = SimTime::hours(6.0);
  config.responses.gateway_scan = scan;
  ExperimentResult with_scan = run(config);
  ExperimentResult base = run(scaled_scenario(virus::virus3()));
  EXPECT_GT(with_scan.final_infections.mean(), 0.85 * base.final_infections.mean())
      << "Virus 3 penetrates the population before any 6-hour response";
}

TEST(DetectionStudy, HigherAccuracySlowsVirus2More) {
  auto detection_config = [&](double accuracy) {
    ScenarioConfig c = scaled_scenario(virus::virus2());
    response::GatewayDetectionConfig detection;
    detection.accuracy = accuracy;
    c.responses.gateway_detection = detection;
    return c;
  };
  ExperimentResult base = run(scaled_scenario(virus::virus2()));
  ExperimentResult lax = run(detection_config(0.80));
  ExperimentResult strict = run(detection_config(0.99));

  // Virus 2's step curve snaps level-crossings to day boundaries, so
  // compare infection levels at a fixed instant instead of
  // time-to-level: three days in, stricter detection = fewer infected.
  SimTime probe = SimTime::days(3.0);
  EXPECT_LT(strict.curve.mean_at(probe), 0.5 * base.curve.mean_at(probe));
  EXPECT_LT(strict.curve.mean_at(probe), lax.curve.mean_at(probe));
  // The strict detector blocks a larger *fraction* of traffic (its
  // absolute count is lower only because it suppresses the epidemic
  // that generates the traffic).
  double strict_fraction = strict.per_replication("net.messages_blocked").mean() /
      strict.per_replication("net.messages_submitted").mean();
  double lax_fraction = lax.per_replication("net.messages_blocked").mean() /
      lax.per_replication("net.messages_submitted").mean();
  EXPECT_GT(strict_fraction, lax_fraction);
  EXPECT_GT(strict.final_infections.mean(), 0.0) << "the detector slows, not stops";
}

TEST(EducationStudy, PlateauScalesWithEventualAcceptance) {
  for (const auto& profile : {virus::virus1(), virus::virus3()}) {
    ScenarioConfig config = scaled_scenario(profile);
    config.horizon = SimTime::days(18.0);
    ExperimentResult base = run(config);

    ScenarioConfig educated = config;
    response::UserEducationConfig education;
    education.eventual_acceptance = 0.20;
    educated.responses.user_education = education;
    ExperimentResult half = run(educated);

    education.eventual_acceptance = 0.10;
    educated.responses.user_education = education;
    ExperimentResult quarter = run(educated);

    EXPECT_LT(half.final_infections.mean(), 0.75 * base.final_infections.mean())
        << profile.name;
    EXPECT_LT(quarter.final_infections.mean(), half.final_infections.mean()) << profile.name;
  }
}

TEST(ImmunizationStudy, FasterPatchingMeansFewerInfections) {
  auto immunization_config = [&](SimTime dev, SimTime deploy) {
    ScenarioConfig c = scaled_scenario(virus::virus4());
    response::ImmunizationConfig immunization;
    immunization.development_time = dev;
    immunization.deployment_duration = deploy;
    c.responses.immunization = immunization;
    return c;
  };
  ExperimentResult base = run(scaled_scenario(virus::virus4()));
  ExperimentResult fast_dev = run(immunization_config(SimTime::hours(24.0), SimTime::hours(1.0)));
  ExperimentResult slow_dev = run(immunization_config(SimTime::hours(48.0), SimTime::hours(1.0)));

  EXPECT_LT(fast_dev.final_infections.mean(), slow_dev.final_infections.mean());
  EXPECT_LT(slow_dev.final_infections.mean(), base.final_infections.mean());
  // Every susceptible phone eventually gets the patch.
  EXPECT_NEAR(fast_dev.patches_applied.mean(), 200.0, 1.0);
}

TEST(ImmunizationStudy, PatchedPopulationEndsUpImmunizedOrSilenced) {
  ScenarioConfig config = scaled_scenario(virus::virus1());
  response::ImmunizationConfig immunization;
  immunization.development_time = SimTime::hours(24.0);
  immunization.deployment_duration = SimTime::hours(6.0);
  config.responses.immunization = immunization;
  Simulation sim(config, 123);
  ReplicationResult r = sim.run();
  const phone::PhoneTable& phones = sim.phones();
  for (graph::PhoneId id = 0; id < config.population; ++id) {
    if (phones.susceptible(id)) {
      EXPECT_TRUE(phones.patched(id)) << "susceptible phone " << id << " missed the rollout";
    }
  }
  EXPECT_EQ(r.metrics.counter_value("core.phones_immunized_healthy") +
                r.metrics.counter_value("core.phones_patched_infected"),
            200u);
}

TEST(MonitoringStudy, ForcedWaitSlowsVirus3) {
  ScenarioConfig base_config = scaled_scenario(virus::virus3());
  base_config.sample_step = SimTime::minutes(15.0);
  ExperimentResult base = run(base_config);

  auto monitoring_config = [&](SimTime wait) {
    ScenarioConfig c = base_config;
    response::MonitoringConfig monitoring;
    monitoring.forced_wait = wait;
    c.responses.monitoring = monitoring;
    return c;
  };
  ExperimentResult wait15 = run(monitoring_config(SimTime::minutes(15.0)));
  ExperimentResult wait60 = run(monitoring_config(SimTime::minutes(60.0)));

  double level = 0.5 * base.final_infections.mean();
  SimTime t_base = base.curve.mean_first_time_at_or_above(level);
  SimTime t_15 = wait15.curve.mean_first_time_at_or_above(level);
  EXPECT_LT(t_base + SimTime::hours(2.0), t_15)
      << "monitoring buys hours against the rapid virus";
  EXPECT_LE(wait60.curve.mean_at(SimTime::hours(12.0)), wait15.curve.mean_at(SimTime::hours(12.0)))
      << "longer forced waits slow the spread at least as much";
  EXPECT_GT(wait15.per_replication("response.monitoring.phones_flagged").mean(), 0.0);
}

TEST(MonitoringStudy, SelfThrottledVirusesSlipUnderMonitoring) {
  // Viruses 1 and 4 never even trip the detector (<= 2 messages/hour).
  for (const auto& profile : {virus::virus1(), virus::virus4()}) {
    ScenarioConfig config = scaled_scenario(profile);
    config.responses.monitoring = response::MonitoringConfig{};
    ExperimentResult result = run(config, 3);
    EXPECT_DOUBLE_EQ(result.per_replication("response.monitoring.phones_flagged").mean(), 0.0)
        << profile.name << " sends at most ~2 messages/hour, under the 5/hour threshold";
  }
  // Virus 2's burst can be flagged, but a 30-minute forced wait barely
  // constrains a virus that needs only 30 sends per day: the infection
  // outcome matches the unmonitored baseline (paper: "ineffectual").
  ScenarioConfig config = scaled_scenario(virus::virus2());
  ExperimentResult base = run(config, 4);
  config.responses.monitoring = response::MonitoringConfig{};
  ExperimentResult monitored = run(config, 4);
  EXPECT_GT(monitored.final_infections.mean(), 0.85 * base.final_infections.mean());
}

TEST(BlacklistStudy, LowThresholdSuppressesVirus3) {
  ScenarioConfig base_config = scaled_scenario(virus::virus3());
  ExperimentResult base = run(base_config);

  auto blacklist_config = [&](std::uint32_t threshold) {
    ScenarioConfig c = base_config;
    response::BlacklistConfig blacklist;
    blacklist.message_threshold = threshold;
    c.responses.blacklist = blacklist;
    return c;
  };
  ExperimentResult strict = run(blacklist_config(10));
  ExperimentResult lax = run(blacklist_config(40));

  EXPECT_LT(strict.final_infections.mean(), 0.5 * base.final_infections.mean());
  EXPECT_LT(strict.final_infections.mean(), lax.final_infections.mean());
  EXPECT_GT(strict.per_replication("response.blacklist.phones_blacklisted").mean(), 0.0);
}

TEST(BlacklistStudy, Virus2EvadesBlacklisting) {
  // The evasion needs contact lists larger than the daily message
  // budget (then each counted message carries several recipients), so
  // this test keeps the paper's mean degree of 80.
  ScenarioConfig config = scaled_scenario(virus::virus2());
  config.topology.mean_degree = 80.0;
  response::BlacklistConfig blacklist;
  blacklist.message_threshold = 10;
  config.responses.blacklist = blacklist;
  ExperimentResult with_blacklist = run(config);
  ScenarioConfig base_config = scaled_scenario(virus::virus2());
  base_config.topology.mean_degree = 80.0;
  ExperimentResult base = run(base_config);
  EXPECT_GT(with_blacklist.final_infections.mean(), 0.8 * base.final_infections.mean())
      << "multi-recipient messages defeat per-message counting (paper §5.2)";
}

TEST(DefenseInDepth, CombiningMechanismsBeatsEither) {
  // Paper §6 future work: a slowing mechanism (monitoring) buys time
  // for a stopping mechanism (gateway scan) against the fast virus.
  ScenarioConfig base_config = scaled_scenario(virus::virus3());
  ExperimentResult base = run(base_config);

  ScenarioConfig scan_only = base_config;
  response::GatewayScanConfig scan;
  scan.activation_delay = SimTime::hours(6.0);
  scan_only.responses.gateway_scan = scan;
  ExperimentResult only_scan = run(scan_only);

  ScenarioConfig combined = scan_only;
  response::MonitoringConfig monitoring;
  monitoring.forced_wait = SimTime::minutes(30.0);
  combined.responses.monitoring = monitoring;
  ExperimentResult both = run(combined);

  EXPECT_LT(both.final_infections.mean(), 0.7 * only_scan.final_infections.mean());
  EXPECT_LT(both.final_infections.mean(), 0.7 * base.final_infections.mean());
}

TEST(Scaling, DoublingPopulationScalesThePlateau) {
  // Paper §5.3: "results scale nicely to larger population sizes".
  ScenarioConfig small = scaled_scenario(virus::virus1());
  ScenarioConfig big = small;
  big.population = 500;
  ExperimentResult small_result = run(small, 4);
  ExperimentResult big_result = run(big, 4);
  double small_fraction = small_result.final_infections.mean() / 250.0;
  double big_fraction = big_result.final_infections.mean() / 500.0;
  EXPECT_NEAR(small_fraction, big_fraction, 0.08)
      << "penetration fraction is population-invariant";
}

}  // namespace
}  // namespace mvsim::core
