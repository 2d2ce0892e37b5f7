// Unit + integration tests for src/analysis: sweeps, the §5.3
// diminishing-returns analysis, §6 strategy combinations.
#include <gtest/gtest.h>

#include "analysis/diminishing_returns.h"
#include "analysis/strategy.h"
#include "analysis/sweep.h"
#include "core/presets.h"

namespace mvsim::analysis {
namespace {

/// Small fast scenario: 200 phones, Virus 3 (quick horizon).
core::ScenarioConfig small_v3() {
  core::ScenarioConfig config = core::baseline_scenario(virus::virus3());
  config.population = 200;
  config.topology.mean_degree = 20.0;
  return config;
}

core::RunnerOptions fast_options() {
  core::RunnerOptions options;
  options.replications = 3;
  options.master_seed = 808;
  options.keep_replications = false;
  return options;
}

TEST(Sweep, RunsEveryValueInOrder) {
  SweepResult sweep = run_sweep(
      "blacklist threshold", {10.0, 20.0, 40.0},
      [](double threshold) {
        core::ScenarioConfig config = small_v3();
        response::BlacklistConfig blacklist;
        blacklist.message_threshold = static_cast<std::uint32_t>(threshold);
        config.responses.blacklist = blacklist;
        return config;
      },
      fast_options());
  ASSERT_EQ(sweep.points.size(), 3u);
  EXPECT_DOUBLE_EQ(sweep.points[0].parameter, 10.0);
  EXPECT_DOUBLE_EQ(sweep.points[2].parameter, 40.0);
  EXPECT_EQ(sweep.parameter_name, "blacklist threshold");
  // Lower thresholds contain more.
  EXPECT_LT(sweep.points[0].result.final_infections.mean(),
            sweep.points[2].result.final_infections.mean());
}

TEST(Sweep, RejectsEmptyInput) {
  EXPECT_THROW((void)run_sweep("x", {}, [](double) { return small_v3(); }), std::invalid_argument);
  EXPECT_THROW((void)run_sweep("x", {1.0}, nullptr), std::invalid_argument);
}

/// Builds a sweep point with a given final level (the curve is unused
/// by the analysis, so a 1-cell grid suffices).
SweepPoint make_point(double parameter, double final_level) {
  core::ExperimentResult result(
      stats::AggregatedSeries(SimTime::hours(1.0), SimTime::hours(1.0)));
  result.final_infections.add(final_level);
  return SweepPoint{parameter, std::move(result)};
}

TEST(DiminishingReturns, SyntheticSweepFindsTheKnee) {
  // Hand-built sweep: strengthening from 0 to 3 buys 100, 50 then 2
  // infections per unit — the knee is the third step.
  SweepResult sweep;
  sweep.parameter_name = "strength";
  sweep.points.push_back(make_point(0.0, 300.0));
  sweep.points.push_back(make_point(1.0, 200.0));
  sweep.points.push_back(make_point(2.0, 150.0));
  sweep.points.push_back(make_point(3.0, 148.0));

  DiminishingReturnsReport report = analyze_diminishing_returns(sweep, 320.0);
  ASSERT_EQ(report.gains.size(), 3u);
  EXPECT_DOUBLE_EQ(report.gains[0].infections_avoided, 100.0);
  EXPECT_DOUBLE_EQ(report.gains[1].avoided_per_unit, 50.0);
  EXPECT_TRUE(report.has_knee());
  EXPECT_EQ(report.knee_index, 2u) << "the 2-infection step is past the knee";
  std::string table = to_table(report);
  EXPECT_NE(table.find("diminishing"), std::string::npos);
  EXPECT_NE(table.find("worth it"), std::string::npos);
}

TEST(DiminishingReturns, AllStepsWorthItMeansNoKnee) {
  SweepResult sweep;
  sweep.parameter_name = "strength";
  for (int i = 0; i < 4; ++i) {
    sweep.points.push_back(make_point(i, 300.0 - 80.0 * i));
  }
  DiminishingReturnsReport report = analyze_diminishing_returns(sweep, 320.0);
  EXPECT_FALSE(report.has_knee());
}

TEST(DiminishingReturns, RampUpShapeHasNoFalseKnee) {
  // Convex response (the fig-3 detector shape): early steps buy almost
  // nothing, the last step buys the most. No step after the peak is
  // weak, so there is no knee — returns are still increasing.
  SweepResult sweep;
  sweep.parameter_name = "accuracy";
  sweep.points.push_back(make_point(0.80, 330.0));
  sweep.points.push_back(make_point(0.85, 325.0));  // rate 100
  sweep.points.push_back(make_point(0.90, 315.0));  // rate 200
  sweep.points.push_back(make_point(0.95, 270.0));  // rate 900
  sweep.points.push_back(make_point(0.99, 70.0));   // rate 5000 (peak, last)
  DiminishingReturnsReport report = analyze_diminishing_returns(sweep, 330.0);
  EXPECT_EQ(report.peak_index, 3u);
  EXPECT_FALSE(report.has_knee()) << "weak steps before the peak are ramp-up, not a knee";
  EXPECT_TRUE(report.returns_still_increasing());
  std::string table = to_table(report);
  EXPECT_NE(table.find("ramp-up"), std::string::npos);
  EXPECT_EQ(table.find("diminishing"), std::string::npos);
}

TEST(DiminishingReturns, KneeAfterPeakStillDetected) {
  // Classic concave shape with a weak tail after a mid-sweep peak.
  SweepResult sweep;
  sweep.parameter_name = "strength";
  sweep.points.push_back(make_point(0.0, 300.0));
  sweep.points.push_back(make_point(1.0, 120.0));  // rate 180 (peak)
  sweep.points.push_back(make_point(2.0, 100.0));  // rate 20
  sweep.points.push_back(make_point(3.0, 99.0));   // rate 1
  DiminishingReturnsReport report = analyze_diminishing_returns(sweep, 320.0);
  EXPECT_EQ(report.peak_index, 0u);
  ASSERT_TRUE(report.has_knee());
  EXPECT_EQ(report.knee_index, 1u);
  EXPECT_FALSE(report.returns_still_increasing());
}

TEST(DiminishingReturns, Validation) {
  SweepResult sweep;
  sweep.points.push_back(make_point(0.0, 100.0));
  EXPECT_THROW((void)analyze_diminishing_returns(sweep, 320.0), std::invalid_argument);
  sweep.points.push_back(make_point(1.0, 90.0));
  EXPECT_THROW((void)analyze_diminishing_returns(sweep, 320.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)analyze_diminishing_returns(sweep, 320.0, 1.0), std::invalid_argument);
}

TEST(DiminishingReturns, RealBlacklistSweepHasEarlyKnee) {
  // Against Virus 3, tightening the threshold 40 -> 30 buys little;
  // 20 -> 10 buys a lot. Sweep strongest-last ordering: 40,30,20,10.
  SweepResult sweep = run_sweep(
      "blacklist tightening", {40.0, 30.0, 20.0, 10.0},
      [](double threshold) {
        core::ScenarioConfig config = small_v3();
        response::BlacklistConfig blacklist;
        blacklist.message_threshold = static_cast<std::uint32_t>(threshold);
        config.responses.blacklist = blacklist;
        return config;
      },
      fast_options());
  double baseline = core::run_experiment(small_v3(), fast_options()).final_infections.mean();
  DiminishingReturnsReport report = analyze_diminishing_returns(sweep, baseline);
  ASSERT_EQ(report.gains.size(), 3u);
  // Every step tightens containment (monotone finals).
  EXPECT_GE(report.gains[0].from_final, report.gains[2].to_final);
}

TEST(Strategy, NamesAndCounts) {
  EXPECT_EQ(strategy_name(0), "none");
  EXPECT_EQ(strategy_name(kGatewayScan), "scan");
  EXPECT_EQ(strategy_name(kGatewayScan | kMonitoring), "scan+monitor");
  EXPECT_EQ(strategy_name(kAllMechanisms),
            "scan+detect+educate+patch+monitor+blacklist");
  EXPECT_EQ(mechanism_count(0), 0);
  EXPECT_EQ(mechanism_count(kAllMechanisms), 6);
  EXPECT_EQ(mechanism_count(kUserEducation | kBlacklist), 2);
}

TEST(Strategy, SelectMechanismsHonorsMaskAndKit) {
  response::ResponseSuiteConfig kit;
  kit.gateway_scan = response::GatewayScanConfig{};
  kit.monitoring = response::MonitoringConfig{};
  kit.detectability_threshold = 9;

  response::ResponseSuiteConfig chosen = select_mechanisms(kit, kGatewayScan | kBlacklist);
  EXPECT_TRUE(chosen.gateway_scan.has_value());
  EXPECT_FALSE(chosen.monitoring.has_value());
  EXPECT_FALSE(chosen.blacklist.has_value()) << "blacklist not in the kit";
  EXPECT_EQ(chosen.detectability_threshold, 9u);
}

TEST(Strategy, EvaluateStrategiesFindsTheLayeredWin) {
  // The paper's motivating §6 case: monitoring alone slows, scan alone
  // is too late, together they contain Virus 3.
  core::ScenarioConfig base = small_v3();
  response::ResponseSuiteConfig kit;
  kit.gateway_scan = response::GatewayScanConfig{};
  kit.monitoring = response::MonitoringConfig{};

  StrategyStudy study = evaluate_strategies(base, kit, 2, fast_options());
  ASSERT_EQ(study.outcomes.size(), 4u);  // none, scan, monitor, scan+monitor
  EXPECT_EQ(study.outcomes[0].name, "none");
  EXPECT_DOUBLE_EQ(study.outcomes[0].containment, 0.0);
  const StrategyOutcome* combo = nullptr;
  for (const auto& outcome : study.outcomes) {
    if (outcome.name == "scan+monitor") combo = &outcome;
  }
  ASSERT_NE(combo, nullptr);
  for (const auto& outcome : study.outcomes) {
    if (outcome.mechanisms <= 1) {
      EXPECT_LE(combo->final_infections, outcome.final_infections)
          << "the pair dominates every single mechanism against Virus 3";
    }
  }
  EXPECT_GT(combo->containment, 0.5);
}

TEST(Strategy, ParetoFrontIsNondominatedAndOrdered) {
  core::ScenarioConfig base = small_v3();
  response::ResponseSuiteConfig kit;
  kit.gateway_scan = response::GatewayScanConfig{};
  kit.monitoring = response::MonitoringConfig{};
  kit.blacklist = response::BlacklistConfig{};

  StrategyStudy study = evaluate_strategies(base, kit, 3, fast_options());
  EXPECT_EQ(study.outcomes.size(), 8u);
  ASSERT_FALSE(study.pareto.empty());
  // The empty strategy is always on the front (fewest mechanisms).
  EXPECT_EQ(study.outcomes[study.pareto.front()].mechanisms, 0);
  // Front members must be mutually nondominated.
  for (std::size_t a : study.pareto) {
    for (std::size_t b : study.pareto) {
      if (a == b) continue;
      const auto& oa = study.outcomes[a];
      const auto& ob = study.outcomes[b];
      bool dominates = oa.mechanisms <= ob.mechanisms &&
                       oa.final_infections <= ob.final_infections &&
                       (oa.mechanisms < ob.mechanisms ||
                        oa.final_infections < ob.final_infections);
      EXPECT_FALSE(dominates) << oa.name << " dominates " << ob.name;
    }
  }
}

TEST(Strategy, Validation) {
  core::ScenarioConfig base = small_v3();
  response::ResponseSuiteConfig empty_kit;
  EXPECT_THROW((void)evaluate_strategies(base, empty_kit, 2, fast_options()),
               std::invalid_argument);
  response::ResponseSuiteConfig kit;
  kit.blacklist = response::BlacklistConfig{};
  EXPECT_THROW((void)evaluate_strategies(base, kit, -1, fast_options()),
               std::invalid_argument);
}

TEST(Strategy, MaxZeroMeansBaselineOnly) {
  core::ScenarioConfig base = small_v3();
  response::ResponseSuiteConfig kit;
  kit.blacklist = response::BlacklistConfig{};
  StrategyStudy study = evaluate_strategies(base, kit, 0, fast_options());
  ASSERT_EQ(study.outcomes.size(), 1u);
  EXPECT_EQ(study.outcomes[0].name, "none");
}

}  // namespace
}  // namespace mvsim::analysis
