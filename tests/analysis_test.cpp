// Unit + integration tests for src/analysis: the §5.3 diminishing-returns
// analysis over registry parameters, and a §6 mechanism combination.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diminishing_returns.h"
#include "core/presets.h"
#include "core/runner.h"

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

/// (parameter, mean final infections) pairs, as a sweep or a ledger
/// ladder hands them to the analysis.
using Points = std::vector<std::pair<double, double>>;

/// A report's peak, knee and verdict table, for comparing two reports.
std::string shape_of(const DiminishingReturnsReport& report) {
  return "peak " + std::to_string(report.peak_index) + ", knee " +
         std::to_string(report.knee_index) + "\n" + to_table(report);
}

TEST(DiminishingReturns, SyntheticSweepFindsTheKnee) {
  // Hand-built sweep: strengthening from 0 to 3 buys 100, 50 then 2
  // infections per unit — the knee is the third step.
  const Points points = {{0.0, 300.0}, {1.0, 200.0}, {2.0, 150.0}, {3.0, 148.0}};
  DiminishingReturnsReport report =
      analyze_diminishing_returns("strength", points, Stronger::kHigher);
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
  Points points;
  for (int i = 0; i < 4; ++i) points.emplace_back(i, 300.0 - 80.0 * i);
  DiminishingReturnsReport report =
      analyze_diminishing_returns("strength", points, Stronger::kHigher);
  EXPECT_FALSE(report.has_knee());
}

TEST(DiminishingReturns, RampUpShapeHasNoFalseKnee) {
  // Convex response (the fig-3 detector shape): early steps buy almost
  // nothing, the last step buys the most. No step after the peak is
  // weak, so there is no knee — returns are still increasing.
  const Points points = {{0.80, 330.0},
                         {0.85, 325.0},   // rate 100
                         {0.90, 315.0},   // rate 200
                         {0.95, 270.0},   // rate 900
                         {0.99, 70.0}};   // rate 5000 (peak, last)
  DiminishingReturnsReport report =
      analyze_diminishing_returns("accuracy", points, Stronger::kHigher);
  EXPECT_EQ(report.peak_index, 3u);
  EXPECT_FALSE(report.has_knee()) << "weak steps before the peak are ramp-up, not a knee";
  EXPECT_TRUE(report.returns_still_increasing());
  std::string table = to_table(report);
  EXPECT_NE(table.find("ramp-up"), std::string::npos);
  EXPECT_EQ(table.find("diminishing"), std::string::npos);
}

TEST(DiminishingReturns, RampUpUsesTheKneeFraction) {
  // The Figure 7 blacklist ladder (Virus 3, thresholds 40 -> 10): the
  // 40 -> 30 step earns 2.80 per message, 18.7% of the 15.00 peak. At a
  // knee fraction of 0.1 that is not low-rate, before the peak or after.
  const Points points = {{10.0, 1.5}, {20.0, 49.8}, {30.0, 199.8}, {40.0, 227.8}};
  DiminishingReturnsReport report =
      analyze_diminishing_returns("blacklist.message_threshold", points, Stronger::kLower, 0.1);
  ASSERT_EQ(report.peak_index, 1u);
  const std::string table = to_table(report);
  EXPECT_EQ(table.find("ramp-up"), std::string::npos) << table;
  EXPECT_NE(to_table(analyze_diminishing_returns("blacklist.message_threshold", points,
                                                 Stronger::kLower))
                .find("ramp-up"),
            std::string::npos)
      << "at the default 0.2 the same step is ramp-up";
}

TEST(DiminishingReturns, KneeAfterPeakStillDetected) {
  // Classic concave shape with a weak tail after a mid-sweep peak.
  const Points points = {{0.0, 300.0},
                         {1.0, 120.0},   // rate 180 (peak)
                         {2.0, 100.0},   // rate 20
                         {3.0, 99.0}};   // rate 1
  DiminishingReturnsReport report =
      analyze_diminishing_returns("strength", points, Stronger::kHigher);
  EXPECT_EQ(report.peak_index, 0u);
  ASSERT_TRUE(report.has_knee());
  EXPECT_EQ(report.knee_index, 1u);
  EXPECT_FALSE(report.returns_still_increasing());
}

TEST(DiminishingReturns, StrongToWeakInputGivesTheSameReport) {
  // A delay ladder: the shorter delay is the stronger response. Given
  // weak-to-strong (24, 12, 6, 3) or strong-to-weak (3, 6, 12, 24),
  // the analysis takes the same steps.
  const Points weak_first = {{24.0, 160.0}, {12.0, 32.0}, {6.0, 7.0}, {3.0, 4.0}};
  const Points strong_first(weak_first.rbegin(), weak_first.rend());
  const DiminishingReturnsReport expected =
      analyze_diminishing_returns("delay_h", weak_first, Stronger::kLower);
  const DiminishingReturnsReport reversed =
      analyze_diminishing_returns("delay_h", strong_first, Stronger::kLower);
  EXPECT_EQ(shape_of(reversed), shape_of(expected));
  ASSERT_EQ(reversed.gains.size(), 3u);
  EXPECT_DOUBLE_EQ(reversed.gains[0].from_parameter, 24.0);
  EXPECT_DOUBLE_EQ(reversed.gains[0].infections_avoided, 128.0);
  ASSERT_TRUE(reversed.has_knee());
  EXPECT_DOUBLE_EQ(reversed.gains[reversed.knee_index].from_parameter, 6.0)
      << "6 h -> 3 h buys 1 per hour against a 10.7 per hour peak";
}

TEST(DiminishingReturns, UnorderedInputIsRankedByStrength) {
  // Accuracy given out of order: the analysis steps 0.80 -> 0.90 ->
  // 0.95 -> 0.99, and no step avoids a negative number of infections.
  const Points shuffled = {{0.95, 270.0}, {0.80, 330.0}, {0.99, 70.0}, {0.90, 315.0}};
  const DiminishingReturnsReport report =
      analyze_diminishing_returns("accuracy", shuffled, Stronger::kHigher);
  ASSERT_EQ(report.gains.size(), 3u);
  const double order[] = {0.80, 0.90, 0.95, 0.99};
  for (std::size_t i = 0; i < report.gains.size(); ++i) {
    EXPECT_DOUBLE_EQ(report.gains[i].from_parameter, order[i]) << i;
    EXPECT_DOUBLE_EQ(report.gains[i].to_parameter, order[i + 1]) << i;
    EXPECT_GT(report.gains[i].infections_avoided, 0.0) << i;
  }
  EXPECT_TRUE(report.returns_still_increasing());
}

TEST(DiminishingReturns, StepsThatAvoidNothingAreNeverWorthIt) {
  // A saturated mechanism: strengthening moves the outcome by noise
  // only. Only the one step that avoids infections may read "worth it".
  const Points noise = {{40.0, 100.0}, {30.0, 104.0}, {20.0, 101.0}, {10.0, 103.0}};
  const DiminishingReturnsReport report =
      analyze_diminishing_returns("threshold", noise, Stronger::kLower);
  const std::string table = to_table(report);
  std::istringstream rows(table);
  std::string row;
  int worth_it = 0;
  while (std::getline(rows, row)) {
    if (row.find("worth it") == std::string::npos) continue;
    ++worth_it;
    EXPECT_NE(row.find("30.00 -> 20.00"), std::string::npos) << table;
  }
  EXPECT_EQ(worth_it, 1) << table;
  // When no step avoids anything, every step lies past the knee.
  const Points worse = {{1.0, 50.0}, {2.0, 50.0}, {3.0, 52.0}};
  const DiminishingReturnsReport none =
      analyze_diminishing_returns("strength", worse, Stronger::kHigher);
  EXPECT_EQ(none.knee_index, 0u);
  EXPECT_EQ(to_table(none).find("worth it"), std::string::npos) << to_table(none);
}

TEST(DiminishingReturns, Validation) {
  Points points = {{0.0, 100.0}};
  EXPECT_THROW((void)analyze_diminishing_returns("x", points, Stronger::kHigher),
               std::invalid_argument);
  points.emplace_back(1.0, 90.0);
  EXPECT_THROW((void)analyze_diminishing_returns("x", points, Stronger::kHigher, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)analyze_diminishing_returns("x", points, Stronger::kHigher, 1.0),
               std::invalid_argument);
}

TEST(DiminishingReturns, RealBlacklistSweepHasEarlyKnee) {
  // Against Virus 3, tightening the threshold 40 -> 30 buys little;
  // 20 -> 10 buys a lot. A lower threshold is the stronger response.
  const std::string parameter = "blacklist.message_threshold";
  const SweepableParam* param = find_sweepable(parameter);
  ASSERT_NE(param, nullptr);
  ASSERT_TRUE(param->stronger.has_value());
  Points points;
  for (double threshold : {40.0, 30.0, 20.0, 10.0}) {
    core::ScenarioConfig config = small_v3();
    ASSERT_TRUE(param->apply(config, threshold));
    points.emplace_back(threshold,
                        core::run_experiment(config, fast_options()).final_infections.mean());
  }
  DiminishingReturnsReport report =
      analyze_diminishing_returns(parameter, points, *param->stronger);
  ASSERT_EQ(report.gains.size(), 3u);
  // Every step tightens containment (monotone finals).
  EXPECT_GE(report.gains[0].from_final, report.gains[2].to_final);
}

TEST(Strategy, EvaluateStrategiesFindsTheLayeredWin) {
  // The paper's motivating §6 case: monitoring alone slows, scan alone
  // is too late, together they contain Virus 3. Every subset of
  // {scan, monitor} at its default configuration.
  auto final_infections = [](bool scan, bool monitor) {
    core::ScenarioConfig config = small_v3();
    if (scan) config.responses.gateway_scan = response::GatewayScanConfig{};
    if (monitor) config.responses.monitoring = response::MonitoringConfig{};
    return core::run_experiment(config, fast_options()).final_infections.mean();
  };
  const double none = final_infections(false, false);
  const double scan = final_infections(true, false);
  const double monitor = final_infections(false, true);
  const double both = final_infections(true, true);
  ASSERT_GT(none, 0.0);
  EXPECT_LE(both, scan) << "the pair dominates the scan alone against Virus 3";
  EXPECT_LE(both, monitor) << "the pair dominates monitoring alone against Virus 3";
  EXPECT_GT(1.0 - both / none, 0.5) << "the pair contains most of the baseline outbreak";
}

}  // namespace
}  // namespace mvsim::analysis
