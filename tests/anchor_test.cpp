// Paper anchors: every claim of the paper's evaluation (Figures 1-7 and
// the prose around them, the section 5.3 scaling check and the section
// 6 extensions), plus two ablations of constants the paper leaves open,
// asserted against the simulator at the paper's scale.
//
// Each figure or experiment is one fixture (Fig1 ... Fig7, Scale, Abl1,
// Abl2, ExtBt, ExtDual, ExtCombo). Its SetUpTestSuite runs the
// experiments once -- 1000 phones, each virus's paper horizon, 10
// replications, master seed 0xD5A72007 (the seed of the figure commands
// EXPERIMENTS.md lists; ExtBt keeps its own, 0xB10E0007), one thread --
// and many small TEST_Fs assert on the shared results. The bands come
// from the paper's claims. A row that EXPERIMENTS.md marks as a
// deviation asserts the documented direction of that deviation instead,
// so a change that closes (or widens) a gap shows up here as a failing
// test.
//
// Every anchor records its claim, band and measured value as test
// properties, so
//   build/tests/anchor_test --gtest_output=json:anchors.json
// is the paper-vs-measured table. ctest runs one test per fixture
// (anchors.Fig1 ... anchors.ExtCombo, label `anchors`); `ctest -L
// anchors` runs the paper checks alone.
//
// The last two tests are not anchors: on a 250-phone population they
// check that the patch rollout reaches every susceptible phone and that
// monitoring plus a gateway scan beats either against Virus 3.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diminishing_returns.h"
#include "analysis/param_registry.h"
#include "core/presets.h"
#include "core/runner.h"
#include "core/simulation.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "rng/stream.h"

namespace mvsim::core {
namespace {

/// The figure commands' settings, pinned.
RunnerOptions anchor_options() {
  RunnerOptions options;
  options.replications = 10;
  options.master_seed = 0xD5A7'2007ULL;
  options.threads = 1;
  options.keep_replications = false;
  return options;
}

std::string fmt(double value, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

std::string fmt_hours(SimTime t) { return t.is_finite() ? fmt(t.to_hours()) + " h" : "never"; }

/// Attaches the anchor's claim, band and measurement to the running
/// test (gtest properties, carried into --gtest_output).
void record(const std::string& claim, const std::string& band, const std::string& measured) {
  ::testing::Test::RecordProperty("claim", claim);
  ::testing::Test::RecordProperty("band", band);
  ::testing::Test::RecordProperty("measured", measured);
}

void expect_within(const std::string& what, double value, double lo, double hi) {
  EXPECT_GE(value, lo) << what;
  EXPECT_LE(value, hi) << what;
}

/// One figure's experiments by label, each run once per suite.
class Runs {
 public:
  void add(const std::string& label, const ScenarioConfig& config,
           const RunnerOptions& options = anchor_options()) {
    results_.emplace(label, run_experiment(config, options));
  }
  void clear() { results_.clear(); }

  [[nodiscard]] const ExperimentResult& operator[](const std::string& label) const {
    return results_.at(label);
  }
  [[nodiscard]] double final_of(const std::string& label) const {
    return results_.at(label).final_infections.mean();
  }
  /// Final infections of `label` as a percentage of `baseline`'s.
  [[nodiscard]] double percent_of(const std::string& label, const std::string& baseline) const {
    return 100.0 * final_of(label) / final_of(baseline);
  }
  [[nodiscard]] double level_at(const std::string& label, SimTime t) const {
    return results_.at(label).curve.mean_at(t);
  }
  /// First time the mean curve of `label` reaches `level`.
  [[nodiscard]] SimTime time_to(const std::string& label, double level) const {
    return results_.at(label).curve.mean_first_time_at_or_above(level);
  }
  /// First time the mean curve of `label` reaches half its own final.
  [[nodiscard]] SimTime half_final(const std::string& label) const {
    return time_to(label, final_of(label) / 2.0);
  }

 private:
  std::map<std::string, ExperimentResult> results_;
};

/// 800 susceptible phones x 0.40 eventual acceptance.
constexpr double kPlateau = 320.0;

ScenarioConfig with_scan(const virus::VirusProfile& profile, SimTime delay) {
  ScenarioConfig config = baseline_scenario(profile);
  response::GatewayScanConfig scan;
  scan.activation_delay = delay;
  config.responses.gateway_scan = scan;
  return config;
}

// ---------------------------------------------------------------------
// Figure 1: baseline curves of the four viruses.

class Fig1 : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    for (const auto& profile : virus::paper_virus_suite()) {
      runs.add(profile.name, baseline_scenario(profile));
    }
  }
  static void TearDownTestSuite() { runs.clear(); }
  static SimTime half_plateau(const std::string& virus) {
    return runs.time_to(virus, kPlateau / 2.0);
  }
  static inline Runs runs;
};

TEST_F(Fig1, EveryVirusPlateausNear320) {
  std::string measured;
  for (const char* virus : {"Virus 1", "Virus 2", "Virus 3", "Virus 4"}) {
    measured += (measured.empty() ? "" : " / ") + fmt(runs.final_of(virus));
    expect_within(virus, runs.final_of(virus), 0.9 * kPlateau, 1.1 * kPlateau);
  }
  record("peak infected is 320 (800 x 0.40) for all four viruses", "288-352 phones each",
         "finals " + measured);
}

TEST_F(Fig1, Virus3SaturatesWithinADay) {
  const SimTime half = half_plateau("Virus 3");
  record("Virus 3 is so fast that 24 hours suffice to observe its spread", "half-plateau < 24 h",
         "half-plateau at " + fmt_hours(half));
  EXPECT_LT(half, SimTime::hours(24.0));
}

TEST_F(Fig1, Virus2GrowsInDailySteps) {
  // Virus 2 sends its whole daily budget in a burst at each 24-hour
  // boundary, so nearly all of a day's growth lands in the first hours
  // after the boundary and the curve is flat in between.
  std::string measured;
  for (double day_start : {24.0, 48.0}) {
    const double at_start = runs.level_at("Virus 2", SimTime::hours(day_start));
    const double after_burst = runs.level_at("Virus 2", SimTime::hours(day_start + 3.0));
    const double day_end = runs.level_at("Virus 2", SimTime::hours(day_start + 23.0));
    const double share = (after_burst - at_start) / (day_end - at_start);
    measured += (measured.empty() ? "" : "; ") + fmt(at_start) + " -> " + fmt(after_burst) +
                " -> " + fmt(day_end) + " across hour " + fmt(day_start, 0);
    EXPECT_GE(share, 0.8) << "share of the day's growth in the 3 h after hour " << day_start;
  }
  record("Virus 2's curve resembles a step function",
         ">= 80% of each day's growth within 3 h of the day boundary", measured);
}

TEST_F(Fig1, SpeedOrderingIsThreeThenOneAndTwoThenFour) {
  const SimTime t1 = half_plateau("Virus 1");
  const SimTime t2 = half_plateau("Virus 2");
  const SimTime t3 = half_plateau("Virus 3");
  const SimTime t4 = half_plateau("Virus 4");
  record("Virus 3 is fastest (1 day), Virus 2 next (10 days), Viruses 1 and 4 slowest",
         "half-plateau 2 x t3 <= t1, t2 and 2 x max(t1, t2) <= t4",
         "half-plateau " + fmt_hours(t1) + " / " + fmt_hours(t2) + " / " + fmt_hours(t3) +
             " / " + fmt_hours(t4) + " (Viruses 1-4)");
  EXPECT_LE(t3 * 2.0, t1);
  EXPECT_LE(t3 * 2.0, t2);
  EXPECT_LE(t1 * 2.0, t4);
  EXPECT_LE(t2 * 2.0, t4);
}

TEST_F(Fig1, Virus1SpreadsFasterThanThePaper) {
  // Deviation: Virus 1's growth phase is compressed (configuration-
  // model contact lists); the paper's curve stretches across its
  // 18-day axis. The direction asserted: half-plateau inside the first
  // half of that axis.
  const SimTime t1 = half_plateau("Virus 1");
  record("Viruses 1 and 4 are examined over an 18-day period", "Virus 1 half-plateau <= 9 days",
         "half-plateau at " + fmt_hours(t1));
  EXPECT_LE(t1, SimTime::days(9.0));
}

TEST_F(Fig1, CurvesRiseToAPlateau) {
  std::string measured;
  for (const char* virus : {"Virus 1", "Virus 2", "Virus 3", "Virus 4"}) {
    const ExperimentResult& result = runs[virus];
    double previous = 0.0;
    for (const auto& point : result.curve.grid()) {
      EXPECT_GE(point.mean, previous) << virus << " at " << point.time.to_hours() << " h";
      previous = point.mean;
    }
    // Settled: the last tenth of the horizon adds under 2% of the plateau.
    const SimTime horizon = result.curve.horizon();
    const double late_gain = runs.final_of(virus) - runs.level_at(virus, horizon * 0.9);
    measured += (measured.empty() ? "" : " / ") + fmt(late_gain);
    EXPECT_LE(late_gain, 0.02 * kPlateau) << virus;
  }
  record("classic S-curves: growth, then a plateau", "non-decreasing; last 10% of horizon adds "
         "<= 6.4 phones", "late gain " + measured);
}

// ---------------------------------------------------------------------
// Figure 2: gateway signature scan vs Virus 1, 6/12/24 h activation.

/// The scan delays the Fig2 suite runs against Virus 1: the paper's
/// 6/12/24 h plus 3 h and 48 h around them for the knee analysis.
constexpr double kScanDelays[] = {3.0, 6.0, 12.0, 24.0, 48.0};

std::string scan_label(double hours) { return "Virus 1 + " + fmt(hours, 0) + "h scan"; }

class Fig2 : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    for (const auto& profile : virus::paper_virus_suite()) {
      runs.add(profile.name, baseline_scenario(profile));
      runs.add(profile.name + " + 6h scan", with_scan(profile, SimTime::hours(6.0)));
    }
    for (double hours : {3.0, 12.0, 24.0, 48.0}) {
      runs.add(scan_label(hours), fig2_scan_scenario(SimTime::hours(hours)));
    }
  }
  static void TearDownTestSuite() { runs.clear(); }
  static inline Runs runs;
};

TEST_F(Fig2, SixHourDelayEndsNearFivePercent) {
  const double percent = runs.percent_of("Virus 1 + 6h scan", "Virus 1");
  record("6 h delay: infection reaches only ~5% of the baseline level", "<= 10% of baseline",
         fmt(percent) + "% (" + fmt(runs.final_of("Virus 1 + 6h scan")) + " phones)");
  EXPECT_LE(percent, 10.0);
}

TEST_F(Fig2, TwentyFourHourDelayStillContains) {
  // Deviation: the paper's ~25% becomes ~50%, because our Virus 1
  // grows faster between hours 8 and 26. Asserted: worse than the
  // paper, still well short of the baseline.
  const double percent = runs.percent_of("Virus 1 + 24h scan", "Virus 1");
  record("24 h delay: spread still contained to ~25% of baseline", "25-75% of baseline",
         fmt(percent) + "% (" + fmt(runs.final_of("Virus 1 + 24h scan")) + " phones)");
  expect_within("24 h delay", percent, 25.0, 75.0);
}

TEST_F(Fig2, PromptResponseIsMostEffective) {
  const double p6 = runs.percent_of("Virus 1 + 6h scan", "Virus 1");
  const double p12 = runs.percent_of("Virus 1 + 12h scan", "Virus 1");
  const double p24 = runs.percent_of("Virus 1 + 24h scan", "Virus 1");
  record("prompt response is most effective", "6 h < 12 h < 24 h < baseline",
         fmt(p6) + "% < " + fmt(p12) + "% < " + fmt(p24) + "%");
  EXPECT_LT(p6, p12);
  EXPECT_LT(p12, p24);
  EXPECT_LT(p24, 100.0);
}

TEST_F(Fig2, ScanHaltsFurtherSpread) {
  // Once the signature is active no infected message gets through; the
  // last week adds nothing but messages read before activation.
  std::string measured;
  for (const char* label : {"Virus 1 + 6h scan", "Virus 1 + 12h scan", "Virus 1 + 24h scan"}) {
    const double late_gain = runs.final_of(label) - runs.level_at(label, SimTime::days(11.0));
    measured += (measured.empty() ? "" : " / ") + fmt(late_gain);
    EXPECT_LE(late_gain, 0.01 * kPlateau) << label;
  }
  record("the scan halts further spread once active", "days 11-18 add <= 3.2 phones",
         "late gain " + measured + " (6/12/24 h)");
}

TEST_F(Fig2, Viruses2And4AreContainedLikeVirus1) {
  const double v2 = runs.percent_of("Virus 2 + 6h scan", "Virus 2");
  const double v4 = runs.percent_of("Virus 4 + 6h scan", "Virus 4");
  record("results with the gateway scan look similar for Viruses 1, 2 and 4",
         "6 h delay <= 10% of baseline", "Virus 2 " + fmt(v2) + "%, Virus 4 " + fmt(v4) + "%");
  EXPECT_LE(v2, 10.0);
  EXPECT_LE(v4, 10.0);
}

TEST_F(Fig2, ScanIsIneffectualAgainstVirus3) {
  const double v3 = runs.percent_of("Virus 3 + 6h scan", "Virus 3");
  record("the gateway scan is completely ineffectual against Virus 3", ">= 90% of baseline",
         fmt(v3) + "%");
  EXPECT_GE(v3, 90.0);
}

TEST_F(Fig2, DiminishingReturnsPastSixHours) {
  // Paper section 5.3: locate the point where a faster response no
  // longer improves the outcome much. The delays go in from the
  // shortest; the analysis ranks them by strength itself.
  std::vector<std::pair<double, double>> finals;
  for (double hours : kScanDelays) finals.emplace_back(hours, runs.final_of(scan_label(hours)));
  const std::string parameter = "gateway_scan.activation_delay_h";
  const analysis::DiminishingReturnsReport report = analysis::analyze_diminishing_returns(
      parameter, finals, *analysis::find_sweepable(parameter)->stronger);
  ASSERT_TRUE(report.has_knee()) << analysis::to_table(report);
  const analysis::MarginalGain& knee = report.gains[report.knee_index];
  const analysis::MarginalGain& peak = report.gains[report.peak_index];
  record("the scan's point of diminishing returns is near a 6 h turnaround",
         "knee at the 6 h -> 3 h step (< 20% of the best per-hour gain)",
         "6 h -> 3 h: " + fmt(knee.from_final) + " -> " + fmt(knee.to_final) + " phones, " +
             fmt(knee.avoided_per_unit, 2) + " avoided/h against a " +
             fmt(peak.avoided_per_unit, 2) + " peak (" + fmt(peak.from_parameter, 0) +
             " h -> " + fmt(peak.to_parameter, 0) + " h)");
  EXPECT_DOUBLE_EQ(knee.from_parameter, 6.0) << analysis::to_table(report);
  EXPECT_DOUBLE_EQ(knee.to_parameter, 3.0) << analysis::to_table(report);
}

// ---------------------------------------------------------------------
// Figure 3: gateway detection algorithm vs Virus 2, accuracy sweep.

constexpr double kDetectionAccuracies[] = {0.99, 0.95, 0.90, 0.85, 0.80};

std::string accuracy_label(double accuracy) { return "Virus 2 @" + fmt(accuracy, 2); }

class Fig3 : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runs.add("Virus 2", baseline_scenario(virus::virus2()));
    for (double accuracy : kDetectionAccuracies) {
      runs.add(accuracy_label(accuracy), fig3_detection_scenario(accuracy));
    }
  }
  static void TearDownTestSuite() { runs.clear(); }
  static SimTime mark_135(const std::string& label) { return runs.time_to(label, 135.0); }
  static inline Runs runs;
};

TEST_F(Fig3, Baseline135MarkNearTwoDays) {
  // Deviation: our Virus 2 is one day faster; the direction asserted is
  // "earlier than the paper, but not before the first daily burst".
  const SimTime t = mark_135("Virus 2");
  record("baseline Virus 2 infects 135 phones after ~2 days", "1-2 days",
         fmt(t.to_days(), 2) + " days");
  expect_within("135-infection mark, days", t.to_days(), 1.0, 2.0);
}

TEST_F(Fig3, Accuracy095PushesThe135MarkOut) {
  // Deviation: the absolute time is early (as the baseline is), so the
  // anchor is the delay factor the 95% filter buys: paper 9/2 = 4.5x.
  const SimTime base = mark_135("Virus 2");
  const SimTime t95 = mark_135(accuracy_label(0.95));
  const double factor = t95 / base;
  record("0.95 accuracy pushes the 135-infection mark to ~9 days (4.5x)", "delay factor 3.0-5.0",
         fmt(t95.to_days()) + " days, " + fmt(factor) + "x");
  expect_within("delay factor", factor, 3.0, 5.0);
}

TEST_F(Fig3, DetectorSlowsButNeverStops) {
  const std::string strict = accuracy_label(0.99);
  const double day9 = runs.level_at(strict, SimTime::days(9.0));
  const double day10 = runs.final_of(strict);
  record("the detection algorithm slows the spread but does not stop it",
         "0.99 accuracy: below half the baseline and still rising at day 10",
         fmt(day9) + " at day 9 -> " + fmt(day10) + " at day 10 (baseline " +
             fmt(runs.final_of("Virus 2")) + ")");
  EXPECT_GT(day10, day9);
  EXPECT_LT(day10, 0.5 * runs.final_of("Virus 2"));
}

TEST_F(Fig3, EffectivenessIsMonotoneInAccuracy) {
  std::string marks;
  std::string finals;
  SimTime previous = SimTime::infinity();
  for (double accuracy : kDetectionAccuracies) {
    const SimTime t = mark_135(accuracy_label(accuracy));
    marks += (marks.empty() ? "" : " >= ") + fmt_hours(t);
    finals += (finals.empty() ? "" : " / ") + fmt(runs.final_of(accuracy_label(accuracy)));
    EXPECT_LE(t, previous) << "accuracy " << accuracy;
    previous = t;
  }
  EXPECT_LE(mark_135("Virus 2"), previous);
  record("higher accuracy slows the virus more", "135-mark non-increasing from 0.99 to 0.80",
         "135-mark " + marks + "; day-10 finals " + finals + " (0.99 ... 0.80)");
}

TEST_F(Fig3, HigherAccuracyBlocksALargerShareOfTraffic) {
  // Absolute block counts fall with accuracy (a stricter detector
  // suppresses the epidemic that makes the traffic); the share rises.
  auto blocked_share = [](double accuracy) {
    const ExperimentResult& result = runs[accuracy_label(accuracy)];
    return result.per_replication("net.messages_blocked").mean() /
           result.per_replication("net.messages_submitted").mean();
  };
  const double strict = blocked_share(0.99);
  const double lax = blocked_share(0.80);
  record("the detector stops each infected message with probability = accuracy",
         "blocked share of submitted messages: 0.99 > 0.80",
         fmt(100.0 * strict) + "% at 0.99 vs " + fmt(100.0 * lax) + "% at 0.80");
  EXPECT_GT(strict, lax);
}

TEST_F(Fig3, DetectionIsConvexInAccuracy) {
  // Paper section 5.3 asks where strengthening stops paying. For the
  // detector it never does inside the studied range: each step up in
  // accuracy buys more than the one before. The accuracies go in
  // strongest first, as the figure lists them.
  std::vector<std::pair<double, double>> finals;
  for (double accuracy : kDetectionAccuracies) {
    finals.emplace_back(accuracy, runs.final_of(accuracy_label(accuracy)));
  }
  const std::string parameter = "gateway_detection.accuracy";
  const analysis::DiminishingReturnsReport report = analysis::analyze_diminishing_returns(
      parameter, finals, *analysis::find_sweepable(parameter)->stronger);
  std::string rates;
  for (const analysis::MarginalGain& gain : report.gains) {
    rates += (rates.empty() ? "" : " / ") + fmt(gain.avoided_per_unit, 0);
  }
  record("a provider should buy detector accuracy: returns still increase at 0.99",
         "the 0.95 -> 0.99 step earns the best per-unit gain, no knee",
         "avoided per unit accuracy " + rates + " (0.80 -> 0.85 ... 0.95 -> 0.99)");
  EXPECT_TRUE(report.returns_still_increasing()) << analysis::to_table(report);
}

// ---------------------------------------------------------------------
// Figure 4: user education, eventual acceptance 0.40 -> 0.20 / 0.10.

class Fig4 : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    for (const auto& profile : virus::paper_virus_suite()) {
      runs.add(profile.name, baseline_scenario(profile));
      runs.add(profile.name + " @0.20", fig4_education_scenario(profile, 0.20));
      runs.add(profile.name + " @0.10", fig4_education_scenario(profile, 0.10));
    }
  }
  static void TearDownTestSuite() { runs.clear(); }
  static inline Runs runs;
};

TEST_F(Fig4, HalfAcceptanceHalvesEveryPlateau) {
  std::string measured;
  for (const char* virus : {"Virus 1", "Virus 2", "Virus 3", "Virus 4"}) {
    const double percent = runs.percent_of(std::string(virus) + " @0.20", virus);
    measured += (measured.empty() ? "" : " / ") + fmt(percent) + "%";
    expect_within(virus, percent, 40.0, 60.0);
  }
  record("acceptance 0.20 ends at one-half of the baseline, for every virus",
         "40-60% of baseline", measured + " (Viruses 1-4)");
}

TEST_F(Fig4, QuarterAcceptanceQuartersEveryPlateau) {
  std::string measured;
  for (const char* virus : {"Virus 1", "Virus 2", "Virus 3", "Virus 4"}) {
    const double percent = runs.percent_of(std::string(virus) + " @0.10", virus);
    measured += (measured.empty() ? "" : " / ") + fmt(percent) + "%";
    expect_within(virus, percent, 15.0, 35.0);
  }
  record("acceptance 0.10 ends at one-quarter of the baseline", "15-35% of baseline",
         measured + " (Viruses 1-4)");
}

TEST_F(Fig4, EducationWorksAgainstEveryVirus) {
  for (const char* virus : {"Virus 1", "Virus 2", "Virus 3", "Virus 4"}) {
    const std::string name = virus;
    EXPECT_LT(runs.final_of(name + " @0.10"), runs.final_of(name + " @0.20")) << name;
    EXPECT_LT(runs.final_of(name + " @0.20"), runs.final_of(name)) << name;
  }
  record("education is the one mechanism effective against all four viruses",
         "0.10 < 0.20 < baseline for each virus", "holds for Viruses 1-4");
}

// ---------------------------------------------------------------------
// Figure 5: immunization vs Virus 4, development 24/48 h x rollout 1/6/24 h.

std::string patch_label(double development, double deployment) {
  return "dev " + fmt(development, 0) + "h + rollout " + fmt(deployment, 0) + "h";
}

class Fig5 : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runs.add("Virus 4", baseline_scenario(virus::virus4()));
    for (double development : {24.0, 48.0}) {
      for (double deployment : {1.0, 6.0, 24.0}) {
        runs.add(patch_label(development, deployment),
                 fig5_immunization_scenario(SimTime::hours(development),
                                            SimTime::hours(deployment)));
      }
    }
    ScenarioConfig v3 = baseline_scenario(virus::virus3());
    runs.add("Virus 3", v3);
    response::ImmunizationConfig immunization;
    immunization.development_time = SimTime::hours(24.0);
    immunization.deployment_duration = SimTime::hours(1.0);
    v3.responses.immunization = immunization;
    runs.add("Virus 3 + patch", v3);
  }
  static void TearDownTestSuite() { runs.clear(); }
  static inline Runs runs;
};

TEST_F(Fig5, SlowRolloutInfectsMoreThanFast) {
  // Deviation: the paper's ~60% more comes out lower here. Asserted:
  // clearly more, at most the paper's figure.
  const double fast = runs.final_of(patch_label(24.0, 1.0));
  const double slow = runs.final_of(patch_label(24.0, 24.0));
  const double more = 100.0 * (slow - fast) / fast;
  record("with 24 h development, a 24 h rollout infects ~60% more phones than a 1 h rollout",
         "10-66% more", fmt(more) + "% more (" + fmt(fast) + " -> " + fmt(slow) + ")");
  expect_within("extra infections, %", more, 10.0, 66.0);
}

TEST_F(Fig5, DevelopmentTimeDominates) {
  std::string measured;
  for (double deployment : {1.0, 6.0, 24.0}) {
    const double dev24 = runs.final_of(patch_label(24.0, deployment));
    const double dev48 = runs.final_of(patch_label(48.0, deployment));
    measured += (measured.empty() ? "" : "; ") + fmt(dev24) + " vs " + fmt(dev48);
    EXPECT_LT(dev24, dev48) << "rollout " << deployment << " h";
  }
  EXPECT_LT(runs.final_of(patch_label(24.0, 24.0)), runs.final_of(patch_label(48.0, 1.0)))
      << "a day less development beats a 23 h faster rollout";
  record("24 h development limits the spread earlier than 48 h development",
         "dev 24 h < dev 48 h at every rollout; dev 24 h + 24 h rollout < dev 48 h + 1 h",
         measured + " (rollout 1/6/24 h)");
}

TEST_F(Fig5, PatchHaltsFurtherSpread) {
  std::string measured;
  for (double development : {24.0, 48.0}) {
    for (double deployment : {1.0, 6.0, 24.0}) {
      const std::string label = patch_label(development, deployment);
      const double late_gain = runs.final_of(label) - runs.level_at(label, SimTime::days(9.0));
      measured += (measured.empty() ? "" : " / ") + fmt(runs.final_of(label));
      EXPECT_LT(runs.final_of(label), 0.25 * runs.final_of("Virus 4")) << label;
      EXPECT_LE(late_gain, 0.5) << label << ": spread after day 9";
      EXPECT_NEAR(runs[label].patches_applied.mean(), 800.0, 1.0)
          << label << ": every susceptible phone gets the patch";
    }
  }
  record("the patch halts further spread: every curve plateaus below the baseline",
         "< 25% of baseline, flat after day 9, all 800 phones patched",
         "finals " + measured + " vs baseline " + fmt(runs.final_of("Virus 4")));
}

TEST_F(Fig5, Virus3OutrunsThePatchCycle) {
  const double percent = runs.percent_of("Virus 3 + patch", "Virus 3");
  record("Virus 3 moves too fast for a patch to be developed and deployed in time",
         ">= 90% of baseline", fmt(percent) + "% with a 24 h + 1 h patch cycle");
  EXPECT_GE(percent, 90.0);
}

// ---------------------------------------------------------------------
// Figure 6: monitoring vs Virus 3, forced wait 15/30/60 min.

std::string wait_label(double minutes) { return fmt(minutes, 0) + "-min wait"; }

class Fig6 : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runs.add("Virus 3", baseline_scenario(virus::virus3()));
    for (double minutes : {15.0, 30.0, 60.0}) {
      runs.add(wait_label(minutes), fig6_monitoring_scenario(SimTime::minutes(minutes)));
    }
    for (const auto& profile : {virus::virus1(), virus::virus2(), virus::virus4()}) {
      ScenarioConfig monitored = baseline_scenario(profile);
      runs.add(profile.name, monitored);
      monitored.responses.monitoring = response::MonitoringConfig{};
      runs.add(profile.name + " + monitoring", monitored);
    }
  }
  static void TearDownTestSuite() { runs.clear(); }
  static inline Runs runs;
};

TEST_F(Fig6, Baseline150MarkNearTwoAndAHalfHours) {
  // Deviation: our Virus 3 takes about twice as long. Asserted: no
  // faster than the paper, at most 6 h.
  const SimTime t = runs.time_to("Virus 3", 150.0);
  record("baseline Virus 3 can infect 150 phones in about 2.5 hours", "2.5-6 h", fmt_hours(t));
  expect_within("150-infection mark, hours", t.to_hours(), 2.5, 6.0);
}

TEST_F(Fig6, FifteenMinuteWaitHoldsUnder150For20Hours) {
  const double at20 = runs.level_at(wait_label(15.0), SimTime::hours(20.0));
  record("a 15-minute forced wait keeps the infection under 150 phones for up to 20 h",
         "< 150 at 20 h",
         fmt(at20) + " at 20 h; crosses 150 at " + fmt_hours(runs.time_to(wait_label(15.0), 150.0)));
  EXPECT_LT(at20, 150.0);
}

TEST_F(Fig6, LongerWaitsSlowTheVirusMore) {
  const SimTime t = SimTime::hours(12.0);
  std::string measured = fmt(runs.level_at("Virus 3", t));
  double previous = runs.level_at("Virus 3", t);
  for (double minutes : {15.0, 30.0, 60.0}) {
    const double level = runs.level_at(wait_label(minutes), t);
    measured += " > " + fmt(level);
    EXPECT_LT(level, previous) << wait_label(minutes);
    previous = level;
  }
  record("longer forced waits slow the virus more", "level at 12 h: base > 15 > 30 > 60 min",
         measured);
}

TEST_F(Fig6, MonitoringBuysTimeButDoesNotStop) {
  std::string measured;
  for (double minutes : {15.0, 30.0, 60.0}) {
    const std::string label = wait_label(minutes);
    const double at12 = runs.level_at(label, SimTime::hours(12.0));
    measured += (measured.empty() ? "" : "; ") + fmt(at12) + " -> " + fmt(runs.final_of(label));
    EXPECT_GT(runs.final_of(label), at12) << label << " still climbs after 12 h";
    EXPECT_GT(runs[label].per_replication("response.monitoring.phones_flagged").mean(), 0.0);
  }
  record("monitoring slows the spread but does not stop it",
         "every monitored curve climbs from 12 h to 25 h",
         measured + " (15/30/60 min, 12 h -> 25 h)");
}

TEST_F(Fig6, SelfThrottledVirusesSlipThrough) {
  std::string measured;
  for (const char* virus : {"Virus 1", "Virus 2", "Virus 4"}) {
    const std::string monitored = std::string(virus) + " + monitoring";
    const double percent = runs.percent_of(monitored, virus);
    const double flagged = runs[monitored].per_replication("response.monitoring.phones_flagged")
                               .mean();
    measured += (measured.empty() ? "" : "; ") + std::string(virus) + " " + fmt(percent) +
                "% (flagged " + fmt(flagged) + ")";
    EXPECT_GE(percent, 85.0) << virus;
    if (std::string(virus) != "Virus 2") {
      EXPECT_EQ(flagged, 0.0) << virus << " sends at most ~2 messages/hour";
    }
  }
  record("monitoring is ineffectual against the self-throttled Viruses 1, 2 and 4",
         ">= 85% of baseline; Viruses 1 and 4 never flagged", measured);
}

// ---------------------------------------------------------------------
// Figure 7: blacklisting vs Virus 3, threshold 10/20/30/40 messages.

std::string threshold_label(std::uint32_t threshold) {
  return "Virus 3 @" + std::to_string(threshold);
}

ScenarioConfig blacklisted(const virus::VirusProfile& profile, std::uint32_t threshold) {
  ScenarioConfig config = baseline_scenario(profile);
  response::BlacklistConfig blacklist;
  blacklist.message_threshold = threshold;
  config.responses.blacklist = blacklist;
  return config;
}

class Fig7 : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runs.add("Virus 3", baseline_scenario(virus::virus3()));
    for (std::uint32_t threshold : {10u, 20u, 30u, 40u}) {
      runs.add(threshold_label(threshold), fig7_blacklist_scenario(threshold));
    }
    for (const auto& profile : {virus::virus1(), virus::virus2()}) {
      runs.add(profile.name, baseline_scenario(profile));
      runs.add(profile.name + " @10", blacklisted(profile, 10));
    }
  }
  static void TearDownTestSuite() { runs.clear(); }
  static inline Runs runs;
};

TEST_F(Fig7, LowThresholdsStronglyRestrictVirus3) {
  const double at10 = runs.percent_of(threshold_label(10), "Virus 3");
  const double at20 = runs.percent_of(threshold_label(20), "Virus 3");
  record("low thresholds strongly restrict the random-dialing virus",
         "@10 <= 10%, @20 <= 50% of baseline", "@10 " + fmt(at10) + "%, @20 " + fmt(at20) + "%");
  EXPECT_LE(at10, 10.0);
  EXPECT_LE(at20, 50.0);
  EXPECT_GT(runs[threshold_label(10)].per_replication("response.blacklist.phones_blacklisted")
                .mean(),
            0.0);
}

TEST_F(Fig7, RestrictionIsMonotoneInThreshold) {
  std::string measured;
  double previous = 0.0;
  for (std::uint32_t threshold : {10u, 20u, 30u, 40u}) {
    const double percent = runs.percent_of(threshold_label(threshold), "Virus 3");
    measured += (measured.empty() ? "" : " < ") + fmt(percent) + "%";
    EXPECT_GT(percent, previous) << threshold_label(threshold);
    previous = percent;
  }
  EXPECT_LT(previous, 100.0);
  record("the lower the threshold, the stronger the restriction", "@10 < @20 < @30 < @40 < 100%",
         measured);
}

TEST_F(Fig7, ThresholdScalesWithTheValidNumberFraction) {
  // Only ~1/3 of randomly dialed numbers are valid, so threshold 30
  // against Virus 3 should act like threshold 10 against contact-list
  // Virus 1. Deviation: Virus 1 is suppressed harder; asserted: both in
  // the same partial-containment regime, Virus 1 at or below Virus 3.
  const double v3_at30 = runs.percent_of(threshold_label(30), "Virus 3");
  const double v1_at10 = runs.percent_of("Virus 1 @10", "Virus 1");
  record("threshold 30 vs random dialing is equivalent to threshold 10 vs contact lists",
         "both 10-90% of baseline, Virus 1 @10 <= Virus 3 @30",
         "Virus 3 @30 " + fmt(v3_at30) + "%, Virus 1 @10 " + fmt(v1_at10) + "%");
  expect_within("Virus 3 @30", v3_at30, 10.0, 90.0);
  expect_within("Virus 1 @10", v1_at10, 10.0, 90.0);
  EXPECT_LE(v1_at10, v3_at30);
}

TEST_F(Fig7, Threshold10RestrictsVirus1) {
  // Deviation: ~29% against the paper's ~60%; asserted: at least the
  // paper's restriction.
  const double v1_at10 = runs.percent_of("Virus 1 @10", "Virus 1");
  record("blacklisting at threshold 10 restricts Virus 1 to ~60% of baseline",
         "10-66% of baseline", fmt(v1_at10) + "%");
  expect_within("Virus 1 @10", v1_at10, 10.0, 66.0);
}

TEST_F(Fig7, Virus2EvadesBlacklisting) {
  const double v2_at10 = runs.percent_of("Virus 2 @10", "Virus 2");
  record("blacklisting is completely ineffective against Virus 2 at any threshold",
         ">= 90% of baseline at threshold 10", fmt(v2_at10) + "%");
  EXPECT_GE(v2_at10, 90.0);
}


// ---------------------------------------------------------------------
// SCALE: paper section 5.3's 2000-phone check, and the market-share
// extension's percolation threshold.

/// 80% of the phones run the targeted platform.
constexpr double kSusceptibleFraction = 0.8;

constexpr graph::PhoneId kPopulations[] = {1000, 2000};
constexpr double kMarketShares[] = {0.10, 0.50};

std::string population_label(const std::string& virus, graph::PhoneId population) {
  return virus + " @" + std::to_string(population);
}

std::string share_label(double share) { return "share " + fmt(share, 2); }

class Scale : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    for (const auto& profile : virus::paper_virus_suite()) {
      for (graph::PhoneId population : kPopulations) {
        ScenarioConfig config = baseline_scenario(profile);
        config.population = population;
        runs.add(population_label(profile.name, population), config);
      }
    }
  }
  static void TearDownTestSuite() { runs.clear(); }
  /// Final infections as a percentage of the susceptible phones.
  static double penetration(const std::string& virus, graph::PhoneId population) {
    return 100.0 * runs.final_of(population_label(virus, population)) /
           (kSusceptibleFraction * population);
  }
  static SimTime half_plateau(const std::string& virus, graph::PhoneId population) {
    return runs.time_to(population_label(virus, population),
                        kPlateau / 2.0 * population / 1000.0);
  }
  static inline Runs runs;
};

TEST_F(Scale, PenetrationIsPopulationInvariant) {
  std::string measured;
  for (const char* virus : {"Virus 1", "Virus 2", "Virus 3", "Virus 4"}) {
    const double small = penetration(virus, 1000);
    const double large = penetration(virus, 2000);
    measured += (measured.empty() ? "" : " / ") + fmt(small) + "% -> " + fmt(large) + "%";
    expect_within(virus, large, 36.0, 44.0);
    EXPECT_NEAR(large, small, 2.5) << virus;
  }
  record("results at 1000 phones scale nicely to a 2000-phone population",
         "2000-phone penetration 36-44% and within 2.5 points of 1000 phones",
         measured + " (Viruses 1-4, 1000 -> 2000 phones)");
}

TEST_F(Scale, HalfPlateauGrowsMildlyWithPopulation) {
  // A graph twice the size takes a generation or two more to cover.
  std::string measured;
  for (const char* virus : {"Virus 1", "Virus 2", "Virus 3", "Virus 4"}) {
    const SimTime small = half_plateau(virus, 1000);
    const SimTime large = half_plateau(virus, 2000);
    measured += (measured.empty() ? "" : " / ") + fmt_hours(small) + " -> " + fmt_hours(large);
    EXPECT_GE(large, small) << virus;
    EXPECT_LE(large, small * 1.5) << virus;
  }
  record("doubling the population delays the half-plateau only mildly",
         "1000-phone time <= 2000-phone time <= 1.5x it", measured + " (Viruses 1-4)");
}

// The market-share extension runs 20,000 phones for 30 days, so it is a
// fixture of its own, at 6 replications rather than 10.
class MarketShare : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RunnerOptions keep = anchor_options();
    keep.replications = 6;
    keep.keep_replications = true;  // ignition is counted per replication
    for (double share : kMarketShares) {
      runs.add(share_label(share), market_share_scenario(share), keep);
    }
  }
  static void TearDownTestSuite() { runs.clear(); }
  static inline Runs runs;
};

TEST_F(MarketShare, IgnitesOnlyAboveThePercolationThreshold) {
  // A replication ignites when it reaches 1% of the susceptible phones.
  // Below the susceptible subgraph's percolation threshold every
  // outbreak dies near its patient zeros; above it every one escapes.
  auto ignition = [](double share) {
    const ExperimentResult& result = runs[share_label(share)];
    const double susceptible = share * market_share_scenario(share).population;
    int ignited = 0;
    for (const auto& rep : result.replications) {
      if (static_cast<double>(rep.total_infected) >= 0.01 * susceptible) ++ignited;
    }
    return static_cast<double>(ignited) / static_cast<double>(result.replications.size());
  };
  const double low = ignition(0.10);
  const double high = ignition(0.50);
  record("on sparse contact lists a platform's market share has an outbreak threshold",
         "ignition <= 0.1 at share 0.10, >= 0.9 at share 0.50",
         fmt(low, 2) + " at 0.10 (" + fmt(runs.final_of(share_label(0.10))) + " infected), " +
             fmt(high, 2) + " at 0.50 (" + fmt(runs.final_of(share_label(0.50))) + ")");
  EXPECT_LE(low, 0.1);
  EXPECT_GE(high, 0.9);
}

// ---------------------------------------------------------------------
// ABL-1: contact-list topology ablation (Virus 1; not a paper figure).

constexpr TopologyConfig::Kind kTopologies[] = {
    TopologyConfig::Kind::kPowerLaw, TopologyConfig::Kind::kErdosRenyi,
    TopologyConfig::Kind::kBarabasiAlbert, TopologyConfig::Kind::kRegularRing};
constexpr double kLocalityJitters[] = {0.05, 0.10, 0.20};

std::string jitter_label(double jitter) { return "jitter " + fmt(jitter, 2); }

/// Global clustering of a power-law graph of the paper's shape.
double power_law_clustering(double locality_jitter, std::uint64_t seed) {
  graph::PowerLawConfig config;
  config.locality_jitter = locality_jitter;
  rng::Stream stream(seed);
  return graph::global_clustering_coefficient(graph::generate_power_law(config, stream));
}

class Abl1 : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    for (TopologyConfig::Kind kind : kTopologies) {
      ScenarioConfig config = baseline_scenario(virus::virus1());
      config.topology.kind = kind;
      runs.add(to_string(kind), config);
    }
    for (double jitter : kLocalityJitters) {
      ScenarioConfig config = baseline_scenario(virus::virus1());
      config.topology.locality_jitter = jitter;
      runs.add(jitter_label(jitter), config);
    }
  }
  static void TearDownTestSuite() { runs.clear(); }
  static inline Runs runs;
};

TEST_F(Abl1, PlateauIsTopologyInvariant) {
  std::string measured;
  for (TopologyConfig::Kind kind : kTopologies) {
    measured += (measured.empty() ? "" : " / ") + fmt(runs.final_of(to_string(kind)));
    expect_within(to_string(kind), runs.final_of(to_string(kind)), 0.9 * kPlateau,
                  1.1 * kPlateau);
  }
  record("the plateau is set by the consent model, not the contact graph",
         "288-352 phones on every topology",
         "finals " + measured + " (power-law / Erdos-Renyi / Barabasi-Albert / ring)");
}

TEST_F(Abl1, RingClusteringSlowsGrowth) {
  const double ring_clustering =
      graph::global_clustering_coefficient(graph::generate_regular_ring(1000, 80));
  const SimTime power_law = runs.half_final("power-law");
  const SimTime ring = runs.half_final("regular-ring");
  record("a highly clustered ring lattice slows the growth phase",
         "ring half-final >= 1.5x power-law's",
         "ring " + fmt_hours(ring) + " (clustering " + fmt(ring_clustering, 3) +
             ") vs power-law " + fmt_hours(power_law));
  EXPECT_GE(ring, power_law * 1.5);
}

TEST_F(Abl1, PowerLawHubsAlreadyCluster) {
  const double power_law = power_law_clustering(0.0, 7);
  rng::Stream stream(7);
  const double random = graph::global_clustering_coefficient(graph::generate_erdos_renyi(
      1000, 80.0, stream));
  record("the power-law generator at mean degree 80 is clustered by its hubs alone",
         "clustering 0.20-0.35, >= 2x an Erdos-Renyi graph of the same mean degree",
         fmt(power_law, 3) + " vs " + fmt(random, 3) + " (Erdos-Renyi)");
  expect_within("power-law clustering", power_law, 0.20, 0.35);
  EXPECT_GE(power_law, 2.0 * random);
}

TEST_F(Abl1, LocalityJitterDoesNotMoveTheEpidemic) {
  // Forcing triadic overlap into the contact lists (locality_jitter)
  // neither raises the clustering the hubs already give nor moves the
  // epidemic: the reproduction does not hinge on the unpublished NGCE
  // instance beyond its degree profile.
  const double final0 = runs.final_of("power-law");
  const SimTime half0 = runs.time_to("power-law", kPlateau / 2.0);
  const double clustering0 = power_law_clustering(0.0, 9);
  std::string measured = "jitter 0: " + fmt(final0) + ", " + fmt_hours(half0) +
                         ", clustering " + fmt(clustering0, 3);
  for (double jitter : kLocalityJitters) {
    const std::string label = jitter_label(jitter);
    const SimTime half = runs.time_to(label, kPlateau / 2.0);
    const double clustering = power_law_clustering(jitter, 9);
    measured += "; " + fmt(jitter, 2) + ": " + fmt(runs.final_of(label)) + ", " +
                fmt_hours(half) + ", clustering " + fmt(clustering, 3);
    EXPECT_NEAR(runs.final_of(label), final0, 0.05 * final0) << label;
    EXPECT_NEAR(half.to_hours(), half0.to_hours(), 3.0) << label;
    EXPECT_NEAR(clustering, clustering0, 0.03) << label;
  }
  record("extra contact-list locality changes neither the clustering nor the epidemic",
         "final within 5%, half-plateau within 3 h, clustering within 0.03 of jitter 0",
         measured);
}

// ---------------------------------------------------------------------
// ABL-2: behavioral constants the paper leaves unspecified.

constexpr double kReadDelaysMin[] = {15.0, 30.0, 60.0, 120.0, 240.0};
constexpr std::uint64_t kDetectabilityThresholds[] = {1, 5, 20, 50};
constexpr double kLegitGapsHours[] = {1.0, 2.0, 4.0};

std::string read_delay_label(double minutes) { return "read " + fmt(minutes, 0) + " min"; }
std::string detectability_label(std::uint64_t messages) {
  return "threshold " + std::to_string(messages);
}
std::string legit_gap_label(double hours) { return "legit gap " + fmt(hours, 0) + " h"; }

class Abl2 : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    for (double minutes : kReadDelaysMin) {
      ScenarioConfig config = baseline_scenario(virus::virus1());
      config.read_delay_mean = SimTime::minutes(minutes);
      runs.add(read_delay_label(minutes), config);
    }
    RunnerOptions keep = anchor_options();
    keep.keep_replications = true;  // for each replication's detection time
    for (std::uint64_t messages : kDetectabilityThresholds) {
      ScenarioConfig config = fig2_scan_scenario(SimTime::hours(6.0));
      config.responses.detectability_threshold = messages;
      runs.add(detectability_label(messages), config, keep);
    }
    for (double hours : kLegitGapsHours) {
      ScenarioConfig config = baseline_scenario(virus::virus4());
      config.virus.legit_traffic_gap_mean = SimTime::hours(hours);
      runs.add(legit_gap_label(hours), config);
    }
  }
  static void TearDownTestSuite() { runs.clear(); }
  /// Mean detection time, in hours, over the replications that detected.
  static double detected_at_hours(std::uint64_t messages) {
    stats::Accumulator detected_at;
    for (const auto& rep : runs[detectability_label(messages)].replications) {
      if (rep.detected_at.is_finite()) detected_at.add(rep.detected_at.to_hours());
    }
    return detected_at.mean();
  }
  static inline Runs runs;
};

TEST_F(Abl2, ReadDelayShiftsTimingNotThePlateau) {
  std::string finals;
  std::string halves;
  SimTime previous = SimTime::zero();
  for (double minutes : kReadDelaysMin) {
    const std::string label = read_delay_label(minutes);
    const SimTime half = runs.time_to(label, kPlateau / 2.0);
    finals += (finals.empty() ? "" : " / ") + fmt(runs.final_of(label));
    halves += (halves.empty() ? "" : " -> ") + fmt_hours(half);
    expect_within(label, runs.final_of(label), 0.9 * kPlateau, 1.1 * kPlateau);
    EXPECT_GE(half, previous) << label;
    previous = half;
  }
  EXPECT_GE(previous, runs.time_to(read_delay_label(15.0), kPlateau / 2.0) * 1.5);
  record("the unspecified read delay sets Virus 1's pace, not its plateau",
         "finals 288-352; half-plateau non-decreasing, 240 min >= 1.5x 15 min",
         "half-plateau " + halves + "; finals " + finals + " (15 ... 240 min)");
}

TEST_F(Abl2, DetectabilityThresholdDelaysTheScan) {
  std::string finals;
  std::string detections;
  double previous_final = 0.0;
  double previous_detection = -1.0;
  for (std::uint64_t messages : kDetectabilityThresholds) {
    const double final_infections = runs.final_of(detectability_label(messages));
    const double detection = detected_at_hours(messages);
    finals += (finals.empty() ? "" : " -> ") + fmt(final_infections);
    detections += (detections.empty() ? "" : " -> ") + fmt(detection);
    EXPECT_GT(final_infections, previous_final) << detectability_label(messages);
    EXPECT_GT(detection, previous_detection) << detectability_label(messages);
    previous_final = final_infections;
    previous_detection = detection;
  }
  EXPECT_LE(previous_final, 0.2 * kPlateau) << "the 6 h scan still contains Virus 1 at 50";
  record("a later detection point (more infected messages seen) weakens the 6 h scan",
         "final and detection time increasing in the threshold; <= 64 phones at 50",
         "finals " + finals + ", detected at " + detections + " h (1 / 5 / 20 / 50 messages)");
}

TEST_F(Abl2, LegitTrafficSetsVirus4TimeScale) {
  std::string halves;
  std::string finals;
  SimTime previous = SimTime::zero();
  for (double hours : kLegitGapsHours) {
    const std::string label = legit_gap_label(hours);
    const SimTime half = runs.time_to(label, kPlateau / 2.0);
    halves += (halves.empty() ? "" : " / ") + fmt_hours(half);
    finals += (finals.empty() ? "" : " / ") + fmt(runs.final_of(label));
    expect_within(label, runs.final_of(label), 0.9 * kPlateau, 1.1 * kPlateau);
    EXPECT_GT(half, previous) << label;
    previous = half;
  }
  EXPECT_GE(previous, runs.time_to(legit_gap_label(1.0), kPlateau / 2.0) * 2.0);
  record("Virus 4's one free constant, the legitimate-traffic rate, sets its time scale",
         "half-plateau increasing in the gap, 4 h >= 2x 1 h; finals 288-352",
         "half-plateau " + halves + "; finals " + finals + " (1 / 2 / 4 h gaps)");
}

// ---------------------------------------------------------------------
// EXT-BT: Bluetooth-only worm (paper section 6 future work), on its own
// master seed.

RunnerOptions bluetooth_options() {
  RunnerOptions options = anchor_options();
  options.master_seed = 0xB1'0E'00'07ULL;
  return options;
}

/// Without gateway visibility the provider learns of the outbreak out
/// of band (handset AV telemetry, user complaints): a fixed detection
/// time starts the patch cycle.
ScenarioConfig with_patch_cycle(ScenarioConfig config, double detection_h, double development_h,
                                double deployment_h) {
  response::ImmunizationConfig immunization;
  immunization.detection_time = SimTime::hours(detection_h);
  immunization.development_time = SimTime::hours(development_h);
  immunization.deployment_duration = SimTime::hours(deployment_h);
  config.responses.immunization = immunization;
  return config;
}

constexpr std::uint32_t kGridSides[] = {8, 16, 32};

std::string grid_label(std::uint32_t side) {
  return side == 16 ? "Baseline" : "grid " + std::to_string(side);
}

class ExtBt : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const ScenarioConfig base = bluetooth_worm_scenario();  // 1000 phones, 16x16 grid
    runs.add("Baseline", base, bluetooth_options());
    ScenarioConfig educated = base;
    response::UserEducationConfig education;
    education.eventual_acceptance = 0.20;
    educated.responses.user_education = education;
    runs.add("Education 0.20", educated, bluetooth_options());
    runs.add("Patch 24h+24h+6h", with_patch_cycle(base, 24.0, 24.0, 6.0), bluetooth_options());
    runs.add("Patch 12h+12h+1h", with_patch_cycle(base, 12.0, 12.0, 1.0), bluetooth_options());
    for (std::uint32_t side : {8u, 32u}) {
      ScenarioConfig config = base;
      config.proximity->grid_width = side;
      config.proximity->grid_height = side;
      runs.add(grid_label(side), config, bluetooth_options());
    }
  }
  static void TearDownTestSuite() { runs.clear(); }
  static inline Runs runs;
};

constexpr const char* kBluetoothRuns[] = {"Baseline", "Education 0.20", "Patch 24h+24h+6h",
                                          "Patch 12h+12h+1h"};

TEST_F(ExtBt, GatewayMechanismsSeeNoMms) {
  std::string measured;
  for (const char* label : kBluetoothRuns) {
    const double submitted = runs[label].per_replication("net.messages_submitted").mean();
    measured += (measured.empty() ? "" : " / ") + fmt(submitted);
    EXPECT_EQ(submitted, 0.0) << label;
  }
  record("scan, detection, monitoring and blacklisting are blind to a Bluetooth worm",
         "0 MMS submitted per replication", "MMS submitted " + measured);
}

TEST_F(ExtBt, ConsentPlateauCarriesOver) {
  const double base = runs.final_of("Baseline");
  record("the consent model fixes the Bluetooth plateau as it does the MMS one",
         "288-352 phones", fmt(base));
  expect_within("Bluetooth baseline", base, 0.9 * kPlateau, 1.1 * kPlateau);
}

TEST_F(ExtBt, EducationHalvesThePlateau) {
  const double percent = runs.percent_of("Education 0.20", "Baseline");
  record("user education still works: acceptance 0.20 halves the plateau", "40-60% of baseline",
         fmt(percent) + "% (" + fmt(runs.final_of("Education 0.20")) + " phones)");
  expect_within("education 0.20", percent, 40.0, 60.0);
}

TEST_F(ExtBt, PatchingWorksWhenTheCycleBeatsTheWorm) {
  const double fast = runs.final_of("Patch 12h+12h+1h");
  const double slow = runs.final_of("Patch 24h+24h+6h");
  const double base = runs.final_of("Baseline");
  record("patching with out-of-band detection helps as far as the cycle outruns the worm",
         "12h+12h+1h <= 25% of baseline < 24h+24h+6h < baseline",
         fmt(fast) + " (12h+12h+1h) / " + fmt(slow) + " (24h+24h+6h) / " + fmt(base) +
             " (baseline)");
  EXPECT_LE(fast, 0.25 * base);
  EXPECT_LT(fast, slow);
  EXPECT_LT(slow, base);
}

TEST_F(ExtBt, SpreadIsEncounterLimited) {
  std::string measured;
  SimTime previous = SimTime::zero();
  for (std::uint32_t side : kGridSides) {
    const std::string label = grid_label(side);
    const SimTime half = runs.time_to(label, kPlateau / 2.0);
    measured += (measured.empty() ? "" : " / ") + fmt_hours(half) + " at " +
                fmt(1000.0 / (side * side), 2);
    EXPECT_GT(half, previous) << label;
    previous = half;
  }
  EXPECT_GE(previous, runs.time_to("grid 8", kPlateau / 2.0) * 2.0);
  record("proximity spread is gated by same-cell encounters",
         "half-plateau rises as density falls; 1 phone/cell >= 2x 15.6",
         "half-plateau " + measured + " phones per cell");
}

// ---------------------------------------------------------------------
// EXT-DUAL: Virus 1 over MMS and Bluetooth (paper section 6).

ScenarioConfig dual_vector_base() {
  ScenarioConfig config = baseline_scenario(virus::virus1());
  config.name = "dual-vector/Virus 1 + Bluetooth";
  config.proximity = ProximityChannelConfig{};  // 16x16 grid, 60 min scans
  return config;
}

class ExtDual : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runs.add("MMS-only", baseline_scenario(virus::virus1()));
    runs.add("Dual", dual_vector_base());
    runs.add("MMS-only + 6h scan", fig2_scan_scenario(SimTime::hours(6.0)));
    ScenarioConfig scanned = dual_vector_base();
    response::GatewayScanConfig scan;
    scan.activation_delay = SimTime::hours(6.0);
    scanned.responses.gateway_scan = scan;
    runs.add("Dual + 6h scan", scanned);
    ScenarioConfig patched = dual_vector_base();
    patched.responses.immunization = response::ImmunizationConfig{};
    runs.add("Dual + patching", patched);
    ScenarioConfig educated = dual_vector_base();
    educated.responses.user_education = response::UserEducationConfig{};
    runs.add("Dual + education", educated);
  }
  static void TearDownTestSuite() { runs.clear(); }
  static inline Runs runs;
};

TEST_F(ExtDual, ScanIsBlindToTheBluetoothArm) {
  const double single = runs.percent_of("MMS-only + 6h scan", "MMS-only");
  const double dual = runs.percent_of("Dual + 6h scan", "Dual");
  record("the 6 h scan that contains MMS-only Virus 1 cannot stop a dual-vector Virus 1",
         "MMS-only <= 10%, dual-vector >= 90% of its baseline",
         "MMS-only " + fmt(single) + "% (" + fmt(runs.final_of("MMS-only + 6h scan")) +
             "), dual-vector " + fmt(dual) + "% (" + fmt(runs.final_of("Dual + 6h scan")) + ")");
  EXPECT_LE(single, 10.0);
  EXPECT_GE(dual, 90.0);
}

TEST_F(ExtDual, SecondVectorSpeedsTheOutbreak) {
  const SimTime single = runs.half_final("MMS-only");
  const SimTime dual = runs.half_final("Dual");
  record("Bluetooth adds a second route: the dual-vector virus spreads faster",
         "dual-vector half-final earlier; both plateau at 288-352",
         fmt_hours(dual) + " vs " + fmt_hours(single) + "; finals " +
             fmt(runs.final_of("Dual")) + " / " + fmt(runs.final_of("MMS-only")));
  EXPECT_LT(dual, single);
  expect_within("dual-vector baseline", runs.final_of("Dual"), 0.9 * kPlateau, 1.1 * kPlateau);
}

TEST_F(ExtDual, EducationStillHalvesThePlateau) {
  const double percent = runs.percent_of("Dual + education", "Dual");
  record("education protects the phone, not the channel, so it works on both vectors",
         "40-60% of the dual-vector baseline",
         fmt(percent) + "% (" + fmt(runs.final_of("Dual + education")) + " phones)");
  expect_within("dual + education", percent, 40.0, 60.0);
}

TEST_F(ExtDual, DefaultPatchCycleComesTooLate) {
  // The default cycle develops the patch 24 h after detection; by then
  // the dual-vector outbreak is past its half-final.
  const double percent = runs.percent_of("Dual + patching", "Dual");
  record("a 24 h + 6 h patch cycle is too slow for the dual-vector Virus 1",
         ">= 85% of the dual-vector baseline",
         fmt(percent) + "% (" + fmt(runs.final_of("Dual + patching")) + " phones)");
  EXPECT_GE(percent, 85.0);
}

// ---------------------------------------------------------------------
// EXT-COMBO: mechanism combinations against Virus 3 (paper section 6:
// "a response mechanism that only slows virus propagation requires a
// secondary mechanism to completely halt virus spread"). Every
// mechanism at its default configuration.

constexpr const char* kSingleMechanisms[] = {"scan",  "detect",  "educate",
                                             "patch", "monitor", "blacklist"};

class ExtCombo : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const ScenarioConfig base = baseline_scenario(virus::virus3());
    runs.add("none", base);
    auto add = [&base](const char* label, auto enable) {
      ScenarioConfig config = base;
      enable(config.responses);
      runs.add(label, config);
    };
    using Suite = response::ResponseSuiteConfig;
    add("scan", [](Suite& r) { r.gateway_scan = response::GatewayScanConfig{}; });
    add("detect", [](Suite& r) { r.gateway_detection = response::GatewayDetectionConfig{}; });
    add("educate", [](Suite& r) { r.user_education = response::UserEducationConfig{}; });
    add("patch", [](Suite& r) { r.immunization = response::ImmunizationConfig{}; });
    add("monitor", [](Suite& r) { r.monitoring = response::MonitoringConfig{}; });
    add("blacklist", [](Suite& r) { r.blacklist = response::BlacklistConfig{}; });
    add("scan+monitor", [](Suite& r) {
      r.gateway_scan = response::GatewayScanConfig{};
      r.monitoring = response::MonitoringConfig{};
    });
  }
  static void TearDownTestSuite() { runs.clear(); }
  static inline Runs runs;
};

TEST_F(ExtCombo, MonitoringAloneOnlySlows) {
  const double at20 = runs.level_at("monitor", SimTime::hours(20.0));
  const double final_infections = runs.final_of("monitor");
  record("monitoring alone only slows Virus 3",
         "<= 25% of baseline at 25 h, still climbing after 20 h",
         fmt(at20) + " at 20 h -> " + fmt(final_infections) + " at 25 h (baseline " +
             fmt(runs.final_of("none")) + ")");
  EXPECT_LE(final_infections, 0.25 * runs.final_of("none"));
  EXPECT_GT(final_infections, at20);
}

TEST_F(ExtCombo, ScanAloneIsTooLate) {
  const double percent = runs.percent_of("scan", "none");
  record("the 6 h scan alone is too late for Virus 3", ">= 90% of baseline",
         fmt(percent) + "% (" + fmt(runs.final_of("scan")) + " phones)");
  EXPECT_GE(percent, 90.0);
}

TEST_F(ExtCombo, MonitoringBuysTheScanItsTime) {
  const double both = runs.final_of("scan+monitor");
  record("a slowing mechanism plus a stopping one contains what neither does alone",
         "scan+monitor <= 5% of baseline and <= 25% of monitoring alone",
         fmt(both) + " phones vs " + fmt(runs.final_of("monitor")) + " (monitor) and " +
             fmt(runs.final_of("scan")) + " (scan)");
  EXPECT_LE(both, 0.05 * runs.final_of("none"));
  EXPECT_LE(both, 0.25 * runs.final_of("monitor"));
}

TEST_F(ExtCombo, BlacklistIsTheBestSingleMechanism) {
  // As Figure 7 predicts: a random dialer trips the blacklist at once.
  std::string measured;
  for (const char* mechanism : kSingleMechanisms) {
    measured += (measured.empty() ? "" : " / ") + fmt(runs.final_of(mechanism));
    if (std::string(mechanism) != "blacklist") {
      EXPECT_LT(runs.final_of("blacklist"), runs.final_of(mechanism)) << mechanism;
    }
  }
  record("against the random dialer, blacklisting alone beats every other single mechanism",
         "blacklist final below each of the other five",
         "finals " + measured + " (scan / detect / educate / patch / monitor / blacklist)");
}

TEST_F(ExtCombo, PatchCycleOutlastsTheHorizon) {
  const double percent = runs.percent_of("patch", "none");
  record("a 24 h + 6 h patch cycle cannot act within Virus 3's 25 h",
         ">= 99% of baseline", fmt(percent) + "% (" + fmt(runs.final_of("patch")) + " phones)");
  EXPECT_GE(percent, 99.0);
}

// ---------------------------------------------------------------------
// Reduced-population checks (not anchors).

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

}  // namespace
}  // namespace mvsim::core
