// Unit tests for src/config: durations and scenario JSON bindings.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "config/scenario_io.h"
#include "core/presets.h"
#include "util/duration.h"

namespace mvsim::config {
namespace {

TEST(Duration, ParsesEveryUnit) {
  EXPECT_EQ(util::parse_duration("90s"), SimTime::seconds(90.0));
  EXPECT_EQ(util::parse_duration("30min"), SimTime::minutes(30.0));
  EXPECT_EQ(util::parse_duration("30m"), SimTime::minutes(30.0));
  EXPECT_EQ(util::parse_duration("6h"), SimTime::hours(6.0));
  EXPECT_EQ(util::parse_duration("6hr"), SimTime::hours(6.0));
  EXPECT_EQ(util::parse_duration("1.5d"), SimTime::days(1.5));
  EXPECT_EQ(util::parse_duration("2 days"), SimTime::days(2.0));
  EXPECT_EQ(util::parse_duration("  45 min  "), SimTime::minutes(45.0));
  EXPECT_EQ(util::parse_duration("0h"), SimTime::zero());
}

TEST(Duration, RejectsGarbage) {
  EXPECT_THROW((void)util::parse_duration(""), std::invalid_argument);
  EXPECT_THROW((void)util::parse_duration("30"), std::invalid_argument);
  EXPECT_THROW((void)util::parse_duration("fast"), std::invalid_argument);
  EXPECT_THROW((void)util::parse_duration("30 fortnights"), std::invalid_argument);
  EXPECT_THROW((void)util::parse_duration("h30"), std::invalid_argument);
}

TEST(Duration, FormatsWithNaturalUnits) {
  EXPECT_EQ(util::format_duration(SimTime::days(2.0)), "2d");
  EXPECT_EQ(util::format_duration(SimTime::hours(6.0)), "6h");
  EXPECT_EQ(util::format_duration(SimTime::minutes(30.0)), "30min");
  EXPECT_EQ(util::format_duration(SimTime::seconds(90.0)), "90s");
  EXPECT_EQ(util::format_duration(SimTime::hours(36.0)), "36h") << "1.5d is not integral in days";
  EXPECT_EQ(util::format_duration(SimTime::zero()), "0min");
}

TEST(Duration, FormatParseRoundTrip) {
  for (SimTime t : {SimTime::minutes(1.0), SimTime::minutes(90.0), SimTime::hours(24.0),
                    SimTime::days(18.0), SimTime::seconds(10.0)}) {
    EXPECT_EQ(util::parse_duration(util::format_duration(t)), t);
  }
}

TEST(ScenarioIo, DefaultScenarioRoundTrips) {
  core::ScenarioConfig original;
  core::ScenarioConfig round = scenario_from_json(to_json(original));
  EXPECT_EQ(round.name, original.name);
  EXPECT_EQ(round.population, original.population);
  EXPECT_DOUBLE_EQ(round.susceptible_fraction, original.susceptible_fraction);
  EXPECT_EQ(round.horizon, original.horizon);
  EXPECT_EQ(round.virus.name, original.virus.name);
  EXPECT_EQ(round.virus.budget, original.virus.budget);
  EXPECT_EQ(round.responses.enabled_count(), 0);
}

TEST(ScenarioIo, EveryFigurePresetRoundTrips) {
  std::vector<core::ScenarioConfig> presets;
  for (const auto& profile : virus::paper_virus_suite()) {
    presets.push_back(core::baseline_scenario(profile));
  }
  presets.push_back(core::fig2_scan_scenario(SimTime::hours(6.0)));
  presets.push_back(core::fig3_detection_scenario(0.95));
  presets.push_back(core::fig4_education_scenario(virus::virus2(), 0.20));
  presets.push_back(core::fig5_immunization_scenario(SimTime::hours(24.0), SimTime::hours(6.0)));
  presets.push_back(core::fig6_monitoring_scenario(SimTime::minutes(15.0)));
  presets.push_back(core::fig7_blacklist_scenario(10));

  for (const auto& preset : presets) {
    core::ScenarioConfig round = scenario_from_json(to_json(preset));
    EXPECT_EQ(json::stringify(to_json(round), 0), json::stringify(to_json(preset), 0))
        << preset.name << ": JSON round-trip must be a fixed point";
    EXPECT_EQ(round.responses.enabled_count(), preset.responses.enabled_count());
    EXPECT_EQ(round.virus.targeting, preset.virus.targeting);
    EXPECT_EQ(round.horizon, preset.horizon);
  }
}

TEST(ScenarioIo, VirusPresetKeySeedsProfile) {
  core::ScenarioConfig config = scenario_from_text(R"({
    "virus": {"preset": "virus3"},
    "horizon": "25h",
    "sample_step": "15min"
  })");
  EXPECT_EQ(config.virus.name, "Virus 3");
  EXPECT_EQ(config.virus.targeting, virus::TargetingMode::kRandomDialing);
}

TEST(ScenarioIo, PresetWithOverrides) {
  core::ScenarioConfig config = scenario_from_text(R"({
    "virus": {"preset": "virus1", "min_message_gap": "45min", "budget_limit": 10}
  })");
  EXPECT_EQ(config.virus.min_message_gap, SimTime::minutes(45.0));
  EXPECT_EQ(config.virus.budget_limit, 10u);
  EXPECT_EQ(config.virus.budget, virus::BudgetKind::kPerReboot) << "non-overridden keys kept";
}

TEST(ScenarioIo, ResponsesDecodeFromJson) {
  core::ScenarioConfig config = scenario_from_text(R"({
    "responses": {
      "gateway_scan": {"activation_delay": "12h"},
      "monitoring": {"forced_wait": "15min", "window_message_threshold": 9},
      "user_education": {"eventual_acceptance": 0.1}
    }
  })");
  ASSERT_TRUE(config.responses.gateway_scan.has_value());
  EXPECT_EQ(config.responses.gateway_scan->activation_delay, SimTime::hours(12.0));
  ASSERT_TRUE(config.responses.monitoring.has_value());
  EXPECT_EQ(config.responses.monitoring->forced_wait, SimTime::minutes(15.0));
  EXPECT_EQ(config.responses.monitoring->window_message_threshold, 9u);
  ASSERT_TRUE(config.responses.user_education.has_value());
  EXPECT_DOUBLE_EQ(config.responses.user_education->eventual_acceptance, 0.1);
  EXPECT_FALSE(config.responses.blacklist.has_value());
}

TEST(ScenarioIo, ProximityChannelRoundTrips) {
  core::ScenarioConfig original;
  original.proximity = core::ProximityChannelConfig{};
  original.proximity->grid_width = 8;
  original.proximity->scan_interval_mean = SimTime::minutes(45.0);
  core::ScenarioConfig round = scenario_from_json(to_json(original));
  ASSERT_TRUE(round.proximity.has_value());
  EXPECT_EQ(round.proximity->grid_width, 8u);
  EXPECT_EQ(round.proximity->scan_interval_mean, SimTime::minutes(45.0));

  core::ScenarioConfig no_proximity = scenario_from_json(to_json(core::ScenarioConfig{}));
  EXPECT_FALSE(no_proximity.proximity.has_value());

  core::ScenarioConfig from_text = scenario_from_text(
      R"({"proximity": {"grid_width": 4, "grid_height": 4, "dwell_mean": "20min"}})");
  ASSERT_TRUE(from_text.proximity.has_value());
  EXPECT_EQ(from_text.proximity->dwell_mean, SimTime::minutes(20.0));
  EXPECT_THROW(
      (void)scenario_from_text(R"({"proximity": {"cell_count": 9}})"),
      std::invalid_argument);
}

TEST(ScenarioIo, UnknownKeysAreRejectedWithPath) {
  try {
    (void)scenario_from_text(R"({"populaton": 500})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("$.populaton"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("unknown key"), std::string::npos);
  }
  EXPECT_THROW((void)scenario_from_text(R"({"virus": {"presset": "virus1"}})"),
               std::invalid_argument);
  EXPECT_THROW((void)scenario_from_text(R"({"responses": {"gateway_scan": {"delay": "6h"}}})"),
               std::invalid_argument);
}

TEST(ScenarioIo, TypeErrorsCarryPath) {
  try {
    (void)scenario_from_text(R"({"population": "lots"})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("$.population"), std::string::npos);
  }
  EXPECT_THROW((void)scenario_from_text(R"({"read_delay_mean": 60})"), std::invalid_argument)
      << "durations must be unit-tagged strings";
  EXPECT_THROW((void)scenario_from_text(R"({"virus": {"targeting": "telepathy"}})"),
               std::invalid_argument);
  EXPECT_THROW((void)scenario_from_text(R"({"virus": {"preset": "virus9"}})"),
               std::invalid_argument);
  EXPECT_THROW((void)scenario_from_text(R"({"population": 12.5})"), std::invalid_argument);
}

TEST(ScenarioIo, DecodedScenarioIsValidated) {
  // Structurally fine JSON, semantically invalid config.
  EXPECT_THROW((void)scenario_from_text(R"({"population": 1})"), std::invalid_argument);
  EXPECT_THROW((void)scenario_from_text(R"({"eventual_acceptance": 0.9})"),
               std::invalid_argument);
}

TEST(ScenarioIo, SusceptibleCountRoundsLikeThePopulationBuild) {
  // 0.29 x 100 is 28.999... in binary: the population build samples
  // round() = 29 susceptibles, so 29 patient zeros must validate.
  core::ScenarioConfig config = scenario_from_text(
      R"({"population": 100, "susceptible_fraction": 0.29, "initial_infected": 29,
          "topology": {"mean_degree": 8}})");
  EXPECT_EQ(config.susceptible_count(), 29u);
  EXPECT_THROW((void)scenario_from_text(
                   R"({"population": 100, "susceptible_fraction": 0.29,
                       "initial_infected": 30, "topology": {"mean_degree": 8}})"),
               std::invalid_argument);
}

TEST(ScenarioIo, TargetingNoneNeedsAProximityChannel) {
  try {
    (void)scenario_from_text(R"({"virus": {"targeting": "none"}})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("proximity"), std::string::npos) << e.what();
  }
  core::ScenarioConfig config = scenario_from_text(
      R"({"virus": {"targeting": "none"}, "proximity": {}})");
  EXPECT_EQ(config.virus.targeting, virus::TargetingMode::kNone);
  EXPECT_EQ(json::stringify(to_json(scenario_from_json(to_json(config))), 0),
            json::stringify(to_json(config), 0));
}

TEST(ScenarioIo, GridWhoseCellCountOverflowsIsRejected) {
  // 65536 x 65536 = 2^32 cells: one more than a CellId can number.
  try {
    (void)scenario_from_text(R"({"proximity": {"grid_width": 65536, "grid_height": 65536}})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("grid_width * grid_height"), std::string::npos)
        << e.what();
  }
  core::ProximityChannelConfig proximity;
  proximity.grid_width = 65535;
  proximity.grid_height = 65537;  // 2^32 - 1 cells
  EXPECT_TRUE(proximity.validate().ok());
  proximity.grid_width = ~0U;
  proximity.grid_height = 2;
  EXPECT_FALSE(proximity.validate().ok());
}

TEST(ScenarioIo, ImmunizationDetectionTimeRoundTrips) {
  core::ScenarioConfig config = scenario_from_text(
      R"({"responses": {"immunization": {"detection_time": "12h"}}})");
  ASSERT_TRUE(config.responses.immunization.has_value());
  ASSERT_TRUE(config.responses.immunization->detection_time.has_value());
  EXPECT_EQ(*config.responses.immunization->detection_time, SimTime::hours(12.0));
  core::ScenarioConfig round = scenario_from_json(to_json(config));
  ASSERT_TRUE(round.responses.immunization->detection_time.has_value());
  EXPECT_EQ(*round.responses.immunization->detection_time, SimTime::hours(12.0));

  core::ScenarioConfig unset = scenario_from_json(to_json(core::fig5_immunization_scenario(
      SimTime::hours(24.0), SimTime::hours(6.0))));
  EXPECT_FALSE(unset.responses.immunization->detection_time.has_value())
      << "unset detection_time must stay unset through a round trip";
  EXPECT_THROW((void)scenario_from_text(
                   R"({"responses": {"immunization": {"detection_time": "-1h"}}})"),
               std::invalid_argument);
}

TEST(ScenarioFiles, EveryShippedScenarioLoadsAndValidates) {
  const std::filesystem::path dir = std::filesystem::path(MVSIM_SOURCE_DIR) / "scenarios";
  int loaded = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    SCOPED_TRACE(entry.path().string());
    core::ScenarioConfig config;
    EXPECT_NO_THROW(config = load_scenario_file(entry.path().string()));
    EXPECT_TRUE(config.validate().ok());
    ++loaded;
  }
  EXPECT_GE(loaded, 4);
}

TEST(ScenarioFiles, BluetoothWormFileIsTheBenchBaseline) {
  const std::string path = std::string(MVSIM_SOURCE_DIR) + "/scenarios/bluetooth_worm.json";
  EXPECT_EQ(json::stringify(to_json(load_scenario_file(path)), 0),
            json::stringify(to_json(core::bluetooth_worm_scenario()), 0));
}

TEST(ScenarioIo, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/mvsim_scenario_test.json";
  core::ScenarioConfig original = core::fig6_monitoring_scenario(SimTime::minutes(30.0));
  save_scenario_file(original, path);
  core::ScenarioConfig loaded = load_scenario_file(path);
  EXPECT_EQ(json::stringify(to_json(loaded), 0), json::stringify(to_json(original), 0));
  std::remove(path.c_str());
}

TEST(ScenarioIo, MissingFileThrows) {
  EXPECT_THROW((void)load_scenario_file("/nonexistent/path/scenario.json"),
               std::runtime_error);
}

TEST(ScenarioIo, SharedSeedRoundTrips) {
  core::ScenarioConfig config;
  config.topology.shared_seed = 0xFEED;
  json::Value encoded = to_json(config);
  core::ScenarioConfig decoded = scenario_from_json(encoded);
  ASSERT_TRUE(decoded.topology.shared_seed.has_value());
  EXPECT_EQ(*decoded.topology.shared_seed, 0xFEEDu);

  core::ScenarioConfig plain;
  json::Value plain_encoded = to_json(plain);
  EXPECT_FALSE(scenario_from_json(plain_encoded).topology.shared_seed.has_value())
      << "unset shared_seed must stay unset through a round trip";
}

}  // namespace
}  // namespace mvsim::config
