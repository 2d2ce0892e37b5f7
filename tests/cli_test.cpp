// Unit tests for src/cli: argument handling, preset registry, and the
// run/preset/validate commands end to end (through the library entry
// point, no subprocesses).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.h"
#include "cli/preset_registry.h"
#include "config/scenario_io.h"
#include "metrics/report.h"
#include "obs/manifest.h"
#include "util/json.h"

namespace mvsim::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult invoke(std::vector<std::string> args) {
  std::ostringstream out, err;
  int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

/// Writes a small, fast scenario file and returns its path. The name is
/// unique per process: ctest registers each TEST as its own process and
/// may run them concurrently, so a shared path would race with the
/// std::remove() each test ends with.
std::string write_small_scenario() {
  static const std::string unique =
      std::to_string(static_cast<long long>(::getpid()));
  std::string path = ::testing::TempDir() + "/mvsim_cli_scenario_" + unique + ".json";
  std::ofstream file(path);
  file << R"({
    "name": "cli-test",
    "population": 120,
    "topology": {"mean_degree": 12},
    "virus": {"preset": "virus1"},
    "horizon": "24h"
  })";
  return path;
}

TEST(PresetRegistry, ListsAllPresets) {
  auto presets = list_presets();
  EXPECT_EQ(presets.size(), 11u);
  EXPECT_EQ(presets[0].name, "virus1-baseline");
  for (const auto& entry : presets) {
    EXPECT_FALSE(entry.description.empty()) << entry.name;
    EXPECT_TRUE(find_preset(entry.name).has_value()) << entry.name;
  }
}

TEST(PresetRegistry, UnknownNameIsNullopt) {
  EXPECT_FALSE(find_preset("virus9-baseline").has_value());
  EXPECT_FALSE(find_preset("").has_value());
}

TEST(PresetRegistry, PresetsAreValidScenarios) {
  for (const auto& entry : list_presets()) {
    auto preset = find_preset(entry.name);
    ASSERT_TRUE(preset.has_value());
    EXPECT_TRUE(preset->validate().ok()) << entry.name;
  }
}

TEST(Cli, NoArgsPrintsUsageAndFails) {
  CliResult r = invoke({});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  EXPECT_EQ(invoke({"help"}).code, 0);
  EXPECT_EQ(invoke({"--help"}).code, 0);
  EXPECT_NE(invoke({"-h"}).out.find("mvsim run"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  CliResult r = invoke({"launch-missiles"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, PresetsCommandListsNames) {
  CliResult r = invoke({"presets"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("virus3-baseline"), std::string::npos);
  EXPECT_NE(r.out.find("fig6-monitoring"), std::string::npos);
}

TEST(Cli, PresetCommandEmitsLoadableJson) {
  CliResult r = invoke({"preset", "fig7-blacklist"});
  ASSERT_EQ(r.code, 0) << r.err;
  core::ScenarioConfig config = config::scenario_from_text(r.out);
  EXPECT_TRUE(config.responses.blacklist.has_value());
  EXPECT_EQ(config.virus.name, "Virus 3");
}

TEST(Cli, MarketSharePresetRoundTripsSharedSeed) {
  CliResult r = invoke({"preset", "market-share"});
  ASSERT_EQ(r.code, 0) << r.err;
  core::ScenarioConfig config = config::scenario_from_text(r.out);
  ASSERT_TRUE(config.topology.shared_seed.has_value());
  EXPECT_EQ(*config.topology.shared_seed, 0x6d61726b6574ull);
  EXPECT_DOUBLE_EQ(config.susceptible_fraction, 0.30);
  EXPECT_DOUBLE_EQ(config.topology.mean_degree, 8.0);
}

TEST(Cli, PresetCommandRejectsUnknown) {
  CliResult r = invoke({"preset", "nope"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown preset"), std::string::npos);
}

TEST(Cli, PresetCommandWantsExactlyOneArg) {
  EXPECT_EQ(invoke({"preset"}).code, 1);
  EXPECT_EQ(invoke({"preset", "a", "b"}).code, 1);
}

TEST(Cli, RunScenarioFileProducesSummary) {
  std::string path = write_small_scenario();
  CliResult r = invoke({"run", path, "--reps", "2", "--seed", "7"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("scenario: cli-test"), std::string::npos);
  EXPECT_NE(r.out.find("final infections:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, RunIsDeterministicGivenSeed) {
  std::string path = write_small_scenario();
  CliResult a = invoke({"run", path, "--reps", "2", "--seed", "55"});
  CliResult b = invoke({"run", path, "--reps", "2", "--seed", "55"});
  EXPECT_EQ(a.out, b.out);
  CliResult c = invoke({"run", path, "--reps", "2", "--seed", "56"});
  EXPECT_NE(a.out, c.out);
  std::remove(path.c_str());
}

TEST(Cli, RunEmitsCsvAndJsonToStdout) {
  std::string path = write_small_scenario();
  CliResult r =
      invoke({"run", path, "--reps", "2", "--quiet", "--curve-csv", "-", "--metrics", "-"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("hours,mean_infected"), std::string::npos);
  EXPECT_NE(r.out.find("\"schema_version\""), std::string::npos);
  EXPECT_EQ(r.out.find("scenario: cli-test"), std::string::npos) << "--quiet suppresses prose";
  std::remove(path.c_str());
}

TEST(Cli, RunWritesOutputFiles) {
  std::string scenario_path = write_small_scenario();
  std::string csv_path = ::testing::TempDir() + "/mvsim_cli_curve.csv";
  std::string json_path = ::testing::TempDir() + "/mvsim_cli_metrics.json";
  CliResult r = invoke({"run", scenario_path, "--reps", "2", "--quiet", "--curve-csv", csv_path,
                        "--metrics", json_path});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream csv(csv_path);
  ASSERT_TRUE(csv.good());
  std::string header;
  std::getline(csv, header);
  EXPECT_EQ(header, "hours,mean_infected,stddev,ci95,min,max");
  std::ifstream json_file(json_path);
  ASSERT_TRUE(json_file.good());
  std::remove(scenario_path.c_str());
  std::remove(csv_path.c_str());
  std::remove(json_path.c_str());
}

TEST(Cli, RunAcceptsPresetNames) {
  // Use the fastest preset at reduced reps to keep the test snappy.
  CliResult r = invoke({"run", "virus3-baseline", "--reps", "1", "--quiet"});
  EXPECT_EQ(r.code, 0) << r.err;
}

TEST(Cli, RunRejectsBadFlags) {
  std::string path = write_small_scenario();
  EXPECT_EQ(invoke({"run"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--reps"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--reps", "0"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--reps", "many"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--seed", "xyz"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--frobnicate"}).code, 1);
  std::remove(path.c_str());
}

TEST(Cli, RunUnknownPresetMentionsPresets) {
  CliResult r = invoke({"run", "virus9-baseline"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("mvsim presets"), std::string::npos);
}

TEST(Cli, RunMissingFileFails) {
  CliResult r = invoke({"run", "/no/such/scenario.json"});
  EXPECT_EQ(r.code, 2);
  EXPECT_FALSE(r.err.empty());
}

TEST(Cli, RunAndSweepBoundRepsAlike) {
  // 2^32 + 1 once truncated to 1 replication, and 3e9 to a negative
  // count; both are usage errors, before anything runs.
  for (const char* reps : {"4294967297", "3000000000", "100001"}) {
    for (const std::vector<std::string>& args :
         {std::vector<std::string>{"run", "virus1-baseline", "--reps", reps},
          std::vector<std::string>{"sweep", "virus1-baseline", "--param", "population",
                                   "--values", "100,200", "--reps", reps}}) {
      CliResult r = invoke(args);
      EXPECT_EQ(r.code, 1) << args[0] << " " << reps;
      EXPECT_NE(r.err.find("--reps: expected a positive integer"), std::string::npos)
          << args[0] << " " << reps << ": " << r.err;
      EXPECT_TRUE(r.out.empty()) << args[0] << " " << reps << ": " << r.out;
    }
  }
}

TEST(Cli, RunThreadsFlagParses) {
  std::string path = write_small_scenario();
  EXPECT_EQ(invoke({"run", path, "--reps", "2", "--threads", "2", "--quiet"}).code, 0);
  EXPECT_EQ(invoke({"run", path, "--threads", "many"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--threads", "9999"}).code, 1);
  std::remove(path.c_str());
}

TEST(Cli, RunRejectsBadShardFlags) {
  // mvsim runs serially only: the sharding flags are unknown options,
  // and the usage no longer lists them.
  std::string path = write_small_scenario();
  for (const char* flag : {"--shards", "--shard-window", "--shard-workers"}) {
    CliResult r = invoke({"run", path, flag, "2", "--quiet"});
    EXPECT_EQ(r.code, 1) << flag;
    EXPECT_TRUE(r.out.empty()) << flag << ": " << r.out;
    EXPECT_NE(r.err.find("unknown option '" + std::string(flag) + "'"), std::string::npos)
        << r.err;
  }
  EXPECT_EQ(invoke({"--help"}).out.find("--shard"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, RunStatsStreamOnStdoutAndBadFlags) {
  std::string path = write_small_scenario();
  CliResult r = invoke({"run", path, "--reps", "1", "--quiet", "--stats-stream", "-",
                        "--stats-period", "120"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"type\":\"mvsim-stats\""), std::string::npos);
  EXPECT_NE(r.out.find("\"type\":\"sample\""), std::string::npos);
  EXPECT_EQ(invoke({"run", path, "--stats-stream"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--stats-stream", "-", "--stats-period", "0"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--stats-stream", "-", "--stats-period", "soon"}).code, 1);
  CliResult too_fine = invoke({"run", path, "--stats-stream", "-", "--stats-period", "1e-9"});
  EXPECT_EQ(too_fine.code, 1);
  EXPECT_TRUE(too_fine.out.empty()) << "no header before the refusal";
  EXPECT_NE(too_fine.err.find("--stats-period"), std::string::npos) << too_fine.err;
  EXPECT_NE(too_fine.err.find("1000000"), std::string::npos) << too_fine.err;
  std::remove(path.c_str());
}

TEST(Cli, RunEmitsMetricsJsonToStdout) {
  std::string path = write_small_scenario();
  CliResult r = invoke({"run", path, "--reps", "2", "--quiet", "--metrics", "-"});
  ASSERT_EQ(r.code, 0) << r.err;
  json::Value doc = json::parse(r.out);
  const json::Object& root = doc.as_object();
  EXPECT_EQ(root.at("schema_version").as_number(), 1.0);
  EXPECT_EQ(root.at("scenario").as_string(), "cli-test");
  EXPECT_EQ(root.at("replications").as_number(), 2.0);
  // Every emitted metric name must be in the documented catalogue.
  for (const auto& [name, value] : root.at("counters").as_object().entries()) {
    EXPECT_NE(metrics::schema_find(name), nullptr) << name;
  }
  for (const auto& [name, value] : root.at("gauges").as_object().entries()) {
    EXPECT_NE(metrics::schema_find(name), nullptr) << name;
  }
  for (const auto& [name, value] : root.at("histograms").as_object().entries()) {
    EXPECT_NE(metrics::schema_find(name), nullptr) << name;
  }
  EXPECT_GT(root.at("derived").as_object().at("events_processed").as_number(), 0.0);
  std::remove(path.c_str());
}

TEST(Cli, MetricsReportIsJsonWhateverThePathSuffix) {
  // The report has one encoding, so `report` can stitch it whatever
  // the path is named.
  std::string scenario_path = write_small_scenario();
  const std::string stem = ::testing::TempDir() + "/mvsim_cli_metrics_" +
                           std::to_string(static_cast<long long>(::getpid()));
  const std::string metrics_path = stem + ".csv";
  const std::string manifest_path = stem + "_manifest.json";
  CliResult r = invoke({"run", scenario_path, "--reps", "2", "--quiet", "--metrics", metrics_path,
                        "--manifest", manifest_path});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream file(metrics_path);
  ASSERT_TRUE(file.good());
  std::ostringstream text;
  text << file.rdbuf();
  EXPECT_EQ(json::parse(text.str()).as_object().at("schema_version").as_number(), 1.0);
  CliResult report = invoke({"report", manifest_path});
  ASSERT_EQ(report.code, 0) << report.err;
  EXPECT_NE(report.out.find("-- metrics (" + metrics_path + ") --"), std::string::npos)
      << report.out;
  EXPECT_EQ(report.out.find("skipped"), std::string::npos) << report.out;
  std::remove(scenario_path.c_str());
  std::remove(metrics_path.c_str());
  std::remove(manifest_path.c_str());
}

TEST(Cli, MetricsSchemaMatchesLibraryCatalogue) {
  CliResult r = invoke({"metrics-schema"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out, json::stringify(metrics::schema_to_json(), 2) + "\n");
}

TEST(Cli, UsageMentionsMetricsSurface) {
  CliResult r = invoke({"help"});
  EXPECT_NE(r.out.find("--metrics"), std::string::npos);
  EXPECT_NE(r.out.find("metrics-schema"), std::string::npos);
  EXPECT_NE(r.out.find("--stats-stream"), std::string::npos);
  EXPECT_NE(r.out.find("--stats-period"), std::string::npos);
}

TEST(Cli, RunWritesJsonlTraceAndAnalyzeReadsIt) {
  std::string scenario_path = write_small_scenario();
  std::string trace_path = ::testing::TempDir() + "/mvsim_cli_trace.jsonl";
  CliResult r = invoke({"run", scenario_path, "--reps", "2", "--quiet", "--trace", trace_path,
                        "--trace-rep", "1"});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream file(trace_path);
  ASSERT_TRUE(file.good());
  std::string meta_line;
  std::getline(file, meta_line);
  EXPECT_NE(meta_line.find("\"type\":\"mvsim-trace\""), std::string::npos) << meta_line;

  CliResult analyzed = invoke({"trace-analyze", trace_path});
  ASSERT_EQ(analyzed.code, 0) << analyzed.err;
  EXPECT_NE(analyzed.out.find("transmission tree"), std::string::npos);
  EXPECT_NE(analyzed.out.find("effective_R"), std::string::npos);
  std::remove(scenario_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(Cli, RunWritesChromeTraceByDefaultExtension) {
  std::string scenario_path = write_small_scenario();
  std::string trace_path = ::testing::TempDir() + "/mvsim_cli_trace.json";
  CliResult r = invoke({"run", scenario_path, "--reps", "1", "--quiet", "--trace", trace_path});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream file(trace_path);
  ASSERT_TRUE(file.good());
  std::ostringstream content;
  content << file.rdbuf();
  json::Value doc = json::parse(content.str());
  const json::Object& root = doc.as_object();
  EXPECT_NE(root.find("traceEvents"), nullptr);
  EXPECT_NE(root.find("otherData"), nullptr);

  // trace-analyze auto-detects the Chrome format too.
  CliResult analyzed = invoke({"trace-analyze", trace_path});
  EXPECT_EQ(analyzed.code, 0) << analyzed.err;
  std::remove(scenario_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(Cli, RunRejectsBadTraceFlags) {
  std::string path = write_small_scenario();
  EXPECT_EQ(invoke({"run", path, "--trace"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--reps", "2", "--trace", "t.jsonl", "--trace-rep", "2"}).code,
            1);
  EXPECT_EQ(invoke({"run", path, "--trace", "t.jsonl", "--trace-rep", "-1"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--trace", "t.jsonl", "--trace-cap", "lots"}).code, 1);
  std::remove(path.c_str());
}

TEST(Cli, TraceAnalyzeRejectsBadInput) {
  EXPECT_EQ(invoke({"trace-analyze"}).code, 1);
  EXPECT_EQ(invoke({"trace-analyze", "/no/such/trace.jsonl"}).code, 2);
  std::string path = ::testing::TempDir() + "/mvsim_cli_not_a_trace.json";
  std::ofstream(path) << "{ not json";
  EXPECT_EQ(invoke({"trace-analyze", path}).code, 2);
  std::remove(path.c_str());
}

TEST(Cli, UsageMentionsTraceSurface) {
  CliResult r = invoke({"help"});
  EXPECT_NE(r.out.find("--trace"), std::string::npos);
  EXPECT_NE(r.out.find("trace-analyze"), std::string::npos);
}

TEST(Cli, RunWritesProfileJsonAndProfileAnalyzeReadsIt) {
  std::string scenario_path = write_small_scenario();
  std::string profile_path = ::testing::TempDir() + "/mvsim_cli_profile.json";
  CliResult r =
      invoke({"run", scenario_path, "--reps", "2", "--quiet", "--profile", profile_path});
  ASSERT_EQ(r.code, 0) << r.err;

  std::ifstream file(profile_path);
  ASSERT_TRUE(file.good());
  std::ostringstream content;
  content << file.rdbuf();
  json::Value doc = json::parse(content.str());
  const json::Object& root = doc.as_object();
  // The profile is the ordinary metrics report of a profiled run.
  EXPECT_DOUBLE_EQ(root.at("schema_version").as_number(), 1.0);
  EXPECT_EQ(root.at("scenario").as_string(), "cli-test");
  EXPECT_DOUBLE_EQ(root.at("replications").as_number(), 2.0);
  const metrics::Snapshot snapshot = metrics::snapshot_from_json(doc);
  const metrics::HistogramSample* sends = snapshot.find_histogram("prof.event.virus_send");
  ASSERT_NE(sends, nullptr);
  EXPECT_GT(sends->count, 0u);
  EXPECT_NE(snapshot.find_histogram("prof.phase.run_ms"), nullptr);

  CliResult analyzed = invoke({"profile-analyze", profile_path, "--top", "3"});
  EXPECT_EQ(analyzed.code, 0) << analyzed.err;
  EXPECT_NE(analyzed.out.find("where the time goes"), std::string::npos);
  std::remove(scenario_path.c_str());
  std::remove(profile_path.c_str());
}

TEST(Cli, ProfileAnalyzeRejectsBadInput) {
  EXPECT_EQ(invoke({"profile-analyze"}).code, 1);
  EXPECT_EQ(invoke({"profile-analyze", "/no/such/profile.json"}).code, 2);
  EXPECT_EQ(invoke({"profile-analyze", "p.json", "--top", "0"}).code, 1);
  EXPECT_EQ(invoke({"profile-analyze", "p.json", "--top", "lots"}).code, 1);
  EXPECT_EQ(invoke({"profile-analyze", "a.json", "b.json"}).code, 1);
  // A JSON file that is not a metrics report is rejected cleanly.
  std::string path = ::testing::TempDir() + "/mvsim_cli_not_a_profile_" +
                     std::to_string(static_cast<long long>(::getpid())) + ".json";
  std::ofstream(path) << R"({"type": "something-else"})";
  CliResult r = invoke({"profile-analyze", path});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("not an mvsim metrics report"), std::string::npos) << r.err;
  // So is the metrics report of a run that was not profiled.
  std::string scenario_path = write_small_scenario();
  ASSERT_EQ(invoke({"run", scenario_path, "--reps", "1", "--quiet", "--metrics", path}).code, 0);
  CliResult unprofiled = invoke({"profile-analyze", path});
  EXPECT_EQ(unprofiled.code, 2);
  EXPECT_NE(unprofiled.err.find("no profile data"), std::string::npos) << unprofiled.err;
  EXPECT_TRUE(unprofiled.out.empty()) << unprofiled.out;
  std::remove(path.c_str());
  std::remove(scenario_path.c_str());
}

TEST(Cli, ProfileAnalyzeReadsTheMetricsReportOfAProfiledRun) {
  // --profile writes the --metrics report, so profile-analyze renders
  // the same table from either file of one profiled run.
  std::string scenario_path = write_small_scenario();
  const std::string stem = ::testing::TempDir() + "/mvsim_cli_profiled_" +
                           std::to_string(static_cast<long long>(::getpid()));
  const std::string profile_path = stem + "_profile.json";
  const std::string metrics_path = stem + "_metrics.json";
  CliResult r = invoke({"run", scenario_path, "--reps", "2", "--quiet", "--profile",
                        profile_path, "--metrics", metrics_path});
  ASSERT_EQ(r.code, 0) << r.err;
  CliResult from_profile = invoke({"profile-analyze", profile_path});
  CliResult from_metrics = invoke({"profile-analyze", metrics_path});
  ASSERT_EQ(from_profile.code, 0) << from_profile.err;
  ASSERT_EQ(from_metrics.code, 0) << from_metrics.err;
  EXPECT_NE(from_profile.out.find("coverage:"), std::string::npos) << from_profile.out;
  EXPECT_EQ(from_profile.out, from_metrics.out);
  std::remove(scenario_path.c_str());
  std::remove(profile_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(Cli, ReportStitchesTheProfileTopFiveFromTheManifest) {
  std::string scenario_path = write_small_scenario();
  const std::string stem = ::testing::TempDir() + "/mvsim_cli_stitch_" +
                           std::to_string(static_cast<long long>(::getpid()));
  const std::string profile_path = stem + "_profile.json";
  const std::string manifest_path = stem + "_manifest.json";
  CliResult r = invoke({"run", scenario_path, "--reps", "2", "--quiet", "--profile",
                        profile_path, "--manifest", manifest_path});
  ASSERT_EQ(r.code, 0) << r.err;
  CliResult report = invoke({"report", manifest_path});
  ASSERT_EQ(report.code, 0) << report.err;
  EXPECT_NE(report.out.find("-- profile (" + profile_path + ", top 5) --"), std::string::npos)
      << report.out;
  EXPECT_NE(report.out.find("where the time goes"), std::string::npos) << report.out;
  EXPECT_EQ(report.out.find("skipped"), std::string::npos) << report.out;
  std::remove(scenario_path.c_str());
  std::remove(profile_path.c_str());
  std::remove(manifest_path.c_str());
}

TEST(Cli, RunProgressTicksOnStderr) {
  std::string path = write_small_scenario();
  CliResult r = invoke({"run", path, "--reps", "2", "--quiet", "--progress"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.err.find("rep 2/2"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("ev/s"), std::string::npos) << r.err;
  EXPECT_EQ(r.err.back(), '\n') << "ticker must finish its line";

  // Progress is observation-only: summary output matches a plain run.
  CliResult quiet = invoke({"run", path, "--reps", "2"});
  CliResult with_progress = invoke({"run", path, "--reps", "2", "--progress"});
  EXPECT_EQ(quiet.out, with_progress.out);
  std::remove(path.c_str());
}

TEST(Cli, RunReportsUnwritableOutputPaths) {
  std::string path = write_small_scenario();
  const char* kUnwritable = "/no/such/dir/mvsim_out.json";
  for (const char* flag : {"--metrics", "--trace", "--profile", "--curve-csv", "--stats-stream",
                           "--manifest", "--ledger"}) {
    CliResult r =
        invoke({"run", path, "--reps", "1", "--quiet", "--progress", flag, kUnwritable});
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_NE(r.err.find("cannot write"), std::string::npos) << flag << ": " << r.err;
    EXPECT_NE(r.err.find(kUnwritable), std::string::npos) << flag << ": " << r.err;
    // Probed before the first replication: no progress tick precedes
    // the failure.
    EXPECT_EQ(r.err.find("rep "), std::string::npos) << flag << ": " << r.err;
  }
  std::remove(path.c_str());
}

TEST(Cli, RunManifestRoundTripsThroughReport) {
  // The headline acceptance path: `mvsim run --manifest --ledger`
  // produces a record `mvsim report` reads back, with the ledger line
  // carrying the same outcome as the standalone manifest.
  std::string scenario_path = write_small_scenario();
  std::string manifest_path = ::testing::TempDir() + "/mvsim_cli_manifest_" +
                              std::to_string(static_cast<long long>(::getpid())) + ".json";
  std::string ledger_path = ::testing::TempDir() + "/mvsim_cli_ledger_" +
                            std::to_string(static_cast<long long>(::getpid())) + ".ndjson";
  std::remove(ledger_path.c_str());
  CliResult r = invoke({"run", scenario_path, "--reps", "2", "--seed", "7", "--quiet",
                        "--curve-csv", "-", "--manifest", manifest_path, "--ledger",
                        ledger_path});
  ASSERT_EQ(r.code, 0) << r.err;

  obs::RunManifest manifest = obs::read_manifest_file(manifest_path);
  EXPECT_EQ(manifest.scenario, "cli-test");
  EXPECT_EQ(manifest.seed, "7");
  EXPECT_EQ(manifest.replications, 2);
  EXPECT_EQ(manifest.scenario_hash.size(), 16u);
  EXPECT_GT(manifest.outcome.final_infected_mean, 0.0);
  EXPECT_GT(manifest.outcome.total_events, 0u);
  EXPECT_GT(manifest.phases.run_seconds, 0.0);
  EXPECT_GT(manifest.peak_rss, 0u);
  ASSERT_EQ(manifest.artifacts.size(), 1u);
  EXPECT_EQ(manifest.artifacts[0].kind, "curve-csv");
  EXPECT_EQ(manifest.artifacts[0].path, "-");
  EXPECT_FALSE(manifest.sweep.has_value());

  std::vector<obs::RunManifest> ledger = obs::read_ledger_file(ledger_path);
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].scenario_hash, manifest.scenario_hash);
  EXPECT_DOUBLE_EQ(ledger[0].outcome.final_infected_mean,
                   manifest.outcome.final_infected_mean);

  CliResult report = invoke({"report", manifest_path});
  ASSERT_EQ(report.code, 0) << report.err;
  EXPECT_NE(report.out.find("run: cli-test"), std::string::npos) << report.out;
  EXPECT_NE(report.out.find(manifest.scenario_hash), std::string::npos);
  EXPECT_NE(report.out.find("final infected"), std::string::npos);

  CliResult ledger_report = invoke({"report", "--ledger", ledger_path});
  ASSERT_EQ(ledger_report.code, 0) << ledger_report.err;
  EXPECT_NE(ledger_report.out.find("1 run(s)"), std::string::npos) << ledger_report.out;

  std::remove(scenario_path.c_str());
  std::remove(manifest_path.c_str());
  std::remove(ledger_path.c_str());
}

TEST(Cli, ManifestIsExecutionOnlyForTheSummary) {
  // Attaching --manifest must not change what the run computes or
  // prints — same contract every obs surface keeps.
  std::string scenario_path = write_small_scenario();
  std::string manifest_path = ::testing::TempDir() + "/mvsim_cli_manifest_inert_" +
                              std::to_string(static_cast<long long>(::getpid())) + ".json";
  CliResult plain = invoke({"run", scenario_path, "--reps", "2", "--seed", "11",
                            "--curve-csv", "-", "--quiet"});
  CliResult with = invoke({"run", scenario_path, "--reps", "2", "--seed", "11",
                           "--curve-csv", "-", "--quiet", "--manifest", manifest_path});
  ASSERT_EQ(plain.code, 0) << plain.err;
  ASSERT_EQ(with.code, 0) << with.err;
  EXPECT_EQ(plain.out, with.out);
  std::remove(scenario_path.c_str());
  std::remove(manifest_path.c_str());
}

TEST(Cli, SweepAppendsLedgerStreamsProgressAndFindsTheKnee) {
  std::string scenario_path = write_small_scenario();
  std::string ledger_path = ::testing::TempDir() + "/mvsim_cli_sweep_ledger_" +
                            std::to_string(static_cast<long long>(::getpid())) + ".ndjson";
  std::remove(ledger_path.c_str());
  CliResult r = invoke({"sweep", scenario_path, "--param", "gateway_scan.activation_delay_h",
                        "--values", "24,12,6,2", "--reps", "1", "--seed", "5", "--ledger",
                        ledger_path, "--progress"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("sweep: cli-test over gateway_scan.activation_delay_h"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("knee:"), std::string::npos) << r.out;

  // One ledger line per point, each tagged with its sweep position.
  std::vector<obs::RunManifest> ledger = obs::read_ledger_file(ledger_path);
  ASSERT_EQ(ledger.size(), 4u);
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    ASSERT_TRUE(ledger[i].sweep.has_value()) << i;
    EXPECT_EQ(ledger[i].sweep->parameter, "gateway_scan.activation_delay_h");
    EXPECT_EQ(ledger[i].sweep->index, static_cast<int>(i));
    EXPECT_EQ(ledger[i].sweep->count, 4);
    EXPECT_EQ(ledger[i].replications, 1);
  }
  EXPECT_DOUBLE_EQ(ledger[0].sweep->value, 24.0);
  EXPECT_DOUBLE_EQ(ledger[3].sweep->value, 2.0);
  // Different parameter values are different model inputs.
  EXPECT_NE(ledger[0].scenario_hash, ledger[3].scenario_hash);

  // --progress announces each point on stderr, with an ETA once a
  // point has finished.
  std::istringstream progress(r.err);
  std::vector<std::string> lines;
  for (std::string line; std::getline(progress, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u) << r.err;
  EXPECT_EQ(lines[0], "[1/4] gateway_scan.activation_delay_h = 24...");
  EXPECT_EQ(lines[1].rfind("[2/4] gateway_scan.activation_delay_h = 12... (ETA ", 0), 0u)
      << lines[1];
  EXPECT_EQ(lines[3].rfind("[4/4] gateway_scan.activation_delay_h = 2... (ETA ", 0), 0u)
      << lines[3];

  // The ledger report regroups the ladder and re-finds the knee.
  CliResult report = invoke({"report", "--ledger", ledger_path});
  ASSERT_EQ(report.code, 0) << report.err;
  EXPECT_NE(report.out.find("sweep gateway_scan.activation_delay_h (4 points):"),
            std::string::npos)
      << report.out;
  EXPECT_NE(report.out.find("knee:"), std::string::npos);

  std::remove(scenario_path.c_str());
  std::remove(ledger_path.c_str());
}

TEST(Cli, SweepListParamsAndBadFlags) {
  CliResult list = invoke({"sweep", "--list-params"});
  ASSERT_EQ(list.code, 0) << list.err;
  EXPECT_NE(list.out.find("gateway_scan.activation_delay_h"), std::string::npos);
  EXPECT_NE(list.out.find("blacklist.message_threshold"), std::string::npos);

  std::string path = write_small_scenario();
  EXPECT_EQ(invoke({"sweep"}).code, 1);
  EXPECT_EQ(invoke({"sweep", path, "--values", "1,2"}).code, 1) << "--param is required";
  CliResult unknown =
      invoke({"sweep", path, "--param", "no.such.knob", "--values", "1,2"});
  EXPECT_EQ(unknown.code, 1);
  EXPECT_NE(unknown.err.find("unknown parameter"), std::string::npos);
  EXPECT_NE(unknown.err.find("gateway_scan.activation_delay_h"), std::string::npos)
      << "the error must list the sweepable names";
  EXPECT_EQ(invoke({"sweep", path, "--param", "population", "--values", "500"}).code, 1)
      << "a ladder needs two values";
  EXPECT_EQ(invoke({"sweep", path, "--param", "population", "--values", "5,many"}).code, 1);
  EXPECT_EQ(invoke({"sweep", path, "--param", "population", "--values", "5,9", "--knee-fraction",
                    "1.5"})
                .code,
            1);
  CliResult unwritable = invoke({"sweep", path, "--param", "population", "--values", "100,200",
                                 "--ledger", "/no/such/dir/ledger.ndjson"});
  EXPECT_EQ(unwritable.code, 2);
  EXPECT_NE(unwritable.err.find("cannot write"), std::string::npos);

  // An integer knob takes only whole values in its range, and a bad
  // value anywhere in the ladder fails the sweep before any point runs
  // or reaches the ledger.
  const std::string ledger_path = ::testing::TempDir() + "/mvsim_cli_sweep_bad_" +
                                  std::to_string(static_cast<long long>(::getpid())) +
                                  ".ndjsonl";
  std::remove(ledger_path.c_str());
  for (const auto& [bad, named] :
       {std::pair{"10.9,20", "'10.9'"}, std::pair{"1e10,20", "'1e10'"}}) {
    CliResult integral = invoke({"sweep", path, "--param", "blacklist.message_threshold",
                                 "--values", bad, "--ledger", ledger_path});
    // Fatal: without the check, the population case below would try
    // to build ~1.4e9 phones.
    ASSERT_EQ(integral.code, 1) << bad << ": " << integral.err;
    EXPECT_NE(integral.err.find("blacklist.message_threshold"), std::string::npos)
        << integral.err;
    EXPECT_NE(integral.err.find(named), std::string::npos) << integral.err;
    EXPECT_TRUE(integral.out.empty()) << integral.out;
  }
  CliResult huge_population =
      invoke({"sweep", path, "--param", "population", "--values", "100,1e10"});
  EXPECT_EQ(huge_population.code, 1);
  EXPECT_NE(huge_population.err.find("'1e10'"), std::string::npos) << huge_population.err;
  CliResult late_invalid = invoke({"sweep", path, "--param", "gateway_scan.activation_delay_h",
                                   "--values", "6,12,-1", "--ledger", ledger_path});
  EXPECT_EQ(late_invalid.code, 2);
  EXPECT_TRUE(late_invalid.out.empty()) << late_invalid.out;
  EXPECT_FALSE(std::ifstream(ledger_path).good()) << "no point may reach the ledger";
  std::remove(ledger_path.c_str());
  std::remove(path.c_str());
}

TEST(Cli, ReportCompareVerdictsAndExitCodes) {
  // Two fixed-seed runs of the same scenario are outcome-identical:
  // every verdict OK at +0.0%, exit 0.
  std::string scenario_path = write_small_scenario();
  std::string a_path = ::testing::TempDir() + "/mvsim_cli_cmp_a_" +
                       std::to_string(static_cast<long long>(::getpid())) + ".json";
  std::string b_path = ::testing::TempDir() + "/mvsim_cli_cmp_b_" +
                       std::to_string(static_cast<long long>(::getpid())) + ".json";
  ASSERT_EQ(invoke({"run", scenario_path, "--reps", "2", "--seed", "42", "--quiet",
                    "--manifest", a_path})
                .code,
            0);
  ASSERT_EQ(invoke({"run", scenario_path, "--reps", "2", "--seed", "42", "--quiet",
                    "--manifest", b_path})
                .code,
            0);
  CliResult same = invoke({"report", "--compare", a_path, b_path});
  EXPECT_EQ(same.code, 0) << same.out;
  EXPECT_NE(same.out.find("report-compare: no regressions"), std::string::npos) << same.out;
  EXPECT_NE(same.out.find("OK        final_infected_mean"), std::string::npos) << same.out;
  EXPECT_EQ(same.out.find("REGRESSED"), std::string::npos) << same.out;

  // Hand-degrade the outcome: more infections and fewer patches past
  // any threshold must flip verdicts and the exit code.
  obs::RunManifest degraded = obs::read_manifest_file(a_path);
  degraded.outcome.final_infected_mean *= 4.0;
  degraded.outcome.peak_infected_mean *= 4.0;
  {
    std::ofstream file(b_path);
    file << json::stringify(obs::to_json(degraded), 2) << '\n';
  }
  CliResult worse = invoke({"report", "--compare", a_path, b_path});
  EXPECT_EQ(worse.code, 1) << worse.out;
  EXPECT_NE(worse.out.find("REGRESSED"), std::string::npos) << worse.out;
  EXPECT_NE(worse.out.find("regressed past"), std::string::npos) << worse.out;

  // A generous threshold waves the same delta through.
  CliResult lax = invoke({"report", "--compare", a_path, b_path, "--threshold", "0.99"});
  EXPECT_EQ(lax.code, 0) << lax.out;

  EXPECT_EQ(invoke({"report", "--compare", a_path}).code, 1);
  EXPECT_EQ(invoke({"report", "--compare", a_path, "/no/such/manifest.json"}).code, 2);
  EXPECT_EQ(invoke({"report", "--compare", a_path, b_path, "--threshold", "zero"}).code, 1);

  std::remove(scenario_path.c_str());
  std::remove(a_path.c_str());
  std::remove(b_path.c_str());
}

TEST(Cli, ReportRejectsBadInput) {
  EXPECT_EQ(invoke({"report"}).code, 1);
  EXPECT_EQ(invoke({"report", "/no/such/manifest.json"}).code, 2);
  EXPECT_EQ(invoke({"report", "--ledger"}).code, 1);
  EXPECT_EQ(invoke({"report", "--ledger", "/no/such/ledger.ndjson"}).code, 2);
  std::string path = ::testing::TempDir() + "/mvsim_cli_not_a_manifest.json";
  std::ofstream(path) << R"({"type": "something-else"})";
  CliResult r = invoke({"report", path});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("mvsim-manifest"), std::string::npos) << r.err;
  std::remove(path.c_str());
}

TEST(Cli, UsageMentionsManifestSweepAndReport) {
  CliResult r = invoke({"help"});
  EXPECT_NE(r.out.find("--manifest"), std::string::npos);
  EXPECT_NE(r.out.find("--ledger"), std::string::npos);
  EXPECT_NE(r.out.find("mvsim sweep"), std::string::npos);
  EXPECT_NE(r.out.find("mvsim report"), std::string::npos);
  EXPECT_NE(r.out.find("--list-params"), std::string::npos);
  EXPECT_NE(r.out.find("--compare"), std::string::npos);
}

TEST(Cli, ValidateAcceptsGoodFile) {
  std::string path = write_small_scenario();
  CliResult r = invoke({"validate", path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("OK: cli-test"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, ValidateRejectsBadFile) {
  std::string path = ::testing::TempDir() + "/mvsim_cli_bad.json";
  std::ofstream(path) << R"({"population": 1})";
  CliResult r = invoke({"validate", path});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("population"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, ValidateRejectsUnparsableJson) {
  std::string path = ::testing::TempDir() + "/mvsim_cli_syntax.json";
  std::ofstream(path) << "{ not json";
  CliResult r = invoke({"validate", path});
  EXPECT_EQ(r.code, 2);
  std::remove(path.c_str());
}

// ---- Hostile input: every reading verb exits 2, never with a signal ----

/// A per-process temp path (ctest may run tests concurrently).
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/mvsim_cli_" + std::to_string(static_cast<long long>(::getpid())) +
         "_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

/// Writes `text` to a temp file named `name` and returns its path.
std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = temp_path(name);
  std::ofstream(path) << text;
  return path;
}

/// Replaces the first `from` in `text` with `to`; fails the test when
/// `from` is absent.
std::string replace_first(std::string text, const std::string& from, const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// 50,000 nested arrays: deep enough to overflow the stack of an
/// unbounded recursive-descent parser.
std::string write_deep_json() {
  return write_temp("deep.json", std::string(50000, '[') + std::string(50000, ']') + "\n");
}

void expect_too_deep(const std::vector<std::string>& args) {
  CliResult r = invoke(args);
  EXPECT_EQ(r.code, 2) << r.err;
  EXPECT_NE(r.err.find("nesting too deep"), std::string::npos) << r.err;
}

TEST(Cli, RunRejectsDeeplyNestedJson) {
  const std::string path = write_deep_json();
  expect_too_deep({"run", path, "--reps", "1", "--quiet"});
  std::remove(path.c_str());
}

TEST(Cli, ValidateRejectsDeeplyNestedJson) {
  const std::string path = write_deep_json();
  expect_too_deep({"validate", path});
  std::remove(path.c_str());
}

TEST(Cli, ProfileAnalyzeRejectsDeeplyNestedJson) {
  const std::string path = write_deep_json();
  expect_too_deep({"profile-analyze", path});
  std::remove(path.c_str());
}

TEST(Cli, TraceAnalyzeRejectsDeeplyNestedJson) {
  const std::string path = write_deep_json();
  expect_too_deep({"trace-analyze", path});
  std::remove(path.c_str());
}

TEST(Cli, ReportRejectsDeeplyNestedJson) {
  const std::string path = write_deep_json();
  expect_too_deep({"report", path});
  std::remove(path.c_str());
}

TEST(Cli, ReportLedgerRejectsDeeplyNestedJson) {
  const std::string path = write_deep_json();
  expect_too_deep({"report", "--ledger", path});
  std::remove(path.c_str());
}

TEST(Cli, ValidateRejectsOutOfRangeIntegers) {
  const std::string preset = invoke({"preset", "virus1-baseline"}).out;
  const std::string threshold =
      write_temp("threshold.json", replace_first(preset, "\"detectability_threshold\": 5",
                                                 "\"detectability_threshold\": 1e300"));
  CliResult r = invoke({"validate", threshold});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("$.responses.detectability_threshold: expected a nonnegative integer"),
            std::string::npos)
      << r.err;
  const std::string cutoff = write_temp(
      "cutoff.json",
      replace_first(preset, "\"decision_cutoff\": 40", "\"decision_cutoff\": 1e300"));
  r = invoke({"validate", cutoff});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("$.decision_cutoff: expected an integer"), std::string::npos) << r.err;
  std::remove(threshold.c_str());
  std::remove(cutoff.c_str());
}

TEST(Cli, ReportRejectsOutOfRangeManifestCounts) {
  const std::string scenario_path = write_small_scenario();
  const std::string manifest_path = temp_path("manifest.json");
  ASSERT_EQ(invoke({"run", scenario_path, "--reps", "1", "--quiet", "--manifest", manifest_path})
                .code,
            0);
  const std::string huge = write_temp(
      "huge_manifest.json",
      replace_first(read_file(manifest_path), "\"replications\": 1", "\"replications\": 1e308"));
  CliResult r = invoke({"report", huge});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("'replications' is not a nonnegative integer"), std::string::npos) << r.err;
  std::remove(scenario_path.c_str());
  std::remove(manifest_path.c_str());
  std::remove(huge.c_str());
}

TEST(Cli, ProfileAnalyzeRejectsNegativeCounters) {
  const std::string scenario_path = write_small_scenario();
  const std::string profile_path = temp_path("profile.json");
  ASSERT_EQ(invoke({"run", scenario_path, "--reps", "1", "--quiet", "--profile", profile_path})
                .code,
            0);
  const std::string report = read_file(profile_path);
  const std::string key = "\"net.messages_blocked\": ";
  const std::size_t at = report.find(key);
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = report.find_first_of(",\n", at + key.size());
  std::string negative = report;
  negative.replace(at + key.size(), end - at - key.size(), "-5");
  const std::string path = write_temp("negative.json", negative);
  CliResult r = invoke({"profile-analyze", path});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("'net.messages_blocked' is not a nonnegative integer"), std::string::npos)
      << r.err;
  std::remove(scenario_path.c_str());
  std::remove(profile_path.c_str());
  std::remove(path.c_str());
}

TEST(Cli, TraceAnalyzeRejectsOutOfRangeIds) {
  const std::string scenario_path = write_small_scenario();
  const std::string trace_path = temp_path("trace.jsonl");
  ASSERT_EQ(
      invoke({"run", scenario_path, "--reps", "1", "--quiet", "--trace", trace_path}).code, 0);
  std::string trace = read_file(trace_path);
  const std::size_t at = trace.find("\"phone\":");
  ASSERT_NE(at, std::string::npos);
  trace.replace(at, trace.find_first_of(",}", at) - at, "\"phone\":1e300");
  const std::string path = write_temp("huge_phone.jsonl", trace);
  CliResult r = invoke({"trace-analyze", path});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("\"phone\" is not a nonnegative integer"), std::string::npos) << r.err;
  std::remove(scenario_path.c_str());
  std::remove(trace_path.c_str());
  std::remove(path.c_str());
}

// ---- Sweep verdicts: ranked by response strength, not by value order ----

/// The knee table of a `sweep` or `report --ledger` output: from the
/// table's header line through the "knee:" marker.
std::string knee_table(const std::string& out, const std::string& parameter) {
  const std::size_t begin = out.find(parameter + "      final");
  const std::size_t marker = out.find("knee:", begin);
  if (begin == std::string::npos || marker == std::string::npos) return "";
  return out.substr(begin, out.find('\n', marker) - begin);
}

/// Rows of a knee table whose verdict is "worth it", and how many of
/// them avoid no infection (must be none).
std::pair<int, int> worth_it_rows(const std::string& table) {
  std::istringstream rows(table);
  std::string row;
  int worth_it = 0, not_avoiding = 0;
  while (std::getline(rows, row)) {
    if (row.find("worth it") == std::string::npos) continue;
    double from = 0, to = 0, final_before = 0, final_after = 0, avoided = 0;
    if (std::sscanf(row.c_str(), "%lf -> %lf %lf %lf %lf", &from, &to, &final_before,
                    &final_after, &avoided) != 5) {
      ADD_FAILURE() << "unparsable row: " << row;
      continue;
    }
    ++worth_it;
    if (!(avoided > 0.0)) ++not_avoiding;
  }
  return {worth_it, not_avoiding};
}

TEST(Cli, SweepKneeTableDoesNotDependOnValueOrder) {
  // The same ladder given weakest-first and strongest-first: a shorter
  // activation delay is the stronger response either way.
  const std::string parameter = "gateway_scan.activation_delay_h";
  CliResult ascending = invoke({"sweep", "fig2-scan", "--param", parameter, "--values", "6,12,24",
                                "--reps", "2", "--seed", "5"});
  CliResult descending = invoke({"sweep", "fig2-scan", "--param", parameter, "--values",
                                 "24,12,6", "--reps", "2", "--seed", "5"});
  ASSERT_EQ(ascending.code, 0) << ascending.err;
  ASSERT_EQ(descending.code, 0) << descending.err;
  const std::string table = knee_table(ascending.out, parameter);
  ASSERT_FALSE(table.empty()) << ascending.out;
  EXPECT_EQ(table, knee_table(descending.out, parameter));
  EXPECT_EQ(worth_it_rows(table), std::make_pair(2, 0))
      << "both steps toward a faster scan avoid infections:\n" << table;
  EXPECT_NE(table.find("24.00 -> 12.00"), std::string::npos) << table;
  EXPECT_EQ(ascending.out.find("baseline"), std::string::npos) << ascending.out;
}

TEST(Cli, SweepWritesOneCurveColumnPerPoint) {
  const std::string scenario_path = write_small_scenario();
  const std::string csv_path = temp_path("sweep_curves.csv");
  CliResult r = invoke({"sweep", scenario_path, "--param", "blacklist.message_threshold",
                        "--values", "20,10", "--reps", "1", "--curve-csv", csv_path});
  ASSERT_EQ(r.code, 0) << r.err;
  std::istringstream csv(read_file(csv_path));
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line, "Hours,blacklist.message_threshold=20,blacklist.message_threshold=10");
  int rows = 0;
  while (std::getline(csv, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 2) << line;
    ++rows;
  }
  EXPECT_GT(rows, 1);
  CliResult unwritable = invoke({"sweep", scenario_path, "--param", "population", "--values",
                                 "100,200", "--curve-csv", "/no/such/dir/curves.csv"});
  EXPECT_EQ(unwritable.code, 2);
  EXPECT_TRUE(unwritable.out.empty()) << "the path is probed before any point runs";
  std::remove(scenario_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(Cli, ReportLedgerKeepsSweepsOfDifferentScenariosApart) {
  // One parameter swept on two base scenarios into one ledger: two
  // ladders, never one 6-point ladder mixing Virus 3 and Virus 1.
  const std::string parameter = "blacklist.message_threshold";
  const std::string ledger_path = temp_path("two_sweeps.ndjson");
  std::remove(ledger_path.c_str());
  for (const char* base : {"fig7-blacklist", "virus1-baseline"}) {
    CliResult r = invoke({"sweep", base, "--param", parameter, "--values", "40,20,10", "--reps",
                          "1", "--seed", "5", "--ledger", ledger_path});
    ASSERT_EQ(r.code, 0) << base << ": " << r.err;
  }
  CliResult report = invoke({"report", "--ledger", ledger_path});
  ASSERT_EQ(report.code, 0) << report.err;
  EXPECT_NE(report.out.find("fig7/blacklist: sweep " + parameter + " (3 points):"),
            std::string::npos)
      << report.out;
  EXPECT_NE(report.out.find("baseline/Virus 1: sweep " + parameter + " (3 points):"),
            std::string::npos)
      << report.out;
  EXPECT_EQ(report.out.find("6 points"), std::string::npos) << report.out;
  EXPECT_EQ(report.out.find("10.00 -> 40.00"), std::string::npos) << report.out;
  EXPECT_EQ(worth_it_rows(report.out).second, 0) << report.out;

  // A ledger naming a parameter the registry does not know (stale or
  // hand-edited) gets a note instead of a knee table.
  std::string ledger = read_file(ledger_path);
  for (std::size_t at = ledger.find(parameter); at != std::string::npos;
       at = ledger.find(parameter, at)) {
    ledger.replace(at, parameter.size(), "no.such.knob");
  }
  const std::string stale_path = write_temp("stale_sweeps.ndjson", ledger);
  CliResult stale = invoke({"report", "--ledger", stale_path});
  ASSERT_EQ(stale.code, 0) << stale.err;
  EXPECT_NE(stale.out.find("fig7/blacklist: sweep no.such.knob (3 points):\nno knee analysis"),
            std::string::npos)
      << stale.out;
  EXPECT_EQ(stale.out.find("knee:"), std::string::npos) << stale.out;
  std::remove(ledger_path.c_str());
  std::remove(stale_path.c_str());
}

TEST(Cli, SweepGivesNoVerdictOnPopulationParameters) {
  // Population size, the vulnerable share and the baseline acceptance
  // are properties of the phones, not a provider's response: neither
  // the sweep nor the ledger report may call a step "worth it".
  const std::string scenario_path = write_small_scenario();
  const std::string ledger_path = temp_path("population_sweeps.ndjson");
  std::remove(ledger_path.c_str());
  for (const auto& [parameter, values] :
       {std::pair{"population", "120,240"}, std::pair{"susceptible_fraction", "0.9,0.5"},
        std::pair{"eventual_acceptance", "0.4,0.2"}}) {
    CliResult r = invoke({"sweep", scenario_path, "--param", parameter, "--values", values,
                          "--reps", "1", "--seed", "5", "--ledger", ledger_path});
    ASSERT_EQ(r.code, 0) << parameter << ": " << r.err;
    EXPECT_NE(r.out.find("no knee analysis: '" + std::string(parameter) +
                         "' is not a response parameter\n"),
              std::string::npos)
        << r.out;
    EXPECT_EQ(r.out.find("worth it"), std::string::npos) << r.out;
    EXPECT_EQ(r.out.find("knee:"), std::string::npos) << r.out;
  }
  CliResult report = invoke({"report", "--ledger", ledger_path});
  ASSERT_EQ(report.code, 0) << report.err;
  EXPECT_NE(report.out.find("cli-test: sweep population (2 points):\nno knee analysis: "
                            "'population' is not a response parameter"),
            std::string::npos)
      << report.out;
  EXPECT_EQ(report.out.find("worth it"), std::string::npos) << report.out;
  EXPECT_EQ(report.out.find("knee:"), std::string::npos) << report.out;
  std::remove(scenario_path.c_str());
  std::remove(ledger_path.c_str());
}

TEST(Cli, SweepNamesPointsWithTheirValuesInFull) {
  // Whole values print whole (not 1e+06) and fractions as typed, in
  // the point lines and in the point scenario names the ledger keeps.
  const std::string scenario_path = write_small_scenario();
  const std::string ledger_path = temp_path("value_names.ndjson");
  std::remove(ledger_path.c_str());
  CliResult whole = invoke({"sweep", scenario_path, "--param", "detectability_threshold",
                            "--values", "5,1000000", "--reps", "1", "--ledger", ledger_path});
  ASSERT_EQ(whole.code, 0) << whole.err;
  EXPECT_NE(whole.out.find("\n  1000000 "), std::string::npos) << whole.out;
  CliResult fraction = invoke({"sweep", scenario_path, "--param", "gateway_detection.accuracy",
                               "--values", "0.95,0.8", "--reps", "1", "--ledger", ledger_path});
  ASSERT_EQ(fraction.code, 0) << fraction.err;
  std::vector<std::string> names;
  for (const obs::RunManifest& manifest : obs::read_ledger_file(ledger_path)) {
    names.push_back(manifest.scenario);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"cli-test/detectability_threshold=5",
                                             "cli-test/detectability_threshold=1000000",
                                             "cli-test/gateway_detection.accuracy=0.95",
                                             "cli-test/gateway_detection.accuracy=0.8"}));
  std::remove(scenario_path.c_str());
  std::remove(ledger_path.c_str());
}

TEST(Cli, LedgerReportComparesRuns) {
  // Runs are compared by appending them to one ledger: two same-seed
  // runs print two identical rows whose final and ci95 columns are the
  // outcome their manifests record.
  const std::string scenario_path = write_small_scenario();
  const std::string ledger_path = temp_path("compare_runs.ndjson");
  std::remove(ledger_path.c_str());
  for (int run = 0; run < 2; ++run) {
    CliResult r = invoke({"run", scenario_path, "--reps", "3", "--seed", "3", "--quiet",
                          "--ledger", ledger_path});
    ASSERT_EQ(r.code, 0) << r.err;
  }
  CliResult report = invoke({"report", "--ledger", ledger_path});
  ASSERT_EQ(report.code, 0) << report.err;
  std::istringstream lines(report.out);
  std::vector<std::vector<std::string>> table;  // header, then one row per run
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("scenario ", 0) != 0 && line.rfind("cli-test ", 0) != 0) continue;
    std::istringstream fields(line);
    table.emplace_back(std::istream_iterator<std::string>(fields),
                       std::istream_iterator<std::string>());
  }
  ASSERT_EQ(table.size(), 3u) << report.out;
  ASSERT_EQ(table[0], (std::vector<std::string>{"scenario", "reps", "thr", "final", "ci95",
                                                "patched", "events"}))
      << report.out;
  EXPECT_EQ(table[1], table[2]) << report.out;

  const obs::RunOutcome outcome = obs::read_ledger_file(ledger_path).front().outcome;
  const auto one_decimal = [](double value) {
    char text[32];
    std::snprintf(text, sizeof text, "%.1f", value);
    return std::string(text);
  };
  ASSERT_EQ(table[1].size(), 7u) << report.out;
  EXPECT_EQ(table[1][3], one_decimal(outcome.final_infected_mean)) << report.out;
  EXPECT_EQ(table[1][4], one_decimal(outcome.final_infected_ci95)) << report.out;
  std::remove(scenario_path.c_str());
  std::remove(ledger_path.c_str());
}

}  // namespace
}  // namespace mvsim::cli
