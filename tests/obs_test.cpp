// Tests for src/obs: the NDJSON stats stream, run manifests, the
// experiment ledger and the outcome comparison —
// header/record schemas, thread-safety of interleaved writers, and
// the three-way contracts between the canonical field lists, the keys
// emitted records actually carry, and the tables in
// docs/observability.md.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/manifest.h"
#include "obs/report.h"
#include "obs/stats_stream.h"
#include "util/json.h"

namespace mvsim::obs {
namespace {

RunSample filled_sample() {
  RunSample sample;
  sample.replication = 3;
  sample.time = SimTime::minutes(90.0);
  sample.infected = 17;
  sample.patched = 4;
  sample.messages_blocked = 9;
  sample.events_executed = 1234;
  sample.events_per_sec = 5000.5;
  sample.queue_depth = 42;
  return sample;
}

std::vector<std::string> object_keys(const json::Object& object) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : object.entries()) keys.push_back(key);
  return keys;
}

TEST(RunStreamTest, HeaderCarriesSchemaVersionProvenanceAndFieldLists) {
  std::ostringstream out;
  RunStream stream(out);
  stream.write_header({"unit-scenario", "00aabbccddeeff11", 8});
  json::Value doc = json::parse(out.str());
  const json::Object& root = doc.as_object();
  EXPECT_EQ(root.at("type").as_string(), "mvsim-stats");
  EXPECT_EQ(root.at("version").as_number(), static_cast<double>(RunStream::kVersion));
  EXPECT_EQ(RunStream::kVersion, 3) << "bumping the schema version needs a docs update";
  EXPECT_EQ(root.at("scenario").as_string(), "unit-scenario");
  EXPECT_EQ(root.at("scenario_hash").as_string(), "00aabbccddeeff11");
  EXPECT_EQ(root.at("git_sha").as_string(), build_info().git_sha);
  EXPECT_EQ(root.at("replications").as_number(), 8.0);
  // v3 carries no shard fields: mvsim streams serial runs only.
  EXPECT_EQ(root.find("shards"), nullptr);
  EXPECT_EQ(root.find("shard_fields"), nullptr);
  const json::Array& fields = root.at("fields").as_array();
  ASSERT_EQ(fields.size(), RunStream::sample_fields().size());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(fields[i].as_string(), RunStream::sample_fields()[i]);
  }
}

TEST(RunStreamTest, SampleRecordKeysMatchTheDeclaredSchemaExactly) {
  // The contract's first two legs: every emitted sample carries exactly
  // sample_fields(), in order, whatever it holds.
  std::ostringstream out;
  RunStream stream(out);
  stream.write_sample(filled_sample());
  RunSample serial;
  serial.replication = 0;
  serial.time = SimTime::minutes(30.0);
  stream.write_sample(serial);
  EXPECT_EQ(stream.samples_written(), 2u);

  std::istringstream lines(out.str());
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    json::Value doc = json::parse(line);
    const json::Object& record = doc.as_object();
    EXPECT_EQ(object_keys(record), RunStream::sample_fields()) << line;
    EXPECT_EQ(record.at("type").as_string(), "sample");
    ++parsed;
  }
  EXPECT_EQ(parsed, 2);
}

/// The sample writer before it appended lines directly: a json::Object
/// tree, stringified. Kept as the reference the direct writer must
/// match byte for byte.
std::string reference_sample_line(const RunSample& sample) {
  json::Object record;
  record.set("type", json::Value("sample"));
  record.set("rep", json::Value(sample.replication));
  record.set("t_min", json::Value(sample.time.to_minutes()));
  record.set("infected", json::Value(sample.infected));
  record.set("patched", json::Value(sample.patched));
  record.set("blocked", json::Value(sample.messages_blocked));
  record.set("events", json::Value(sample.events_executed));
  record.set("events_per_sec", json::Value(sample.events_per_sec));
  record.set("queue", json::Value(sample.queue_depth));
  return json::stringify(json::Value(std::move(record)), 0) + "\n";
}

TEST(RunStreamTest, DirectWriterMatchesTheTreeRendererByteForByte) {
  std::mt19937_64 rng(20070625);
  std::exponential_distribution<double> minutes(1.0 / 600.0);
  std::uniform_real_distribution<double> rate(0.0, 2e7);
  // Counters from small to past 2^53, where the double conversion
  // rounds and the writer switches from integer to %g form.
  const auto count = [&rng] {
    const int bits = static_cast<int>(rng() % 60);
    return bits == 0 ? std::uint64_t{0} : rng() >> (64 - bits);
  };
  std::ostringstream out;
  RunStream stream(out);
  std::string expected;
  for (int i = 0; i < 20000; ++i) {
    RunSample sample;
    sample.replication = static_cast<int>(rng() % 100000);
    // Whole-minute sample marks and arbitrary times.
    sample.time = SimTime::minutes(i % 2 == 0 ? std::floor(minutes(rng)) : minutes(rng));
    sample.infected = count();
    sample.patched = count();
    sample.messages_blocked = count();
    sample.events_executed = count();
    sample.events_per_sec = i % 7 == 0 ? 0.0 : rate(rng);
    sample.queue_depth = count();
    stream.write_sample(sample);
    expected += reference_sample_line(sample);
  }
  std::istringstream actual_lines(out.str());
  std::istringstream expected_lines(expected);
  std::string a;
  std::string e;
  while (std::getline(expected_lines, e) && std::getline(actual_lines, a)) ASSERT_EQ(a, e);
  EXPECT_EQ(out.str().size(), expected.size());
}

TEST(RunStreamTest, ConcurrentWritersInterleaveWholeLines) {
  // Replications on parallel workers share one stream; the mutex must
  // keep every line intact (parseable, correct schema) under load.
  std::ostringstream out;
  RunStream stream(out);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&stream, t] {
      for (int i = 0; i < kPerThread; ++i) {
        RunSample sample;
        sample.replication = t;
        sample.time = SimTime::minutes(static_cast<double>(i));
        stream.write_sample(sample);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(stream.samples_written(), static_cast<std::uint64_t>(kThreads * kPerThread));

  std::istringstream lines(out.str());
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    json::Value doc = json::parse(line);
    EXPECT_EQ(object_keys(doc.as_object()), RunStream::sample_fields());
    ++parsed;
  }
  EXPECT_EQ(parsed, kThreads * kPerThread);
}

// The contract's third leg: every field the stream emits is documented
// (backticked) in docs/observability.md, so the docs, the header's
// "fields" array and the records can never drift apart silently.
TEST(RunStreamDocs, EveryStreamFieldIsDocumented) {
#ifndef MVSIM_SOURCE_DIR
  GTEST_SKIP() << "MVSIM_SOURCE_DIR not defined";
#else
  std::ifstream file(std::string(MVSIM_SOURCE_DIR) + "/docs/observability.md");
  ASSERT_TRUE(file.is_open()) << "docs/observability.md missing";
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string doc = buffer.str();
  for (const std::string& field : RunStream::sample_fields()) {
    EXPECT_NE(doc.find("`" + field + "`"), std::string::npos)
        << field << " is in RunStream::sample_fields() but not documented";
  }
  EXPECT_NE(doc.find("\"type\":\"mvsim-stats\""), std::string::npos)
      << "the docs must show the header record";
#endif
}

// ---------------------------------------------------------------------------
// Run manifests & the experiment ledger
// ---------------------------------------------------------------------------

RunManifest sample_manifest() {
  RunManifest manifest;
  manifest.scenario = "unit-scenario";
  manifest.scenario_hash = "00aabbccddeeff11";
  manifest.seed = "18446744073709551615";  // u64 max: must survive as a string
  manifest.replications = 8;
  manifest.threads = 4;
  manifest.build = build_info();
  manifest.phases.run_seconds = 1.75;
  manifest.phases.write_seconds = 0.125;
  manifest.peak_rss = 123456789;
  manifest.artifacts = {{"metrics", "/tmp/m.json"}, {"stats-stream", "-"}};
  manifest.outcome.final_infected_mean = 512.5;
  manifest.outcome.final_infected_ci95 = 12.25;
  manifest.outcome.peak_infected_mean = 512.5;
  manifest.outcome.time_to_peak_h = 18.5;
  manifest.outcome.patched_mean = 100.0;
  manifest.outcome.messages_blocked_mean = 42.0;
  manifest.outcome.total_events = 987654;
  return manifest;
}

std::string temp_path(const char* tag) {
  return "/tmp/mvsim_obs_test_" + std::string(tag) + "_" + std::to_string(::getpid());
}

TEST(ManifestTest, JsonRoundTripPreservesEveryField) {
  RunManifest original = sample_manifest();
  SweepInfo sweep;
  sweep.parameter = "gateway_scan.activation_delay_h";
  sweep.value = 6.0;
  sweep.index = 2;
  sweep.count = 5;
  original.sweep = sweep;

  RunManifest copy = manifest_from_json(json::parse(json::stringify(to_json(original), 0)));
  EXPECT_EQ(copy.scenario, original.scenario);
  EXPECT_EQ(copy.scenario_hash, original.scenario_hash);
  EXPECT_EQ(copy.seed, "18446744073709551615");
  EXPECT_EQ(copy.replications, 8);
  EXPECT_EQ(copy.threads, 4);
  EXPECT_EQ(copy.build.git_sha, original.build.git_sha);
  EXPECT_EQ(copy.build.compiler, original.build.compiler);
  EXPECT_EQ(copy.build.build_type, original.build.build_type);
  EXPECT_DOUBLE_EQ(copy.phases.run_seconds, 1.75);
  EXPECT_DOUBLE_EQ(copy.phases.write_seconds, 0.125);
  EXPECT_EQ(copy.peak_rss, 123456789u);
  ASSERT_EQ(copy.artifacts.size(), 2u);
  EXPECT_EQ(copy.artifacts[0].kind, "metrics");
  EXPECT_EQ(copy.artifacts[1].path, "-");
  EXPECT_DOUBLE_EQ(copy.outcome.final_infected_mean, 512.5);
  EXPECT_DOUBLE_EQ(copy.outcome.final_infected_ci95, 12.25);
  EXPECT_DOUBLE_EQ(copy.outcome.time_to_peak_h, 18.5);
  EXPECT_DOUBLE_EQ(copy.outcome.patched_mean, 100.0);
  EXPECT_DOUBLE_EQ(copy.outcome.messages_blocked_mean, 42.0);
  EXPECT_EQ(copy.outcome.total_events, 987654u);
  ASSERT_TRUE(copy.sweep.has_value());
  EXPECT_EQ(copy.sweep->parameter, sweep.parameter);
  EXPECT_DOUBLE_EQ(copy.sweep->value, 6.0);
  EXPECT_EQ(copy.sweep->index, 2);
  EXPECT_EQ(copy.sweep->count, 5);
}

TEST(ManifestTest, ReportPrintsTheSweepValueInFull) {
  // The point line prints the value as the point's scenario name
  // embeds it: 1000000, not 1e+06.
  RunManifest manifest = sample_manifest();
  manifest.scenario = "ext/market-share/population=1000000";
  manifest.sweep = SweepInfo{"population", 1000000.0, 1, 2};
  EXPECT_NE(render_manifest(manifest).find("\n  sweep: population = 1000000 (point 2/2)\n"),
            std::string::npos)
      << render_manifest(manifest);
}

TEST(ManifestTest, EmittedKeysMatchTheCataloguesExactly) {
  // The contract's first leg: a manifest always carries exactly
  // manifest_fields(), in order, with each nested block carrying its
  // own catalogue — `sweep` included (null outside sweeps), so ledger
  // consumers never need conditional parsing.
  json::Value doc = to_json(sample_manifest());
  const json::Object& root = doc.as_object();
  EXPECT_EQ(object_keys(root), manifest_fields());
  EXPECT_EQ(object_keys(root.at("build").as_object()), build_fields());
  EXPECT_EQ(object_keys(root.at("phases").as_object()), phase_fields());
  EXPECT_EQ(object_keys(root.at("outcome").as_object()), outcome_fields());
  EXPECT_TRUE(root.at("sweep").is_null());
  for (const json::Value& artifact : root.at("artifacts").as_array()) {
    EXPECT_EQ(object_keys(artifact.as_object()), artifact_fields());
  }

  RunManifest swept = sample_manifest();
  swept.sweep = SweepInfo{"p", 1.0, 0, 2};
  json::Value swept_doc = to_json(swept);
  EXPECT_EQ(object_keys(swept_doc.as_object().at("sweep").as_object()), sweep_fields());
}

TEST(ManifestTest, RejectsMalformedDocuments) {
  EXPECT_THROW((void)manifest_from_json(json::parse("[1,2]")), std::runtime_error);
  EXPECT_THROW((void)manifest_from_json(json::parse(R"({"type":"not-a-manifest"})")),
               std::runtime_error);
  json::Value doc = to_json(sample_manifest());
  doc.as_object().set("version", json::Value(999));
  EXPECT_THROW((void)manifest_from_json(doc), std::runtime_error);
  // v1 manifests (with the retired shard fields) no longer load.
  EXPECT_EQ(RunManifest::kVersion, 2) << "bumping the schema version needs a docs update";
  json::Value v1 = to_json(sample_manifest());
  v1.as_object().set("version", json::Value(1));
  v1.as_object().set("shards", json::Value(1));
  v1.as_object().set("shard_window_min", json::Value(0.0));
  EXPECT_THROW((void)manifest_from_json(v1), std::runtime_error);
  json::Value missing = to_json(sample_manifest());
  missing.as_object().set("outcome", json::Value(nullptr));
  EXPECT_THROW((void)manifest_from_json(missing), std::runtime_error);
}

TEST(ManifestTest, BuildInfoIsStamped) {
  const BuildInfo info = build_info();
  EXPECT_FALSE(info.git_sha.empty());
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_FALSE(info.build_type.empty());
}

TEST(ManifestTest, Fnv1aMatchesKnownVectors) {
  EXPECT_EQ(fnv1a_hex(""), "cbf29ce484222325");
  EXPECT_EQ(fnv1a_hex("a"), "af63dc4c8601ec8c");
  EXPECT_EQ(fnv1a_hex("mvsim"), fnv1a_hex("mvsim"));
  EXPECT_NE(fnv1a_hex("mvsim"), fnv1a_hex("mvsin"));
}

TEST(LedgerTest, ConcurrentAppendersInterleaveWholeRecords) {
  // Parallel runs share one ledger file; O_APPEND single-write appends
  // must keep every NDJSON line intact (parseable, right scenario set)
  // under concurrency — the file analogue of the stream's mutex.
  const std::string path = temp_path("ledger");
  std::remove(path.c_str());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&path, t] {
      for (int i = 0; i < kPerThread; ++i) {
        RunManifest manifest = sample_manifest();
        manifest.scenario = "writer-" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE(append_to_ledger(path, manifest));
      }
    });
  }
  for (std::thread& writer : writers) writer.join();

  std::vector<RunManifest> manifests = read_ledger_file(path);
  EXPECT_EQ(manifests.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (const RunManifest& manifest : manifests) {
    EXPECT_EQ(manifest.scenario.rfind("writer-", 0), 0u) << manifest.scenario;
    EXPECT_EQ(manifest.seed, "18446744073709551615");
  }
  std::remove(path.c_str());
}

TEST(LedgerTest, ReadNamesTheOffendingLine) {
  const std::string path = temp_path("ledger_bad");
  {
    std::ofstream file(path);
    file << json::stringify(to_json(sample_manifest()), 0) << "\n\n{not json}\n";
  }
  try {
    (void)read_ledger_file(path);
    FAIL() << "expected a parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
  EXPECT_THROW((void)read_ledger_file("/no/such/dir/ledger.ndjson"), std::runtime_error);
}

// The contract's third leg for manifests: every field in the catalogues
// is documented (backticked) in docs/observability.md.
TEST(ManifestDocs, EveryManifestFieldIsDocumented) {
#ifndef MVSIM_SOURCE_DIR
  GTEST_SKIP() << "MVSIM_SOURCE_DIR not defined";
#else
  std::ifstream file(std::string(MVSIM_SOURCE_DIR) + "/docs/observability.md");
  ASSERT_TRUE(file.is_open()) << "docs/observability.md missing";
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string doc = buffer.str();
  auto expect_documented = [&doc](const std::vector<std::string>& fields, const char* list) {
    for (const std::string& field : fields) {
      EXPECT_NE(doc.find("`" + field + "`"), std::string::npos)
          << field << " is in " << list << " but not documented";
    }
  };
  expect_documented(manifest_fields(), "manifest_fields()");
  expect_documented(build_fields(), "build_fields()");
  expect_documented(phase_fields(), "phase_fields()");
  expect_documented(outcome_fields(), "outcome_fields()");
  expect_documented(sweep_fields(), "sweep_fields()");
  expect_documented(artifact_fields(), "artifact_fields()");
  EXPECT_NE(doc.find("\"type\":\"mvsim-manifest\""), std::string::npos)
      << "the docs must show the manifest record";
#endif
}

// ---------------------------------------------------------------------------
// Outcome comparison (`mvsim report --compare`)
// ---------------------------------------------------------------------------

const OutcomeDelta* find_row(const OutcomeComparison& comparison, const std::string& metric) {
  for (const OutcomeDelta& row : comparison.rows) {
    if (row.metric == metric) return &row;
  }
  return nullptr;
}

TEST(CompareTest, IdenticalOutcomesAreAllOkWithZeroChange) {
  RunManifest manifest = sample_manifest();
  OutcomeComparison comparison = compare_outcomes(manifest, manifest);
  // Every outcome field is compared except the CI half-width (a
  // precision figure, not an outcome).
  ASSERT_EQ(comparison.rows.size(), outcome_fields().size() - 1);
  EXPECT_EQ(comparison.regressions, 0);
  for (const OutcomeDelta& row : comparison.rows) {
    EXPECT_EQ(row.verdict, "OK") << row.metric;
    EXPECT_DOUBLE_EQ(row.change, 0.0) << row.metric;
  }
  const std::string rendered = render_comparison(manifest, manifest, comparison, 0.05);
  EXPECT_NE(rendered.find("report-compare: no regressions"), std::string::npos);
  EXPECT_EQ(rendered.find("note: scenario hashes differ"), std::string::npos);
}

TEST(CompareTest, DirectionsNormalizeSoNegativeMeansWorse) {
  RunManifest baseline = sample_manifest();
  RunManifest current = sample_manifest();
  // Fewer infections and more patches are improvements; an earlier
  // peak is a regression.
  current.outcome.final_infected_mean = baseline.outcome.final_infected_mean / 2.0;
  current.outcome.patched_mean = baseline.outcome.patched_mean * 2.0;
  current.outcome.time_to_peak_h = baseline.outcome.time_to_peak_h / 2.0;
  OutcomeComparison comparison = compare_outcomes(baseline, current);
  EXPECT_EQ(find_row(comparison, "final_infected_mean")->verdict, "IMPROVED");
  EXPECT_DOUBLE_EQ(find_row(comparison, "final_infected_mean")->change, 1.0);
  EXPECT_EQ(find_row(comparison, "patched_mean")->verdict, "IMPROVED");
  EXPECT_EQ(find_row(comparison, "time_to_peak_h")->verdict, "REGRESSED");
  EXPECT_DOUBLE_EQ(find_row(comparison, "time_to_peak_h")->change, -0.5);
  EXPECT_EQ(comparison.regressions, 1);

  // The reverse comparison flips the verdicts.
  OutcomeComparison reversed = compare_outcomes(current, baseline);
  EXPECT_EQ(find_row(reversed, "final_infected_mean")->verdict, "REGRESSED");
  EXPECT_EQ(find_row(reversed, "patched_mean")->verdict, "REGRESSED");
  EXPECT_EQ(find_row(reversed, "time_to_peak_h")->verdict, "IMPROVED");
}

TEST(CompareTest, ThresholdGatesTheVerdictFlip) {
  RunManifest baseline = sample_manifest();
  RunManifest current = sample_manifest();
  current.outcome.patched_mean = baseline.outcome.patched_mean * 1.04;  // +4%
  EXPECT_EQ(find_row(compare_outcomes(baseline, current, 0.05), "patched_mean")->verdict, "OK");
  EXPECT_EQ(find_row(compare_outcomes(baseline, current, 0.02), "patched_mean")->verdict,
            "IMPROVED");
  current.outcome.patched_mean = baseline.outcome.patched_mean * 0.90;  // -10%
  EXPECT_EQ(find_row(compare_outcomes(baseline, current, 0.05), "patched_mean")->verdict,
            "REGRESSED");
  EXPECT_EQ(find_row(compare_outcomes(baseline, current, 0.15), "patched_mean")->verdict, "OK");
}

TEST(CompareTest, NeutralMetricsReportChangeButNeverRegress) {
  RunManifest baseline = sample_manifest();
  RunManifest current = sample_manifest();
  current.outcome.messages_blocked_mean = baseline.outcome.messages_blocked_mean * 10.0;
  current.outcome.total_events = baseline.outcome.total_events / 10;
  OutcomeComparison comparison = compare_outcomes(baseline, current);
  EXPECT_EQ(find_row(comparison, "messages_blocked_mean")->verdict, "OK");
  EXPECT_GT(find_row(comparison, "messages_blocked_mean")->change, 1.0);
  EXPECT_EQ(find_row(comparison, "total_events")->verdict, "OK");
  EXPECT_LT(find_row(comparison, "total_events")->change, 0.0);
  EXPECT_EQ(comparison.regressions, 0);
}

TEST(CompareTest, DifferingScenarioHashesAreCalledOut) {
  RunManifest baseline = sample_manifest();
  RunManifest current = sample_manifest();
  current.scenario_hash = "ffffffffffffffff";
  OutcomeComparison comparison = compare_outcomes(baseline, current);
  const std::string rendered = render_comparison(baseline, current, comparison, 0.05);
  EXPECT_NE(rendered.find("note: scenario hashes differ"), std::string::npos);
}

}  // namespace
}  // namespace mvsim::obs
