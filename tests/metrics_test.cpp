// Tests for src/metrics and the observability surface end to end:
// registry arithmetic, snapshot merging (the thread-invariance
// property the runner relies on), JSON report round-trips, and the
// three-way contract between metrics::schema(), the names a run
// actually emits, and docs/observability.md.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/presets.h"
#include "core/runner.h"
#include "core/simulation.h"
#include "metrics/registry.h"
#include "metrics/report.h"
#include "util/json.h"
#include "virus/profile.h"

namespace mvsim::metrics {
namespace {

// ---- Registry arithmetic ------------------------------------------------

TEST(MetricsRegistry, CounterAddsAndDefaultsToOne) {
  Registry reg;
  reg.counter("a").add();
  reg.counter("a").add(41);
  EXPECT_EQ(reg.counter("a").value(), 42u);
  EXPECT_EQ(reg.counter("b").value(), 0u);
}

TEST(MetricsRegistry, GaugeTracksPeak) {
  Registry reg;
  Gauge& g = reg.gauge("depth");
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.value(), 3u);
  EXPECT_EQ(g.peak(), 7u);
}

TEST(MetricsRegistry, HistogramPlacesValuesIntoBuckets) {
  Registry reg;
  const std::vector<double> bounds = {1.0, 10.0, 100.0};
  Histogram& h = reg.histogram("h", bounds);
  h.record(0.5);    // <= 1
  h.record(1.0);    // <= 1 (bound is inclusive)
  h.record(5.0);    // <= 10
  h.record(100.0);  // <= 100
  h.record(1e9);    // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
}

TEST(MetricsRegistry, EmptyHistogramReportsZeroMinMax) {
  Registry reg;
  const std::vector<double> bounds = {1.0};
  Histogram& h = reg.histogram("h", bounds);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(MetricsRegistry, HistogramRejectsNonIncreasingBounds) {
  Registry reg;
  const std::vector<double> bad = {10.0, 10.0};
  EXPECT_THROW(reg.histogram("h", bad), std::invalid_argument);
}

TEST(MetricsRegistry, HistogramReregistrationMustMatchBounds) {
  Registry reg;
  const std::vector<double> bounds = {1.0, 2.0};
  reg.histogram("h", bounds);
  EXPECT_NO_THROW(reg.histogram("h", bounds));
  const std::vector<double> other = {1.0, 3.0};
  EXPECT_THROW(reg.histogram("h", other), std::invalid_argument);
}

TEST(MetricsRegistry, InstrumentReferencesAreStable) {
  Registry reg;
  Counter& a = reg.counter("a");
  for (int i = 0; i < 100; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    reg.counter(name);
  }
  a.add(5);
  EXPECT_EQ(reg.counter("a").value(), 5u);
}

TEST(MetricsRegistry, SnapshotIsSortedByName) {
  Registry reg;
  reg.counter("z").add(1);
  reg.counter("a").add(2);
  reg.counter("m").add(3);
  Snapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 3u);
  EXPECT_EQ(s.counters[0].name, "a");
  EXPECT_EQ(s.counters[1].name, "m");
  EXPECT_EQ(s.counters[2].name, "z");
}

// ---- Snapshot merging ---------------------------------------------------

Snapshot make_snapshot(std::uint64_t c, std::uint64_t g, double sample) {
  Registry reg;
  reg.counter("c").add(c);
  reg.gauge("g").set(g);
  const std::vector<double> bounds = {10.0, 100.0};
  reg.histogram("h", bounds).record(sample);
  return reg.snapshot();
}

TEST(MetricsSnapshot, MergeAddsCountersMaxesGaugesAddsBuckets) {
  Snapshot a = make_snapshot(3, 7, 5.0);
  Snapshot b = make_snapshot(4, 2, 50.0);
  a.merge(b);
  EXPECT_EQ(a.counter_value("c"), 7u);
  EXPECT_EQ(a.find_gauge("g")->value, 7u);
  EXPECT_EQ(a.find_gauge("g")->peak, 7u);
  const HistogramSample* h = a.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_DOUBLE_EQ(h->sum, 55.0);
  EXPECT_DOUBLE_EQ(h->min, 5.0);
  EXPECT_DOUBLE_EQ(h->max, 50.0);
  EXPECT_EQ(h->bucket_counts[0], 1u);
  EXPECT_EQ(h->bucket_counts[1], 1u);
}

TEST(MetricsSnapshot, MergeIsOrderInvariant) {
  Snapshot forward = make_snapshot(1, 10, 1.0);
  forward.merge(make_snapshot(2, 20, 2.0));
  forward.merge(make_snapshot(3, 30, 3.0));

  Snapshot backward = make_snapshot(3, 30, 3.0);
  backward.merge(make_snapshot(2, 20, 2.0));
  backward.merge(make_snapshot(1, 10, 1.0));

  EXPECT_EQ(forward, backward);
}

TEST(MetricsSnapshot, MergeHandlesDisjointNames) {
  Registry ra;
  ra.counter("only_a").add(1);
  Registry rb;
  rb.counter("only_b").add(2);
  Snapshot a = ra.snapshot();
  a.merge(rb.snapshot());
  EXPECT_EQ(a.counter_value("only_a"), 1u);
  EXPECT_EQ(a.counter_value("only_b"), 2u);
  EXPECT_EQ(a.counter_value("absent"), 0u);
}

TEST(MetricsSnapshot, MergeRejectsMismatchedHistogramBounds) {
  Registry ra;
  const std::vector<double> b1 = {1.0};
  ra.histogram("h", b1);
  Registry rb;
  const std::vector<double> b2 = {2.0};
  rb.histogram("h", b2);
  Snapshot a = ra.snapshot();
  EXPECT_THROW(a.merge(rb.snapshot()), std::logic_error);
}

// ---- JSON reports -------------------------------------------------------

TEST(MetricsReport, SnapshotJsonRoundTripsExactly) {
  Registry reg;
  reg.counter("x.count").add(123);
  reg.gauge("x.depth").set(9);
  reg.gauge("x.depth").set(4);
  const std::vector<double> bounds = {1.0, 5.0, 25.0};
  Histogram& h = reg.histogram("x.wall", bounds);
  h.record(0.25);
  h.record(80.0);
  Snapshot original = reg.snapshot();

  Snapshot reloaded = snapshot_from_json(snapshot_to_json(original));
  EXPECT_EQ(original, reloaded);
}

TEST(MetricsReport, ReportJsonCarriesRunInfoAndDerivedThroughput) {
  Registry reg;
  reg.counter("des.events_executed").add(1000);
  const std::vector<double> bounds = {1.0, 100.0};
  reg.histogram("timing.replication_wall_ms", bounds).record(500.0);
  ReportInfo info;
  info.scenario = "unit";
  info.replications = 1;
  info.threads = 2;
  info.master_seed = 99;

  json::Value doc = report_to_json(info, reg.snapshot());
  const json::Object& root = doc.as_object();
  EXPECT_EQ(root.at("schema_version").as_number(), 1.0);
  EXPECT_EQ(root.at("scenario").as_string(), "unit");
  EXPECT_EQ(root.at("threads").as_number(), 2.0);
  const json::Object& derived = root.at("derived").as_object();
  EXPECT_EQ(derived.at("events_processed").as_number(), 1000.0);
  // 1000 events over 500 ms of replication wall time = 2000 events/s.
  EXPECT_DOUBLE_EQ(derived.at("events_per_second_aggregate").as_number(), 2000.0);
}

// ---- Schema -------------------------------------------------------------

TEST(MetricsSchema, IsSortedAndFindable) {
  auto catalogue = schema();
  ASSERT_FALSE(catalogue.empty());
  for (std::size_t i = 1; i < catalogue.size(); ++i) {
    EXPECT_LT(std::string_view(catalogue[i - 1].name), std::string_view(catalogue[i].name))
        << "schema out of order at " << catalogue[i].name;
  }
  EXPECT_NE(schema_find("des.events_executed"), nullptr);
  EXPECT_EQ(schema_find("no.such.metric"), nullptr);
  EXPECT_EQ(schema_find("des.events_executed")->kind, MetricKind::kCounter);
}

TEST(MetricsSchema, OnlyTimingAndProfilingValuesAreMachineDependent) {
  for (const MetricDescriptor& d : schema()) {
    bool is_wall_clock = (std::string_view(d.name).starts_with("timing.") &&
                          std::string_view(d.name) != "timing.replications") ||
                         std::string_view(d.name).starts_with("prof.") ||
                         std::string_view(d.name) == "shard.barrier_wait_ms";
    EXPECT_EQ(d.machine_dependent, is_wall_clock) << d.name;
  }
}

// ---- End-to-end against real simulations --------------------------------

core::ScenarioConfig small_scenario() {
  core::ScenarioConfig config = core::baseline_scenario(virus::virus1());
  config.name = "metrics-test";
  config.population = 200;
  config.topology.mean_degree = 16;
  config.horizon = SimTime::hours(48.0);
  return config;
}

core::ScenarioConfig full_suite_scenario() {
  core::ScenarioConfig config = small_scenario();
  config.responses.gateway_scan.emplace();
  config.responses.gateway_detection.emplace();
  config.responses.user_education.emplace();
  config.responses.immunization.emplace();
  config.responses.monitoring.emplace();
  config.responses.blacklist.emplace();
  config.responses.rate_limiter.emplace();
  return config;
}

std::set<std::string> emitted_names(const Snapshot& snapshot) {
  std::set<std::string> names;
  for (const auto& c : snapshot.counters) names.insert(c.name);
  for (const auto& g : snapshot.gauges) names.insert(g.name);
  for (const auto& h : snapshot.histograms) names.insert(h.name);
  return names;
}

TEST(MetricsEndToEnd, FullSuiteRunEmitsExactlyTheSchemaCatalogue) {
  // No single run can emit the whole catalogue: shard.* requires
  // shards >= 2, while the serial engine covers the Bluetooth-capable
  // paths a sharded run rejects. The union of a serial-profiled run
  // and a sharded-profiled run covers it, and each run must emit only
  // schema names.
  core::RunnerOptions options;
  options.replications = 2;
  options.threads = 1;
  // Profiling must be on so the prof.* histograms (eagerly registered by
  // the profiler) are part of the emitted set.
  options.profile = true;
  core::ExperimentResult profiled = core::run_experiment(full_suite_scenario(), options);

  core::RunnerOptions sharded_options;
  sharded_options.replications = 2;
  sharded_options.threads = 1;
  sharded_options.shards = 2;
  sharded_options.profile = true;
  core::ExperimentResult sharded = core::run_experiment(full_suite_scenario(), sharded_options);

  std::set<std::string> expected;
  for (const MetricDescriptor& d : schema()) expected.insert(d.name);
  // timing.events_per_sec only materializes for timeable replications,
  // which is not guaranteed on a coarse clock; everything else must
  // match the catalogue exactly.
  std::set<std::string> emitted = emitted_names(profiled.metrics);
  for (const std::string& name : emitted_names(sharded.metrics)) emitted.insert(name);
  emitted.insert("timing.events_per_sec");
  EXPECT_EQ(emitted, expected);
}

TEST(MetricsEndToEnd, ReplicationSnapshotsMatchReplicationResults) {
  core::Simulation sim(small_scenario(), 1234);
  core::ReplicationResult result = sim.run();
  const Snapshot& m = result.metrics;
  EXPECT_EQ(m.counter_value("core.infections"), result.total_infected);
  EXPECT_GT(m.counter_value("des.events_executed"), 0u);
  EXPECT_GE(m.counter_value("des.events_scheduled"), m.counter_value("des.events_executed"));
  EXPECT_GT(m.counter_value("rng.draws"), 0u);
  const GaugeSample* depth = m.find_gauge("des.queue_depth_peak");
  ASSERT_NE(depth, nullptr);
  EXPECT_GT(depth->peak, 0u);
}

TEST(MetricsEndToEnd, NonTimingMetricsAreDeterministicAndThreadInvariant) {
  core::ScenarioConfig config = full_suite_scenario();
  core::RunnerOptions options;
  options.replications = 4;
  options.threads = 1;
  core::ExperimentResult serial = core::run_experiment(config, options);
  options.threads = 4;
  core::ExperimentResult parallel = core::run_experiment(config, options);

  auto strip_timing = [](const Snapshot& snapshot) {
    Snapshot stripped;
    for (const auto& c : snapshot.counters) {
      if (!c.name.starts_with("timing.")) stripped.counters.push_back(c);
    }
    for (const auto& g : snapshot.gauges) {
      if (!g.name.starts_with("timing.")) stripped.gauges.push_back(g);
    }
    for (const auto& h : snapshot.histograms) {
      if (!h.name.starts_with("timing.")) stripped.histograms.push_back(h);
    }
    return stripped;
  };
  EXPECT_EQ(strip_timing(serial.metrics), strip_timing(parallel.metrics));
  EXPECT_EQ(serial.metrics.counter_value("timing.replications"), 4u);
  EXPECT_EQ(parallel.metrics.counter_value("timing.replications"), 4u);
}

TEST(MetricsEndToEnd, MergedCountersEqualSumOfReplications) {
  core::RunnerOptions options;
  options.replications = 3;
  options.threads = 1;
  options.keep_replications = true;
  core::ExperimentResult result = core::run_experiment(small_scenario(), options);
  ASSERT_EQ(result.replications.size(), 3u);
  std::uint64_t sum = 0;
  for (const auto& rep : result.replications) {
    sum += rep.metrics.counter_value("des.events_executed");
  }
  EXPECT_EQ(result.metrics.counter_value("des.events_executed"), sum);
}

// ---- Documentation contract ---------------------------------------------

TEST(MetricsDocs, EveryScheduledMetricIsDocumented) {
#ifndef MVSIM_SOURCE_DIR
  GTEST_SKIP() << "MVSIM_SOURCE_DIR not defined";
#else
  std::ifstream file(std::string(MVSIM_SOURCE_DIR) + "/docs/observability.md");
  ASSERT_TRUE(file.is_open()) << "docs/observability.md missing";
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string doc = buffer.str();
  for (const MetricDescriptor& d : schema()) {
    std::string quoted = "`";
    quoted += d.name;
    quoted += '`';
    EXPECT_NE(doc.find(quoted), std::string::npos)
        << d.name << " is in metrics::schema() but not documented in docs/observability.md";
  }
#endif
}

}  // namespace
}  // namespace mvsim::metrics
