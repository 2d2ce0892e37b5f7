// Tests for the hot-path profiler (src/prof): metric-name catalogue,
// scoped phase timers, merge commutativity, scheduler integration and
// the profile-analyze report. The observation-only guarantee itself
// (profiling does not perturb results) is pinned by golden_test.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/presets.h"
#include "core/runner.h"
#include "des/scheduler.h"
#include "metrics/report.h"
#include "prof/profile_io.h"
#include "prof/profiler.h"
#include "util/json.h"

namespace mvsim {
namespace {

// ---- Names and eager registration ---------------------------------------

TEST(Profiler, MetricNamesCoverEveryEventTypeAndPhase) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < des::kEventTypeCount; ++i) {
    std::string name = prof::event_metric_name(static_cast<des::EventType>(i));
    EXPECT_TRUE(name.starts_with("prof.event.")) << name;
    names.insert(name);
  }
  EXPECT_EQ(names.size(), des::kEventTypeCount) << "duplicate event metric name";
  for (std::size_t i = 0; i < prof::kPhaseCount; ++i) {
    std::string name = prof::phase_metric_name(static_cast<prof::Phase>(i));
    EXPECT_TRUE(name.starts_with("prof.phase.")) << name;
    names.insert(name);
  }
  EXPECT_EQ(names.size(), des::kEventTypeCount + prof::kPhaseCount);
}

TEST(Profiler, EagerlyRegistersExactlyTheSchemaProfCatalogue) {
  // A fresh profiler's snapshot must carry every prof.* name the schema
  // declares — zero-count histograms included — so merged profiles are
  // structurally identical no matter which events actually fired.
  std::set<std::string> emitted;
  for (const auto& h : prof::Profiler().snapshot().histograms) {
    emitted.insert(h.name);
    EXPECT_EQ(h.count, 0u) << h.name;
  }
  std::set<std::string> declared;
  for (const metrics::MetricDescriptor& d : metrics::schema()) {
    if (std::string_view(d.name).starts_with("prof.")) declared.insert(std::string(d.name));
  }
  EXPECT_EQ(emitted, declared);
}

// ---- Recording ----------------------------------------------------------

TEST(Profiler, RecordEventLandsInTheTypedHistogram) {
  prof::Profiler profiler;
  profiler.record_event(des::EventType::kVirusSend, 3.0);
  profiler.record_event(des::EventType::kVirusSend, 5.0);
  profiler.record_event(des::EventType::kPhoneRead, 7.0);

  metrics::Snapshot snapshot = profiler.snapshot();
  const metrics::HistogramSample* send =
      snapshot.find_histogram(prof::event_metric_name(des::EventType::kVirusSend));
  ASSERT_NE(send, nullptr);
  EXPECT_EQ(send->count, 2u);
  EXPECT_DOUBLE_EQ(send->sum, 8.0);
  const metrics::HistogramSample* read =
      snapshot.find_histogram(prof::event_metric_name(des::EventType::kPhoneRead));
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->count, 1u);
  const metrics::HistogramSample* generic =
      snapshot.find_histogram(prof::event_metric_name(des::EventType::kGeneric));
  ASSERT_NE(generic, nullptr);
  EXPECT_EQ(generic->count, 0u);
}

TEST(Profiler, ScopedPhaseRecordsOneSampleAndNullIsANoOp) {
  prof::Profiler profiler;
  {
    prof::ScopedPhase phase(&profiler, prof::Phase::kBuild);
  }
  {
    prof::ScopedPhase ignored(nullptr, prof::Phase::kRun);  // must not crash
  }
  metrics::Snapshot snapshot = profiler.snapshot();
  const metrics::HistogramSample* build =
      snapshot.find_histogram(prof::phase_metric_name(prof::Phase::kBuild));
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->count, 1u);
  EXPECT_GE(build->sum, 0.0);
  const metrics::HistogramSample* run =
      snapshot.find_histogram(prof::phase_metric_name(prof::Phase::kRun));
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->count, 0u);
}

TEST(Profiler, NestedScopesAccountTheOuterSpanAsAtLeastTheInner) {
  prof::Profiler profiler;
  {
    prof::ScopedPhase outer(&profiler, prof::Phase::kRun);
    {
      prof::ScopedPhase inner(&profiler, prof::Phase::kCollect);
      // Busy-wait so the inner span is reliably nonzero on any clock.
      auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
      while (std::chrono::steady_clock::now() < until) {
      }
    }
  }
  metrics::Snapshot snapshot = profiler.snapshot();
  const metrics::HistogramSample* outer =
      snapshot.find_histogram(prof::phase_metric_name(prof::Phase::kRun));
  const metrics::HistogramSample* inner =
      snapshot.find_histogram(prof::phase_metric_name(prof::Phase::kCollect));
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_GT(inner->sum, 0.0);
  EXPECT_GE(outer->sum, inner->sum);
}

TEST(Profiler, SnapshotsMergeCommutatively) {
  prof::Profiler a;
  a.record_event(des::EventType::kVirusSend, 2.0);
  a.record_phase(prof::Phase::kBuild, 10.0);
  prof::Profiler b;
  b.record_event(des::EventType::kVirusSend, 100.0);
  b.record_event(des::EventType::kBluetoothScan, 1.0);
  b.record_phase(prof::Phase::kRun, 50.0);

  metrics::Snapshot ab = a.snapshot();
  ab.merge(b.snapshot());
  metrics::Snapshot ba = b.snapshot();
  ba.merge(a.snapshot());
  EXPECT_EQ(ab, ba);

  const metrics::HistogramSample* send =
      ab.find_histogram(prof::event_metric_name(des::EventType::kVirusSend));
  ASSERT_NE(send, nullptr);
  EXPECT_EQ(send->count, 2u);
  EXPECT_DOUBLE_EQ(send->sum, 102.0);
}

// ---- Scheduler integration ----------------------------------------------

TEST(Profiler, SchedulerAttributesExecutedEventsToTheirTypes) {
  prof::Profiler profiler;
  des::Scheduler scheduler;
  scheduler.set_event_timer(&profiler);
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    scheduler.schedule_at(SimTime::minutes(static_cast<double>(i)), des::EventType::kVirusSend,
                          [&fired] { ++fired; });
  }
  scheduler.schedule_at(SimTime::minutes(10.0), [&fired] { ++fired; });  // untyped -> kGeneric
  scheduler.run_to_quiescence();
  ASSERT_EQ(fired, 6);

  metrics::Snapshot snapshot = profiler.snapshot();
  const metrics::HistogramSample* send =
      snapshot.find_histogram(prof::event_metric_name(des::EventType::kVirusSend));
  ASSERT_NE(send, nullptr);
  EXPECT_EQ(send->count, 5u);
  const metrics::HistogramSample* generic =
      snapshot.find_histogram(prof::event_metric_name(des::EventType::kGeneric));
  ASSERT_NE(generic, nullptr);
  EXPECT_EQ(generic->count, 1u);
}

/// Sum of every prof.event.* histogram, in milliseconds.
double event_ms(const metrics::Snapshot& snapshot) {
  double micros = 0.0;
  for (std::size_t i = 0; i < des::kEventTypeCount; ++i) {
    const metrics::HistogramSample* h =
        snapshot.find_histogram(prof::event_metric_name(static_cast<des::EventType>(i)));
    if (h != nullptr) micros += h->sum;
  }
  return micros / 1000.0;
}

TEST(Profiler, TimeBetweenRunCallsIsNotChargedToEvents) {
  // Each run call restarts the event-boundary clock, so what happens
  // between two run calls (stats samples, window barriers) never lands
  // on the next event.
  prof::Profiler profiler;
  des::Scheduler scheduler;
  scheduler.set_event_timer(&profiler);
  for (int i = 1; i <= 4; ++i) {
    scheduler.schedule_at(SimTime::minutes(static_cast<double>(i)), des::EventType::kVirusSend,
                          [] {});
  }
  scheduler.run_until(SimTime::minutes(2.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  scheduler.run_until(SimTime::minutes(10.0));

  const metrics::Snapshot snapshot = profiler.snapshot();
  const metrics::HistogramSample* send =
      snapshot.find_histogram(prof::event_metric_name(des::EventType::kVirusSend));
  ASSERT_NE(send, nullptr);
  EXPECT_EQ(send->count, 4u);
  EXPECT_LT(event_ms(snapshot), 20.0);
}

TEST(Profiler, BoundaryTimingCoversTheRunPhase) {
  // One clock read per event boundary charges every event its pop and
  // dispatch too, so the event histograms add up to the whole event
  // loop of a serial replication.
  core::RunnerOptions options;
  options.replications = 1;
  options.profile = true;
  const core::ExperimentResult result =
      core::run_experiment(core::baseline_scenario(virus::virus1()), options);
  const metrics::HistogramSample* run =
      result.metrics.find_histogram(prof::phase_metric_name(prof::Phase::kRun));
  ASSERT_NE(run, nullptr);
  ASSERT_GT(run->sum, 0.0);
  EXPECT_GE(event_ms(result.metrics), 0.98 * run->sum)
      << event_ms(result.metrics) << " ms of events in a " << run->sum << " ms run phase";
}

// ---- Quantile estimation ------------------------------------------------

metrics::HistogramSample sample_histogram() {
  metrics::HistogramSample h;
  h.name = "test";
  h.upper_bounds = {1.0, 2.0, 4.0};
  h.bucket_counts = {0, 10, 0, 0};  // all ten samples in (1, 2]
  h.count = 10;
  h.sum = 15.0;
  h.min = 1.2;
  h.max = 1.9;
  return h;
}

TEST(ProfileIo, HistogramQuantileInterpolatesInsideTheWinningBucket) {
  metrics::HistogramSample h = sample_histogram();
  double p50 = prof::histogram_quantile(h, 0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  EXPECT_LE(prof::histogram_quantile(h, 0.1), p50);
  EXPECT_LE(p50, prof::histogram_quantile(h, 0.9));
}

TEST(ProfileIo, HistogramQuantileHandlesEmptyAndOverflow) {
  metrics::HistogramSample empty;
  empty.upper_bounds = {1.0};
  empty.bucket_counts = {0, 0};
  EXPECT_DOUBLE_EQ(prof::histogram_quantile(empty, 0.5), 0.0);

  metrics::HistogramSample overflow;
  overflow.name = "overflow";
  overflow.upper_bounds = {1.0};
  overflow.bucket_counts = {0, 4};  // everything past the last bound
  overflow.count = 4;
  overflow.sum = 40.0;
  overflow.min = 8.0;
  overflow.max = 12.0;
  EXPECT_DOUBLE_EQ(prof::histogram_quantile(overflow, 0.99), 12.0);
}

// ---- Profile report ------------------------------------------------------

TEST(ProfileIo, ProfileReportRequiresProfilingData) {
  metrics::ReportInfo info;
  info.scenario = "empty";
  info.replications = 1;
  info.threads = 1;
  metrics::Snapshot no_prof_data;
  std::ostringstream report;
  EXPECT_THROW(prof::write_profile_report(info, no_prof_data, report), std::invalid_argument);
  EXPECT_TRUE(report.str().empty()) << "nothing is printed for a report without profile data";
}

TEST(ProfileIo, ProfileReportRanksEventsFromTheSnapshot) {
  prof::Profiler profiler;
  profiler.record_event(des::EventType::kVirusSend, 10.0);
  profiler.record_event(des::EventType::kPhoneRead, 30.0);
  profiler.record_phase(prof::Phase::kRun, 0.08);

  metrics::ReportInfo info;
  info.scenario = "prof-test";
  info.replications = 3;
  info.threads = 2;
  info.master_seed = 7;
  std::ostringstream full;
  prof::write_profile_report(info, profiler.snapshot(), full);
  const std::string text = full.str();
  EXPECT_NE(text.find("profile: prof-test (3 replication(s), 2 thread(s))"), std::string::npos)
      << text;
  EXPECT_NE(text.find("-- phases"), std::string::npos) << text;
  // Sorting is by total time descending, so the read (30us) outranks
  // the send (10us); zero-count event types are not listed.
  const std::size_t read = text.find("phone_read");
  const std::size_t send = text.find("virus_send");
  ASSERT_NE(read, std::string::npos) << text;
  ASSERT_NE(send, std::string::npos) << text;
  EXPECT_LT(read, send);
  EXPECT_NE(text.find("75.0%"), std::string::npos) << "phone_read share of 0.04 ms: " << text;
  EXPECT_EQ(text.find("message_delivery"), std::string::npos) << text;
  EXPECT_NE(text.find("coverage: 0.04 ms attributed to events of 0.08 ms run-phase wall-clock "
                      "(50.0%)"),
            std::string::npos)
      << text;

  std::ostringstream top1;
  prof::write_profile_report(info, profiler.snapshot(), top1, 1);
  EXPECT_NE(top1.str().find("phone_read"), std::string::npos);
  EXPECT_EQ(top1.str().find("virus_send"), std::string::npos) << "--top 1 must truncate";
}

TEST(ProfileIo, ProfileReportReadsTheMetricsReportRoundTrip) {
  // profile-analyze reads the `--metrics` JSON back through
  // snapshot_from_json; the table must not change across that trip.
  prof::Profiler profiler;
  profiler.record_event(des::EventType::kPhoneRead, 12.345);
  profiler.record_event(des::EventType::kVirusSend, 0.1);
  profiler.record_phase(prof::Phase::kBuild, 1.25);
  profiler.record_phase(prof::Phase::kRun, 0.5);
  metrics::ReportInfo info;
  info.scenario = "round-trip";
  info.replications = 1;
  info.threads = 1;
  const metrics::Snapshot snapshot = profiler.snapshot();
  const metrics::Snapshot reloaded = metrics::snapshot_from_json(
      json::parse(json::stringify(metrics::report_to_json(info, snapshot), 2)));
  std::ostringstream direct, via_json;
  prof::write_profile_report(info, snapshot, direct);
  prof::write_profile_report(info, reloaded, via_json);
  EXPECT_EQ(direct.str(), via_json.str());
}

}  // namespace
}  // namespace mvsim
