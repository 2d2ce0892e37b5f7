#include "config/results_io.h"

#include <cstdio>
#include <ostream>

#include "util/csv.h"
#include "util/duration.h"

namespace mvsim::config {

namespace {
json::Value accumulator_to_json(const stats::Accumulator& acc) {
  json::Object o;
  o.set("mean", json::Value(acc.mean()));
  o.set("ci95", json::Value(acc.ci95_half_width()));
  o.set("min", json::Value(acc.min()));
  o.set("max", json::Value(acc.max()));
  return json::Value(std::move(o));
}
}  // namespace

json::Value results_to_json(const core::ScenarioConfig& scenario,
                            const core::ExperimentResult& result) {
  json::Object o;
  o.set("scenario", json::Value(scenario.name));
  o.set("replications", json::Value(result.curve.replication_count()));
  o.set("horizon", json::Value(util::format_duration(scenario.horizon)));
  o.set("expected_unrestrained_plateau",
        json::Value(scenario.expected_unrestrained_plateau()));
  o.set("final_infections", accumulator_to_json(result.final_infections));
  // Summary key -> per-replication counter, in output order.
  // patches_applied is no single counter (see ExperimentResult); the
  // rate-limiter rows appear only when that mechanism ran.
  struct CounterRow {
    const char* key;
    const char* metric;
    bool optional = false;
  };
  static constexpr CounterRow kCounterRows[] = {
      {"messages_submitted", "net.messages_submitted"},
      {"messages_blocked", "net.messages_blocked"},
      {"phones_flagged", "response.monitoring.phones_flagged"},
      {"phones_blacklisted", "response.blacklist.phones_blacklisted"},
      {"patches_applied", nullptr},
      {"phones_rate_limited", "response.rate_limiter.phones_limited", true},
      {"rate_limit_windows_capped", "response.rate_limiter.windows_capped", true},
  };
  for (const CounterRow& row : kCounterRows) {
    const stats::Accumulator& acc =
        row.metric == nullptr ? result.patches_applied : result.per_replication(row.metric);
    if (row.optional && acc.count() == 0) continue;
    o.set(row.key, accumulator_to_json(acc));
  }

  // Time landmarks the paper's prose quotes: when the mean curve
  // crosses fractions of the expected unconstrained plateau.
  json::Object landmarks;
  double plateau = scenario.expected_unrestrained_plateau();
  for (double fraction : {0.25, 0.5, 0.75}) {
    SimTime t = result.curve.mean_first_time_at_or_above(plateau * fraction);
    char key[32];
    std::snprintf(key, sizeof key, "t_%.0f_percent", fraction * 100.0);
    landmarks.set(key, t.is_finite() ? json::Value(t.to_hours()) : json::Value(nullptr));
  }
  o.set("hours_to_plateau_fraction", json::Value(std::move(landmarks)));
  return json::Value(std::move(o));
}

void write_curve_csv(const core::ExperimentResult& result, std::ostream& out) {
  CsvWriter csv(out);
  csv.header({"hours", "mean_infected", "stddev", "ci95", "min", "max"});
  for (const auto& point : result.curve.grid()) {
    csv.row(point.time.to_hours(), point.mean, point.stddev, point.ci95, point.min, point.max);
  }
}

}  // namespace mvsim::config
