#include "obs/report.h"

#include <cstdio>
#include <sstream>

namespace mvsim::obs {

namespace {

enum class Direction { kLowerBetter, kHigherBetter, kNeutral };

struct MetricSpec {
  const char* name;
  double RunOutcome::* field;
  Direction direction;
};

// total_events is handled separately (it is an integer field).
constexpr MetricSpec kMetrics[] = {
    {"final_infected_mean", &RunOutcome::final_infected_mean, Direction::kLowerBetter},
    {"peak_infected_mean", &RunOutcome::peak_infected_mean, Direction::kLowerBetter},
    {"time_to_peak_h", &RunOutcome::time_to_peak_h, Direction::kHigherBetter},
    {"patched_mean", &RunOutcome::patched_mean, Direction::kHigherBetter},
    {"messages_blocked_mean", &RunOutcome::messages_blocked_mean, Direction::kNeutral},
};

// Normalized change, < 0 = worse whatever the metric's direction. The
// zero cases are principled, not arbitrary: driving a lower-is-better
// metric to 0 from a positive baseline is a full win (+1), letting a
// higher-is-better metric rise from a 0 baseline likewise; two zeros
// are no change at all.
double normalized_change(double baseline, double current, Direction direction) {
  switch (direction) {
    case Direction::kLowerBetter:
      if (current > 0.0) return baseline / current - 1.0;
      return baseline > 0.0 ? 1.0 : 0.0;
    case Direction::kHigherBetter:
    case Direction::kNeutral:
      if (baseline > 0.0) return current / baseline - 1.0;
      return current > 0.0 ? 1.0 : 0.0;
  }
  return 0.0;
}

}  // namespace

OutcomeComparison compare_outcomes(const RunManifest& baseline, const RunManifest& current,
                                   double threshold) {
  OutcomeComparison comparison;
  auto add_row = [&](const char* name, double base, double curr, Direction direction) {
    OutcomeDelta row;
    row.metric = name;
    row.baseline = base;
    row.current = curr;
    row.change = normalized_change(base, curr, direction);
    row.verdict = "OK";
    if (direction != Direction::kNeutral) {
      if (row.change < -threshold) {
        row.verdict = "REGRESSED";
        ++comparison.regressions;
      } else if (row.change > threshold) {
        row.verdict = "IMPROVED";
      }
    }
    comparison.rows.push_back(std::move(row));
  };
  for (const MetricSpec& spec : kMetrics) {
    add_row(spec.name, baseline.outcome.*spec.field, current.outcome.*spec.field,
            spec.direction);
  }
  add_row("total_events", static_cast<double>(baseline.outcome.total_events),
          static_cast<double>(current.outcome.total_events), Direction::kNeutral);
  return comparison;
}

std::string render_comparison(const RunManifest& baseline, const RunManifest& current,
                              const OutcomeComparison& comparison, double threshold) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "report-compare: '%s' (%s, seed %s) -> '%s' (%s, seed %s), threshold %.0f%%\n",
                baseline.scenario.c_str(), baseline.build.git_sha.c_str(),
                baseline.seed.c_str(), current.scenario.c_str(),
                current.build.git_sha.c_str(), current.seed.c_str(), threshold * 100.0);
  out += line;
  if (baseline.scenario_hash != current.scenario_hash) {
    out += "  note: scenario hashes differ — comparing different model inputs\n";
  }
  for (const OutcomeDelta& row : comparison.rows) {
    std::snprintf(line, sizeof line, "  %-9s %-22s %12.2f -> %-12.2f (%+.1f%%)\n",
                  row.verdict.c_str(), row.metric.c_str(), row.baseline, row.current,
                  row.change * 100.0);
    out += line;
  }
  if (comparison.regressions > 0) {
    std::snprintf(line, sizeof line, "report-compare: %d outcome(s) regressed past %.0f%%\n",
                  comparison.regressions, threshold * 100.0);
  } else {
    std::snprintf(line, sizeof line, "report-compare: no regressions\n");
  }
  out += line;
  return out;
}

std::string render_manifest(const RunManifest& manifest) {
  std::ostringstream out;
  char line[256];
  out << "run: " << manifest.scenario << " (scenario " << manifest.scenario_hash << ")\n"
      << "  seed " << manifest.seed << ", " << manifest.replications << " replication(s), "
      << manifest.threads << " thread(s)\n"
      << "  build " << manifest.build.git_sha << " (" << manifest.build.compiler << ", "
      << manifest.build.build_type << ")\n";
  std::snprintf(line, sizeof line, "  phases: run %.2fs, write %.2fs; peak RSS %.1f MiB\n",
                manifest.phases.run_seconds, manifest.phases.write_seconds,
                static_cast<double>(manifest.peak_rss) / (1024.0 * 1024.0));
  out << line;
  if (manifest.sweep.has_value()) {
    std::snprintf(line, sizeof line, "  sweep: %s = %.15g (point %d/%d)\n",
                  manifest.sweep->parameter.c_str(), manifest.sweep->value,
                  manifest.sweep->index + 1, manifest.sweep->count);
    out << line;
  }
  const RunOutcome& o = manifest.outcome;
  std::snprintf(line, sizeof line,
                "outcome:\n"
                "  final infected    %.1f +/- %.1f\n"
                "  peak infected     %.1f (at %.1f h)\n"
                "  patched           %.1f\n"
                "  messages blocked  %.1f\n"
                "  total events      %llu\n",
                o.final_infected_mean, o.final_infected_ci95, o.peak_infected_mean,
                o.time_to_peak_h, o.patched_mean, o.messages_blocked_mean,
                static_cast<unsigned long long>(o.total_events));
  out << line;
  if (!manifest.artifacts.empty()) {
    out << "artifacts:\n";
    for (const ManifestArtifact& artifact : manifest.artifacts) {
      out << "  " << artifact.kind << " " << artifact.path << '\n';
    }
  }
  return out.str();
}

}  // namespace mvsim::obs
