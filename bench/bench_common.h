// Shared helpers for the scaling, ablation and extension benches.
//
// Each binary runs a set of scenarios and prints its tables; some print
// curves (Hours vs mean infection count, one column per configuration)
// plus per-curve summaries. Replication count defaults to 10 and can be
// overridden with MVSIM_REPS; worker-thread count defaults to all cores
// and can be pinned with MVSIM_THREADS.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/presets.h"
#include "core/runner.h"
#include "stats/summary.h"

namespace mvsim::bench {

struct NamedRun {
  std::string label;
  core::ExperimentResult result;
};

inline core::RunnerOptions default_options() {
  core::RunnerOptions options;
  options.replications = core::replications_from_env(10);
  options.master_seed = 0xD5A7'2007ULL;  // fixed: benches are reproducible
  options.keep_replications = false;
  // Replications parallelize; results are thread-count-invariant.
  options.threads = core::threads_from_env(0);
  return options;
}

/// Prints the figure table plus per-curve summaries.
inline void print_figure(const std::string& title, const std::vector<NamedRun>& runs,
                         SimTime row_step) {
  std::vector<stats::LabelledSeries> curves;
  curves.reserve(runs.size());
  for (const auto& r : runs) curves.push_back({r.label, &r.result.curve});
  stats::print_figure_table(std::cout, title, curves, row_step);
  std::cout << "-- curve summaries --\n";
  stats::print_curve_summaries(std::cout, curves);
}

inline std::string fmt(double v, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace mvsim::bench
