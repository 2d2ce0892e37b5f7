// mvsim benchmark program. Usage (normally through run.py):
//
//   mvsim_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                   --root CHECKOUT --out SCRATCH_DIR --pins PINS.json
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced pass that reports the per-layer metrics. The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}; the
// exit code is non-zero when any output check failed.
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <stdexcept>

#include "bench.h"
#include "util/json.h"

namespace perfbench {
namespace {

/// Set-ups timed after each experiment, so set-up samples meet the
/// same machine states as the experiments; each gap contributes its
/// fastest set-up as one sample. The sharded set-up builds a
/// 10^5-phone graph, so it runs once per gap.
int setups_per_gap(const std::string& workload) { return workload == "sharded-100k" ? 1 : 10; }

Prepared timed_set_up(const Options& options, std::vector<double>& setup_s) {
  const auto started = Clock::now();
  Prepared prepared = set_up(options.workload, options);
  setup_s.push_back(seconds_since(started));
  return prepared;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + ": missing value");
      return argv[++i];
    };
    if (arg == "--workload") o.workload = value();
    else if (arg == "--seed") o.seed = std::stoull(value());
    else if (arg == "--seconds") o.seconds = std::stod(value());
    else if (arg == "--trace") o.trace = value() == "1";
    else if (arg == "--root") o.root = value();
    else if (arg == "--out") o.out_dir = value();
    else if (arg == "--pins") o.pins_path = value();
    else throw std::invalid_argument("unknown option '" + arg + "'");
  }
  if (o.workload.empty() || o.out_dir.empty() || o.pins_path.empty()) {
    throw std::invalid_argument("--workload, --out and --pins are required");
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

/// The untraced pass: every end-to-end metric. The run repeats one
/// experiment (same seed, identical work) and keeps the fastest of the
/// N repeats of each experiment call and of each replication: on a
/// shared host the same work swings by up to 2x between busy and quiet
/// CPUs and spells, and min-of-N over repeats rotated across the CPUs
/// (repeat_checked) reads the quiet ones. experiment_s is
/// the sum over the workload's calls of each call's best. The
/// replication figure takes each replication's best, the median within
/// each scenario, then the median over scenarios: pooled, a workload
/// mixing fast and slow scenarios would report the boundary between two
/// of them.
Report measure(const Prepared& prepared, const Options& options, const Pins* pins,
               std::vector<double> setup_s) {
  Report report;
  const auto experiment = [&] { return run_experiment_once(prepared, options); };
  // One unmeasured experiment first, so allocator pools and caches are
  // warm; it is still output-checked.
  if (!repeat_checked(prepared, pins, 0.0, report, experiment, [](const ExperimentRun&) {})) {
    return report;
  }
  // Peak memory of the workload itself, read before the first gap
  // set-up: the sharded one builds a second shared graph while the
  // workload's own is still held.
  const double rss_mb = peak_rss_mb();
  std::vector<std::vector<double>> call_s;       // [call] -> one per repeat
  std::vector<std::vector<double>> rep_wall_ms;  // [replication] -> one per repeat
  (void)repeat_checked(prepared, pins, options.seconds, report, experiment,
                       [&](const ExperimentRun& run) {
    call_s.resize(std::max(call_s.size(), run.call_s.size()));
    for (std::size_t i = 0; i < run.call_s.size(); ++i) call_s[i].push_back(run.call_s[i]);
    rep_wall_ms.resize(std::max(rep_wall_ms.size(), run.rep_wall_ms.size()));
    for (std::size_t i = 0; i < run.rep_wall_ms.size(); ++i) {
      rep_wall_ms[i].push_back(run.rep_wall_ms[i]);
    }
    std::vector<double> gap_s;
    for (int i = 0; i < setups_per_gap(options.workload); ++i) {
      (void)timed_set_up(options, gap_s);
    }
    setup_s.push_back(min_of(gap_s));
  });
  double experiment_s = 0.0;
  for (const auto& repeats : call_s) experiment_s += min_of(repeats);
  std::vector<double> best_rep_ms;
  for (const auto& repeats : rep_wall_ms) best_rep_ms.push_back(min_of(repeats));
  std::vector<double> scenario_ms;
  const auto per_scenario = static_cast<std::size_t>(prepared.reps);
  for (std::size_t first = 0; first < best_rep_ms.size(); first += per_scenario) {
    const auto begin = best_rep_ms.begin() + static_cast<std::ptrdiff_t>(first);
    scenario_ms.push_back(median({begin, begin + static_cast<std::ptrdiff_t>(std::min(
                                                     per_scenario, best_rep_ms.size() - first))}));
  }
  report.add("setup_s", median(setup_s), "s", setup_s.size());
  report.add("experiment_s", experiment_s, "s", call_s.empty() ? 0 : call_s[0].size());
  report.add("rep_wall_ms_p50", median(scenario_ms), "ms", best_rep_ms.size());
  report.add("peak_rss_mb", rss_mb, "MB");
  return report;
}

int main_impl(int argc, char** argv) {
  const Options options = parse(argc, argv);
  std::cout << "host: " << host_stamp() << '\n'
            << "workload " << options.workload << " | seed " << options.seed << " | "
            << options.seconds << " s | " << (options.trace ? "traced" : "untraced") << " pass\n";

  const bool check_pins = options.seed == kDefaultSeed;
  const Pins pins = check_pins ? load_pins(options.pins_path) : Pins{};
  if (check_pins && pins.table.empty()) {
    throw std::runtime_error("no pinned outcomes in " + options.pins_path);
  }

  std::vector<double> setup_s;
  const Prepared prepared = timed_set_up(options, setup_s);

  const Report report = options.trace
                            ? run_traced(prepared, options, check_pins ? &pins : nullptr)
                            : measure(prepared, options, check_pins ? &pins : nullptr,
                                      std::move(setup_s));

  const double failed_frac =
      report.attempted > 0
          ? static_cast<double>(report.failed) / static_cast<double>(report.attempted)
          : 1.0;
  for (const std::string& failure : report.failures) std::cout << "CHECK FAILED: " << failure << '\n';
  std::cout << std::left << std::setw(42) << "metric" << std::setw(16) << "value"
            << std::setw(8) << "unit" << "samples\n";
  json::Object metrics;
  for (const Metric& m : report.metrics) {
    std::cout << std::setw(42) << m.name << std::setw(16) << std::setprecision(6) << m.value
              << std::setw(8) << m.unit << m.samples << '\n';
    json::Object entry;
    entry.set("value", json::Value(m.value));
    entry.set("unit", json::Value(m.unit));
    metrics.set(m.name, json::Value(std::move(entry)));
  }
  std::cout << std::setw(42) << "failed_frac" << std::setw(16) << failed_frac << std::setw(8)
            << "ratio" << report.attempted << '\n';
  const bool correct = report.failed == 0 && report.attempted > 0;
  json::Object result;
  result.set("correct", json::Value(correct));
  result.set("attempted", json::Value(report.attempted));
  result.set("failed", json::Value(report.failed));
  result.set("metrics", json::Value(std::move(metrics)));
  std::cout << json::stringify(json::Value(std::move(result)), 0) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
