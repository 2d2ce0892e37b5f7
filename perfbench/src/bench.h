// Shared declarations of the mvsim benchmark program (see ../README.md).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/simulation.h"
#include "graph/graph_cache.h"

namespace perfbench {

using namespace mvsim;

using Clock = std::chrono::steady_clock;
[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Seed the benchmark uses when --seed is not given; the pinned
/// outcomes in pins.json are taken at this seed.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";      ///< checkout root (holds scenarios/)
  std::string out_dir;         ///< scratch output for CLI artifacts
  std::string pins_path;       ///< pinned outcomes at kDefaultSeed
};

/// Worker threads of the sharded workload; 1 runs the shards inline on
/// the calling thread (results are the same at any worker count).
/// Threaded runs were not steady on a shared 4-core host: while other
/// tenants were busy, the lockstep windows stalled and runs read up to
/// 4x slower, with one worker per shard and with two.
inline constexpr int kShardWorkers = 1;

/// A workload after set-up: the generated configs the program runs
/// and the shared state the first replication needs.
struct Prepared {
  std::string name;
  std::vector<core::ScenarioConfig> scenarios;
  int reps = 1;              ///< replications per scenario per experiment
  std::uint32_t shards = 1;  ///< >1: ShardedSimulation on kShardWorkers threads
  bool observed = false;     ///< experiments go through cli::run_cli
  std::string observed_config_path;  ///< generated scenario file for run_cli
  std::unique_ptr<graph::GraphCache> graph_cache;
};

/// Builds, serializes, re-parses and validates the workload's configs,
/// plus the shared-graph prewarm and partition where the workload has
/// them. Everything the first replication waits for.
[[nodiscard]] Prepared set_up(const std::string& workload, const Options& options);

/// One replication's outcome, as the output check sees it.
struct RepOutcome {
  std::uint64_t infected = 0;
  std::uint64_t events = 0;
  std::uint64_t susceptible = 0;
  std::uint64_t mailbox_sent = 0;
  std::uint64_t mailbox_received = 0;
};

/// One experiment: every scenario of the workload at `reps` replications.
struct ExperimentRun {
  double wall_s = 0.0;
  /// Wall time of each experiment call (one per scenario), summing to wall_s.
  std::vector<double> call_s;
  std::vector<double> rep_wall_ms;
  /// [scenario][replication]
  std::vector<std::vector<RepOutcome>> outcomes;
};

/// The output check's view of one replication of `config`.
[[nodiscard]] RepOutcome outcome_of(const core::ReplicationResult& result,
                                    const core::ScenarioConfig& config);

/// Runs one untraced experiment (what a user pays for a figure): the
/// CLI path on the observed workload, core::run_experiment elsewhere.
/// Every experiment of a run uses the workload seed, so repeats do
/// identical work.
[[nodiscard]] ExperimentRun run_experiment_once(const Prepared& prepared,
                                                const Options& options);
/// The same configs and seeds through core::run_experiment, with no
/// observability attached.
[[nodiscard]] ExperimentRun run_plain_experiment(const Prepared& prepared,
                                                 const Options& options);

/// Output check: returns one message per failed replication (empty
/// when every replication passed). `pins` is null away from the
/// default seed.
struct Pins {
  /// workload -> [scenario][replication] -> {infected, events}
  std::map<std::string, std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>> table;
};
[[nodiscard]] std::vector<std::string> check_outcomes(const Prepared& prepared,
                                                      const ExperimentRun& run,
                                                      const Pins* pins);
[[nodiscard]] Pins load_pins(const std::string& path);

/// Result line and human table.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  void add(std::string name, double value, std::string unit, std::size_t samples = 1) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
};

/// Moves the calling thread to the next CPU of the process's starting
/// affinity set, round robin (no-op with fewer than two CPUs). On a
/// shared virtual host the CPUs' speeds differ by up to 2x at any moment
/// and trade places over seconds to minutes, so a run that stays on one
/// CPU reads that CPU's luck; rotating the repeats lets best-of-N see
/// every CPU.
void pin_to_next_cpu();

/// Runs `experiment` (returning an ExperimentRun) again and again until
/// `seconds` have passed, at least once, each time on the next CPU.
/// Every run is output-checked into `report` and then handed to
/// `on_run`. An experiment that throws counts all its replications as
/// failed and ends the repeats; the return value is false then.
template <typename Experiment, typename OnRun>
bool repeat_checked(const Prepared& p, const Pins* pins, double seconds, Report& report,
                    Experiment&& experiment, OnRun&& on_run) {
  const auto started = Clock::now();
  do {
    pin_to_next_cpu();
    ExperimentRun run;
    try {
      run = experiment();
    } catch (const std::exception& e) {
      const std::size_t reps = p.scenarios.size() * static_cast<std::size_t>(p.reps);
      report.attempted += reps;
      report.failed += reps;
      report.failures.push_back(e.what());
      return false;
    }
    std::size_t reps = 0;
    for (const auto& s : run.outcomes) reps += s.size();
    report.attempted += reps;
    const std::vector<std::string> failures = check_outcomes(p, run, pins);
    if (!failures.empty()) {
      report.failed += reps;
      report.failures.insert(report.failures.end(), failures.begin(), failures.end());
    }
    on_run(run);
  } while (seconds_since(started) < seconds);
  return true;
}

/// The traced pass: per-layer spans, counts and the cost ladder.
[[nodiscard]] Report run_traced(const Prepared& prepared, const Options& options,
                                const Pins* pins);

/// Host and build fingerprint printed above every result.
[[nodiscard]] std::string host_stamp();

// ---- small helpers ----

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] inline double min_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
