// Replication runner: many independent runs of one scenario,
// aggregated into the mean curve the paper's figures plot.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/scenario.h"
#include "core/simulation.h"
#include "stats/aggregate.h"

namespace mvsim::obs {
class RunStream;
}

namespace mvsim::core {

struct RunnerOptions;

struct ExperimentResult {
  /// Mean infected-count curve across replications (plus spread).
  stats::AggregatedSeries curve;
  /// Distribution of per-replication totals at the horizon.
  stats::Accumulator final_infections;
  /// Phones patched per replication: `core.phones_immunized_healthy`
  /// plus `core.phones_patched_infected` (repeat patches not counted,
  /// unlike `response.immunization.patches_applied`).
  stats::Accumulator patches_applied;
  /// Replication snapshots merged in replication order, plus the
  /// runner's own `timing.*` series. All non-timing metrics are
  /// deterministic in (config, master_seed) and thread-count-invariant;
  /// `timing.*` is machine-dependent by nature (see
  /// docs/observability.md).
  metrics::Snapshot metrics;
  /// Worker threads actually used (RunnerOptions::threads after
  /// resolving 0 = hardware concurrency and clamping to the
  /// replication count). Informational only — results never depend on
  /// it.
  int threads_used = 1;
  /// Per-replication results, in replication order.
  std::vector<ReplicationResult> replications;

  explicit ExperimentResult(stats::AggregatedSeries aggregated) : curve(std::move(aggregated)) {}

  /// Distribution over replications of the counter `name` in each
  /// replication's snapshot, added in replication order; a replication
  /// without the counter contributes 0. Empty when no replication has it.
  [[nodiscard]] const stats::Accumulator& per_replication(std::string_view name) const;

 private:
  friend ExperimentResult run_experiment(const ScenarioConfig&, const RunnerOptions&);
  std::map<std::string, stats::Accumulator, std::less<>> per_replication_;
};

/// One live progress observation, delivered after each replication
/// completes. Counts are cumulative over the experiment so far.
struct ProgressUpdate {
  std::string label;               ///< the scenario's name
  int replications_done = 0;
  int replications_total = 0;
  std::uint64_t events_executed = 0;  ///< summed over completed replications
  double elapsed_seconds = 0.0;
  double events_per_sec = 0.0;        ///< events_executed / elapsed_seconds
  double eta_seconds = 0.0;           ///< see progress_eta_seconds
  /// True for the one update emitted when a shared contact graph
  /// finished prewarming, before any replication ran. The build is
  /// one-time work, so `elapsed_seconds` (and thus the ETA) excludes
  /// it — first-replication ETAs are no longer skewed by it.
  bool build_phase = false;
  /// Wall-clock seconds the shared-graph prewarm took (0 when the
  /// scenario builds per-replication graphs).
  double build_seconds = 0.0;
};

/// Invocations are serialized by the runner (never concurrent), in
/// completion order — which under threads is not replication order.
using ProgressReporter = std::function<void(const ProgressUpdate&)>;

struct RunnerOptions {
  int replications = 10;
  std::uint64_t master_seed = 0x5eed'0000'0001ULL;
  /// Keep the per-replication results (memory is tiny; on by default).
  bool keep_replications = true;
  /// Worker threads. Replications are independent simulations, so they
  /// parallelize perfectly; results are aggregated in replication order
  /// afterwards, so the outcome is bit-identical for any thread count.
  /// 0 = use the hardware concurrency.
  int threads = 1;
  /// When `trace` is non-null, the replication with this index records
  /// its causal event stream into it. One replication, not all: a trace
  /// is a microscope on a single run, and a shared buffer across
  /// workers would interleave unrelated runs. Tracing is
  /// observation-only — results are bit-identical with it on or off.
  int trace_replication = 0;
  trace::TraceBuffer* trace = nullptr;
  /// Attach a prof::Profiler to every replication: per-event-type
  /// wall-clock histograms plus build/run/collect phase timers, merged
  /// into ExperimentResult::metrics as the `prof.*` series. Like
  /// `timing.*` the values are machine-dependent; like tracing the
  /// instrumentation is observation-only, so profiled runs are
  /// bit-identical to unprofiled ones.
  bool profile = false;
  /// Shared-graph cache. When non-null, every replication fetches its
  /// contact graph through this cache instead of building privately —
  /// byte-identical results either way (see graph::GraphCache). When
  /// null and the scenario sets topology.shared_seed, the runner
  /// creates a local cache for the experiment so the shared graph is
  /// built once, not once per replication.
  graph::GraphCache* graph_cache = nullptr;
  /// Shards per replication. 1 (default) runs each replication on the
  /// serial Simulation, one slice over the whole population. >= 2 runs
  /// each replication on a ShardedSimulation (contiguous
  /// degree-balanced ranges synchronized at windows of the scenario's
  /// delivery_delay_mean): a different, equally valid sample path than
  /// the serial engine's — see core/sharded_simulation.h. Composes with
  /// `profile`; `trace`, `stats_stream` and proximity (Bluetooth)
  /// scenarios are rejected.
  std::uint32_t shards = 1;
  /// OS threads per sharded replication (0 = one per shard; 1 = inline
  /// on the worker). Never changes results. Composes multiplicatively
  /// with `threads`: total concurrency ~= threads * shard_workers.
  int shard_workers = 0;
  /// When non-null, every replication appends time-series telemetry
  /// samples to this stream (obs::RunStream is thread-safe; records are
  /// tagged with their replication index), exactly every
  /// `stats_period` of simulation time. Stepping is bit-identical to
  /// one uninterrupted run. Observation-only. The caller writes the
  /// stream header.
  obs::RunStream* stats_stream = nullptr;
  /// Simulation-time spacing between stats samples (`mvsim run
  /// --stats-period MIN`); must be positive when stats_stream is set.
  SimTime stats_period = SimTime::minutes(30);
  /// When set, called after every completed replication (serialized,
  /// in completion order). Observation-only.
  ProgressReporter progress;
};

/// Runs `options.replications` independent replications of `config`.
/// Replication i uses seed derive_seed(master_seed, i); the same
/// (config, options) pair always produces identical results, regardless
/// of `options.threads`.
[[nodiscard]] ExperimentResult run_experiment(const ScenarioConfig& config,
                                              const RunnerOptions& options = {});

/// Estimated seconds until an experiment of `total` replications,
/// run `workers` at a time, finishes: `total / workers` waves (rounded
/// up) of replications that take `mean_replication_seconds` each, less
/// the `elapsed_seconds` already spent, and never below zero. On one
/// worker this is the mean time per replication times the number left.
[[nodiscard]] double progress_eta_seconds(double mean_replication_seconds, int total,
                                          int workers, double elapsed_seconds);

}  // namespace mvsim::core
