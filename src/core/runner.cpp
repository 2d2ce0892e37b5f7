#include "core/runner.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/sharded_simulation.h"
#include "metrics/registry.h"
#include "obs/stats_stream.h"
#include "prof/profiler.h"
#include "rng/seed.h"

namespace mvsim::core {

namespace {

/// Serializes progress callbacks across workers and accumulates the
/// experiment-so-far counts they report. Mutex-guarded shared state is
/// fine here: one lock per completed replication, nothing on the event
/// loop's hot path.
class ProgressSink {
 public:
  /// `workers` is the number of replications that run at once.
  ProgressSink(const RunnerOptions& options, const ScenarioConfig& config, int workers)
      : options_(&options),
        workers_(workers),
        started_(std::chrono::steady_clock::now()) {
    update_.label = config.name;
    update_.replications_total = options.replications;
  }

  /// Reports the one-time shared-graph prewarm and restarts the
  /// replication clock, so `elapsed_seconds`/ETA cover only the
  /// replications themselves.
  void build_done(double build_seconds) {
    std::lock_guard<std::mutex> lock(mutex_);
    update_.build_seconds = build_seconds;
    update_.build_phase = true;
    options_->progress(update_);
    update_.build_phase = false;
    started_ = std::chrono::steady_clock::now();
  }

  void replication_done(const ReplicationResult& result) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++update_.replications_done;
    update_.events_executed += result.metrics.counter_value("des.events_executed");
    update_.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started_).count();
    update_.events_per_sec = update_.elapsed_seconds > 0.0
                                 ? static_cast<double>(update_.events_executed) /
                                       update_.elapsed_seconds
                                 : 0.0;
    replication_seconds_ += result.wall_seconds;
    update_.eta_seconds = progress_eta_seconds(
        replication_seconds_ / static_cast<double>(update_.replications_done),
        update_.replications_total, workers_, update_.elapsed_seconds);
    options_->progress(update_);
  }

 private:
  const RunnerOptions* options_;
  int workers_;
  double replication_seconds_ = 0.0;  ///< summed wall time of completed replications
  std::chrono::steady_clock::time_point started_;
  std::mutex mutex_;
  ProgressUpdate update_;
};

/// Builds replication `rep`'s engine: the one place the serial/sharded
/// choice is made. `profiler` (may be null) times the serial engine's
/// events; sharded engines give every shard a profiler of its own.
std::unique_ptr<ReplicationEngine> make_engine(const ScenarioConfig& config,
                                               const RunnerOptions& options, int rep,
                                               prof::Profiler* profiler,
                                               graph::GraphCache* cache) {
  const std::uint64_t seed =
      rng::derive_seed(options.master_seed, static_cast<std::uint64_t>(rep));
  trace::TraceBuffer* trace = rep == options.trace_replication ? options.trace : nullptr;
  if (options.shards == 1) {
    return std::make_unique<Simulation>(config, seed, trace, profiler, des::QueueImpl::kWheel,
                                        cache);
  }
  ShardingOptions sharding;
  sharding.shards = options.shards;
  sharding.worker_threads = options.shard_workers;
  sharding.profile = profiler != nullptr;
  return std::make_unique<ShardedSimulation>(config, seed, sharding, des::QueueImpl::kWheel,
                                             cache);
}

/// Runs the serial `engine` to the horizon, appending a stats-stream
/// sample exactly at each period mark and at the horizon. Stepping is
/// bit-identical to one uninterrupted run (golden-pinned).
void run_streamed(ReplicationEngine& engine, SimTime horizon, const RunnerOptions& options,
                  int rep, std::chrono::steady_clock::time_point started) {
  SimTime mark = options.stats_period;
  for (;;) {
    const SimTime reached = engine.advance_to(min(mark, horizon));
    obs::RunSample sample = engine.sample();
    sample.replication = rep;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
    sample.events_per_sec =
        elapsed > 0.0 ? static_cast<double>(sample.events_executed) / elapsed : 0.0;
    options.stats_stream->write_sample(sample);
    if (engine.done()) return;
    while (mark <= reached) mark = mark + options.stats_period;
  }
}

/// Runs replications [0, count) into `slots`, pulling indices from a
/// shared counter. Each replication is a fully independent engine; the
/// only shared state is the index counter, the output slot owned
/// exclusively by the replication that claimed it, and the (mutex-
/// serialized) progress sink. Each replication is wall-clock timed
/// here (build + run + collect), feeding the runner's `timing.*`
/// metrics; under `options.profile` it additionally carries its own
/// Profiler, whose snapshot rides along in the replication's metrics.
void run_worker(const ScenarioConfig& config, const RunnerOptions& options, int count,
                std::atomic<int>& next, std::vector<ReplicationResult>& slots,
                ProgressSink* progress, graph::GraphCache* cache) {
  for (;;) {
    const int rep = next.fetch_add(1, std::memory_order_relaxed);
    if (rep >= count) return;
    const auto started = std::chrono::steady_clock::now();
    std::unique_ptr<prof::Profiler> profiler;
    if (options.profile) profiler = std::make_unique<prof::Profiler>();

    std::unique_ptr<ReplicationEngine> engine;
    {
      prof::ScopedPhase phase(profiler.get(), prof::Phase::kBuild);
      engine = make_engine(config, options, rep, profiler.get(), cache);
    }
    {
      prof::ScopedPhase phase(profiler.get(), prof::Phase::kRun);
      if (options.stats_stream == nullptr) {
        engine->advance_to(config.horizon);
      } else {
        run_streamed(*engine, config.horizon, options, rep, started);
      }
    }
    ReplicationResult result;
    {
      prof::ScopedPhase phase(profiler.get(), prof::Phase::kCollect);
      result = engine->run();
    }
    if (profiler != nullptr) result.metrics.merge(profiler->snapshot());
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
    slots[static_cast<std::size_t>(rep)] = std::move(result);
    if (progress != nullptr) progress->replication_done(slots[static_cast<std::size_t>(rep)]);
  }
}

// Fixed bucket bounds so timing histograms from any two runs are
// structurally mergeable (values themselves are machine-dependent).
constexpr std::array<double, 7> kWallMsBounds = {1.0,    5.0,    25.0,   100.0,
                                                 500.0,  2500.0, 10000.0};
constexpr std::array<double, 7> kEventsPerSecBounds = {1e3, 1e4, 1e5, 5e5, 1e6, 5e6, 1e7};

/// Folds the per-replication snapshots (in replication order) and the
/// runner's own timing series into one experiment-level snapshot.
metrics::Snapshot merge_metrics(const std::vector<ReplicationResult>& slots,
                                double experiment_wall_seconds) {
  metrics::Registry timing;
  timing.counter("timing.replications").add(slots.size());
  timing.gauge("timing.experiment_wall_ms")
      .set(static_cast<std::uint64_t>(std::llround(experiment_wall_seconds * 1000.0)));
  auto& wall_ms = timing.histogram("timing.replication_wall_ms", kWallMsBounds);
  auto& throughput = timing.histogram("timing.events_per_sec", kEventsPerSecBounds);
  for (const ReplicationResult& r : slots) {
    wall_ms.record(r.wall_seconds * 1000.0);
    if (r.wall_seconds > 0.0) {
      throughput.record(static_cast<double>(r.metrics.counter_value("des.events_executed")) /
                        r.wall_seconds);
    }
  }

  metrics::Snapshot merged = timing.snapshot();
  for (const ReplicationResult& r : slots) merged.merge(r.metrics);
  return merged;
}

}  // namespace

double progress_eta_seconds(double mean_replication_seconds, int total, int workers,
                            double elapsed_seconds) {
  const int at_once = std::max(workers, 1);
  const int waves = (total + at_once - 1) / at_once;
  return std::max(0.0, mean_replication_seconds * static_cast<double>(waves) - elapsed_seconds);
}

const stats::Accumulator& ExperimentResult::per_replication(std::string_view name) const {
  static const stats::Accumulator kEmpty;
  auto it = per_replication_.find(name);
  return it == per_replication_.end() ? kEmpty : it->second;
}

ExperimentResult run_experiment(const ScenarioConfig& config, const RunnerOptions& options) {
  if (options.replications < 1) {
    throw std::invalid_argument("run_experiment: replications must be >= 1");
  }
  if (options.threads < 0) {
    throw std::invalid_argument("run_experiment: threads must be >= 0");
  }
  if (options.trace != nullptr &&
      (options.trace_replication < 0 || options.trace_replication >= options.replications)) {
    throw std::invalid_argument(
        "run_experiment: trace_replication must name one of the replications");
  }
  if (options.shards == 0) {
    throw std::invalid_argument("run_experiment: shards must be >= 1");
  }
  if (options.stats_stream != nullptr && !(options.stats_period > SimTime::zero())) {
    throw std::invalid_argument("run_experiment: stats_period must be positive");
  }
  if (options.shards > 1) {
    // Checked here, not in the worker: a worker-thread throw cannot be
    // caught by the caller. The sharded engine re-validates anyway.
    if (config.proximity) {
      throw std::invalid_argument(
          "run_experiment: proximity (Bluetooth) scenarios cannot run sharded — proximity "
          "contacts ignore the graph partition; use shards == 1");
    }
    if (options.trace != nullptr) {
      throw std::invalid_argument("run_experiment: a trace needs the serial engine (shards == 1)");
    }
    if (options.stats_stream != nullptr) {
      throw std::invalid_argument(
          "run_experiment: a stats stream needs the serial engine (shards == 1)");
    }
    if (options.shards > config.population) {
      throw std::invalid_argument("run_experiment: shards must be <= population");
    }
  }
  config.validate().throw_if_invalid();
  if (options.stats_stream != nullptr && !within_step_limit(config.horizon, options.stats_period)) {
    throw std::invalid_argument("run_experiment: " + step_limit_message("stats_period", "samples"));
  }
  // The sharded engine re-checks its window, but only inside a worker.
  if (options.shards > 1 && !within_step_limit(config.horizon, config.delivery_delay_mean)) {
    throw std::invalid_argument("run_experiment: " +
                                step_limit_message("delivery_delay_mean", "windows"));
  }

  auto experiment_started = std::chrono::steady_clock::now();

  int thread_count = options.threads;
  if (thread_count == 0) {
    thread_count = static_cast<int>(std::thread::hardware_concurrency());
    if (thread_count < 1) thread_count = 1;
  }
  thread_count = std::min(thread_count, options.replications);

  std::vector<ReplicationResult> slots(static_cast<std::size_t>(options.replications));
  std::optional<ProgressSink> progress;
  if (options.progress) progress.emplace(options, config, thread_count);
  ProgressSink* sink = progress ? &*progress : nullptr;

  // Cache policy: an explicit cache is always honored; otherwise one
  // is created only under topology.shared_seed, where replications
  // actually converge on the same key. (Without a shared seed every
  // replication has a distinct key, so a cache would just retain dead
  // graphs.)
  graph::GraphCache* cache = options.graph_cache;
  std::optional<graph::GraphCache> local_cache;
  if (cache == nullptr && config.topology.shared_seed) {
    local_cache.emplace();
    cache = &*local_cache;
  }
  if (cache != nullptr && config.topology.shared_seed) {
    // Build the shared graph once, up front, so (a) workers never race
    // to be the builder, and (b) the one-time build cost is reported
    // separately instead of skewing the first replication's ETA.
    auto build_started = std::chrono::steady_clock::now();
    prewarm_shared_graph(config, *cache);
    double build_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - build_started).count();
    if (sink != nullptr) sink->build_done(build_seconds);
  }

  if (thread_count <= 1) {
    std::atomic<int> next{0};
    run_worker(config, options, options.replications, next, slots, sink, cache);
  } else {
    std::atomic<int> next{0};
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(thread_count));
    for (int t = 0; t < thread_count; ++t) {
      workers.emplace_back(run_worker, std::cref(config), std::cref(options),
                           options.replications, std::ref(next), std::ref(slots), sink, cache);
    }
    for (std::thread& worker : workers) worker.join();
  }

  // Aggregation in replication order makes the result independent of
  // the scheduling above. Snapshot merging is commutative and
  // associative, so the merged metrics are thread-count-invariant too.
  double experiment_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - experiment_started)
          .count();
  ExperimentResult result(stats::AggregatedSeries(config.sample_step, config.horizon));
  result.metrics = merge_metrics(slots, experiment_wall_seconds);
  result.threads_used = thread_count;
  // Every counter any replication reported, each replication adding
  // its value (0 when absent) in replication order.
  for (const ReplicationResult& r : slots) {
    for (const metrics::CounterSample& c : r.metrics.counters) {
      result.per_replication_.try_emplace(c.name);
    }
  }
  for (ReplicationResult& r : slots) {
    result.curve.add_replication(r.infections);
    result.final_infections.add(static_cast<double>(r.total_infected));
    for (auto& [name, acc] : result.per_replication_) {
      acc.add(static_cast<double>(r.metrics.counter_value(name)));
    }
    result.patches_applied.add(
        static_cast<double>(r.metrics.counter_value("core.phones_immunized_healthy") +
                            r.metrics.counter_value("core.phones_patched_infected")));
    if (options.keep_replications) result.replications.push_back(std::move(r));
  }
  return result;
}

}  // namespace mvsim::core
