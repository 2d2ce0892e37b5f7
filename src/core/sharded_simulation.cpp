#include "core/sharded_simulation.h"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

namespace mvsim::core {

namespace {

constexpr double kEventCountBounds[] = {1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8};
constexpr double kBarrierWaitBounds[] = {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0};

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Rejects what the sharded engine cannot run, before any graph is
/// built; returns `config` for the member initializer.
const ScenarioConfig& checked(const ScenarioConfig& config, const ShardingOptions& options) {
  config.validate().throw_if_invalid();
  if (options.shards == 0) {
    throw std::invalid_argument("ShardedSimulation: shards must be >= 1");
  }
  if (config.proximity) {
    throw std::invalid_argument(
        "ShardedSimulation: proximity (Bluetooth) scenarios are not shardable — "
        "proximity contacts ignore the graph partition; run with one shard");
  }
  // The window is the mean delivery delay, which validate() keeps
  // positive; only its step count needs checking.
  if (!within_step_limit(config.horizon, config.delivery_delay_mean)) {
    throw std::invalid_argument("ShardedSimulation: " + step_limit_message("window", "windows"));
  }
  return config;
}

}  // namespace

/// Persistent worker pool for one run: worker j owns slices j, j+W,
/// j+2W, ... (static assignment keeps per-slice cache state warm and
/// the execution schedule deterministic — not that determinism needs
/// it: slices share no mutable state within a window). Two barriers
/// frame each window; the coordinator does the exchange work between
/// frames.
class ShardedSimulation::WindowPool {
 public:
  WindowPool(std::vector<std::unique_ptr<EngineSlice>>& slices, int workers)
      : slices_(slices),
        workers_(workers),
        start_(workers + 1),
        done_(workers + 1),
        errors_(static_cast<std::size_t>(workers)) {
    threads_.reserve(static_cast<std::size_t>(workers));
    for (int j = 0; j < workers; ++j) {
      threads_.emplace_back([this, j] { worker_loop(j); });
    }
  }

  ~WindowPool() {
    stop_ = true;
    start_.arrive_and_wait();  // release workers into the stop check
    for (auto& t : threads_) t.join();
  }

  /// Runs every slice to `until`; returns the milliseconds the
  /// coordinator spent waiting on the completion barrier (the straggler
  /// stall the shard.barrier_wait_ms series reports).
  double run_window(SimTime until) {
    target_ = until;
    start_.arrive_and_wait();
    const auto wait_begin = std::chrono::steady_clock::now();
    done_.arrive_and_wait();
    const double waited = ms_between(wait_begin, std::chrono::steady_clock::now());
    for (auto& error : errors_) {
      if (error) {
        std::exception_ptr e = error;
        error = nullptr;
        std::rethrow_exception(e);
      }
    }
    return waited;
  }

 private:
  void worker_loop(int j) {
    while (true) {
      start_.arrive_and_wait();
      if (stop_) return;
      try {
        for (std::size_t s = static_cast<std::size_t>(j); s < slices_.size();
             s += static_cast<std::size_t>(workers_)) {
          slices_[s]->run_window(target_, /*stamp=*/true);
        }
      } catch (...) {
        errors_[static_cast<std::size_t>(j)] = std::current_exception();
      }
      done_.arrive_and_wait();
    }
  }

  std::vector<std::unique_ptr<EngineSlice>>& slices_;
  int workers_;
  std::barrier<> start_;
  std::barrier<> done_;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> threads_;
  SimTime target_ = SimTime::zero();
  bool stop_ = false;
};

ShardedSimulation::ShardedSimulation(const ScenarioConfig& config,
                                     std::uint64_t replication_seed,
                                     const ShardingOptions& options, des::QueueImpl /*queue*/,
                                     graph::GraphCache* graph_cache)
    : options_(options),
      window_(config.delivery_delay_mean),
      state_(checked(config, options), replication_seed, graph_cache),
      partition_(graph::Partition::degree_balanced(*state_.graph, options.shards)),
      mailbox_(options.shards) {
  workers_ = options_.worker_threads > 0
                 ? std::min<int>(options_.worker_threads, static_cast<int>(options_.shards))
                 : static_cast<int>(options_.shards);

  const ShardLinks links{&partition_, &mailbox_, window_};
  state_.slices.reserve(options_.shards);
  for (std::uint32_t s = 0; s < options_.shards; ++s) {
    state_.slices.push_back(
        std::make_unique<EngineSlice>(state_, s, links, options_.profile));
  }
  state_.populate(&partition_);
}

ShardedSimulation::~ShardedSimulation() = default;

void ShardedSimulation::exchange_mailboxes() {
  // Drain is cheap on purpose: the coordinator only stages the entries;
  // each destination's worker schedules them at its next window start
  // (EngineSlice::flush_staged), keeping the serial section between
  // barriers O(entries copied) rather than O(entries scheduled).
  for (std::uint32_t dst = 0; dst < options_.shards; ++dst) {
    EngineSlice& slice = *state_.slices[dst];
    mailbox_.drain_to(dst, [&slice](const net::CrossShardDelivery& d) { slice.stage(d); });
  }
}

void ShardedSimulation::check_detectability(SimTime window_end) {
  if (detectability_dispatched_) return;
  std::uint64_t seen = 0;
  for (const auto& slice : state_.slices) {
    seen += slice->context().detector().infected_messages_seen();
  }
  if (seen < state_.config.responses.detectability_threshold) return;
  detectability_dispatched_ = true;
  detected_at_ = window_end;
  // The crossing executes as an event at the barrier time in every
  // slice, so mechanism reactions (scan activation, immunization
  // development, ...) are ordinary events on the owning scheduler.
  for (auto& slice : state_.slices) slice->stage_detection(window_end);
}

bool ShardedSimulation::quiescent() const {
  for (const auto& slice : state_.slices) {
    if (slice->scheduler().pending_count() != 0 || slice->has_staged()) return false;
  }
  return mailbox_.empty();
}

obs::RunSample ShardedSimulation::sample() const {
  obs::RunSample sample = state_.sample(now_);
  const bool threaded = barrier_release_ != std::chrono::steady_clock::time_point{};
  sample.shards.reserve(state_.slices.size());
  for (std::uint32_t s = 0; s < state_.slices.size(); ++s) {
    const EngineSlice& slice = *state_.slices[s];
    obs::ShardSample per;
    per.shard = s;
    per.events_executed = slice.scheduler().executed_count();
    per.queue_depth = slice.scheduler().pending_count();
    // Wall-clock between this shard finishing its window and the
    // completion barrier releasing: the shard that waited least is the
    // straggler the others stalled on.
    if (threaded) {
      per.barrier_wait_ms = std::max(0.0, ms_between(slice.window_finished(), barrier_release_));
    }
    sample.shards.push_back(per);
  }
  return sample;
}

void ShardedSimulation::step_window() {
  const SimTime window_end = min(now_ + window_, state_.config.horizon);
  double waited_ms = 0.0;
  if (pool_) {
    waited_ms = pool_->run_window(window_end);
    barrier_release_ = std::chrono::steady_clock::now();
    barrier_wait_ms_.push_back(waited_ms);
  } else {
    for (auto& slice : state_.slices) slice->run_window(window_end, /*stamp=*/false);
  }
  now_ = window_end;
  ++windows_stepped_;
  exchange_mailboxes();
  check_detectability(window_end);
  // Dead epidemic: every later window would be a no-op barrier.
  quiescent_ = quiescent();
  if (stats_observer_) {
    ShardWindowSample window_sample;
    static_cast<obs::RunSample&>(window_sample) = sample();
    window_sample.barrier_wait_ms = waited_ms;
    window_sample.last = done();
    stats_observer_(window_sample);
  }
}

SimTime ShardedSimulation::advance_to(SimTime target) {
  if (ran_) throw std::logic_error("ShardedSimulation::advance_to after run");
  if (!pool_ && workers_ > 1 && !done()) {
    pool_ = std::make_unique<WindowPool>(state_.slices, workers_);
  }
  while (now_ < target && !done()) step_window();
  return now_;
}

ReplicationResult ShardedSimulation::run() {
  if (ran_) throw std::logic_error("ShardedSimulation::run called twice");
  advance_to(state_.config.horizon);
  ran_ = true;
  pool_.reset();

  // Tail pass (single-threaded; a handful of events at most): clocks
  // advance to the horizon, entries timestamped exactly at the horizon
  // fire — the serial engine would have fired those too — and whatever
  // they produce is exchanged and scheduled once more so it sits in the
  // queues just like any other never-reached post-horizon event.
  for (auto& slice : state_.slices) slice->run_window(state_.config.horizon, /*stamp=*/false);
  exchange_mailboxes();
  for (auto& slice : state_.slices) slice->flush_staged();

  ReplicationResult r = state_.result();
  r.detected_at = detected_at_;

  // The engine's own shard.* series on top of the slices' telemetry.
  metrics::Registry engine;
  engine.gauge("shard.count").set(options_.shards);
  engine.counter("shard.windows").add(windows_stepped_);
  engine.counter("shard.mailbox.sent").add(mailbox_.pushed_total());
  engine.counter("shard.mailbox.received").add(mailbox_.drained_total());
  auto& events_hist = engine.histogram("shard.events_executed", kEventCountBounds);
  for (const auto& slice : state_.slices) {
    events_hist.record(static_cast<double>(slice->scheduler().executed_count()));
  }
  auto& wait_hist = engine.histogram("shard.barrier_wait_ms", kBarrierWaitBounds);
  for (double ms : barrier_wait_ms_) wait_hist.record(ms);
  r.metrics.merge(engine.snapshot());
  return r;
}

}  // namespace mvsim::core
