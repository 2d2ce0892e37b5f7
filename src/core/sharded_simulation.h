// Sharded single-replication engine: one run on multiple cores.
//
// The serial Simulation executes a replication on one EngineSlice and
// therefore one core; at 10^6 phones that single thread is the
// wall-clock bound (ROADMAP item 2). ShardedSimulation partitions the
// contact graph into K contiguous, degree-balanced ranges
// (graph::Partition) and runs one EngineSlice per range, each with its
// own scheduler, gateway, RNG streams and response-mechanism instances.
// Slices advance in lockstep through fixed synchronization windows:
//
//   loop: run every slice to the window end (in parallel)
//         barrier: drain cross-shard mailboxes, sum detectability,
//                  tick progress
//
// Cross-shard MMS deliveries ride net::ShardMailboxGrid and pay a
// deterministic extra transit latency equal to the window width — the
// conservative lookahead that guarantees a drained entry can never
// land in a shard's past (no rollback needed). The full protocol,
// the determinism contract and the model-semantics notes (what changes
// at shards >= 2 and what does not) live in docs/parallelism.md.
//
// Determinism: fixed (config, seed, shards, window) ⇒ bit-identical
// results for ANY worker-thread count, including the inline
// single-thread mode. A sharded run is a different (equally valid)
// sample path than the serial engine's — salted per-shard RNG streams,
// the cross-shard latency floor and barrier-quantized detection see to
// that — so `--shards 1` runs the serial Simulation, and the golden
// tests pin sharded curves separately.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/engine_slice.h"
#include "core/scenario.h"
#include "graph/graph_cache.h"
#include "graph/partition.h"
#include "net/shard_mailbox.h"
#include "trace/trace.h"

namespace mvsim::core {

struct ShardingOptions {
  /// Worker shards (>= 1; the runner sends one shard to the serial
  /// Simulation instead).
  std::uint32_t shards = 2;
  /// Synchronization-window width; zero (default) resolves to the
  /// scenario's delivery_delay_mean. Part of the model at shards >= 2:
  /// cross-shard deliveries pay this much extra transit latency.
  SimTime window = SimTime::zero();
  /// OS threads executing the shards (0 = one per shard; 1 = inline
  /// serial execution on the calling thread). Never changes results.
  int worker_threads = 0;
  /// When non-null, the run records a causal trace into it: each shard
  /// fills a private buffer (capacity split evenly, trace->capacity()
  /// / shards each), message ids are namespaced by origin shard
  /// (trace::kShardMessageStride), and run() replaces *trace with the
  /// deterministic (time, shard) merge of all shard buffers.
  /// Observation-only: results are bit-identical with tracing on or
  /// off, at any worker count.
  trace::TraceBuffer* trace = nullptr;
  /// Attach a prof::Profiler to every shard's scheduler (per-event
  /// wall-clock, plus the prof.shard.window_us per-window series);
  /// snapshots merge into the result metrics. Observation-only.
  bool profile = false;
};

/// The window a sharded run uses: `window` when positive, else the
/// scenario's delivery_delay_mean.
[[nodiscard]] SimTime resolve_shard_window(const ScenarioConfig& config, SimTime window);

class ShardedSimulation final : public ReplicationEngine {
 public:
  /// Called at each window barrier (from the coordinating thread):
  /// `window_end` is the simulated time just reached, `events` the
  /// events executed so far across all shards.
  using WindowObserver = std::function<void(SimTime window_end, SimTime horizon,
                                            std::uint64_t events)>;

  /// The stats-stream sample at one window barrier (sample() at that
  /// point), plus the coordinator's wait at the barrier (0 when the
  /// shards run inline) and whether this was the run's final window —
  /// horizon reached or epidemic quiescent.
  struct ShardWindowSample : obs::RunSample {
    double barrier_wait_ms = 0.0;
    bool last = false;
  };

  /// Called at each window barrier, after the mailbox exchange, from
  /// the coordinating thread. Observation-only by contract.
  using StatsObserver = std::function<void(const ShardWindowSample&)>;

  /// Validates `config` and the sharding options. Scenarios with a
  /// proximity (Bluetooth) channel are rejected: proximity contacts
  /// are global by construction and do not respect the partition.
  /// The des::QueueImpl parameter is ignored; `graph_cache` means
  /// exactly what it does on the serial Simulation.
  ShardedSimulation(const ScenarioConfig& config, std::uint64_t replication_seed,
                    const ShardingOptions& options,
                    des::QueueImpl queue = des::QueueImpl::kWheel,
                    graph::GraphCache* graph_cache = nullptr);
  ~ShardedSimulation() override;
  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  void set_window_observer(WindowObserver observer) { window_observer_ = std::move(observer); }
  void set_stats_observer(StatsObserver observer) { stats_observer_ = std::move(observer); }

  /// Runs the window loop to the horizon and returns the merged
  /// result. May be called once.
  ReplicationResult run() override;

  // ReplicationEngine
  SimTime advance_to(SimTime target) override;
  [[nodiscard]] bool done() const override {
    return quiescent_ || !(now_ < state_.config.horizon);
  }
  /// The summed sample plus mailbox traffic and the per-shard
  /// breakdown, with each shard's wait at the last barrier.
  [[nodiscard]] obs::RunSample sample() const override;

  [[nodiscard]] const graph::Partition& partition() const { return partition_; }

 private:
  class WindowPool;

  /// One lockstep window: every slice runs to the window end, then the
  /// barrier work (mailbox exchange, detectability, observers).
  void step_window();
  /// Barrier step: drains every mailbox into the destination slices'
  /// staging (deterministic source order).
  void exchange_mailboxes();
  /// Barrier step: sums per-slice infected-submission counts and, on
  /// the global threshold crossing, stages force_detect into every
  /// slice at `window_end`.
  void check_detectability(SimTime window_end);
  /// No pending events anywhere and nothing in flight between shards.
  [[nodiscard]] bool quiescent() const;

  ShardingOptions options_;
  SimTime window_;
  int workers_ = 1;
  ReplicationState state_;
  graph::Partition partition_;
  net::ShardMailboxGrid mailbox_;

  SimTime now_ = SimTime::zero();
  bool quiescent_ = false;
  bool ran_ = false;

  // Barrier-quantized global detectability (docs/parallelism.md).
  bool detectability_dispatched_ = false;
  SimTime detected_at_ = SimTime::infinity();

  WindowObserver window_observer_;
  StatsObserver stats_observer_;

  // Coordinator-level trace events (the detectability crossing); shard
  // kNoShard, merged after the per-shard buffers at the end of run().
  trace::TraceBuffer engine_trace_{1};

  // Engine-level telemetry (merged on top of the per-slice metrics).
  std::uint64_t windows_stepped_ = 0;
  std::vector<double> barrier_wait_ms_;  // one sample per threaded window
  /// When the last threaded window's completion barrier opened (a
  /// default time_point while the shards run inline).
  std::chrono::steady_clock::time_point barrier_release_{};

  // Declared last: its worker threads run the slices, so it must stop
  // before anything else goes.
  std::unique_ptr<WindowPool> pool_;
};

}  // namespace mvsim::core
