// Sharded single-replication engine: one run on multiple cores.
//
// The serial Simulation executes a replication on one EngineSlice and
// therefore one core. ShardedSimulation partitions the contact graph
// into K contiguous, degree-balanced ranges (graph::Partition) and runs
// one EngineSlice per range, each with its own scheduler, gateway, RNG
// streams and response-mechanism instances. Slices advance in lockstep
// through fixed synchronization windows of width W, the scenario's
// delivery_delay_mean:
//
//   loop: run every slice to the window end (in parallel)
//         barrier: drain cross-shard mailboxes, sum detectability
//
// Cross-shard MMS deliveries ride net::ShardMailboxGrid and pay an
// extra transit latency of W — the conservative lookahead that
// guarantees a drained entry can never land in a shard's past (no
// rollback needed). Detectability is summed over the shards at each
// barrier, so detection is quantized to window boundaries.
//
// Determinism: fixed (config, seed, shards) ⇒ bit-identical results
// for ANY worker-thread count, including the inline single-thread mode.
// A sharded run is a different (equally valid) sample path than the
// serial engine's — salted per-shard RNG streams, the cross-shard
// latency floor and barrier-quantized detection see to that — so the
// runner sends shards == 1 to the serial Simulation, and the golden
// tests pin sharded curves separately. Initial conditions (graph,
// susceptible set, patient zeros) are the serial run's exactly.
//
// The engine is reached through core::run_experiment
// (RunnerOptions::shards) and by direct construction. It records no
// trace; the runner rejects a trace or a stats stream at shards >= 2.
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

namespace mvsim::core {

struct ShardingOptions {
  /// Worker shards (>= 1; the runner sends one shard to the serial
  /// Simulation instead).
  std::uint32_t shards = 2;
  /// OS threads executing the shards (0 = one per shard; 1 = inline
  /// serial execution on the calling thread). Never changes results.
  int worker_threads = 0;
  /// Attach a prof::Profiler to every shard's scheduler (per-event
  /// wall-clock); snapshots merge into the result metrics.
  /// Observation-only.
  bool profile = false;
};

class ShardedSimulation final : public ReplicationEngine {
 public:
  /// The telemetry sample at one window barrier (sample() at that
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
  /// are global by construction and do not respect the partition. So
  /// is a delivery_delay_mean that cuts the horizon into more than
  /// kMaxStepsPerReplication windows.
  /// The des::QueueImpl parameter is ignored; `graph_cache` means
  /// exactly what it does on the serial Simulation.
  ShardedSimulation(const ScenarioConfig& config, std::uint64_t replication_seed,
                    const ShardingOptions& options,
                    des::QueueImpl queue = des::QueueImpl::kWheel,
                    graph::GraphCache* graph_cache = nullptr);
  ~ShardedSimulation() override;
  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  void set_stats_observer(StatsObserver observer) { stats_observer_ = std::move(observer); }

  /// Runs the window loop to the horizon and returns the merged
  /// result. May be called once.
  ReplicationResult run() override;

  // ReplicationEngine
  SimTime advance_to(SimTime target) override;
  [[nodiscard]] bool done() const override {
    return quiescent_ || !(now_ < state_.config.horizon);
  }
  /// The summed sample plus the per-shard breakdown, with each
  /// shard's wait at the last barrier.
  [[nodiscard]] obs::RunSample sample() const override;

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

  // Barrier-quantized global detectability.
  bool detectability_dispatched_ = false;
  SimTime detected_at_ = SimTime::infinity();

  StatsObserver stats_observer_;

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
