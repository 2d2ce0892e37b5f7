// One simulation replication on one core: a single EngineSlice over
// the whole population, run to the horizon. One Simulation = one
// replication; the runner aggregates many.
#pragma once

#include <cstdint>

#include "core/engine_slice.h"
#include "core/scenario.h"
#include "des/scheduler.h"
#include "graph/graph_cache.h"
#include "trace/trace.h"

namespace mvsim::core {

class Simulation final : public ReplicationEngine {
 public:
  /// Validates `config`; the replication seed makes runs reproducible
  /// and replications independent. When `trace` is non-null the whole
  /// causal event stream — message sent/blocked/delivered, infection
  /// (victim + infector + carrier message), patch, reboot, detectability
  /// crossing, mechanism actions — is recorded into it (the buffer must
  /// outlive the simulation). Tracing is observation-only: it never
  /// draws randomness or schedules events, so traced and untraced runs
  /// are bit-identical.
  ///
  /// When `event_timer` is non-null the scheduler reports each executed
  /// event's type and wall-clock duration to it (see des::EventTimer).
  /// Like tracing this is observation-only: timing never draws
  /// randomness or schedules events, so profiled runs are bit-identical
  /// to unprofiled ones. The des::QueueImpl parameter is ignored.
  ///
  /// When `graph_cache` is non-null the contact graph is fetched from
  /// (or built into) it instead of being built privately. The cache
  /// restores the exact post-build topology-stream state on a hit, so
  /// cached and uncached runs are byte-identical — including the
  /// rng.draws telemetry (see graph::GraphCache). The cache must
  /// outlive the simulation.
  Simulation(const ScenarioConfig& config, std::uint64_t replication_seed,
             trace::TraceBuffer* trace = nullptr, des::EventTimer* event_timer = nullptr,
             des::QueueImpl queue = des::QueueImpl::kWheel,
             graph::GraphCache* graph_cache = nullptr);
  ~Simulation() override;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Runs to the configured horizon and returns the result. May be
  /// called once.
  ReplicationResult run() override;

  // ---- Fine-grained access for tests and interactive drivers ----

  /// Advance the clock; run() is equivalent to run_until(horizon) +
  /// result(). Monotone across calls.
  void run_until(SimTime t);

  [[nodiscard]] ReplicationResult result() const;

  [[nodiscard]] SimTime now() const { return slice().scheduler().now(); }
  [[nodiscard]] std::uint64_t infected_count() const { return slice().infected_count(); }
  [[nodiscard]] const graph::ContactGraph& contact_graph() const { return *state_.graph; }
  /// The struct-of-arrays population state (health, susceptibility,
  /// inbox counts), indexed by PhoneId.
  [[nodiscard]] const phone::PhoneTable& phones() const { return *state_.phones; }
  [[nodiscard]] std::size_t susceptible_count() const { return slice().patch_targets().size(); }
  /// The response layer: detectability monitor + enabled mechanisms.
  [[nodiscard]] const SimulationContext& responses() const { return slice().context(); }

  // ReplicationEngine
  SimTime advance_to(SimTime target) override;
  [[nodiscard]] bool done() const override { return !(now() < state_.config.horizon); }
  [[nodiscard]] obs::RunSample sample() const override { return state_.sample(now()); }

 private:
  [[nodiscard]] EngineSlice& slice() const { return *state_.slices.front(); }

  ReplicationState state_;
  bool ran_ = false;
};

/// Builds (or fetches) the contact graph for `config` into `cache`
/// ahead of the replications. Only meaningful when
/// `config.topology.shared_seed` is set — that is the mode where every
/// replication resolves to the same cache key; without it each
/// replication derives its own topology seed and there is nothing to
/// share. Returns true when a shared graph was warmed. The runner uses
/// this to report the one-time build phase separately from
/// per-replication progress.
bool prewarm_shared_graph(const ScenarioConfig& config, graph::GraphCache& cache);

}  // namespace mvsim::core
