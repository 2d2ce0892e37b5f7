// One slice of a replication's event loop.
//
// A replication's phones are split into contiguous id ranges, one per
// EngineSlice. A slice owns everything its range needs to run: its
// scheduler and RNG streams, its gateway, phone and sending
// environments, its response context, the susceptible phones it
// patches, its infection times and patch counters, and its trace and
// profiler taps. What the slices share — scenario, contact graph, phone
// table, sending processes — lives in ReplicationState, which also owns
// the slices.
//
// Simulation is one slice over every phone: the replication's own
// stream seeds, immediate detection, the caller's trace buffer and the
// optional proximity channel. ShardedSimulation runs K slices with
// salted stream seeds and deferred detection, routing recipients that
// another slice owns through a mailbox (core/sharded_simulation.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.h"
#include "core/simulation_context.h"
#include "des/scheduler.h"
#include "graph/graph_cache.h"
#include "graph/partition.h"
#include "metrics/registry.h"
#include "mobility/grid.h"
#include "mobility/movement.h"
#include "net/gateway.h"
#include "net/shard_mailbox.h"
#include "obs/stats_stream.h"
#include "phone/phone_table.h"
#include "prof/profiler.h"
#include "rng/stream.h"
#include "stats/time_series.h"
#include "trace/recorder.h"
#include "trace/trace.h"
#include "virus/sending_process.h"

namespace mvsim::core {

/// Everything a replication reports back.
struct ReplicationResult {
  /// Step series of the infected-phone count over time (the quantity
  /// every figure in the paper plots).
  stats::TimeSeries infections;
  std::uint64_t total_infected = 0;
  /// When the virus crossed the detectability threshold (infinity if
  /// never, e.g. a virus contained before reaching it).
  SimTime detected_at = SimTime::infinity();
  /// Run telemetry (des/net/core/rng/response counters, see
  /// docs/observability.md): the one place the replication's counters
  /// live, read by name (`net.messages_blocked`,
  /// `core.phones_immunized_healthy`, ...). Deterministic in
  /// (scenario, seed); collection is observation-only and always on.
  metrics::Snapshot metrics;
  /// Wall-clock time this replication took (stamped by the runner;
  /// 0 when the engine was driven directly).
  double wall_seconds = 0.0;
};

/// The runner's handle on one replication, serial or sharded.
class ReplicationEngine {
 public:
  virtual ~ReplicationEngine() = default;
  /// Runs until the clock reaches `target`: exactly, on the serial
  /// engine; at the first window barrier at or past it on the sharded
  /// one, which also stops early once the epidemic is quiescent.
  /// Returns the time reached.
  virtual SimTime advance_to(SimTime target) = 0;
  /// True once advancing further cannot change the result: the horizon
  /// is reached, or a sharded run went quiescent.
  [[nodiscard]] virtual bool done() const = 0;
  /// Live telemetry at the current clock. The replication index and
  /// the event rate are left for the caller.
  [[nodiscard]] virtual obs::RunSample sample() const = 0;
  /// Runs to the horizon and returns the result. May be called once.
  virtual ReplicationResult run() = 0;
};

class EngineSlice;

/// How one slice of a sharded run reaches the other slices.
struct ShardLinks {
  const graph::Partition* partition = nullptr;
  net::ShardMailboxGrid* mailbox = nullptr;
  /// Synchronization-window width: the extra latency every cross-shard
  /// delivery pays (the conservative lookahead).
  SimTime window = SimTime::zero();
};

/// What the slices of one replication share, plus the slices.
///
/// The owning engine constructs it (validation and the contact graph),
/// adds its slices, then calls populate(). Draws on the topology stream
/// follow one fixed order at any slice count — graph, susceptible set,
/// patient zeros — so a sharded run starts from the serial run's exact
/// initial conditions.
struct ReplicationState {
  /// Validates `config` and resolves the contact graph (through
  /// `graph_cache` when non-null, see graph::GraphCache).
  ReplicationState(const ScenarioConfig& config, std::uint64_t replication_seed,
                   graph::GraphCache* graph_cache);
  ~ReplicationState();
  ReplicationState(const ReplicationState&) = delete;
  ReplicationState& operator=(const ReplicationState&) = delete;

  /// Builds the phone table over the slices' environments, samples the
  /// susceptible set (each slice patches the phones it owns), attaches
  /// every slice's response layer and schedules the patient-zero
  /// infections on their owner slices. `partition` assigns phones to
  /// slices; null means a single slice owns them all.
  void populate(const graph::Partition* partition);

  [[nodiscard]] EngineSlice& owner_of(graph::PhoneId id) const;

  /// The replication's result, merged over the slices (infection
  /// instants K-way merged, lowest slice first on ties; metrics
  /// merged). `detected_at` is the engine's to fill in.
  [[nodiscard]] ReplicationResult result() const;
  /// The topology draws plus every slice's telemetry.
  [[nodiscard]] metrics::Snapshot collect_metrics() const;
  /// The slices' live counters summed into one stats-stream sample.
  [[nodiscard]] obs::RunSample sample(SimTime at) const;

  ScenarioConfig config;
  std::uint64_t replication_seed;
  rng::Stream topology_stream;
  phone::ConsentModel consent;
  // Immutable once built; shared with sibling replications when a
  // GraphCache is in play.
  std::shared_ptr<const graph::ContactGraph> graph;
  const graph::Partition* partition = nullptr;
  // Declared before the phone table and the sending processes, which
  // hold pointers into the slices' schedulers and must go first.
  std::vector<std::unique_ptr<EngineSlice>> slices;
  // unique_ptr for address stability: pending decision events capture
  // the table pointer.
  std::unique_ptr<phone::PhoneTable> phones;
  std::vector<std::unique_ptr<virus::SendingProcess>> processes;  // index = phone id
};

class EngineSlice final : public net::ShardRouter, private phone::InfectionListener {
 public:
  /// The serial slice: every phone, the replication's own stream seeds
  /// and immediate detection. Records into `trace` and times events
  /// into `event_timer` when they are non-null (both non-owning).
  EngineSlice(ReplicationState& state, trace::TraceBuffer* trace, des::EventTimer* event_timer);
  /// Slice `index` of a sharded run: salted stream seeds, deferred
  /// detection, and recipients other slices own routed through `links`.
  /// `profile` gives the slice a private profiler; a shard records no
  /// trace.
  EngineSlice(ReplicationState& state, std::uint32_t index, const ShardLinks& links,
              bool profile);
  ~EngineSlice() override;
  EngineSlice(const EngineSlice&) = delete;
  EngineSlice& operator=(const EngineSlice&) = delete;

  /// Wires the response layer, plus the proximity channel when the
  /// scenario has one. Called by ReplicationState::populate once the
  /// phone table exists.
  void attach();

  [[nodiscard]] des::Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] const des::Scheduler& scheduler() const { return scheduler_; }
  [[nodiscard]] const net::Gateway& gateway() const { return *gateway_; }
  [[nodiscard]] SimulationContext& context() { return *context_; }
  [[nodiscard]] const phone::PhoneEnvironment& phone_env() const { return phone_env_; }
  /// The susceptible phones this slice owns, ascending.
  [[nodiscard]] std::vector<graph::PhoneId>& patch_targets() { return patch_targets_; }
  /// When each of this slice's phones got infected; nondecreasing.
  [[nodiscard]] const std::vector<SimTime>& infection_times() const { return infection_times_; }
  [[nodiscard]] std::uint64_t infected_count() const { return infection_times_.size(); }
  [[nodiscard]] std::uint64_t patched_infected() const { return patched_infected_; }
  [[nodiscard]] std::uint64_t immunized_healthy() const { return immunized_healthy_; }
  [[nodiscard]] std::uint64_t bluetooth_push_attempts() const { return bluetooth_push_attempts_; }

  /// Scheduler, gateway, core and RNG counters plus the response
  /// layer's, and the slice's own profile when it owns a profiler.
  /// Read-only: collecting never perturbs event order or RNG sequences.
  [[nodiscard]] metrics::Snapshot collect_metrics() const;

  // ---- Sharded runs ----

  /// Queue a drained cross-shard delivery, or the detectability
  /// crossing, for the next window (coordinator, between barriers).
  void stage(const net::CrossShardDelivery& delivery) { staged_.push_back(delivery); }
  void stage_detection(SimTime at) { staged_detection_ = at; }
  [[nodiscard]] bool has_staged() const { return !staged_.empty() || staged_detection_; }
  /// Schedules what the coordinator staged at the last barrier: first
  /// the deliveries (in drain order), then the detectability crossing.
  /// Running it on the owning worker parallelizes the per-entry
  /// scheduling cost instead of serializing it between barriers.
  void flush_staged();
  /// One lockstep window: flush the staged work, then run to `until`.
  /// With `stamp` the finish time is recorded for the per-shard barrier
  /// waits of ShardedSimulation::sample().
  void run_window(SimTime until, bool stamp);
  [[nodiscard]] std::chrono::steady_clock::time_point window_finished() const {
    return window_finished_;
  }

  // net::ShardRouter
  [[nodiscard]] SimTime remote_extra_latency() const override { return links_.window; }
  bool route_remote(net::PhoneId recipient, const net::MmsMessage& message,
                    SimTime deliver_at) override;

 private:
  /// Common wiring; a default `links` (null partition) is the serial slice.
  EngineSlice(ReplicationState& state, std::uint32_t index, const ShardLinks& links);

  /// InfectionListener: the PhoneTable's exactly-once infection
  /// notification, carrying the provenance the trace layer records.
  void on_phone_infected(phone::PhoneId id, const phone::InfectionSource& source) override;
  void on_patch_applied(graph::PhoneId id);
  void schedule_bluetooth_scan(graph::PhoneId id);
  [[nodiscard]] bool sharded() const { return links_.partition != nullptr; }

  ReplicationState& state_;
  std::uint32_t index_;
  ShardLinks links_;  ///< default (null partition) for the serial slice

  des::Scheduler scheduler_;
  // RNG streams — one per concern, so no component's draws perturb
  // another's sequence.
  rng::Stream user_stream_;
  rng::Stream virus_stream_;
  rng::Stream net_stream_;
  rng::Stream response_stream_;
  rng::Stream mobility_stream_;
  rng::Stream proximity_stream_;

  std::unique_ptr<net::Gateway> gateway_;
  phone::PhoneEnvironment phone_env_;
  virus::SendingEnvironment sending_env_;
  // The response layer, behind the mechanism-agnostic dispatch context.
  std::unique_ptr<SimulationContext> context_;
  std::vector<graph::PhoneId> patch_targets_;

  // Optional Bluetooth channel (dual-vector or Bluetooth-only viruses;
  // serial only).
  std::unique_ptr<mobility::MobilityGrid> proximity_grid_;
  std::unique_ptr<mobility::MovementProcess> movement_;

  std::vector<SimTime> infection_times_;
  std::uint64_t patched_infected_ = 0;
  std::uint64_t immunized_healthy_ = 0;
  std::uint64_t bluetooth_push_attempts_ = 0;

  // Observability taps. trace_ is the caller's buffer on the serial
  // slice and null on a shard.
  trace::TraceBuffer* trace_ = nullptr;
  std::unique_ptr<trace::GatewayRecorder> recorder_;
  std::unique_ptr<prof::Profiler> profiler_;

  // Staged by the coordinator between barriers, consumed by the owning
  // worker at the next window start; the barriers order the accesses.
  std::vector<net::CrossShardDelivery> staged_;
  std::optional<SimTime> staged_detection_;
  /// The one-recipient message a cross-shard delivery shows the
  /// delivery-subscribed mechanisms; refilled per delivery, so no
  /// delivery allocates.
  net::MmsMessage remote_delivery_;
  std::chrono::steady_clock::time_point window_finished_{};
};

}  // namespace mvsim::core
