// Hot-path profiler: per-event-type and per-phase wall-clock
// attribution for one replication.
//
// One Profiler belongs to one replication (same ownership discipline
// as metrics::Registry: per-thread, no locks). It implements
// des::EventTimer, so attaching it to a Scheduler charges every
// executed event's type with the wall-clock gap since the previous
// event boundary (one clock read per event); ScopedPhase
// attributes coarser spans (simulation build, event loop, result
// collection). All measurements land in metrics::Registry histograms
// under `prof.*` names, which buys three properties for free:
//   * snapshots merge commutatively across replications (the runner's
//     replication-order merge stays thread-count-invariant in
//     structure; the VALUES are wall-clock and machine-dependent);
//   * profiles ride the existing `--metrics` report and schema;
//   * the profile JSON writer (profile_io.h) is just a view over a
//     Snapshot, so `mvsim profile-analyze` works on merged data.
//
// Profiling is OBSERVATION-ONLY: it reads clocks and nothing else, so
// fixed-seed runs are bit-identical with profiling on or off (pinned
// by tests/golden_test.cpp).
#pragma once

#include <array>
#include <chrono>
#include <cstddef>

#include "des/event_type.h"
#include "metrics/registry.h"

namespace mvsim::prof {

/// Coarse replication phases timed by the runner.
enum class Phase : std::uint8_t { kBuild = 0, kRun, kCollect };

inline constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kCollect) + 1;

/// Stable name, used to build the `prof.phase.<name>_ms` metric.
[[nodiscard]] inline const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kBuild: return "build";
    case Phase::kRun: return "run";
    case Phase::kCollect: return "collect";
  }
  return "unknown";
}

/// `prof.event.<type>` histogram name for an event type.
[[nodiscard]] const char* event_metric_name(des::EventType type);
/// `prof.phase.<phase>_ms` histogram name for a phase.
[[nodiscard]] const char* phase_metric_name(Phase phase);

class Profiler final : public des::EventTimer {
 public:
  /// Eagerly registers every `prof.event.*` and `prof.phase.*`
  /// histogram, so a snapshot always carries the full fixed catalogue
  /// (zero counts included) and merged profiles never hit a
  /// missing-name asymmetry.
  Profiler();

  /// des::EventTimer: one executed scheduler event of `type` took
  /// `micros` microseconds of wall-clock, pop and dispatch included.
  void record_event(des::EventType type, double micros) override;

  /// One completed phase span of `millis` milliseconds.
  void record_phase(Phase phase, double millis);

  /// The profile so far, as ordinary metrics (merge with other
  /// replications' snapshots freely — histogram merging is commutative
  /// and associative).
  [[nodiscard]] metrics::Snapshot snapshot() const { return registry_.snapshot(); }

 private:
  metrics::Registry registry_;
  std::array<metrics::Histogram*, des::kEventTypeCount> event_histograms_{};
  std::array<metrics::Histogram*, kPhaseCount> phase_histograms_{};
};

/// RAII phase timer: records the elapsed wall-clock into `profiler`
/// on destruction. Null profiler = no-op (so call sites need no
/// branching). Scopes nest freely — each scope accounts its own full
/// span, so an outer scope's total includes its inner scopes' time.
class ScopedPhase {
 public:
  ScopedPhase(Profiler* profiler, Phase phase)
      : profiler_(profiler), phase_(phase), started_(std::chrono::steady_clock::now()) {}
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase() {
    if (profiler_ == nullptr) return;
    profiler_->record_phase(
        phase_, std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                          started_)
                    .count());
  }

 private:
  Profiler* profiler_;
  Phase phase_;
  std::chrono::steady_clock::time_point started_;
};

}  // namespace mvsim::prof
