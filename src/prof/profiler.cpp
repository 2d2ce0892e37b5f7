#include "prof/profiler.h"

#include <span>

namespace mvsim::prof {

namespace {

// Bucket bounds are fixed so profiles from any two runs merge
// structurally (the values themselves are machine-dependent).
// Per-event durations are microseconds: most events are sub-10us, a
// slow delivery fan-out can reach milliseconds.
constexpr std::array<double, 8> kEventMicrosBounds = {0.25, 1.0,   4.0,    16.0,
                                                      64.0, 256.0, 1024.0, 8192.0};
// Phase spans are milliseconds, same scale as timing.replication_wall_ms.
constexpr std::array<double, 7> kPhaseMsBounds = {1.0,   5.0,    25.0,   100.0,
                                                  500.0, 2500.0, 10000.0};
constexpr const char* kEventMetricNames[des::kEventTypeCount] = {
    "prof.event.generic",
    "prof.event.seed_infection",
    "prof.event.phone_read",
    "prof.event.virus_send",
    "prof.event.virus_legit_traffic",
    "prof.event.virus_reboot",
    "prof.event.message_delivery",
    "prof.event.bluetooth_scan",
    "prof.event.mobility_move",
    "prof.event.response_activation",
    "prof.event.response_patch",
    "prof.event.response_tick",
    "prof.event.sample",
};

constexpr const char* kPhaseMetricNames[kPhaseCount] = {
    "prof.phase.build_ms",
    "prof.phase.run_ms",
    "prof.phase.collect_ms",
};

}  // namespace

const char* event_metric_name(des::EventType type) {
  return kEventMetricNames[static_cast<std::size_t>(type)];
}

const char* phase_metric_name(Phase phase) {
  return kPhaseMetricNames[static_cast<std::size_t>(phase)];
}

Profiler::Profiler() {
  for (std::size_t i = 0; i < des::kEventTypeCount; ++i) {
    event_histograms_[i] = &registry_.histogram(kEventMetricNames[i], kEventMicrosBounds);
  }
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    phase_histograms_[i] = &registry_.histogram(kPhaseMetricNames[i], kPhaseMsBounds);
  }
}

void Profiler::record_event(des::EventType type, double micros) {
  event_histograms_[static_cast<std::size_t>(type)]->record(micros);
}

void Profiler::record_phase(Phase phase, double millis) {
  phase_histograms_[static_cast<std::size_t>(phase)]->record(millis);
}

}  // namespace mvsim::prof
