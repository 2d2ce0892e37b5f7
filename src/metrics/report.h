// Telemetry report emission and the documented metric schema.
//
// The schema is the single source of truth for what mvsim can emit:
// every counter/gauge/histogram name, its kind, unit, owning subsystem
// and meaning. `mvsim metrics-schema` prints schema_to_json(), the
// `--metrics` report contains only names listed here, and
// docs/observability.md documents the same catalogue — a test
// (tests/metrics_test.cpp) holds all three together.
//
// Report stability contract: the JSON layout (schema_version 1) only
// grows — new metric names may appear, existing names, kinds and units
// never change meaning. Downstream tooling should key on names, not
// positions.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "metrics/registry.h"
#include "util/json.h"

namespace mvsim::metrics {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(MetricKind kind);

struct MetricDescriptor {
  const char* name;
  MetricKind kind;
  /// Unit of the value ("events", "messages", "ms", "events/s", ...).
  const char* unit;
  /// Layer that emits it: des, net, core, rng, response, timing.
  const char* subsystem;
  const char* description;
  /// True for wall-clock derived metrics whose VALUES vary run to run;
  /// everything else is deterministic in (scenario, seed).
  bool machine_dependent = false;
};

/// The full metric catalogue, sorted by name.
[[nodiscard]] std::span<const MetricDescriptor> schema();

/// nullptr when the name is not in the catalogue.
[[nodiscard]] const MetricDescriptor* schema_find(std::string_view name);

/// The `mvsim metrics-schema` document: schema_version plus one entry
/// per metric.
[[nodiscard]] json::Value schema_to_json();

/// Run identity stamped into the report next to the measurements.
struct ReportInfo {
  std::string scenario;
  int replications = 0;
  int threads = 0;  ///< resolved worker-thread count (never 0)
  std::uint64_t master_seed = 0;
};

/// Snapshot <-> JSON. snapshot_from_json(snapshot_to_json(s)) == s,
/// which the round-trip test pins down.
[[nodiscard]] json::Value snapshot_to_json(const Snapshot& snapshot);
[[nodiscard]] Snapshot snapshot_from_json(const json::Value& value);

/// The full `--metrics` JSON document: schema_version, run info, the
/// snapshot (counters/gauges/histograms) and derived throughput
/// figures (events processed, events/sec).
[[nodiscard]] json::Value report_to_json(const ReportInfo& info, const Snapshot& snapshot);

}  // namespace mvsim::metrics
