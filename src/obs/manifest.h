// Run manifests and the experiment ledger: cross-run provenance.
//
// Metrics, traces, profiles and the stats stream each describe one
// run from the inside; the manifest describes the run from the
// outside — what ran (scenario name + content hash, seed, replications,
// threads), on what build (git SHA, compiler, build type),
// costing what (wall clock, peak RSS), leaving which artifacts on
// disk, and ending where (the outcome block: final/peak infections,
// time to peak, patches, blocks, events). `mvsim run --manifest PATH`
// writes one as a standalone JSON document; `--ledger PATH` appends
// the same record as one NDJSON line to an experiment ledger that
// accumulates across runs (append-safe under concurrent writers, like
// the stats stream). `mvsim report` reads either back.
//
// Like every obs surface this is observation-only: manifests are
// built from finished results and never feed back into a simulation,
// so fixed-seed curves are bit-identical with or without one attached
// (golden-pinned).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace mvsim::obs {

/// Build provenance from the generated obs/version.h (git SHA of the
/// last build, compiler id+version, CMake build type).
struct BuildInfo {
  std::string git_sha;
  std::string compiler;
  std::string build_type;
};

[[nodiscard]] BuildInfo build_info();

/// Peak resident set size of this process so far, in bytes (0 when
/// the platform cannot report it).
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// FNV-1a 64-bit hash of `text`, as 16 lowercase hex digits. The
/// scenario content hash in manifests and stream headers is this over
/// the compact canonical scenario JSON — two runs share a hash iff
/// they ran the same model inputs.
[[nodiscard]] std::string fnv1a_hex(std::string_view text);

/// One artifact the run left on disk ("-" when it went to stdout).
struct ManifestArtifact {
  std::string kind;  ///< metrics | trace | profile | stats-stream | curve-csv
  std::string path;
};

/// Where the run ended up — the outcome block `mvsim report --compare`
/// diffs between runs.
struct RunOutcome {
  double final_infected_mean = 0.0;
  double final_infected_ci95 = 0.0;
  /// Highest point of the mean infection curve (== final for monotone
  /// epidemics; the landmark the paper's figures eyeball).
  double peak_infected_mean = 0.0;
  double time_to_peak_h = 0.0;
  double patched_mean = 0.0;
  double messages_blocked_mean = 0.0;
  std::uint64_t total_events = 0;
};

/// Wall-clock phase breakdown of the run.
struct RunPhases {
  double run_seconds = 0.0;    ///< replications, including graph prewarm
  double write_seconds = 0.0;  ///< artifact serialization after the run
};

/// Present on manifests appended by `mvsim sweep`: which point of
/// which parameter ladder this run was.
struct SweepInfo {
  std::string parameter;
  double value = 0.0;
  int index = 0;  ///< 0-based position in the ladder
  int count = 0;  ///< ladder length
};

/// The versioned `"mvsim-manifest"` record. Every field is always
/// emitted (the `sweep` block is JSON null outside sweeps), so the
/// emitted keys match manifest_fields() exactly — the same three-way
/// contract the metrics report and stats stream keep with their docs.
struct RunManifest {
  /// v2 dropped the `shards` and `shard_window_min` fields.
  static constexpr int kVersion = 2;

  std::string scenario;
  std::string scenario_hash;  ///< fnv1a_hex of the canonical scenario JSON
  /// Decimal string: a u64 seed above 2^53 would lose bits as a JSON
  /// double, and seeds must round-trip exactly to rerun a manifest.
  std::string seed;
  int replications = 0;
  int threads = 0;
  BuildInfo build;
  RunPhases phases;
  std::uint64_t peak_rss = 0;  ///< bytes, process peak at write time
  std::vector<ManifestArtifact> artifacts;
  RunOutcome outcome;
  std::optional<SweepInfo> sweep;
};

[[nodiscard]] json::Value to_json(const RunManifest& manifest);

/// Throws std::runtime_error naming the problem on anything that is
/// not a version-compatible mvsim-manifest document.
[[nodiscard]] RunManifest manifest_from_json(const json::Value& value);

/// Reads one manifest document (throws std::runtime_error on I/O or
/// schema problems).
[[nodiscard]] RunManifest read_manifest_file(const std::string& path);

/// Reads every line of an NDJSON ledger (skipping blank lines) as a
/// manifest; throws std::runtime_error naming the offending line.
[[nodiscard]] std::vector<RunManifest> read_ledger_file(const std::string& path);

/// Appends `manifest` to the ledger at `path` as one compact NDJSON
/// line. The line lands in a single O_APPEND write, so concurrent
/// appenders (parallel runs sharing one ledger) interleave whole
/// records, never fragments. Returns false when the path cannot be
/// opened or the write fails.
[[nodiscard]] bool append_to_ledger(const std::string& path, const RunManifest& manifest);

/// The canonical field lists — emitted keys and the tables in
/// docs/observability.md are tested against these (tests/obs_test.cpp).
[[nodiscard]] const std::vector<std::string>& manifest_fields();
[[nodiscard]] const std::vector<std::string>& build_fields();
[[nodiscard]] const std::vector<std::string>& phase_fields();
[[nodiscard]] const std::vector<std::string>& outcome_fields();
[[nodiscard]] const std::vector<std::string>& sweep_fields();
[[nodiscard]] const std::vector<std::string>& artifact_fields();

}  // namespace mvsim::obs
