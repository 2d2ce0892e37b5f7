// Live run telemetry: a schema-versioned NDJSON time-series stream.
//
// Traces answer "what happened" after the fact and profiles answer
// "where did the wall-clock go"; the stats stream answers "how is the
// run doing right now". `mvsim run --stats-stream PATH|-` attaches a
// RunStream to the runner, which samples each replication every
// `--stats-period` simulated minutes and appends one JSON object per
// line: infected / patched / blocked counts, events executed,
// wall-clock event rate and scheduler queue depth.
//
// Strictly observation-only: sampling never draws randomness,
// schedules events or mutates simulation state, so fixed-seed curves
// are bit-identical with the stream on or off (golden-pinned). The
// stream is thread-safe — replications running on parallel workers
// interleave whole lines, each tagged with its replication index.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "util/sim_time.h"

namespace mvsim::obs {

/// Per-shard slice of one sharded-engine sample (the engine's window
/// observer, see core::ShardedSimulation; not part of the stream).
struct ShardSample {
  std::uint32_t shard = 0;
  std::uint64_t events_executed = 0;  ///< cumulative, this shard
  std::uint64_t queue_depth = 0;      ///< pending events right now
  /// Wall-clock ms this shard's window waited at the last barrier —
  /// the shard with ~zero wait is the straggler everyone else waited for.
  double barrier_wait_ms = 0.0;
};

/// One telemetry sample. Counters are cumulative since replication
/// start; gauges are instantaneous. Only the sharded engine fills
/// `shards`, which the stream does not write.
struct RunSample {
  int replication = 0;
  SimTime time;
  std::uint64_t infected = 0;          ///< phones ever infected (cumulative)
  std::uint64_t patched = 0;           ///< phones patched or immunized
  std::uint64_t messages_blocked = 0;  ///< gateway blocks so far
  std::uint64_t events_executed = 0;   ///< DES events so far
  double events_per_sec = 0.0;         ///< wall-clock rate since rep start
  std::uint64_t queue_depth = 0;       ///< pending DES events right now
  std::vector<ShardSample> shards;
};

/// Provenance and shape of one stream, written as the header record.
/// `scenario_hash` is obs::fnv1a_hex over the canonical scenario JSON
/// (the same hash run manifests carry), so a stream file is
/// attributable to its exact model inputs on its own; the git SHA is
/// stamped from the build automatically.
struct StreamInfo {
  std::string scenario;
  std::string scenario_hash;
  int replications = 0;
};

/// Serializes RunSamples as NDJSON onto one ostream. The first line is
/// a header record `{"type":"mvsim-stats","version":3,...}` whose
/// "fields" array is the sample schema; every subsequent line is a
/// sample record carrying exactly those fields. Lines are flushed as
/// they are written so `tail -f` (or a dashboard) sees them live.
class RunStream {
 public:
  /// v2 added the provenance fields (`scenario_hash`, `git_sha`) to
  /// the header. v3 dropped the shard fields: the header's `shards`
  /// and `shard_fields`, the samples' `mailbox_sent`,
  /// `mailbox_received` and `shards`.
  static constexpr int kVersion = 3;

  /// The stream writes to `out` for its whole lifetime; the caller
  /// keeps `out` alive and owns flushing/closing the underlying file.
  explicit RunStream(std::ostream& out) : out_(&out) {}

  RunStream(const RunStream&) = delete;
  RunStream& operator=(const RunStream&) = delete;

  /// Writes the header record. Call once, before any samples.
  void write_header(const StreamInfo& info);

  /// Appends one sample record (thread-safe; whole lines interleave).
  void write_sample(const RunSample& sample);

  [[nodiscard]] std::uint64_t samples_written() const { return samples_written_; }

  /// The canonical field list — the header's "fields" array, every
  /// sample record's keys, and the table in docs/observability.md all
  /// come from (or are tested against) it.
  [[nodiscard]] static const std::vector<std::string>& sample_fields();

 private:
  std::ostream* out_;
  std::mutex mutex_;
  std::uint64_t samples_written_ = 0;
  std::string line_;  // write_sample's reused line buffer (guarded by mutex_)
};

}  // namespace mvsim::obs
