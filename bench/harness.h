// Unified bench harness: every bench binary (figure reproductions,
// scaling studies, the shard sweep) registers its workloads as cases
// and ends with write_report(), so each run leaves behind one
// machine-readable BENCH_<name>.json with median-of-N wall-clock and
// events/sec per case. These reports describe a bench run; they are
// not a regression gate (perfbench/ is the repository's one benchmark).
// docs/observability.md documents the schema.
//
// Control knobs (environment):
//   MVSIM_BENCH_WARMUP  discarded runs per case (default: the binary's)
//   MVSIM_BENCH_REPEAT  measured runs per case  (default: the binary's)
//   MVSIM_BENCH_DIR     where BENCH_<name>.json lands (default: cwd)
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace mvsim::bench {

struct HarnessOptions {
  /// Discarded runs before measurement starts (cache/page warmup).
  int warmup = 0;
  /// Measured runs; the report summarizes their distribution.
  int repeat = 1;
};

struct CaseResult {
  std::string name;
  /// Throughput units one run processes (engine events for simulation
  /// cases); 0 marks a wall-clock-only case with no events/sec series.
  std::uint64_t events = 0;
  std::vector<double> wall_seconds;  ///< one entry per measured run
};

/// Exact order-statistic quantile (q in [0,1]) of a small sample;
/// 0 for an empty one. Benches repeat a handful of times, so exact
/// beats interpolation here.
[[nodiscard]] double sample_quantile(std::vector<double> values, double q);

class Harness {
 public:
  /// `name` names the report file (BENCH_<name>.json); `defaults` are
  /// the binary's warmup/repeat, overridable via MVSIM_BENCH_WARMUP /
  /// MVSIM_BENCH_REPEAT.
  explicit Harness(std::string name, HarnessOptions defaults = {});

  /// Runs `fn` warmup+repeat times and records the measured runs.
  /// `fn` returns the number of throughput units that one run
  /// processed (0 = wall-clock only). Prints a one-line summary per
  /// case on stderr, keeping stdout for the bench's own tables.
  void run_case(const std::string& label, const std::function<std::uint64_t()>& fn);

  /// Attaches a scalar fact to the report (emitted under "notes", e.g.
  /// peak RSS or bytes-per-phone). Notes carry capacity/memory facts
  /// that are not wall-clock series.
  /// Setting an existing key overwrites it.
  void set_note(const std::string& key, double value);

  [[nodiscard]] int warmup() const { return options_.warmup; }
  [[nodiscard]] int repeat() const { return options_.repeat; }
  [[nodiscard]] const std::vector<CaseResult>& cases() const { return cases_; }

  /// The BENCH document as a JSON string (schema-versioned; see
  /// docs/observability.md).
  [[nodiscard]] std::string to_json() const;

  /// Writes BENCH_<name>.json into MVSIM_BENCH_DIR (default: the
  /// working directory) and returns the path written. Throws
  /// std::runtime_error when the file cannot be written.
  std::string write_report() const;

 private:
  std::string name_;
  HarnessOptions options_;
  std::vector<CaseResult> cases_;
  std::vector<std::pair<std::string, double>> notes_;  // insertion-ordered
};

}  // namespace mvsim::bench
