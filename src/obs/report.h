// Manifest rendering for `mvsim report`: the single-run summary and
// the cross-run outcome comparison (`mvsim report --compare`).
//
// The comparison gives each outcome metric an OK/IMPROVED/REGRESSED
// verdict. Each metric has a direction (fewer infections is better,
// more patches is better, a later peak is better), changes are
// normalized so negative always means "got worse", and a change past
// the threshold flips the verdict. Neutral metrics (event counts, gateway blocks without
// context) are reported but never regress.
#pragma once

#include <string>
#include <vector>

#include "obs/manifest.h"

namespace mvsim::obs {

struct OutcomeDelta {
  std::string metric;       ///< outcome field name (see outcome_fields())
  double baseline = 0.0;
  double current = 0.0;
  /// Normalized change; < 0 always means "got worse". Neutral metrics
  /// report the raw relative change but keep the OK verdict.
  double change = 0.0;
  std::string verdict;      ///< OK | IMPROVED | REGRESSED
};

struct OutcomeComparison {
  std::vector<OutcomeDelta> rows;  ///< one per compared outcome metric
  int regressions = 0;
};

/// Compares the outcome blocks of two manifests. `threshold` is the
/// allowed fractional change before OK flips to IMPROVED/REGRESSED
/// (default 5% — outcome means at matched seeds are deterministic, so
/// the default mostly guards cross-seed comparisons against noise).
[[nodiscard]] OutcomeComparison compare_outcomes(const RunManifest& baseline,
                                                 const RunManifest& current,
                                                 double threshold = 0.05);

/// Renders the comparison as the human-readable table `mvsim report
/// --compare` prints (one verdict-labelled row per metric, plus a
/// provenance header and a closing regression count).
[[nodiscard]] std::string render_comparison(const RunManifest& baseline,
                                            const RunManifest& current,
                                            const OutcomeComparison& comparison,
                                            double threshold);

/// The single-run summary `mvsim report <manifest>` prints: run
/// identity and provenance, wall-clock phases, the outcome block and
/// the artifact list.
[[nodiscard]] std::string render_manifest(const RunManifest& manifest);

}  // namespace mvsim::obs
