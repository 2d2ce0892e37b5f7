// ExperimentResult -> obs::RunManifest.
//
// The obs layer defines the manifest record but depends only on util,
// so it cannot see ScenarioConfig or ExperimentResult; this core-side
// builder closes the gap. Callers supply what only they know (the
// scenario content hash — computed from the config JSON, which lives
// in src/config above core — the seed, wall clock and artifact list);
// the builder fills everything derivable from the scenario and the
// finished result, including the whole outcome block and the build/RSS
// stamps.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/runner.h"
#include "core/scenario.h"
#include "obs/manifest.h"

namespace mvsim::core {

/// The caller-known inputs of one manifest.
struct ManifestInputs {
  std::string scenario_hash;  ///< obs::fnv1a_hex of the canonical scenario JSON
  std::uint64_t seed = 0;
  obs::RunPhases phases;
  std::vector<obs::ManifestArtifact> artifacts;
  std::optional<obs::SweepInfo> sweep;
};

/// Builds the manifest for one finished experiment. Observation-only:
/// reads the result, never the live simulation.
[[nodiscard]] obs::RunManifest build_run_manifest(const ScenarioConfig& config,
                                                  const ManifestInputs& inputs,
                                                  const ExperimentResult& result);

}  // namespace mvsim::core
