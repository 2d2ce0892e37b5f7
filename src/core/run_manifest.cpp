#include "core/run_manifest.h"

#include <cstdio>

namespace mvsim::core {

obs::RunManifest build_run_manifest(const ScenarioConfig& config, const ManifestInputs& inputs,
                                    const ExperimentResult& result) {
  obs::RunManifest manifest;
  manifest.scenario = config.name;
  manifest.scenario_hash = inputs.scenario_hash;
  char seed[24];
  std::snprintf(seed, sizeof seed, "%llu", static_cast<unsigned long long>(inputs.seed));
  manifest.seed = seed;
  manifest.replications = static_cast<int>(result.curve.replication_count());
  manifest.threads = result.threads_used;
  manifest.build = obs::build_info();
  manifest.phases = inputs.phases;
  manifest.peak_rss = obs::peak_rss_bytes();
  manifest.artifacts = inputs.artifacts;
  manifest.sweep = inputs.sweep;

  obs::RunOutcome& outcome = manifest.outcome;
  outcome.final_infected_mean = result.final_infections.mean();
  outcome.final_infected_ci95 = result.final_infections.ci95_half_width();
  // The peak of the mean curve; infection counts are cumulative, so
  // for most scenarios this equals the final level and the interesting
  // landmark is *when* the curve first reaches it.
  for (const auto& point : result.curve.grid()) {
    if (point.mean > outcome.peak_infected_mean) {
      outcome.peak_infected_mean = point.mean;
      outcome.time_to_peak_h = point.time.to_hours();
    }
  }
  outcome.patched_mean = result.patches_applied.mean();
  outcome.messages_blocked_mean = result.per_replication("net.messages_blocked").mean();
  outcome.total_events = result.metrics.counter_value("des.events_executed");
  return manifest;
}

}  // namespace mvsim::core
