// ABL-2: behavioral-constant ablation.
//
// Two constants the paper leaves unspecified are knobs in mvsim (see
// DESIGN.md substitutions):
//   * the user's read delay (inbox -> accept/reject decision), and
//   * the detectability threshold (infected messages the gateways must
//     see before scan/detection/immunization clocks start).
// This bench quantifies how sensitive the headline results are to each.
#include "bench_common.h"

using namespace mvsim;
using namespace mvsim::bench;

int main() {
  std::cout << "mvsim ABL-2: behavioral-constant ablation\n";
  const core::RunnerOptions options = default_options();

  // --- Read-delay sweep: Virus 1 baseline growth speed. ---
  std::cout << "-- read delay (Virus 1 baseline) --\n";
  std::cout << "read_delay_mean_min,final_infected,half_plateau_hours\n";
  for (double minutes : {15.0, 30.0, 60.0, 120.0, 240.0}) {
    core::ScenarioConfig config = core::baseline_scenario(virus::virus1());
    config.read_delay_mean = SimTime::minutes(minutes);
    core::ExperimentResult result = core::run_experiment(config, options);
    SimTime half = result.curve.mean_first_time_at_or_above(160.0);
    std::cout << fmt(minutes, 0) << "," << fmt(result.final_infections.mean()) << ","
              << fmt(half.is_finite() ? half.to_hours() : -1.0) << "\n";
  }

  // --- Detectability-threshold sweep: gateway scan vs Virus 1. ---
  std::cout << "-- detectability threshold (Virus 1 + 6h gateway scan) --\n";
  std::cout << "detect_threshold_msgs,final_infected,detected_at_hours\n";
  for (std::uint64_t threshold : {1ull, 5ull, 20ull, 50ull}) {
    core::ScenarioConfig config = core::fig2_scan_scenario(SimTime::hours(6.0));
    config.responses.detectability_threshold = threshold;
    core::RunnerOptions keep = options;
    keep.keep_replications = true;
    core::ExperimentResult result = core::run_experiment(config, keep);
    stats::Accumulator detected_at;
    for (const auto& rep : result.replications) {
      if (rep.detected_at.is_finite()) detected_at.add(rep.detected_at.to_hours());
    }
    std::cout << threshold << "," << fmt(result.final_infections.mean()) << ","
              << fmt(detected_at.mean()) << "\n";
  }

  // --- Legit-traffic rate: Virus 4's only free constant. ---
  std::cout << "-- legitimate-traffic gap (Virus 4 baseline) --\n";
  std::cout << "legit_gap_mean_hours,final_infected,half_plateau_hours\n";
  for (double hours : {1.0, 2.0, 4.0}) {
    core::ScenarioConfig config = core::baseline_scenario(virus::virus4());
    config.virus.legit_traffic_gap_mean = SimTime::hours(hours);
    core::ExperimentResult result = core::run_experiment(config, options);
    SimTime half = result.curve.mean_first_time_at_or_above(160.0);
    std::cout << fmt(hours, 0) << "," << fmt(result.final_infections.mean()) << ","
              << fmt(half.is_finite() ? half.to_hours() : -1.0) << "\n";
  }
  return 0;
}
