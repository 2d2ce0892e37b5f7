// EXT-BT: Bluetooth-worm extension (paper §6 future work).
//
// The paper closes by noting the same modeling approach applies to
// viruses "that spread using the Bluetooth interface on a phone".
// This bench runs that study: a Cabir-style proximity worm over a
// mobility grid, and the subset of the six response mechanisms that
// still function when there is no MMS gateway in the loop. The worm is
// an ordinary scenario (core::bluetooth_worm_scenario): the dual-vector
// virus with its MMS arm switched off.
//
// Headline finding: the provider's entire reception- and
// dissemination-point arsenal (signature scan, detection algorithm,
// monitoring, blacklisting) is structurally blind to Bluetooth
// traffic; only the infection-point mechanisms — user education and
// handset patching — remain, which inverts the paper's §5.3 ranking
// for fast viruses.
#include <utility>

#include "bench_common.h"

using namespace mvsim;
using namespace mvsim::bench;

namespace {

core::ExperimentResult run_bt(const core::ScenarioConfig& config) {
  core::RunnerOptions options = default_options();
  options.master_seed = 0xB1'0E'00'07ULL;
  return core::run_experiment(config, options);
}

/// Without gateway visibility the provider learns of the outbreak
/// out-of-band (handset AV telemetry, user complaints), modeled as a
/// fixed detection time.
core::ScenarioConfig with_patch_cycle(core::ScenarioConfig config, SimTime detection,
                                      SimTime development, SimTime deployment) {
  response::ImmunizationConfig immunization;
  immunization.detection_time = detection;
  immunization.development_time = development;
  immunization.deployment_duration = deployment;
  config.responses.immunization = immunization;
  return config;
}

}  // namespace

int main() {
  std::cout << "mvsim EXT-BT: Bluetooth proximity worm (paper section 6 extension)\n";
  const core::ScenarioConfig base = core::bluetooth_worm_scenario();  // 1000 phones, 16x16 grid
  core::ExperimentResult baseline = run_bt(base);

  core::ScenarioConfig educated = base;
  response::UserEducationConfig education;
  education.eventual_acceptance = 0.20;
  educated.responses.user_education = education;
  core::ExperimentResult with_education = run_bt(educated);

  core::ExperimentResult with_patches = run_bt(
      with_patch_cycle(base, SimTime::hours(24.0), SimTime::hours(24.0), SimTime::hours(6.0)));
  core::ExperimentResult with_fast_patches = run_bt(
      with_patch_cycle(base, SimTime::hours(12.0), SimTime::hours(12.0), SimTime::hours(1.0)));

  std::cout << "== Bluetooth worm: infection curves ==\n";
  std::cout << "Hours,Baseline,User Education 0.20,Patch 24h+24h+6h,Patch 12h+12h+1h\n";
  for (SimTime t = SimTime::zero(); t <= base.horizon; t += SimTime::hours(6.0)) {
    std::cout << fmt(t.to_hours()) << ',' << fmt(baseline.curve.mean_at(t)) << ','
              << fmt(with_education.curve.mean_at(t)) << ','
              << fmt(with_patches.curve.mean_at(t)) << ','
              << fmt(with_fast_patches.curve.mean_at(t)) << '\n';
  }

  // The MMS-side mechanisms (scan, detection, monitoring, blacklist)
  // never engage: the worm submits no MMS.
  std::cout << "-- finals --\n";
  std::cout << "run,final_infected,percent_of_baseline,mms_submitted_per_rep\n";
  const double base_final = baseline.final_infections.mean();
  const std::pair<const char*, const core::ExperimentResult*> finals[] = {
      {"Baseline", &baseline},
      {"User education 0.20", &with_education},
      {"Patch 24h+24h+6h", &with_patches},
      {"Patch 12h+12h+1h", &with_fast_patches}};
  for (const auto& [label, result] : finals) {
    std::cout << label << "," << fmt(result->final_infections.mean()) << ","
              << fmt(100.0 * result->final_infections.mean() / base_final) << "%,"
              << fmt(result->per_replication("net.messages_submitted").mean()) << "\n";
  }

  // Density sweep: proximity spread is gated by encounters, a knob MMS
  // propagation does not have.
  std::cout << "-- density sweep (phones per cell) --\n";
  std::cout << "grid,phones_per_cell,final_infected,half_plateau_hours\n";
  for (std::uint32_t side : {8u, 16u, 32u}) {
    core::ScenarioConfig config = base;
    config.proximity->grid_width = side;
    config.proximity->grid_height = side;
    core::ExperimentResult result = run_bt(config);
    SimTime half = result.curve.mean_first_time_at_or_above(160.0);
    std::cout << side << "x" << side << ","
              << fmt(1000.0 / (static_cast<double>(side) * side), 2) << ","
              << fmt(result.final_infections.mean()) << ","
              << fmt(half.is_finite() ? half.to_hours() : -1.0) << "\n";
  }
  return 0;
}
