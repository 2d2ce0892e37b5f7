// EXT-DUAL: dual-vector virus — MMS plus Bluetooth (paper §6).
//
// The real CommWarrior (the paper's model for Virus 1) spread over
// BOTH MMS and Bluetooth. This bench runs Virus 1 with the proximity
// channel enabled and asks how the paper's §5.3 "optimal response
// strategy" changes when the virus has a second vector the provider
// cannot see: the gateway scan that contains single-vector Virus 1 to
// a few phones now only amputates the MMS arm, while the infection
// keeps crawling through radio range. Only infection-point mechanisms
// (education, patching) close the gap.
#include "bench_common.h"

using namespace mvsim;
using namespace mvsim::bench;

namespace {

core::ScenarioConfig dual_vector_base() {
  core::ScenarioConfig config = core::baseline_scenario(virus::virus1());
  config.name = "dual-vector/Virus 1 + Bluetooth";
  config.proximity = core::ProximityChannelConfig{};  // 16x16 grid, 60 min scans
  return config;
}

}  // namespace

int main() {
  std::cout << "mvsim EXT-DUAL: dual-vector Virus 1 (MMS + Bluetooth, paper section 6)\n";

  const core::RunnerOptions options = default_options();
  std::vector<NamedRun> runs;
  runs.push_back({"MMS-only baseline",
                  core::run_experiment(core::baseline_scenario(virus::virus1()), options)});
  runs.push_back({"Dual-vector baseline", core::run_experiment(dual_vector_base(), options)});
  runs.push_back({"MMS-only + 6h scan",
                  core::run_experiment(core::fig2_scan_scenario(SimTime::hours(6.0)), options)});

  core::ScenarioConfig scanned_dual = dual_vector_base();
  response::GatewayScanConfig scan;
  scan.activation_delay = SimTime::hours(6.0);
  scanned_dual.responses.gateway_scan = scan;
  runs.push_back({"Dual-vector + 6h scan", core::run_experiment(scanned_dual, options)});

  core::ScenarioConfig patched_dual = dual_vector_base();
  patched_dual.responses.immunization = response::ImmunizationConfig{};
  runs.push_back({"Dual-vector + patching", core::run_experiment(patched_dual, options)});

  core::ScenarioConfig educated_dual = dual_vector_base();
  educated_dual.responses.user_education = response::UserEducationConfig{};
  runs.push_back(
      {"Dual-vector + education 0.20", core::run_experiment(educated_dual, options)});

  print_figure("Dual-vector Virus 1: infection curves", runs, SimTime::hours(16.0));
  return 0;
}
