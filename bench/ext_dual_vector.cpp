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

  Harness harness("ext_dual_vector");
  std::vector<NamedRun> runs;
  runs.push_back(
      run_labelled(harness, "MMS-only baseline", core::baseline_scenario(virus::virus1())));
  runs.push_back(run_labelled(harness, "Dual-vector baseline", dual_vector_base()));

  core::ScenarioConfig scanned_single = core::fig2_scan_scenario(SimTime::hours(6.0));
  runs.push_back(run_labelled(harness, "MMS-only + 6h scan", scanned_single));

  core::ScenarioConfig scanned_dual = dual_vector_base();
  response::GatewayScanConfig scan;
  scan.activation_delay = SimTime::hours(6.0);
  scanned_dual.responses.gateway_scan = scan;
  runs.push_back(run_labelled(harness, "Dual-vector + 6h scan", scanned_dual));

  core::ScenarioConfig patched_dual = dual_vector_base();
  patched_dual.responses.immunization = response::ImmunizationConfig{};
  runs.push_back(run_labelled(harness, "Dual-vector + patching", patched_dual));

  core::ScenarioConfig educated_dual = dual_vector_base();
  educated_dual.responses.user_education = response::UserEducationConfig{};
  runs.push_back(run_labelled(harness, "Dual-vector + education 0.20", educated_dual));

  print_figure("Dual-vector Virus 1: infection curves", runs, SimTime::hours(16.0));

  std::cout << "-- findings --\n";
  double single_base = runs[0].result.final_infections.mean();
  double dual_base = runs[1].result.final_infections.mean();
  double single_scan = runs[2].result.final_infections.mean();
  double dual_scan = runs[3].result.final_infections.mean();
  report("adding the Bluetooth vector leaves the consent plateau unchanged",
         "finals " + fmt(single_base) + " (MMS-only) vs " + fmt(dual_base) + " (dual)");
  report("the gateway scan contains single-vector Virus 1 to a few phones (Figure 2)",
         "MMS-only + 6h scan -> " + fmt(single_scan) + " infected (" +
             fmt(100.0 * single_scan / single_base) + "% of baseline)");
  report("against the dual-vector virus the same scan only amputates the MMS arm",
         "dual + 6h scan -> " + fmt(dual_scan) + " infected (" +
             fmt(100.0 * dual_scan / dual_base) + "% of its baseline); Bluetooth pushes/rep = " +
             fmt(runs[3].result.per_replication("core.bluetooth_push_attempts").mean()));
  report("infection-point mechanisms still work: they protect the phone, not the channel",
         "dual + patching -> " + fmt(runs[4].result.final_infections.mean()) +
             ", dual + education -> " + fmt(runs[5].result.final_infections.mean()));
  harness.write_report();
  return 0;
}
