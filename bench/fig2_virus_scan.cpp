// FIG-2: Gateway virus scan — varying the signature activation delay.
//
// Reproduces Figure 2: Virus 1 against an MMS-gateway signature scan
// whose new-signature turnaround is 6, 12 or 24 hours after the virus
// becomes detectable. Shape claims: 6 h delay contains the infection to
// ~5% of baseline; even 24 h contains it to ~25%; the scan fully halts
// further spread once active. tests/anchor_test.cpp (fixture Fig2)
// asserts these and the §5.2 side-claims that Viruses 2 and 4 behave
// like Virus 1 and that Virus 3 is unaffected.
#include "bench_common.h"

using namespace mvsim;
using namespace mvsim::bench;

int main() {
  std::cout << "mvsim FIG-2: gateway virus scan, activation delay sweep (Figure 2)\n";
  const core::RunnerOptions options = default_options();
  std::vector<NamedRun> runs;
  runs.push_back(
      {"Baseline", core::run_experiment(core::baseline_scenario(virus::virus1()), options)});
  for (double hours : {6.0, 12.0, 24.0}) {
    runs.push_back({fmt(hours, 0) + "-Hour Delay",
                    core::run_experiment(core::fig2_scan_scenario(SimTime::hours(hours)),
                                         options)});
  }
  print_figure("Figure 2: Virus Scan, Varying the Activation Time Delay (Virus 1)", runs,
               SimTime::hours(8.0));
  return 0;
}
