// FIG-6: Monitoring for anomalous behavior — varying the forced wait.
//
// Reproduces Figure 6: Virus 3 against the monitoring mechanism, which
// flags phones exceeding the outgoing-message threshold and imposes a
// forced 15/30/60-minute wait between their messages. Shape claims:
// baseline Virus 3 infects 150 phones in ~2.5 h; with even a 15-minute
// wait the infection stays under 150 for up to ~20 h; monitoring buys
// time but does not stop the spread. tests/anchor_test.cpp (fixture
// Fig6) asserts them and the side-claim that monitoring is ineffectual
// against the self-throttled Viruses 1, 2 and 4.
#include "bench_common.h"

using namespace mvsim;
using namespace mvsim::bench;

int main() {
  std::cout << "mvsim FIG-6: monitoring, forced-wait sweep (Figure 6)\n";
  const core::RunnerOptions options = default_options();
  std::vector<NamedRun> runs;
  runs.push_back(
      {"Baseline", core::run_experiment(core::baseline_scenario(virus::virus3()), options)});
  for (double minutes : {15.0, 30.0, 60.0}) {
    runs.push_back(
        {fmt(minutes, 0) + "-Minute Wait",
         core::run_experiment(core::fig6_monitoring_scenario(SimTime::minutes(minutes)),
                              options)});
  }
  print_figure("Figure 6: Monitoring, Varying the Wait Time for Suspicious Phones (Virus 3)",
               runs, SimTime::hours(1.0));
  return 0;
}
