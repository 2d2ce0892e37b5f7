// FIG-1: Baseline infection curves without response mechanisms.
//
// Reproduces Figure 1 of the paper: the four illustrative viruses
// spreading unconstrained through 1000 phones (800 susceptible). All
// four plateau near 800 x 0.40 = 320; Virus 3 saturates within a day,
// Virus 2 shows the step-like curve, Viruses 1 and 4 are the slowest.
// tests/anchor_test.cpp (fixture Fig1) asserts these claims.
//
// Every virus is printed on the common 0-400 h axis of Figure 1 (Virus
// 3's curve is flat after its first day, exactly as in the paper).
#include "bench_common.h"

using namespace mvsim;
using namespace mvsim::bench;

int main() {
  std::cout << "mvsim FIG-1: baseline infection curves (Figure 1)\n";
  std::vector<NamedRun> runs;
  for (const auto& profile : virus::paper_virus_suite()) {
    core::ScenarioConfig config = core::baseline_scenario(profile);
    // Common axis so the four curves print as one table.
    config.horizon = SimTime::hours(400.0);
    config.sample_step = SimTime::hours(1.0);
    runs.push_back({profile.name, core::run_experiment(config, default_options())});
  }
  print_figure("Figure 1: Baseline Infection Curves without Response Mechanisms", runs,
               SimTime::hours(8.0));
  return 0;
}
