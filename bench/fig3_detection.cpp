// FIG-3: Gateway detection algorithm — varying detection accuracy.
//
// Reproduces Figure 3: Virus 2 against a behavioral detector that,
// once its analysis period ends, stops each infected message with
// probability 0.80/0.85/0.90/0.95/0.99. Shape claims: the detector
// slows but never stops the spread; at 0.95 accuracy the 135-infection
// mark moves from ~2 days (baseline) to ~9 days. tests/anchor_test.cpp
// (fixture Fig3) asserts them.
#include "bench_common.h"

using namespace mvsim;
using namespace mvsim::bench;

int main() {
  std::cout << "mvsim FIG-3: gateway detection algorithm, accuracy sweep (Figure 3)\n";
  const core::RunnerOptions options = default_options();
  std::vector<NamedRun> runs;
  runs.push_back(
      {"Baseline", core::run_experiment(core::baseline_scenario(virus::virus2()), options)});
  for (double accuracy : {0.99, 0.95, 0.90, 0.85, 0.80}) {
    runs.push_back({fmt(accuracy, 2) + " Accuracy",
                    core::run_experiment(core::fig3_detection_scenario(accuracy), options)});
  }
  print_figure("Figure 3: Virus Detection Algorithm, Varying Detection Accuracy (Virus 2)", runs,
               SimTime::hours(8.0));
  return 0;
}
