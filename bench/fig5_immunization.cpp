// FIG-5: Immunization using software patches — varying development and
// deployment times.
//
// Reproduces Figure 5: Virus 4 against the patch-rollout mechanism.
// Six variants: development 24 h or 48 h after detectability, each
// deployed uniformly over 1, 6 or 24 h (the paper labels curves by the
// hours during which deployment is in progress, e.g. "Hours 24-30").
// Shape claims: development time dominates; with 24 h development, a
// 24-hour rollout lets ~60% more phones get infected than a 1-hour
// rollout. tests/anchor_test.cpp (fixture Fig5) asserts them.
#include "bench_common.h"

using namespace mvsim;
using namespace mvsim::bench;

int main() {
  std::cout << "mvsim FIG-5: immunization patches, deployment sweep (Figure 5)\n";
  const core::RunnerOptions options = default_options();
  std::vector<NamedRun> runs;
  runs.push_back(
      {"Baseline", core::run_experiment(core::baseline_scenario(virus::virus4()), options)});
  struct Variant {
    double dev;
    double deploy;
  };
  for (const Variant& v :
       {Variant{24, 1}, Variant{24, 24}, Variant{24, 6}, Variant{48, 1}, Variant{48, 24},
        Variant{48, 6}}) {
    runs.push_back({"Hours " + fmt(v.dev, 0) + "-" + fmt(v.dev + v.deploy, 0),
                    core::run_experiment(core::fig5_immunization_scenario(
                                             SimTime::hours(v.dev), SimTime::hours(v.deploy)),
                                         options)});
  }
  print_figure("Figure 5: Immunization Using Patches, Varying the Deployment Times (Virus 4)",
               runs, SimTime::hours(8.0));
  return 0;
}
