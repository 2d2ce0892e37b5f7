// FIG-4: Phone user education — lowering the acceptance probability.
//
// Reproduces Figure 4: every virus with the baseline eventual
// acceptance (0.40) and with education campaigns lowering it to 0.20
// and 0.10. Shape claims: education is the one mechanism effective
// against all four viruses; halving the acceptance roughly halves the
// plateau (the paper's own prose says one-half, then its Figure 4
// caption says 80 phones = 25% — an internal inconsistency; see
// EXPERIMENTS.md). tests/anchor_test.cpp (fixture Fig4) asserts them.
#include "bench_common.h"

using namespace mvsim;
using namespace mvsim::bench;

int main() {
  std::cout << "mvsim FIG-4: phone user education, acceptance sweep (Figure 4)\n";
  const core::RunnerOptions options = default_options();
  std::vector<NamedRun> runs;
  for (const auto& profile : virus::paper_virus_suite()) {
    core::ScenarioConfig base = core::baseline_scenario(profile);
    base.horizon = SimTime::hours(400.0);
    base.sample_step = SimTime::hours(1.0);
    runs.push_back({profile.name, core::run_experiment(base, options)});
    for (double acceptance : {0.20, 0.10}) {
      core::ScenarioConfig educated = core::fig4_education_scenario(profile, acceptance);
      educated.horizon = SimTime::hours(400.0);
      educated.sample_step = SimTime::hours(1.0);
      runs.push_back(
          {profile.name + " Ed" + fmt(acceptance, 2), core::run_experiment(educated, options)});
    }
  }
  print_figure("Figure 4: Phone User Education, Effective for All Viruses", runs,
               SimTime::hours(16.0));
  return 0;
}
