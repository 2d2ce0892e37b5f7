// FIG-7: Blacklisting phones suspected of infection — varying the
// activation threshold.
//
// Reproduces Figure 7: Virus 3 against the blacklist mechanism, which
// cuts MMS service entirely after 10/20/30/40 suspected-infected
// messages. Shape claims: blacklisting is most effective against the
// random-dialing virus because invalid-number messages count toward
// the threshold (threshold 30 vs random dialing ~ threshold 10 vs
// contact-list propagation); blacklisting at threshold 10 restricts
// Viruses 1/4 to ~60% of baseline; Virus 2 evades any threshold.
// tests/anchor_test.cpp (fixture Fig7) asserts them.
#include "bench_common.h"

using namespace mvsim;
using namespace mvsim::bench;

int main() {
  std::cout << "mvsim FIG-7: blacklisting, threshold sweep (Figure 7)\n";
  const core::RunnerOptions options = default_options();
  std::vector<NamedRun> runs;
  runs.push_back(
      {"Baseline", core::run_experiment(core::baseline_scenario(virus::virus3()), options)});
  for (std::uint32_t threshold : {10u, 20u, 30u, 40u}) {
    runs.push_back({std::to_string(threshold) + " Messages",
                    core::run_experiment(core::fig7_blacklist_scenario(threshold), options)});
  }
  print_figure("Figure 7: Blacklisting, Varying the Activation Threshold (Virus 3)", runs,
               SimTime::hours(1.0));
  return 0;
}
