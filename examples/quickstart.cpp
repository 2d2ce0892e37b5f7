// Quickstart: simulate one MMS virus outbreak and print the infection
// curve.
//
//   $ ./quickstart
//
// This is the smallest useful mvsim program: build the paper's default
// scenario (1000 phones, 800 susceptible, power-law contact lists,
// Virus 1), run 5 replications, and print the mean infection curve and
// a short summary.
#include <iostream>

#include "core/presets.h"
#include "core/runner.h"
#include "util/csv.h"

int main() {
  using namespace mvsim;

  // 1. Pick a virus. Presets virus1()..virus4() reproduce the paper's
  //    four scenarios; every parameter is a public field you can tweak.
  virus::VirusProfile profile = virus::virus1();

  // 2. Build a scenario around it. baseline_scenario() fills in the
  //    paper's population, topology, consent model and horizon.
  core::ScenarioConfig scenario = core::baseline_scenario(profile);

  // 3. Run replications. Everything is deterministic given the seed.
  core::RunnerOptions options;
  options.replications = 5;
  options.master_seed = 2007;
  core::ExperimentResult result = core::run_experiment(scenario, options);

  // 4. Inspect the aggregated curve.
  std::cout << "# " << profile.name << " on " << scenario.population << " phones ("
            << scenario.susceptible_fraction * 100 << "% susceptible)\n";
  CsvWriter csv(std::cout);
  csv.header({"hours", "mean_infected", "ci95"});
  for (const auto& point : result.curve.grid()) {
    if (static_cast<long>(point.time.to_hours()) % 24 != 0) continue;  // daily rows
    csv.row(point.time.to_hours(), point.mean, point.ci95);
  }

  std::cout << "\nFinal infected: " << result.final_infections.mean() << " +/- "
            << result.final_infections.ci95_half_width() << " of "
            << scenario.expected_unrestrained_plateau() << " expected ("
            << result.curve.replication_count() << " replications)\n";
  std::cout << "Infected MMS messages sent: "
            << result.per_replication("net.messages_submitted").mean()
            << " per replication\n";
  return 0;
}
