// FIG-6: Monitoring for anomalous behavior — varying the forced wait.
//
// Reproduces Figure 6: Virus 3 against the monitoring mechanism, which
// flags phones exceeding the outgoing-message threshold and imposes a
// forced 15/30/60-minute wait between their messages. Shape claims:
// baseline Virus 3 infects 150 phones in ~2.5 h; with even a 15-minute
// wait the infection stays under 150 for up to ~20 h; monitoring buys
// time but does not stop the spread. Side-claim: monitoring is
// ineffectual against the self-throttled Viruses 1, 2 and 4.
#include "bench_common.h"

using namespace mvsim;
using namespace mvsim::bench;

int main() {
  std::cout << "mvsim FIG-6: monitoring, forced-wait sweep (Figure 6)\n";
  Harness harness("fig6_monitoring");
  std::vector<NamedRun> runs;
  runs.push_back(run_labelled(harness, "Baseline", core::baseline_scenario(virus::virus3())));
  for (double minutes : {15.0, 30.0, 60.0}) {
    runs.push_back(run_labelled(harness, fmt(minutes, 0) + "-Minute Wait",
                                core::fig6_monitoring_scenario(SimTime::minutes(minutes))));
  }
  print_figure("Figure 6: Monitoring, Varying the Wait Time for Suspicious Phones (Virus 3)",
               runs, SimTime::hours(1.0));

  std::cout << "-- paper-vs-measured --\n";
  report("baseline Virus 3 can infect 150 phones in about 2.5 hours",
         "150-infection mark at " +
             fmt_hours(runs[0].result.curve.mean_first_time_at_or_above(150.0)));
  report("a 15-minute forced wait constrains the infection to under 150 phones for up to 20 h",
         "15-min-wait curve crosses 150 at " +
             fmt_hours(runs[1].result.curve.mean_first_time_at_or_above(150.0)) +
             "; level at 20 h = " + fmt(runs[1].result.curve.mean_at(SimTime::hours(20.0))));
  report("longer forced waits slow the virus more",
         "levels at 12 h: baseline " + fmt(runs[0].result.curve.mean_at(SimTime::hours(12.0))) +
             ", 15-min " + fmt(runs[1].result.curve.mean_at(SimTime::hours(12.0))) + ", 30-min " +
             fmt(runs[2].result.curve.mean_at(SimTime::hours(12.0))) + ", 60-min " +
             fmt(runs[3].result.curve.mean_at(SimTime::hours(12.0))));

  // Side-claim: no effect on the stealthy viruses.
  std::cout << "  monitoring vs self-throttled viruses (final as % of each baseline):\n";
  for (const auto& profile : {virus::virus1(), virus::virus2(), virus::virus4()}) {
    core::ScenarioConfig monitored = core::baseline_scenario(profile);
    monitored.responses.monitoring = response::MonitoringConfig{};
    core::ExperimentResult with =
        run_experiment_case(harness, profile.name + " + monitoring", monitored);
    core::ExperimentResult base =
        run_experiment_case(harness, profile.name + " baseline", core::baseline_scenario(profile));
    std::cout << "    " << profile.name << ": "
              << fmt(100.0 * with.final_infections.mean() / base.final_infections.mean())
              << "% (phones flagged: "
              << fmt(with.per_replication("response.monitoring.phones_flagged").mean()) << ")\n";
  }
  harness.write_report();
  return 0;
}
