// SCALE: population-size scaling (paper §5.3 plus two extensions).
//
// Part 1 — the paper's own check: "Although the results presented here
// use a population size of 1000 phones, additional experiments with a
// 2000-phone population demonstrate that our results scale nicely to
// larger population sizes." Every virus runs at 1000 and 2000 phones
// and we compare penetration fractions and half-plateau times.
//
// Part 2 — memory ladder: single replications at 10^4, 10^5 and 10^6
// phones on the sparse market-share topology, reporting the
// struct-of-arrays population footprint (phone::PhoneTable), the CSR
// graph footprint, bytes-per-phone against the retired 64 B/phone
// array-of-Phone layout, and the process peak RSS. MVSIM_SCALE_MAX_POP
// caps the ladder (CI stops at 10^5; the default climbs to 10^6).
//
// Part 3 — market-share sweep: final penetration as a function of the
// targeted platform's market share on one shared contact graph. Below
// the percolation threshold of the susceptible subgraph the outbreak
// dies in patient zero's neighborhood; above it the epidemic reaches
// the giant component, so penetration jumps discontinuously.
#include <algorithm>
#include <cstdlib>

#include "bench_common.h"
#include "core/simulation.h"
#include "obs/manifest.h"

using namespace mvsim;
using namespace mvsim::bench;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb() { return static_cast<double>(obs::peak_rss_bytes()) / kMiB; }

graph::PhoneId max_ladder_population() {
  constexpr unsigned long kDefault = 1'000'000ul;
  const char* raw = std::getenv("MVSIM_SCALE_MAX_POP");
  if (raw == nullptr || *raw == '\0') return kDefault;
  char* end = nullptr;
  unsigned long value = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0' || value == 0ul) return kDefault;
  return static_cast<graph::PhoneId>(std::min(value, kDefault));
}

void run_paper_scaling(const core::RunnerOptions& options) {
  std::cout << "== part 1: paper section 5.3 (1000 vs 2000 phones) ==\n";
  std::cout << "virus,population,final_infected,penetration_of_susceptible,half_plateau_hours\n";
  for (const auto& profile : virus::paper_virus_suite()) {
    for (graph::PhoneId population : {1000u, 2000u}) {
      core::ScenarioConfig config = core::baseline_scenario(profile);
      config.population = population;
      core::ExperimentResult result = core::run_experiment(config, options);
      double susceptible = static_cast<double>(population) * config.susceptible_fraction;
      double fraction = result.final_infections.mean() / susceptible;
      SimTime half = result.curve.mean_first_time_at_or_above(
          config.expected_unrestrained_plateau() / 2.0);
      std::cout << profile.name << "," << population << ","
                << fmt(result.final_infections.mean()) << "," << fmt(100.0 * fraction) << "%,"
                << fmt(half.is_finite() ? half.to_hours() : -1.0) << "\n";
    }
  }
}

void run_memory_ladder() {
  const graph::PhoneId cap = max_ladder_population();
  std::cout << "\n== part 2: memory ladder (single replication, 10 day horizon, cap "
            << cap << ") ==\n";
  std::cout << "population,final_infected,events,phone_table_MB,phone_B_per_phone,"
               "graph_MB,graph_B_per_phone,peak_rss_MB\n";

  constexpr double kOldBytesPerPhone = 64.0;  // retired array-of-Phone layout
  double last_phone_bpp = 0.0;
  graph::PhoneId last_population = 0;

  for (graph::PhoneId population : {10'000u, 100'000u, 1'000'000u}) {
    if (population > cap) {
      std::cout << "# skipped " << population << " (MVSIM_SCALE_MAX_POP)\n";
      continue;
    }
    // Share 0.50 ignites reliably, so the ladder exercises a real
    // epidemic (event throughput at scale), not just graph + table
    // construction; 10 days bounds the largest rung's wall-clock.
    core::ScenarioConfig config = core::market_share_scenario(0.50, population);
    config.name = "scale/ladder";
    config.horizon = SimTime::days(10.0);

    core::Simulation sim(config, /*replication_seed=*/1);
    core::ReplicationResult rep = sim.run();
    const double phone_bytes = static_cast<double>(sim.phones().memory_bytes());
    const double graph_bytes = static_cast<double>(sim.contact_graph().memory_bytes());

    const double n = static_cast<double>(population);
    last_phone_bpp = phone_bytes / n;
    last_population = population;
    std::cout << population << "," << rep.total_infected << ","
              << rep.metrics.counter_value("des.events_executed") << ","
              << fmt(phone_bytes / kMiB, 2) << "," << fmt(phone_bytes / n, 2) << ","
              << fmt(graph_bytes / kMiB, 2) << "," << fmt(graph_bytes / n, 2) << ","
              << fmt(peak_rss_mb(), 1) << "\n";
  }

  std::cout << "ladder_max_population,phone_state_B_per_phone,old_phone_B_per_phone,"
               "peak_rss_MB\n";
  std::cout << last_population << "," << fmt(last_phone_bpp, 2) << ","
            << fmt(kOldBytesPerPhone, 0) << "," << fmt(peak_rss_mb(), 1) << "\n";
}

void run_market_share_sweep() {
  std::cout << "\n== part 3: market-share penetration (shared graph, virus 1) ==\n";
  std::cout << "share,final_infected,penetration_of_susceptible,ignition_fraction\n";

  core::RunnerOptions options = default_options();
  options.replications = core::replications_from_env(6);
  options.keep_replications = true;  // for the per-replication ignition count

  const double shares[] = {0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50};
  double previous_ignition = 0.0;
  double max_jump = 0.0;  // largest step of the ignition order parameter
  double jump_at = 0.0;
  bool first = true;
  for (double share : shares) {
    core::ScenarioConfig config = core::market_share_scenario(share);
    core::ExperimentResult result = core::run_experiment(config, options);
    double susceptible = static_cast<double>(config.population) * share;
    double penetration = result.final_infections.mean() / susceptible;
    // A replication "ignited" when the outbreak escaped the seeds'
    // neighborhoods (>= 1% of the susceptible subpopulation). The
    // ignition fraction is the percolation order parameter: ~0 below
    // the critical share, ~1 above it.
    int ignited = 0;
    for (const auto& rep : result.replications) {
      if (static_cast<double>(rep.total_infected) >= 0.01 * susceptible) ++ignited;
    }
    double ignition = result.replications.empty()
                          ? 0.0
                          : static_cast<double>(ignited) /
                                static_cast<double>(result.replications.size());
    std::cout << fmt(share, 2) << "," << fmt(result.final_infections.mean()) << ","
              << fmt(100.0 * penetration) << "%," << fmt(ignition, 2) << "\n";
    if (!first && ignition - previous_ignition > max_jump) {
      max_jump = ignition - previous_ignition;
      jump_at = share;
    }
    previous_ignition = ignition;
    first = false;
  }

  std::cout << "largest_ignition_jump,at_share\n" << fmt(max_jump, 2) << "," << fmt(jump_at, 2)
            << "\n";
}

}  // namespace

int main() {
  std::cout << "mvsim SCALE: population scaling (paper section 5.3 + million-phone ladder)\n";
  run_paper_scaling(default_options());
  run_memory_ladder();
  run_market_share_sweep();
  return 0;
}
