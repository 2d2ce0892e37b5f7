// ABL-1: topology ablation.
//
// The paper argues a power-law contact graph (per NGCE / email
// address-book studies) is the right topology. This ablation asks how
// much the choice matters: Virus 1 on power-law vs Erdős–Rényi vs
// k-regular-ring contact lists of the same mean degree. Expected:
// hub-heavy power-law graphs seed super-spreaders and accelerate early
// growth; the ring's high clustering slows the spread to a crawl; the
// plateau is topology-invariant (it is fixed by the consent model).
#include "bench_common.h"

#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "rng/stream.h"

using namespace mvsim;
using namespace mvsim::bench;

int main() {
  std::cout << "mvsim ABL-1: contact-list topology ablation (Virus 1)\n";
  const core::RunnerOptions options = default_options();

  // Structural profile of each generator at the paper's scale.
  std::cout << "-- generated topologies (n=1000, mean degree 80) --\n";
  std::cout << "topology,mean_degree,max_degree,degree_stddev,clustering,largest_component\n";
  for (auto kind :
       {core::TopologyConfig::Kind::kPowerLaw, core::TopologyConfig::Kind::kErdosRenyi,
        core::TopologyConfig::Kind::kBarabasiAlbert, core::TopologyConfig::Kind::kRegularRing}) {
    rng::Stream stream(7);
    graph::ContactGraph g = [&] {
      switch (kind) {
        case core::TopologyConfig::Kind::kPowerLaw: {
          graph::PowerLawConfig config;
          config.node_count = 1000;
          config.target_mean_degree = 80.0;
          return graph::generate_power_law(config, stream);
        }
        case core::TopologyConfig::Kind::kErdosRenyi:
          return graph::generate_erdos_renyi(1000, 80.0, stream);
        case core::TopologyConfig::Kind::kBarabasiAlbert:
          return graph::generate_barabasi_albert(1000, 40, stream);
        case core::TopologyConfig::Kind::kRegularRing:
        default:
          return graph::generate_regular_ring(1000, 80);
      }
    }();
    auto degrees = graph::degree_stats(g);
    auto components = graph::component_stats(g);
    std::cout << core::to_string(kind) << "," << fmt(degrees.mean) << "," << degrees.max << ","
              << fmt(degrees.stddev) << "," << fmt(graph::global_clustering_coefficient(g), 3)
              << "," << fmt(100.0 * components.largest_fraction) << "%\n";
  }

  std::vector<NamedRun> runs;
  for (auto kind :
       {core::TopologyConfig::Kind::kPowerLaw, core::TopologyConfig::Kind::kErdosRenyi,
        core::TopologyConfig::Kind::kBarabasiAlbert, core::TopologyConfig::Kind::kRegularRing}) {
    core::ScenarioConfig config = core::baseline_scenario(virus::virus1());
    config.topology.kind = kind;
    runs.push_back({core::to_string(kind), core::run_experiment(config, options)});
  }
  print_figure("Ablation: Virus 1 baseline across contact-list topologies", runs,
               SimTime::hours(16.0));

  // Locality/clustering sweep: does forcing extra triadic overlap into
  // the power-law graph change the epidemic? (Finding: no — at mean
  // degree 80 the hub structure already gives clustering ~0.24 and the
  // curves are insensitive to the knob.)
  std::cout << "-- locality_jitter sweep (Virus 1, power-law) --\n";
  std::cout << "locality_jitter,clustering,final_infected,half_plateau_hours\n";
  for (double jitter : {0.0, 0.05, 0.1, 0.2}) {
    rng::Stream stream(9);
    graph::PowerLawConfig plc;
    plc.locality_jitter = jitter;
    graph::ContactGraph g = graph::generate_power_law(plc, stream);
    core::ScenarioConfig config = core::baseline_scenario(virus::virus1());
    config.topology.locality_jitter = jitter;
    core::ExperimentResult result = core::run_experiment(config, options);
    SimTime half = result.curve.mean_first_time_at_or_above(160.0);
    std::cout << fmt(jitter, 2) << "," << fmt(graph::global_clustering_coefficient(g), 3) << ","
              << fmt(result.final_infections.mean()) << ","
              << fmt(half.is_finite() ? half.to_hours() : -1.0) << "\n";
  }
  return 0;
}
