#include "core/simulation.h"

#include <memory>
#include <stdexcept>

#include "core/topology_build.h"

namespace mvsim::core {

Simulation::Simulation(const ScenarioConfig& config, std::uint64_t replication_seed,
                       trace::TraceBuffer* trace, des::EventTimer* event_timer,
                       des::QueueImpl /*queue*/, graph::GraphCache* graph_cache)
    : state_(config, replication_seed, graph_cache) {
  state_.slices.push_back(std::make_unique<EngineSlice>(state_, trace, event_timer));
  state_.populate(nullptr);
}

Simulation::~Simulation() = default;

void Simulation::run_until(SimTime t) { slice().scheduler().run_until(t); }

SimTime Simulation::advance_to(SimTime target) {
  run_until(target);
  return now();
}

ReplicationResult Simulation::run() {
  if (ran_) throw std::logic_error("Simulation::run called twice");
  ran_ = true;
  run_until(state_.config.horizon);
  return result();
}

ReplicationResult Simulation::result() const {
  ReplicationResult r = state_.result();
  r.detected_at = slice().context().detector().detected_at();
  return r;
}

bool prewarm_shared_graph(const ScenarioConfig& config, graph::GraphCache& cache) {
  if (!config.topology.shared_seed) return false;
  config.validate().throw_if_invalid();
  // The replication seed is irrelevant under shared_seed (the key is
  // derived from the shared seed alone); 0 stands in for it. The
  // topology stream here is a throwaway: shared-seed resolution never
  // touches it.
  rng::Stream scratch(topology_build_seed(config, 0));
  (void)resolve_topology(config, 0, scratch, &cache);
  return true;
}

}  // namespace mvsim::core
