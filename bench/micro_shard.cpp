// MICRO: sharded-engine sweep — shards {1, 2, 4, 8} x population ladder.
//
// Not a paper figure — this guards the parallel engine's scaling story
// (docs/parallelism.md). Each rung runs ONE replication of the
// market-share epidemic (share 0.50, so the outbreak reliably ignites
// and the run measures event throughput, not graph construction) at
// every shard count. Shards == 1 is the serial engine the runner would
// pick; shards >= 2 run the windowed engine with one worker thread per
// shard.
//
// Each row reports events/s: the replication's events divided by its
// median wall time, an equal-work rate. A wall-time ratio between rows
// would not be a speedup: rows at different shard counts run different
// epidemic realizations (at 10^5 phones, seed 1 ends at 5594 infected
// with one shard and 9444 with two), and over seeds 1-10 the events of
// one replication vary up to 5x. The report's notes carry
// events_per_s_shards<K>@<pop> for every row. Expect the sharded rates
// well below the serial one at small populations (windows are
// barrier-dominated) and climbing with population; the 10^6-phone
// acceptance gate lives in scaling_population, not here.
//
// MVSIM_SHARD_MAX_POP caps the ladder (CI stops at 10^5; the default
// climbs no higher — raise it to 10^6 on a dev machine to reproduce
// the scaling_population headline locally).
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "bench_common.h"
#include "core/sharded_simulation.h"
#include "core/simulation.h"

using namespace mvsim;
using namespace mvsim::bench;

namespace {

constexpr std::uint64_t kSeed = 1;  // single replication, fixed seed

graph::PhoneId max_ladder_population() {
  constexpr unsigned long kDefault = 100'000ul;
  const char* raw = std::getenv("MVSIM_SHARD_MAX_POP");
  if (raw == nullptr || *raw == '\0') return kDefault;
  char* end = nullptr;
  unsigned long value = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0' || value == 0ul) return kDefault;
  return static_cast<graph::PhoneId>(std::min(value, 1'000'000ul));
}

core::ScenarioConfig ladder_scenario(graph::PhoneId population) {
  core::ScenarioConfig config = core::market_share_scenario(0.50, population);
  config.name = "shard/ladder";
  config.horizon = SimTime::days(5.0);
  return config;
}

/// One serial replication; returns events executed.
std::uint64_t run_serial(const core::ScenarioConfig& config, std::uint64_t& infected) {
  core::Simulation sim(config, kSeed);
  core::ReplicationResult rep = sim.run();
  infected = rep.total_infected;
  return rep.metrics.counter_value("des.events_executed");
}

/// One sharded replication (one worker thread per shard); returns
/// events executed across all shards.
std::uint64_t run_sharded(const core::ScenarioConfig& config, std::uint32_t shards,
                          std::uint64_t& infected) {
  core::ShardingOptions options;
  options.shards = shards;
  options.worker_threads = 0;  // one per shard
  core::ShardedSimulation sim(config, kSeed, options);
  core::ReplicationResult rep = sim.run();
  infected = rep.total_infected;
  return rep.metrics.counter_value("des.events_executed");
}

double median_wall(const Harness& harness, const std::string& name) {
  for (const auto& c : harness.cases()) {
    if (c.name == name) return sample_quantile(c.wall_seconds, 0.5);
  }
  return 0.0;
}

}  // namespace

int main() {
  std::cout << "mvsim MICRO: sharded engine sweep (shards x population)\n";
  Harness harness("micro_shard", {.warmup = 0, .repeat = 3});

  const unsigned cores = std::thread::hardware_concurrency();
  std::cout << "host cores: " << cores
            << " (rates above this shard count are concurrency-capped)\n";
  harness.set_note("host_cores", static_cast<double>(cores));

  const graph::PhoneId cap = max_ladder_population();
  std::cout << "population,shards,final_infected,events,median_wall_s,events_per_s\n";

  for (graph::PhoneId population : {20'000u, 100'000u, 1'000'000u}) {
    if (population > cap) {
      std::cout << "# skipped " << population << " (MVSIM_SHARD_MAX_POP)\n";
      continue;
    }
    const core::ScenarioConfig config = ladder_scenario(population);
    for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
      std::uint64_t infected = 0;
      const std::string label =
          "epidemic @" + std::to_string(population) + " x" + std::to_string(shards);
      harness.run_case(label, [&config, shards, &infected] {
        return shards == 1 ? run_serial(config, infected)
                           : run_sharded(config, shards, infected);
      });
      const double wall = median_wall(harness, label);
      const std::uint64_t events = harness.cases().back().events;
      const double rate = wall > 0.0 ? static_cast<double>(events) / wall : 0.0;
      std::cout << population << "," << shards << "," << infected << "," << events << ","
                << fmt(wall, 3) << "," << fmt(rate, 0) << "\n";
      harness.set_note("events_per_s_shards" + std::to_string(shards) + "@" +
                           std::to_string(population),
                       rate);
    }
  }

  std::cout << "\nSharded events/s fall out of the window protocol: every window\n"
               "is a full barrier, so small populations (few events per window)\n"
               "are barrier-dominated while large ones amortize the\n"
               "synchronization. See docs/parallelism.md.\n";

  harness.write_report();
  return 0;
}
