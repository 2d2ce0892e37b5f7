// Workload set-up, the untraced experiment and the output check.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "cli/cli.h"
#include "cli/preset_registry.h"
#include "config/scenario_io.h"
#include "core/presets.h"
#include "core/runner.h"
#include "core/topology_build.h"
#include "graph/partition.h"
#include "util/json.h"

namespace perfbench {

namespace {

/// The program only ever sees configs that went through the scenario
/// file format: serialize, re-parse (which validates) and use that.
core::ScenarioConfig generated(const core::ScenarioConfig& config) {
  return config::scenario_from_text(json::stringify(config::to_json(config), 0));
}

core::ScenarioConfig preset(const std::string& name) {
  auto config = cli::find_preset(name);
  if (!config) throw std::runtime_error("unknown preset " + name);
  return generated(*config);
}

std::uint64_t susceptible_of(const core::ScenarioConfig& config) {
  return static_cast<std::uint64_t>(
      std::llround(config.susceptible_fraction * static_cast<double>(config.population)));
}

/// Plateau band of the outbreak workload: every baseline virus ends
/// near 800 x 0.40 = 320 infected (paper §5.1, EXPERIMENTS.md).
constexpr double kPlateauBand = 0.25;

/// Last stats-stream sample of each replication: outcome plus the
/// replication's wall time as the stream reports it (events over
/// events-per-second since the replication started).
void read_stats_stream(const std::string& path, std::uint64_t susceptible, ExperimentRun& run) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::map<int, json::Value> last;
  std::string line;
  while (std::getline(in, line)) {
    json::Value record = json::parse(line);
    const json::Object& o = record.as_object();
    if (o.at("type").as_string() != "sample") continue;
    const int rep = static_cast<int>(o.at("rep").as_number());
    auto it = last.find(rep);
    if (it == last.end() || it->second.as_object().at("t_min").as_number() <=
                                o.at("t_min").as_number()) {
      last[rep] = record;
    }
  }
  run.outcomes.assign(1, {});
  for (const auto& [rep, record] : last) {
    const json::Object& o = record.as_object();
    RepOutcome outcome;
    outcome.infected = static_cast<std::uint64_t>(o.at("infected").as_number());
    outcome.events = static_cast<std::uint64_t>(o.at("events").as_number());
    outcome.susceptible = susceptible;
    run.outcomes[0].push_back(outcome);
    const double rate = o.at("events_per_sec").as_number();
    if (rate > 0.0) run.rep_wall_ms.push_back(static_cast<double>(outcome.events) / rate * 1e3);
  }
}

/// Trace capacity of the observed workload: a full virus1 replication
/// records ~3x10^5 events, so the cap is reached and the drop path runs
/// while the JSONL write (~1 MB) stays well under the replications' run
/// time.
constexpr std::size_t kObservedTraceCap = 10000;

ExperimentRun run_observed(const Prepared& prepared, const Options& options) {
  const std::string& out = options.out_dir;
  const std::vector<std::string> args = {
      "run",           prepared.observed_config_path,
      "--reps",        std::to_string(prepared.reps),
      "--seed",        std::to_string(options.seed),
      "--threads",     "1",
      "--profile",     out + "/profile.json",
      "--trace",       out + "/trace.jsonl",
      "--trace-cap",   std::to_string(kObservedTraceCap),
      "--stats-stream", out + "/stats.ndjson",
      "--metrics",     out + "/metrics.json",
      "--manifest",    out + "/manifest.json"};
  std::ostringstream cli_out;
  std::ostringstream cli_err;
  ExperimentRun run;
  const auto started = Clock::now();
  const int rc = cli::run_cli(args, cli_out, cli_err);
  run.wall_s = seconds_since(started);
  run.call_s = {run.wall_s};
  if (rc != 0) throw std::runtime_error("mvsim run exited " + std::to_string(rc) + ": " +
                                        cli_err.str());
  read_stats_stream(out + "/stats.ndjson", susceptible_of(prepared.scenarios[0]), run);
  return run;
}

}  // namespace

RepOutcome outcome_of(const core::ReplicationResult& result,
                      const core::ScenarioConfig& config) {
  RepOutcome o;
  o.infected = result.total_infected;
  o.events = result.metrics.counter_value("des.events_executed");
  o.susceptible = susceptible_of(config);
  o.mailbox_sent = result.metrics.counter_value("shard.mailbox.sent");
  o.mailbox_received = result.metrics.counter_value("shard.mailbox.received");
  return o;
}

Prepared set_up(const std::string& workload, const Options& options) {
  Prepared p;
  p.name = workload;
  if (workload == "outbreak") {
    // Figure 1: the event loop dominates each replication.
    for (const char* name :
         {"virus1-baseline", "virus2-baseline", "virus3-baseline", "virus4-baseline"}) {
      p.scenarios.push_back(preset(name));
    }
    p.reps = 2;
  } else if (workload == "proximity") {
    // MMS + Bluetooth: the only workload on the mobility layer.
    p.scenarios.push_back(generated(
        config::load_scenario_file(options.root + "/scenarios/commwarrior_dual_vector.json")));
    p.reps = 1;
  } else if (workload == "sharded-100k") {
    // The micro_shard 10^5 rung: shared graph, 4 shards x 1 worker.
    core::ScenarioConfig config = core::market_share_scenario(0.50, 100000);
    config.name = "sharded-100k";
    // Five hundred patient zeros over two days: with the preset's one,
    // ~40% of replications die out at once and the rest vary 10x in
    // events, so a run's cost would hang on how many take off. Here
    // events per replication stay within ~3% across seeds, and a
    // replication is short enough (~0.3 s) that a run holds dozens of
    // repeats for best-of-N.
    config.horizon = SimTime::days(2.0);
    config.initial_infected = 500;
    p.scenarios.push_back(generated(config));
    p.reps = 2;
    p.shards = 4;
    p.graph_cache = std::make_unique<graph::GraphCache>();
    const core::ScenarioConfig& shared = p.scenarios[0];
    core::prewarm_shared_graph(shared, *p.graph_cache);
    rng::Stream unused(core::topology_build_seed(shared, 0));
    auto graph = core::resolve_topology(shared, 0, unused, p.graph_cache.get());
    (void)graph::Partition::degree_balanced(*graph, p.shards);
  } else if (workload == "observed") {
    // The `mvsim run` artifact path with every observability surface on.
    p.scenarios.push_back(preset("virus1-baseline"));
    p.reps = 4;
    p.observed = true;
    p.observed_config_path = options.out_dir + "/observed-scenario.json";
    config::save_scenario_file(p.scenarios[0], p.observed_config_path);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return p;
}

ExperimentRun run_experiment_once(const Prepared& prepared, const Options& options) {
  return prepared.observed ? run_observed(prepared, options)
                           : run_plain_experiment(prepared, options);
}

ExperimentRun run_plain_experiment(const Prepared& prepared, const Options& options) {
  ExperimentRun run;
  for (const core::ScenarioConfig& config : prepared.scenarios) {
    core::RunnerOptions runner;
    runner.replications = prepared.reps;
    runner.master_seed = options.seed;
    runner.threads = 1;
    runner.graph_cache = prepared.graph_cache.get();
    runner.shards = prepared.shards;
    runner.shard_workers = kShardWorkers;
    const auto started = Clock::now();
    core::ExperimentResult result = core::run_experiment(config, runner);
    run.call_s.push_back(seconds_since(started));
    run.wall_s += run.call_s.back();
    auto& outcomes = run.outcomes.emplace_back();
    for (const core::ReplicationResult& rep : result.replications) {
      run.rep_wall_ms.push_back(rep.wall_seconds * 1e3);
      outcomes.push_back(outcome_of(rep, config));
    }
  }
  return run;
}

std::vector<std::string> check_outcomes(const Prepared& prepared, const ExperimentRun& run,
                                        const Pins* pins) {
  std::vector<std::string> failures;
  const auto* pinned = pins != nullptr && prepared.shards == 1 && pins->table.count(prepared.name)
                           ? &pins->table.at(prepared.name)
                           : nullptr;
  for (std::size_t s = 0; s < run.outcomes.size(); ++s) {
    const auto& reps = run.outcomes[s];
    const std::string& scenario = prepared.scenarios[s].name;
    if (static_cast<int>(reps.size()) != prepared.reps) {
      failures.push_back(scenario + ": " + std::to_string(reps.size()) + " replications, expected " +
                         std::to_string(prepared.reps));
    }
    double infected_sum = 0.0;
    for (std::size_t r = 0; r < reps.size(); ++r) {
      const RepOutcome& o = reps[r];
      const std::string where = scenario + " rep " + std::to_string(r) + ": ";
      infected_sum += static_cast<double>(o.infected);
      if (o.infected > o.susceptible) {
        failures.push_back(where + "infected " + std::to_string(o.infected) + " > susceptible " +
                           std::to_string(o.susceptible));
      }
      if (o.mailbox_sent != o.mailbox_received) {
        failures.push_back(where + "mailbox sent " + std::to_string(o.mailbox_sent) +
                           " != received " + std::to_string(o.mailbox_received));
      }
      if (pinned != nullptr) {
        const bool known = s < pinned->size() && r < (*pinned)[s].size();
        const auto expected = known ? (*pinned)[s][r] : std::pair<std::uint64_t, std::uint64_t>{};
        if (!known || expected.first != o.infected || expected.second != o.events) {
          failures.push_back(where + "outcome (infected " + std::to_string(o.infected) +
                             ", events " + std::to_string(o.events) + ") differs from pin (" +
                             std::to_string(expected.first) + ", " +
                             std::to_string(expected.second) + ")");
        }
      }
    }
    if (prepared.name == "outbreak" && !reps.empty()) {
      const double plateau = prepared.scenarios[s].expected_unrestrained_plateau();
      const double mean = infected_sum / static_cast<double>(reps.size());
      if (std::abs(mean - plateau) > kPlateauBand * plateau) {
        failures.push_back(scenario + ": mean final infected " + std::to_string(mean) +
                           " outside the plateau band around " + std::to_string(plateau));
      }
    }
  }
  return failures;
}

Pins load_pins(const std::string& path) {
  Pins pins;
  std::ifstream in(path);
  if (!in) return pins;
  std::stringstream text;
  text << in.rdbuf();
  const json::Value root = json::parse(text.str());
  if (static_cast<std::uint64_t>(root.as_object().at("seed").as_number()) != kDefaultSeed) {
    throw std::runtime_error(path + ": pins were taken at another seed");
  }
  for (const auto& [workload, scenarios] : root.as_object().at("workloads").as_object().entries()) {
    auto& table = pins.table[workload];
    for (const json::Value& reps : scenarios.as_array()) {
      auto& row = table.emplace_back();
      for (const json::Value& pair : reps.as_array()) {
        const json::Array& v = pair.as_array();
        row.emplace_back(static_cast<std::uint64_t>(v.at(0).as_number()),
                         static_cast<std::uint64_t>(v.at(1).as_number()));
      }
    }
  }
  return pins;
}

}  // namespace perfbench
