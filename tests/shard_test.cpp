// Tests for the sharded single-run engine and its building blocks:
// graph partitioning (src/graph/partition.*), cross-shard mailboxes
// (src/net/shard_mailbox.*), and the ShardedSimulation window protocol
// (src/core/sharded_simulation.*) — including the determinism contract
// its header promises: fixed (config, seed, shards) means bit-identical
// results at ANY worker-thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/presets.h"
#include "core/runner.h"
#include "core/sharded_simulation.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "metrics/registry.h"
#include "net/shard_mailbox.h"
#include "obs/stats_stream.h"
#include "rng/stream.h"
#include "trace/trace.h"
#include "virus/profile.h"

namespace mvsim {
namespace {

// ---- Partition ----------------------------------------------------------

graph::ContactGraph power_law_graph(graph::PhoneId nodes, double mean_degree, double alpha) {
  graph::PowerLawConfig config;
  config.node_count = nodes;
  config.target_mean_degree = mean_degree;
  config.alpha = alpha;
  rng::Stream stream(0x9a47'1710'5eedULL);
  return graph::generate_power_law(config, stream);
}

TEST(Partition, UniformSplitsEvenly) {
  graph::Partition p = graph::Partition::uniform(100, 4);
  EXPECT_EQ(p.shard_count(), 4u);
  EXPECT_EQ(p.node_count(), 100u);
  for (std::uint32_t s = 0; s < 4; ++s) EXPECT_EQ(p.range(s).size(), 25u);
}

TEST(Partition, RangesAreContiguousAndCoverEveryNode) {
  graph::ContactGraph graph = power_law_graph(500, 8.0, 2.0);
  graph::Partition p = graph::Partition::degree_balanced(graph, 7);
  ASSERT_EQ(p.shard_count(), 7u);
  EXPECT_EQ(p.bounds().front(), 0u);
  EXPECT_EQ(p.bounds().back(), graph.node_count());
  graph::PhoneId previous_end = 0;
  for (std::uint32_t s = 0; s < p.shard_count(); ++s) {
    graph::Partition::Range r = p.range(s);
    EXPECT_EQ(r.begin, previous_end) << "gap or overlap before shard " << s;
    EXPECT_GT(r.size(), 0u) << "empty shard " << s;
    previous_end = r.end;
  }
  EXPECT_EQ(previous_end, graph.node_count());
}

TEST(Partition, ShardOfAgreesWithRanges) {
  graph::ContactGraph graph = power_law_graph(300, 6.0, 2.5);
  graph::Partition p = graph::Partition::degree_balanced(graph, 5);
  for (graph::PhoneId id = 0; id < graph.node_count(); ++id) {
    std::uint32_t s = p.shard_of(id);
    EXPECT_GE(id, p.range(s).begin);
    EXPECT_LT(id, p.range(s).end);
  }
}

TEST(Partition, DegreeBalancedBeatsNaiveSplitUnderSkew) {
  // Heavily skewed degrees: a uniform cut would load the hub-rich
  // prefix onto one shard; the degree-balanced cut must stay close to
  // even by the same work estimate it minimizes.
  graph::ContactGraph graph = power_law_graph(2000, 10.0, 1.8);
  graph::Partition balanced = graph::Partition::degree_balanced(graph, 8);
  EXPECT_LT(balanced.max_imbalance(graph), 1.5);
  EXPECT_LE(graph::Partition::degree_balanced(graph, 8).max_imbalance(graph),
            graph::Partition::uniform(graph.node_count(), 8).max_imbalance(graph) + 1e-9);
}

TEST(Partition, IsDeterministic) {
  graph::ContactGraph graph = power_law_graph(400, 8.0, 2.0);
  EXPECT_EQ(graph::Partition::degree_balanced(graph, 6).bounds(),
            graph::Partition::degree_balanced(graph, 6).bounds());
}

TEST(Partition, RejectsZeroAndOversizedShardCounts) {
  graph::ContactGraph graph(10);
  EXPECT_THROW(graph::Partition::degree_balanced(graph, 0), std::invalid_argument);
  EXPECT_THROW(graph::Partition::degree_balanced(graph, 11), std::invalid_argument);
  EXPECT_NO_THROW(graph::Partition::degree_balanced(graph, 10));
}

// ---- ShardMailboxGrid ---------------------------------------------------

net::CrossShardDelivery delivery(SimTime at, net::PhoneId recipient, std::uint64_t sequence) {
  net::CrossShardDelivery d;
  d.at = at;
  d.recipient = recipient;
  d.sender = 0;
  d.sequence = sequence;
  d.infected = true;
  return d;
}

TEST(ShardMailbox, DrainsInSourceOrderThenFifo) {
  net::ShardMailboxGrid grid(3);
  grid.push(2, 0, delivery(SimTime::minutes(5.0), 10, 1));
  grid.push(1, 0, delivery(SimTime::minutes(3.0), 11, 2));
  grid.push(1, 0, delivery(SimTime::minutes(1.0), 12, 3));
  grid.push(1, 2, delivery(SimTime::minutes(2.0), 13, 4));  // other destination

  std::vector<std::uint64_t> seen;
  grid.drain_to(0, [&seen](const net::CrossShardDelivery& d) { seen.push_back(d.sequence); });
  // Ascending source (1 before 2), FIFO within a source — NOT sorted by
  // timestamp: ordering is deterministic, scheduling re-sorts by time.
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{2, 3, 1}));
  EXPECT_FALSE(grid.empty());  // (1 -> 2) still pending
  grid.drain_to(2, [](const net::CrossShardDelivery&) {});
  EXPECT_TRUE(grid.empty());
  EXPECT_EQ(grid.pushed_total(), 4u);
  EXPECT_EQ(grid.drained_total(), 4u);
}

TEST(ShardMailbox, DrainedBoxesAreReusable) {
  net::ShardMailboxGrid grid(2);
  for (int round = 0; round < 3; ++round) {
    grid.push(0, 1, delivery(SimTime::minutes(1.0), 1, static_cast<std::uint64_t>(round)));
    std::uint64_t last = 999;
    grid.drain_to(1, [&last](const net::CrossShardDelivery& d) { last = d.sequence; });
    EXPECT_EQ(last, static_cast<std::uint64_t>(round));
  }
  EXPECT_EQ(grid.pushed_total(), 3u);
  EXPECT_EQ(grid.drained_total(), 3u);
}

TEST(ShardMailbox, RejectsZeroShards) {
  EXPECT_THROW(net::ShardMailboxGrid(0), std::invalid_argument);
}

// ---- ShardedSimulation --------------------------------------------------

core::ScenarioConfig small_scenario() {
  core::ScenarioConfig config = core::baseline_scenario(virus::virus1());
  config.name = "shard-test";
  config.population = 400;
  config.horizon = SimTime::hours(72.0);
  return config;
}

/// Compact fingerprint of everything a replication reports (infection
/// steps, counters, detection time) — any divergence shows up here.
std::uint64_t fingerprint(const core::ReplicationResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const auto& point : r.infections.points()) {
    mix(static_cast<std::uint64_t>(point.time.to_minutes() * 64.0));
    mix(static_cast<std::uint64_t>(point.value));
  }
  mix(r.total_infected);
  mix(r.metrics.counter_value("net.messages_submitted"));
  mix(r.metrics.counter_value("net.recipients_delivered"));
  mix(r.metrics.counter_value("rng.draws"));
  mix(static_cast<std::uint64_t>(r.detected_at.is_finite() ? r.detected_at.to_minutes() : -1.0));
  return h;
}

core::ReplicationResult run_sharded(const core::ScenarioConfig& config, std::uint32_t shards,
                                    int workers) {
  core::ShardingOptions options;
  options.shards = shards;
  options.worker_threads = workers;
  core::ShardedSimulation sim(config, 0x5eedULL, options);
  return sim.run();
}

TEST(ShardedSimulation, ResultsAreIdenticalForAnyWorkerThreadCount) {
  // The determinism contract's core clause: the worker-thread count is
  // an execution detail, never part of the model. Inline (1), partial
  // (2) and one-thread-per-shard (3) execution of a 3-shard run must
  // agree on every infection step and every RNG draw count.
  core::ScenarioConfig config = small_scenario();
  core::ReplicationResult inline_run = run_sharded(config, 3, 1);
  core::ReplicationResult two_workers = run_sharded(config, 3, 2);
  core::ReplicationResult per_shard = run_sharded(config, 3, 0);
  EXPECT_EQ(fingerprint(inline_run), fingerprint(two_workers));
  EXPECT_EQ(fingerprint(inline_run), fingerprint(per_shard));
  EXPECT_EQ(inline_run.metrics.counter_value("rng.draws"),
            per_shard.metrics.counter_value("rng.draws"));
  EXPECT_GT(inline_run.total_infected, 1u);
}

TEST(ShardedSimulation, RepeatedRunsAreBitIdentical) {
  core::ScenarioConfig config = small_scenario();
  EXPECT_EQ(fingerprint(run_sharded(config, 4, 0)), fingerprint(run_sharded(config, 4, 0)));
}

TEST(ShardedSimulation, WindowWiderThanHorizonCompletesInOneWindow) {
  // The window is the scenario's mean delivery delay.
  core::ScenarioConfig config = small_scenario();
  config.delivery_delay_mean = config.horizon + SimTime::hours(1.0);
  core::ReplicationResult r = run_sharded(config, 2, 1);
  EXPECT_GT(r.total_infected, 1u);
  EXPECT_EQ(r.metrics.counter_value("shard.windows"), 1u);
}

TEST(ShardedSimulation, MailboxSentEqualsReceived) {
  core::ReplicationResult r = run_sharded(small_scenario(), 4, 0);
  EXPECT_GT(r.metrics.counter_value("shard.mailbox.sent"), 0u);
  EXPECT_EQ(r.metrics.counter_value("shard.mailbox.sent"),
            r.metrics.counter_value("shard.mailbox.received"));
}

TEST(ShardedSimulation, DetectabilityIsQuantizedToWindowBarriers) {
  // The global detectability decision is made at barriers, so the
  // detection timestamp must sit on a window boundary.
  core::ScenarioConfig config = core::fig2_scan_scenario(SimTime::hours(6.0));
  const SimTime window = SimTime::minutes(2.0);
  config.delivery_delay_mean = window;
  core::ReplicationResult r = run_sharded(config, 2, 1);
  ASSERT_TRUE(r.detected_at.is_finite());
  const double windows = r.detected_at / window;
  EXPECT_NEAR(windows, std::round(windows), 1e-9);
}

TEST(ShardedSimulation, SingleShardRunsMatchThemselvesAndInfect) {
  // shards == 1 through the class is legal (the runner routes 1 to the
  // serial engine; the class itself degenerates to one shard and no
  // cross-shard traffic).
  core::ReplicationResult r = run_sharded(small_scenario(), 1, 1);
  EXPECT_GT(r.total_infected, 1u);
  EXPECT_EQ(r.metrics.counter_value("shard.mailbox.sent"), 0u);
}

TEST(ShardedSimulation, RejectsProximityScenarios) {
  core::ScenarioConfig config = small_scenario();
  config.proximity = core::ProximityChannelConfig{};
  core::ShardingOptions options;
  options.shards = 2;
  EXPECT_THROW(core::ShardedSimulation(config, 1, options), std::invalid_argument);
}

TEST(ShardedRunner, ExperimentMatchesAcrossReplicationThreadCounts) {
  // Runner-level determinism: replication threads on top of sharding
  // still aggregate in replication order.
  core::ScenarioConfig config = small_scenario();
  core::RunnerOptions options;
  options.replications = 4;
  options.master_seed = 0x90147ULL;
  options.shards = 2;
  options.shard_workers = 1;
  options.threads = 1;
  core::ExperimentResult serial = core::run_experiment(config, options);
  options.threads = 4;
  core::ExperimentResult parallel = core::run_experiment(config, options);
  ASSERT_EQ(serial.replications.size(), parallel.replications.size());
  for (std::size_t i = 0; i < serial.replications.size(); ++i) {
    EXPECT_EQ(fingerprint(serial.replications[i]), fingerprint(parallel.replications[i]));
  }
}

TEST(ShardedRunner, RejectsProximityAndBadShardCounts) {
  core::ScenarioConfig config = small_scenario();
  core::RunnerOptions options;
  options.replications = 1;
  options.shards = 2;

  core::ScenarioConfig proximity_config = config;
  proximity_config.proximity = core::ProximityChannelConfig{};
  EXPECT_THROW(core::run_experiment(proximity_config, options), std::invalid_argument);

  core::RunnerOptions zero_shards = options;
  zero_shards.shards = 0;
  EXPECT_THROW(core::run_experiment(config, zero_shards), std::invalid_argument);

  core::RunnerOptions too_many = options;
  too_many.shards = config.population + 1;
  EXPECT_THROW(core::run_experiment(config, too_many), std::invalid_argument);

  // The sharded engine records no trace and feeds no stats stream.
  trace::TraceBuffer buffer;
  core::RunnerOptions traced = options;
  traced.trace = &buffer;
  EXPECT_THROW(core::run_experiment(config, traced), std::invalid_argument);
  std::ostringstream sink;
  obs::RunStream stream(sink);
  core::RunnerOptions streamed = options;
  streamed.stats_stream = &stream;
  EXPECT_THROW(core::run_experiment(config, streamed), std::invalid_argument);
  EXPECT_TRUE(sink.str().empty());
  EXPECT_TRUE(buffer.events().empty());
}

TEST(ShardedRunner, RejectsPeriodsPastTheStepLimit) {
  // A period finer than horizon / kMaxStepsPerReplication would window
  // or stream without bound; both engines refuse it up front.
  core::ScenarioConfig config = small_scenario();
  const SimTime too_fine =
      config.horizon / (2.0 * static_cast<double>(core::kMaxStepsPerReplication));
  // The window is the scenario's mean delivery delay.
  core::ScenarioConfig fast_delivery = config;
  fast_delivery.delivery_delay_mean = too_fine;
  core::RunnerOptions options;
  options.replications = 1;
  options.shards = 2;
  EXPECT_THROW(core::run_experiment(fast_delivery, options), std::invalid_argument);
  core::ShardingOptions sharding;
  sharding.shards = 2;
  EXPECT_THROW(core::ShardedSimulation(fast_delivery, 1, sharding), std::invalid_argument);

  std::ostringstream sink;
  obs::RunStream stream(sink);
  core::RunnerOptions streamed;
  streamed.replications = 1;
  streamed.stats_stream = &stream;
  streamed.stats_period = SimTime::minutes(1e-9);
  EXPECT_THROW(core::run_experiment(config, streamed), std::invalid_argument);
  EXPECT_TRUE(sink.str().empty());
}

TEST(ShardedRunner, ProfileFillsEventHistogramsWithoutPerturbingResults) {
  // Every shard's scheduler gets its own profiler; the merged prof.*
  // histograms fill, and the results stay bit-identical to a bare run.
  core::ScenarioConfig config = small_scenario();
  core::RunnerOptions bare;
  bare.replications = 2;
  bare.master_seed = 0x90147ULL;
  bare.shards = 2;
  bare.shard_workers = 1;
  core::ExperimentResult plain = core::run_experiment(config, bare);

  core::RunnerOptions profiled = bare;
  profiled.profile = true;
  core::ExperimentResult instrumented = core::run_experiment(config, profiled);

  ASSERT_EQ(plain.replications.size(), instrumented.replications.size());
  for (std::size_t i = 0; i < plain.replications.size(); ++i) {
    EXPECT_EQ(fingerprint(plain.replications[i]), fingerprint(instrumented.replications[i]));
  }
  const metrics::HistogramSample* delivery =
      instrumented.metrics.find_histogram("prof.event.message_delivery");
  ASSERT_NE(delivery, nullptr);
  EXPECT_GT(delivery->count, 0u);
}

}  // namespace
}  // namespace mvsim
