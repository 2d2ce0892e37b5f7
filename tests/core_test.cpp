// Unit tests for src/core: scenario validation, presets, simulation
// wiring and the replication runner.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "core/presets.h"
#include "core/runner.h"
#include "core/scenario.h"
#include "core/simulation.h"
#include "trace/trace.h"

// Counting global allocator: this binary's allocation witness. Every
// operator new in core_test (the array and nothrow forms forward here)
// bumps the counter, so a test can bound a whole replication's heap
// traffic per executed event.
namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};
}  // namespace

// Out of line, so GCC's -Wmismatched-new-delete does not pair an
// inlined malloc with a caller's operator delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* block) noexcept { std::free(block); }
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace mvsim::core {
namespace {

/// Small, fast scenario used across these tests.
ScenarioConfig small_scenario() {
  ScenarioConfig config;
  config.name = "test-small";
  config.population = 120;
  config.topology.mean_degree = 12.0;
  config.virus = virus::virus1();
  config.horizon = SimTime::hours(48.0);
  config.sample_step = SimTime::hours(1.0);
  return config;
}

TEST(ScenarioConfig, DefaultsMatchThePaper) {
  ScenarioConfig config;
  EXPECT_EQ(config.population, 1000u);
  EXPECT_DOUBLE_EQ(config.susceptible_fraction, 0.8);
  EXPECT_DOUBLE_EQ(config.topology.mean_degree, 80.0);
  EXPECT_DOUBLE_EQ(config.eventual_acceptance, 0.40);
  EXPECT_EQ(config.initial_infected, 1u);
  EXPECT_DOUBLE_EQ(config.expected_unrestrained_plateau(), 320.0);
  EXPECT_TRUE(config.validate().ok()) << config.validate().to_string();
}

TEST(ScenarioConfig, ValidationCatchesBadFields) {
  ScenarioConfig config = small_scenario();
  config.population = 1;
  EXPECT_FALSE(config.validate().ok());

  config = small_scenario();
  config.susceptible_fraction = 0.0;
  EXPECT_FALSE(config.validate().ok());

  config = small_scenario();
  config.initial_infected = 0;
  EXPECT_FALSE(config.validate().ok());

  config = small_scenario();
  config.initial_infected = 1000;  // > susceptible count
  EXPECT_FALSE(config.validate().ok());

  config = small_scenario();
  config.topology.mean_degree = 500.0;  // >= population
  EXPECT_FALSE(config.validate().ok());

  config = small_scenario();
  config.eventual_acceptance = 0.9;
  EXPECT_FALSE(config.validate().ok());

  config = small_scenario();
  config.sample_step = config.horizon + SimTime::hours(1.0);
  EXPECT_FALSE(config.validate().ok());

  config = small_scenario();
  config.sample_step = SimTime::minutes(1e-9);  // 2.88e12 curve points over 48 h
  EXPECT_FALSE(config.validate().ok());
  EXPECT_NE(config.validate().to_string().find("sample_step"), std::string::npos);
  EXPECT_NE(config.validate().to_string().find("1000000"), std::string::npos);

  config = small_scenario();
  config.read_delay_mean = SimTime::zero();
  EXPECT_FALSE(config.validate().ok());

  config = small_scenario();
  config.virus.recipients_per_message = 0;  // nested virus validation
  EXPECT_FALSE(config.validate().ok());
}

TEST(ScenarioConfig, EducationOverridesPlateauExpectation) {
  ScenarioConfig config;
  response::UserEducationConfig education;
  education.eventual_acceptance = 0.20;
  config.responses.user_education = education;
  EXPECT_DOUBLE_EQ(config.expected_unrestrained_plateau(), 160.0);
}

TEST(Presets, HorizonsFollowThePaper) {
  EXPECT_EQ(paper_horizon_for(virus::virus1()), SimTime::days(18.0));
  EXPECT_EQ(paper_horizon_for(virus::virus2()), SimTime::days(10.0));
  EXPECT_EQ(paper_horizon_for(virus::virus3()), SimTime::hours(25.0));
  EXPECT_EQ(paper_horizon_for(virus::virus4()), SimTime::days(18.0));
}

TEST(Presets, AllFigureScenariosValidate) {
  for (const auto& profile : virus::paper_virus_suite()) {
    EXPECT_TRUE(baseline_scenario(profile).validate().ok());
    EXPECT_TRUE(fig4_education_scenario(profile, 0.20).validate().ok());
  }
  EXPECT_TRUE(fig2_scan_scenario(SimTime::hours(6.0)).validate().ok());
  EXPECT_TRUE(fig3_detection_scenario(0.95).validate().ok());
  EXPECT_TRUE(fig5_immunization_scenario(SimTime::hours(24.0), SimTime::hours(1.0))
                  .validate()
                  .ok());
  EXPECT_TRUE(fig6_monitoring_scenario(SimTime::minutes(15.0)).validate().ok());
  EXPECT_TRUE(fig7_blacklist_scenario(10).validate().ok());
}

TEST(Presets, FigureScenariosEnableTheRightMechanism) {
  EXPECT_TRUE(fig2_scan_scenario(SimTime::hours(6.0)).responses.gateway_scan.has_value());
  EXPECT_TRUE(fig3_detection_scenario(0.9).responses.gateway_detection.has_value());
  EXPECT_TRUE(fig4_education_scenario(virus::virus1(), 0.2)
                  .responses.user_education.has_value());
  EXPECT_TRUE(fig5_immunization_scenario(SimTime::hours(24.0), SimTime::hours(6.0))
                  .responses.immunization.has_value());
  EXPECT_TRUE(fig6_monitoring_scenario(SimTime::minutes(30.0)).responses.monitoring.has_value());
  EXPECT_TRUE(fig7_blacklist_scenario(20).responses.blacklist.has_value());
  for (const auto& profile : virus::paper_virus_suite()) {
    EXPECT_EQ(baseline_scenario(profile).responses.enabled_count(), 0);
  }
}

TEST(Simulation, ConstructionBuildsPopulation) {
  Simulation sim(small_scenario(), 1);
  EXPECT_EQ(sim.contact_graph().node_count(), 120u);
  EXPECT_EQ(sim.susceptible_count(), 96u);  // 80% of 120
  EXPECT_EQ(sim.infected_count(), 0u) << "patient zero infects at t=0, not before";
}

TEST(Simulation, PatientZeroInfectsAtTimeZero) {
  Simulation sim(small_scenario(), 1);
  sim.run_until(SimTime::zero());
  EXPECT_EQ(sim.infected_count(), 1u);
}

TEST(Simulation, InfectionsGrowOverTime) {
  Simulation sim(small_scenario(), 2);
  sim.run_until(SimTime::hours(12.0));
  auto early = sim.infected_count();
  sim.run_until(SimTime::hours(48.0));
  auto late = sim.infected_count();
  EXPECT_GE(late, early);
  EXPECT_GT(late, 1u) << "Virus 1 spreads within two days";
}

TEST(Simulation, RunReturnsConsistentResult) {
  Simulation sim(small_scenario(), 3);
  ReplicationResult r = sim.run();
  EXPECT_EQ(r.total_infected, static_cast<std::uint64_t>(r.infections.final_value()));
  EXPECT_GE(r.metrics.counter_value("net.messages_submitted"), r.total_infected - 1)
      << "every infection after patient zero took at least one message";
  EXPECT_TRUE(r.detected_at.is_finite());
}

TEST(Simulation, RunTwiceThrows) {
  Simulation sim(small_scenario(), 4);
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), std::logic_error);
}

TEST(Simulation, DeterministicGivenSeed) {
  ScenarioConfig config = small_scenario();
  Simulation a(config, 42), b(config, 42);
  ReplicationResult ra = a.run(), rb = b.run();
  EXPECT_EQ(ra.total_infected, rb.total_infected);
  EXPECT_EQ(ra.metrics.counter_value("net.messages_submitted"),
            rb.metrics.counter_value("net.messages_submitted"));
  ASSERT_EQ(ra.infections.points().size(), rb.infections.points().size());
  for (std::size_t i = 0; i < ra.infections.points().size(); ++i) {
    EXPECT_EQ(ra.infections.points()[i].time, rb.infections.points()[i].time);
  }
}

TEST(Simulation, DifferentSeedsDiffer) {
  ScenarioConfig config = small_scenario();
  ReplicationResult ra = Simulation(config, 1).run();
  ReplicationResult rb = Simulation(config, 2).run();
  // Messages submitted is a high-entropy statistic; equality would be
  // astronomically unlikely for independent runs.
  EXPECT_NE(ra.metrics.counter_value("net.messages_submitted"),
            rb.metrics.counter_value("net.messages_submitted"));
}

TEST(Simulation, InvalidConfigThrowsOnConstruction) {
  ScenarioConfig config = small_scenario();
  config.population = 0;
  EXPECT_THROW(Simulation(config, 1), std::invalid_argument);
}

TEST(Simulation, NonSusceptiblePhonesNeverInfected) {
  ScenarioConfig config = small_scenario();
  config.horizon = SimTime::days(6.0);
  Simulation sim(config, 7);
  (void)sim.run();
  const phone::PhoneTable& phones = sim.phones();
  for (graph::PhoneId id = 0; id < config.population; ++id) {
    if (!phones.susceptible(id)) {
      EXPECT_NE(phones.state(id), phone::HealthState::kInfected);
    }
  }
}

TEST(Simulation, InfectedCountMatchesPhoneStates) {
  ScenarioConfig config = small_scenario();
  Simulation sim(config, 8);
  sim.run_until(SimTime::hours(36.0));
  std::uint64_t infected = 0;
  for (graph::PhoneId id = 0; id < config.population; ++id) {
    infected += sim.phones().infected(id) ? 1u : 0u;
  }
  EXPECT_EQ(infected, sim.infected_count());
}

TEST(Simulation, ProximityChannelValidation) {
  ScenarioConfig config = small_scenario();
  ProximityChannelConfig proximity;
  proximity.grid_width = 0;
  config.proximity = proximity;
  EXPECT_FALSE(config.validate().ok());
  config.proximity = ProximityChannelConfig{};
  config.proximity->dwell_mean = SimTime::zero();
  EXPECT_FALSE(config.validate().ok());
  config.proximity = ProximityChannelConfig{};
  EXPECT_TRUE(config.validate().ok());
}

TEST(Simulation, DualVectorSpreadsWithoutGatewayTraffic) {
  // Cripple the MMS arm entirely (scan active from t=0 via threshold 1
  // and zero delay): a single-vector virus stalls, the dual-vector one
  // keeps spreading over Bluetooth, invisibly to the gateway.
  ScenarioConfig config = small_scenario();
  config.horizon = SimTime::days(5.0);
  response::GatewayScanConfig scan;
  scan.activation_delay = SimTime::zero();
  config.responses.gateway_scan = scan;
  config.responses.detectability_threshold = 1;

  Simulation mms_only(config, 31);
  ReplicationResult single = mms_only.run();
  EXPECT_LE(single.total_infected, 3u) << "scan from t=0 stalls the MMS-only virus";

  config.proximity = ProximityChannelConfig{};
  config.proximity->grid_width = 6;
  config.proximity->grid_height = 6;  // ~3 phones/cell at population 120
  Simulation dual(config, 31);
  ReplicationResult result = dual.run();
  EXPECT_GT(result.total_infected, 10u) << "Bluetooth keeps spreading";
  EXPECT_GT(result.metrics.counter_value("core.bluetooth_push_attempts"), 100u);
  // Everything the gateway saw was blocked (except the very first
  // message, which races the zero-delay activation event); the
  // infections happened essentially entirely off-network.
  EXPECT_LE(result.metrics.counter_value("net.recipients_delivered"), 1u);
}

TEST(Simulation, DualVectorDeterministicGivenSeed) {
  ScenarioConfig config = small_scenario();
  config.proximity = ProximityChannelConfig{};
  ReplicationResult a = Simulation(config, 99).run();
  ReplicationResult b = Simulation(config, 99).run();
  EXPECT_EQ(a.total_infected, b.total_infected);
  EXPECT_EQ(a.metrics.counter_value("core.bluetooth_push_attempts"),
            b.metrics.counter_value("core.bluetooth_push_attempts"));
}

TEST(Simulation, SingleVectorReportsNoBluetoothActivity) {
  Simulation sim(small_scenario(), 5);
  EXPECT_EQ(sim.run().metrics.counter_value("core.bluetooth_push_attempts"), 0u);
}

TEST(Simulation, PatchSilencesBothVectors) {
  ScenarioConfig config = small_scenario();
  config.horizon = SimTime::days(6.0);
  config.proximity = ProximityChannelConfig{};
  config.proximity->grid_width = 6;
  config.proximity->grid_height = 6;
  response::ImmunizationConfig immunization;
  immunization.development_time = SimTime::hours(6.0);
  immunization.deployment_duration = SimTime::hours(1.0);
  config.responses.immunization = immunization;

  ScenarioConfig baseline = config;
  baseline.responses.immunization.reset();

  RunnerOptions options;
  options.replications = 4;
  ExperimentResult patched = run_experiment(config, options);
  ExperimentResult unpatched = run_experiment(baseline, options);
  EXPECT_LT(patched.final_infections.mean(), 0.7 * unpatched.final_infections.mean())
      << "the handset patch stops Bluetooth dissemination too";
}


TEST(EventTrace, RecordsInfectionsPatchesAndDetection) {
  ScenarioConfig config = small_scenario();
  config.horizon = SimTime::days(4.0);
  response::ImmunizationConfig immunization;
  immunization.development_time = SimTime::hours(12.0);
  immunization.deployment_duration = SimTime::hours(2.0);
  config.responses.immunization = immunization;

  trace::TraceBuffer trace;
  Simulation sim(config, 17, &trace);
  ReplicationResult r = sim.run();

  EXPECT_EQ(trace.count(trace::EventKind::kInfection), r.total_infected);
  EXPECT_EQ(trace.count(trace::EventKind::kPatchApplied),
            r.metrics.counter_value("core.phones_immunized_healthy") +
                r.metrics.counter_value("core.phones_patched_infected"));
  EXPECT_EQ(trace.count(trace::EventKind::kDetectabilityCrossed), 1u);
  EXPECT_EQ(trace.count(trace::EventKind::kMessageSent),
            r.metrics.counter_value("net.messages_submitted"));
  EXPECT_EQ(trace.first_time(trace::EventKind::kInfection), SimTime::zero())
      << "patient zero at t=0";
  EXPECT_EQ(trace.first_time(trace::EventKind::kDetectabilityCrossed), r.detected_at);
  // The rollout window brackets every patch event.
  SimTime first_patch = trace.first_time(trace::EventKind::kPatchApplied);
  SimTime last_patch = trace.last_time(trace::EventKind::kPatchApplied);
  EXPECT_GE(first_patch, r.detected_at + SimTime::hours(12.0));
  EXPECT_LE(last_patch, r.detected_at + SimTime::hours(14.0) + SimTime::minutes(1.0));
  // The immunization mechanism marks its rollout in the trace.
  bool rollout_marked = false;
  for (const trace::Event& event : trace.events()) {
    if (event.kind == trace::EventKind::kMechanismAction &&
        event.detail == "immunization:rollout_started") {
      rollout_marked = true;
    }
  }
  EXPECT_TRUE(rollout_marked);
}

TEST(EventTrace, EventsAreTimeOrdered) {
  ScenarioConfig config = small_scenario();
  trace::TraceBuffer trace;
  Simulation sim(config, 18, &trace);
  (void)sim.run();
  SimTime last = SimTime::zero();
  for (const trace::Event& event : trace.events()) {
    ASSERT_GE(event.time, last);
    last = event.time;
  }
  EXPECT_GT(trace.events().size(), 1u);
}

TEST(EventTrace, InfectionsCarryProvenance) {
  ScenarioConfig config = small_scenario();
  trace::TraceBuffer trace;
  Simulation sim(config, 20, &trace);
  (void)sim.run();
  std::size_t seeds = 0;
  std::size_t with_infector = 0;
  for (const trace::Event& event : trace.events()) {
    if (event.kind != trace::EventKind::kInfection) continue;
    if (event.detail == "seed") {
      ++seeds;
      EXPECT_EQ(event.peer, trace::kInvalidPhoneId);
    } else {
      EXPECT_EQ(event.detail, "mms") << "no Bluetooth channel in this scenario";
      EXPECT_NE(event.peer, trace::kInvalidPhoneId) << "MMS infection must name its infector";
      EXPECT_NE(event.message, trace::kInvalidMessageId);
      ++with_infector;
    }
  }
  EXPECT_EQ(seeds, config.initial_infected);
  EXPECT_GT(with_infector, 0u);
}

TEST(EventTrace, NullTraceIsFine) {
  Simulation sim(small_scenario(), 19, nullptr);
  EXPECT_NO_THROW((void)sim.run());
}

TEST(Runner, AggregatesRequestedReplications) {
  RunnerOptions options;
  options.replications = 4;
  ExperimentResult result = run_experiment(small_scenario(), options);
  EXPECT_EQ(result.curve.replication_count(), 4u);
  EXPECT_EQ(result.final_infections.count(), 4u);
  EXPECT_EQ(result.replications.size(), 4u);
  EXPECT_GT(result.final_infections.mean(), 0.0);
}

TEST(Runner, KeepReplicationsOffSavesMemory) {
  RunnerOptions options;
  options.replications = 2;
  options.keep_replications = false;
  ExperimentResult result = run_experiment(small_scenario(), options);
  EXPECT_TRUE(result.replications.empty());
  EXPECT_EQ(result.curve.replication_count(), 2u);
}

TEST(Runner, DeterministicGivenMasterSeed) {
  RunnerOptions options;
  options.replications = 3;
  options.master_seed = 99;
  ExperimentResult a = run_experiment(small_scenario(), options);
  ExperimentResult b = run_experiment(small_scenario(), options);
  EXPECT_DOUBLE_EQ(a.final_infections.mean(), b.final_infections.mean());
  EXPECT_DOUBLE_EQ(a.per_replication("net.messages_submitted").mean(),
                   b.per_replication("net.messages_submitted").mean());
}

TEST(Runner, ReplicationsAreIndependent) {
  RunnerOptions options;
  options.replications = 6;
  ExperimentResult result = run_experiment(small_scenario(), options);
  // If replications shared RNG state wrongly, totals would be equal.
  bool any_different = false;
  for (std::size_t i = 1; i < result.replications.size(); ++i) {
    if (result.replications[i].metrics.counter_value("net.messages_submitted") !=
        result.replications[0].metrics.counter_value("net.messages_submitted")) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(Runner, RejectsBadOptionsAndConfigs) {
  RunnerOptions options;
  options.replications = 0;
  EXPECT_THROW((void)run_experiment(small_scenario(), options), std::invalid_argument);
  ScenarioConfig bad = small_scenario();
  bad.population = 0;
  EXPECT_THROW((void)run_experiment(bad, RunnerOptions{}), std::invalid_argument);
}

TEST(Runner, ParallelExecutionIsBitIdentical) {
  ScenarioConfig config = small_scenario();
  RunnerOptions serial;
  serial.replications = 6;
  serial.master_seed = 777;
  serial.threads = 1;
  RunnerOptions parallel = serial;
  parallel.threads = 4;

  ExperimentResult a = run_experiment(config, serial);
  ExperimentResult b = run_experiment(config, parallel);
  EXPECT_DOUBLE_EQ(a.final_infections.mean(), b.final_infections.mean());
  EXPECT_DOUBLE_EQ(a.final_infections.variance(), b.final_infections.variance());
  EXPECT_DOUBLE_EQ(a.per_replication("net.messages_submitted").mean(),
                   b.per_replication("net.messages_submitted").mean());
  ASSERT_EQ(a.replications.size(), b.replications.size());
  for (std::size_t i = 0; i < a.replications.size(); ++i) {
    EXPECT_EQ(a.replications[i].total_infected, b.replications[i].total_infected)
        << "replication " << i << " must not depend on scheduling";
    EXPECT_EQ(a.replications[i].metrics.counter_value("net.messages_submitted"),
              b.replications[i].metrics.counter_value("net.messages_submitted"));
  }
}

TEST(Runner, ThreadsZeroMeansHardwareConcurrency) {
  ScenarioConfig config = small_scenario();
  RunnerOptions options;
  options.replications = 3;
  options.threads = 0;
  EXPECT_NO_THROW((void)run_experiment(config, options));
  options.threads = -1;
  EXPECT_THROW((void)run_experiment(config, options), std::invalid_argument);
}

TEST(GraphCacheIntegration, CachedRunIsBitIdenticalToUncached) {
  // The determinism contract of graph::GraphCache at the Simulation
  // level: with or without a cache, same seed => same curve, same
  // metrics, same rng.draws.
  ScenarioConfig config = small_scenario();
  graph::GraphCache cache;
  Simulation plain(config, 42);
  Simulation cached(config, 42, nullptr, nullptr, des::QueueImpl::kWheel, &cache);
  ReplicationResult a = plain.run();
  ReplicationResult b = cached.run();
  EXPECT_EQ(a.total_infected, b.total_infected);
  EXPECT_EQ(a.metrics.counter_value("net.messages_submitted"),
            b.metrics.counter_value("net.messages_submitted"));
  EXPECT_EQ(a.metrics.counter_value("rng.draws"), b.metrics.counter_value("rng.draws"));
  EXPECT_EQ(a.metrics.counter_value("des.events_executed"),
            b.metrics.counter_value("des.events_executed"));
}

TEST(GraphCacheIntegration, SharedSeedSharesOneGraphAcrossReplications) {
  ScenarioConfig config = small_scenario();
  config.topology.shared_seed = 0xABCDEF;
  graph::GraphCache cache;
  Simulation first(config, 1, nullptr, nullptr, des::QueueImpl::kWheel, &cache);
  Simulation second(config, 2, nullptr, nullptr, des::QueueImpl::kWheel, &cache);
  EXPECT_EQ(&first.contact_graph(), &second.contact_graph())
      << "replications under shared_seed must reuse one graph build";
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(GraphCacheIntegration, DistinctSeedsBuildDistinctGraphs) {
  ScenarioConfig config = small_scenario();  // no shared_seed
  graph::GraphCache cache;
  Simulation first(config, 1, nullptr, nullptr, des::QueueImpl::kWheel, &cache);
  Simulation second(config, 2, nullptr, nullptr, des::QueueImpl::kWheel, &cache);
  EXPECT_NE(&first.contact_graph(), &second.contact_graph());
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(GraphCacheIntegration, PrewarmOnlyActsUnderSharedSeed) {
  graph::GraphCache cache;
  ScenarioConfig config = small_scenario();
  EXPECT_FALSE(prewarm_shared_graph(config, cache));
  EXPECT_EQ(cache.size(), 0u);
  config.topology.shared_seed = 7;
  EXPECT_TRUE(prewarm_shared_graph(config, cache));
  EXPECT_EQ(cache.size(), 1u);
  // A replication then hits the prewarmed entry.
  Simulation sim(config, 5, nullptr, nullptr, des::QueueImpl::kWheel, &cache);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(GraphCacheIntegration, SharedSeedExperimentMatchesSerialAndParallel) {
  // The runner creates its own cache under shared_seed; results must
  // stay thread-count-invariant and deterministic.
  ScenarioConfig config = small_scenario();
  config.topology.shared_seed = 99;
  RunnerOptions serial;
  serial.replications = 4;
  serial.master_seed = 31337;
  serial.threads = 1;
  RunnerOptions parallel = serial;
  parallel.threads = 4;
  ExperimentResult a = run_experiment(config, serial);
  ExperimentResult b = run_experiment(config, parallel);
  ASSERT_EQ(a.replications.size(), b.replications.size());
  for (std::size_t i = 0; i < a.replications.size(); ++i) {
    EXPECT_EQ(a.replications[i].total_infected, b.replications[i].total_infected);
  }
}

TEST(Runner, BuildPhaseReportedSeparatelyUnderSharedSeed) {
  ScenarioConfig config = small_scenario();
  config.topology.shared_seed = 5;
  RunnerOptions options;
  options.replications = 2;
  int build_updates = 0;
  int rep_updates = 0;
  options.progress = [&](const ProgressUpdate& update) {
    if (update.build_phase) {
      ++build_updates;
      EXPECT_EQ(update.replications_done, 0);
      EXPECT_GE(update.build_seconds, 0.0);
    } else {
      ++rep_updates;
      EXPECT_GE(update.build_seconds, 0.0) << "build time stays visible on later updates";
    }
  };
  (void)run_experiment(config, options);
  EXPECT_EQ(build_updates, 1) << "exactly one build-phase update";
  EXPECT_EQ(rep_updates, 2);
}

TEST(Runner, BaselineReplicationsBarelyTouchTheHeap) {
  // Each infected message's recipients live in a buffer the gateway
  // recycles, so a replication's heap traffic is its setup (graph,
  // tables, metrics) plus growth, not one allocation per message. Seed 1,
  // one replication per paper virus; a per-message allocation alone
  // would put every virus at 0.3 or more.
  for (const virus::VirusProfile& profile : virus::paper_virus_suite()) {
    RunnerOptions options;
    options.replications = 1;
    options.master_seed = 1;
    const std::uint64_t before = g_heap_allocations.load();
    const ExperimentResult result = run_experiment(baseline_scenario(profile), options);
    const std::uint64_t allocations = g_heap_allocations.load() - before;
    const std::uint64_t events = result.metrics.counter_value("des.events_executed");
    ASSERT_GT(events, 0u) << profile.name;
    const double per_event = static_cast<double>(allocations) / static_cast<double>(events);
    EXPECT_LT(per_event, 0.05) << profile.name << ": " << allocations << " allocations over "
                               << events << " events";
  }
}

TEST(Runner, EtaCountsReplicationsThatRunAtOnce) {
  // Four replications of 10 s on four workers all finish together, so
  // when the first one reports there is nothing left to wait for.
  EXPECT_NEAR(progress_eta_seconds(10.0, 4, 4, 10.0), 0.0, 1e-9);
  // Eight on four workers take two waves: one replication's time left.
  EXPECT_NEAR(progress_eta_seconds(10.0, 8, 4, 10.0), 10.0, 1e-9);
  // On one worker it is the mean time per replication times the number
  // left, the same as elapsed / done * remaining: 20 s / 2 * 3.
  EXPECT_NEAR(progress_eta_seconds(10.0, 5, 1, 20.0), 20.0 / 2.0 * 3.0, 1e-9);
  // A slow start never yields a negative estimate.
  EXPECT_EQ(progress_eta_seconds(10.0, 4, 4, 12.0), 0.0);
}

}  // namespace
}  // namespace mvsim::core
