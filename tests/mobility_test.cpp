// Unit + integration tests for src/mobility: grid occupancy, movement,
// and the Bluetooth worm extension, which runs as an ordinary scenario
// (core::bluetooth_worm_scenario) on the serial engine.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/presets.h"
#include "core/runner.h"
#include "core/simulation.h"
#include "mobility/grid.h"
#include "mobility/movement.h"
#include "phone/consent.h"

namespace mvsim::mobility {
namespace {

TEST(MobilityGrid, PlaceAndQuery) {
  MobilityGrid grid(4, 4, 10);
  EXPECT_EQ(grid.cell_count(), 16u);
  grid.place(3, 5);
  EXPECT_EQ(grid.cell_of(3), 5u);
  EXPECT_EQ(grid.occupancy(5), 1u);
  ASSERT_EQ(grid.phones_in(5).size(), 1u);
  EXPECT_EQ(grid.phones_in(5)[0], 3u);
}

TEST(MobilityGrid, RejectsBadArguments) {
  EXPECT_THROW(MobilityGrid(0, 4, 10), std::invalid_argument);
  // 2^32 or more cells cannot all be numbered by a CellId.
  EXPECT_THROW(MobilityGrid(65536, 65536, 10), std::invalid_argument);
  EXPECT_THROW(MobilityGrid(~0U, 2, 10), std::invalid_argument);
  MobilityGrid grid(4, 4, 10);
  EXPECT_THROW(grid.place(10, 0), std::out_of_range);
  EXPECT_THROW(grid.place(0, 16), std::out_of_range);
  grid.place(0, 0);
  EXPECT_THROW(grid.place(0, 1), std::logic_error);
  EXPECT_THROW((void)grid.cell_of(1), std::out_of_range) << "unplaced phone";
  EXPECT_THROW((void)grid.phones_in(99), std::out_of_range);
}

TEST(MobilityGrid, UniformPlacementCoversEveryPhone) {
  MobilityGrid grid(8, 8, 200);
  rng::Stream stream(1);
  grid.place_all_uniform(stream);
  std::size_t total = 0;
  for (CellId c = 0; c < grid.cell_count(); ++c) total += grid.occupancy(c);
  EXPECT_EQ(total, 200u);
  EXPECT_DOUBLE_EQ(grid.mean_occupancy(), 200.0 / 64.0);
  EXPECT_GE(grid.max_occupancy(), 4u);
}

TEST(MobilityGrid, MoveToNeighbourPreservesOccupancyInvariant) {
  MobilityGrid grid(5, 5, 50);
  rng::Stream stream(2);
  grid.place_all_uniform(stream);
  for (int step = 0; step < 2000; ++step) {
    PhoneId phone = static_cast<PhoneId>(stream.uniform_index(50));
    CellId before = grid.cell_of(phone);
    grid.move_to_random_neighbour(phone, stream);
    CellId after = grid.cell_of(phone);
    ASSERT_NE(before, after) << "a move always changes cell on a >1x1 grid";
    // Torus 4-neighbourhood: cells differ in exactly one coordinate by 1 (mod 5).
    std::uint32_t bx = before % 5, by = before / 5, ax = after % 5, ay = after / 5;
    std::uint32_t dx = std::min((bx - ax + 5) % 5, (ax - bx + 5) % 5);
    std::uint32_t dy = std::min((by - ay + 5) % 5, (ay - by + 5) % 5);
    ASSERT_EQ(dx + dy, 1u);
  }
  std::size_t total = 0;
  for (CellId c = 0; c < grid.cell_count(); ++c) total += grid.occupancy(c);
  EXPECT_EQ(total, 50u) << "no phone lost or duplicated across 2000 moves";
}

// A move must land where modular torus arithmetic puts it: direction
// uniform_index(4) in the order +x, -x, +y, -y. The stream is cloned
// before each move so the reference sees the very word the move draws.
TEST(MobilityGrid, NeighbourTableMatchesTorusArithmetic) {
  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {{1, 1}, {1, 5}, {5, 1},
                                                            {2, 2}, {7, 3}, {16, 16}};
  for (const auto& [width, height] : shapes) {
    constexpr PhoneId kPhones = 40;
    MobilityGrid grid(width, height, kPhones);
    rng::Stream stream(width * 100 + height);
    grid.place_all_uniform(stream);
    for (int step = 0; step < 4000; ++step) {
      const PhoneId phone = static_cast<PhoneId>(step) % kPhones;
      const CellId cell = grid.cell_of(phone);
      std::uint32_t x = cell % width;
      std::uint32_t y = cell / width;
      rng::Stream clone = stream;
      switch (clone.uniform_index(4)) {
        case 0: x = (x + 1) % width; break;
        case 1: x = (x + width - 1) % width; break;
        case 2: y = (y + 1) % height; break;
        default: y = (y + height - 1) % height; break;
      }
      grid.move_to_random_neighbour(phone, stream);
      ASSERT_EQ(grid.cell_of(phone), y * width + x)
          << width << "x" << height << " grid, step " << step << ", from cell " << cell;
      ASSERT_EQ(stream.draw_count(), clone.draw_count());
    }
  }
}

TEST(MobilityGrid, SampleCoLocatedExcludesSelf) {
  MobilityGrid grid(2, 2, 3);
  grid.place(0, 0);
  grid.place(1, 0);
  grid.place(2, 1);
  rng::Stream stream(3);
  PhoneId out = 99;
  ASSERT_TRUE(grid.sample_co_located(0, stream, out));
  EXPECT_EQ(out, 1u);
  EXPECT_FALSE(grid.sample_co_located(2, stream, out)) << "alone in its cell";
}

TEST(MovementProcess, PhonesActuallyMove) {
  des::Scheduler scheduler;
  MobilityGrid grid(6, 6, 30);
  rng::Stream stream(4);
  grid.place_all_uniform(stream);
  MovementProcess movement(scheduler, grid, stream, SimTime::minutes(30.0));
  scheduler.run_until(SimTime::hours(10.0));
  // 30 phones x ~20 moves expected in 10 h.
  EXPECT_GT(movement.moves_performed(), 300u);
  EXPECT_LT(movement.moves_performed(), 1500u);
}

TEST(MovementProcess, RejectsNonPositiveDwell) {
  des::Scheduler scheduler;
  MobilityGrid grid(2, 2, 1);
  rng::Stream stream(5);
  grid.place_all_uniform(stream);
  EXPECT_THROW(MovementProcess(scheduler, grid, stream, SimTime::zero()),
               std::invalid_argument);
}

// ---- Bluetooth worm ----

core::ScenarioConfig small_bluetooth() {
  core::ScenarioConfig config = core::bluetooth_worm_scenario();
  config.population = 200;
  config.proximity->grid_width = 7;
  config.proximity->grid_height = 7;
  config.horizon = SimTime::days(5.0);
  return config;
}

core::ExperimentResult run_bluetooth(const core::ScenarioConfig& config, int replications,
                                     std::uint64_t master_seed) {
  core::RunnerOptions options;
  options.replications = replications;
  options.master_seed = master_seed;
  return core::run_experiment(config, options);
}

void set_patch_cycle(core::ScenarioConfig& config, SimTime detection, SimTime development,
                     SimTime deployment) {
  response::ImmunizationConfig immunization;
  immunization.detection_time = detection;
  immunization.development_time = development;
  immunization.deployment_duration = deployment;
  config.responses.immunization = immunization;
}

TEST(BluetoothConfig, DefaultsValidate) {
  EXPECT_TRUE(core::bluetooth_worm_scenario().validate().ok());
  EXPECT_DOUBLE_EQ(core::bluetooth_worm_scenario().expected_unrestrained_plateau(), 320.0);
}

TEST(BluetoothConfig, ValidationCatchesBadFields) {
  core::ScenarioConfig config = small_bluetooth();
  config.proximity->grid_width = 0;
  EXPECT_FALSE(config.validate().ok());
  config = small_bluetooth();
  config.proximity->scan_interval_mean = SimTime::zero();
  EXPECT_FALSE(config.validate().ok());
  config = small_bluetooth();
  config.eventual_acceptance = 0.9;
  EXPECT_FALSE(config.validate().ok());
  config = small_bluetooth();
  set_patch_cycle(config, SimTime::minutes(-1.0), SimTime::hours(24.0), SimTime::hours(6.0));
  EXPECT_FALSE(config.validate().ok());
  config = small_bluetooth();
  config.proximity.reset();
  EXPECT_FALSE(config.validate().ok()) << "no MMS arm and no proximity channel cannot spread";
}

TEST(BluetoothWorm, WormSpreadsThroughProximity) {
  core::Simulation sim(small_bluetooth(), 77);
  core::ReplicationResult r = sim.run();
  EXPECT_GT(r.total_infected, 10u) << "the worm spreads";
  EXPECT_GT(r.metrics.counter_value("core.bluetooth_push_attempts"), r.total_infected)
      << "more offers than acceptances";
  // Plateau bounded by the consent model: 200 x 0.8 x 0.40 = 64.
  EXPECT_LE(r.total_infected, 80u);
  EXPECT_EQ(r.metrics.counter_value("net.messages_submitted"), 0u)
      << "targeting 'none' has no MMS arm";
}

TEST(BluetoothWorm, DeterministicGivenSeed) {
  core::ScenarioConfig config = small_bluetooth();
  core::ReplicationResult a = core::Simulation(config, 42).run();
  core::ReplicationResult b = core::Simulation(config, 42).run();
  EXPECT_EQ(a.total_infected, b.total_infected);
  EXPECT_EQ(a.metrics.counter_value("core.bluetooth_push_attempts"),
            b.metrics.counter_value("core.bluetooth_push_attempts"));
}

TEST(BluetoothWorm, SparserWorldSpreadsSlower) {
  core::ScenarioConfig dense = small_bluetooth();  // 7x7: ~4 phones/cell
  core::ScenarioConfig sparse = small_bluetooth();
  sparse.proximity->grid_width = 25;
  sparse.proximity->grid_height = 25;  // 0.32 phones/cell: encounters are rare
  core::ExperimentResult dense_result = run_bluetooth(dense, 4, 9);
  core::ExperimentResult sparse_result = run_bluetooth(sparse, 4, 9);
  // Compare early-growth speed (time to half the consent plateau of
  // 64): the final levels converge once both saturate, but a sparse
  // world takes distinctly longer to get there.
  SimTime dense_half = dense_result.curve.mean_first_time_at_or_above(32.0);
  SimTime sparse_half = sparse_result.curve.mean_first_time_at_or_above(32.0);
  EXPECT_LT(dense_half + SimTime::hours(6.0), sparse_half)
      << "proximity spread is density-limited";
}

TEST(BluetoothWorm, EducationLowersThePlateau) {
  core::ScenarioConfig config = small_bluetooth();
  core::ExperimentResult base = run_bluetooth(config, 4, 10);
  response::UserEducationConfig education;
  education.eventual_acceptance = 0.10;
  config.responses.user_education = education;
  core::ExperimentResult educated = run_bluetooth(config, 4, 10);
  EXPECT_LT(educated.final_infections.mean(), 0.6 * base.final_infections.mean());
}

TEST(BluetoothWorm, ImmunizationStopsTheWorm) {
  core::ScenarioConfig config = small_bluetooth();
  core::ExperimentResult base = run_bluetooth(config, 4, 11);
  set_patch_cycle(config, SimTime::hours(6.0), SimTime::hours(6.0), SimTime::hours(1.0));
  core::ExperimentResult patched = run_bluetooth(config, 4, 11);
  EXPECT_LT(patched.final_infections.mean(), 0.8 * base.final_infections.mean());
  // After the rollout the curve must be flat: compare day 3 to final.
  EXPECT_NEAR(patched.curve.mean_at(SimTime::days(3.0)), patched.curve.final_mean(), 1.0);
}

TEST(BluetoothWorm, RunTwiceThrows) {
  core::Simulation sim(small_bluetooth(), 1);
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), std::logic_error);
}

TEST(BluetoothExperiment, AggregatesReplications) {
  core::ExperimentResult result = run_bluetooth(small_bluetooth(), 3, 5);
  EXPECT_EQ(result.curve.replication_count(), 3u);
  EXPECT_EQ(result.final_infections.count(), 3u);
  EXPECT_THROW((void)run_bluetooth(small_bluetooth(), 0, 5), std::invalid_argument);
}

// Analytic oracle (the well-mixed limit of Merler & Jurman's contact
// process): on a 1x1 grid every phone is in radio range of every other,
// so once each susceptible phone has been offered the worm past its
// decision cutoff, each of the 799 susceptibles besides patient zero
// has accepted with exactly the consent model's eventual probability,
// 1 - prod_n (1 - AF/2^n). Ten-minute scans and a 5-day horizon give
// every phone hundreds of offers; the 1000-day dwell only keeps the
// (irrelevant) movement events out of the run.
TEST(BluetoothWorm, WellMixedLimitMatchesConsentIdentity) {
  core::ScenarioConfig config = core::bluetooth_worm_scenario();
  config.proximity->grid_width = 1;
  config.proximity->grid_height = 1;
  config.proximity->dwell_mean = SimTime::days(1000.0);
  config.proximity->scan_interval_mean = SimTime::minutes(10.0);
  config.horizon = SimTime::days(5.0);
  constexpr int kReps = 20;
  core::ExperimentResult result = run_bluetooth(config, kReps, 0x0BAC1E);

  const double eventual =
      phone::ConsentModel(phone::kPaperAcceptanceFactor).eventual_acceptance_probability();
  const double expected = 1.0 + 799.0 * eventual;
  EXPECT_NEAR(expected, 320.0, 1.0);
  const double standard_error =
      result.final_infections.stddev() / std::sqrt(static_cast<double>(kReps));
  EXPECT_NEAR(result.final_infections.mean(), expected, 3.0 * standard_error);
  EXPECT_GT(standard_error, 0.0);
}

}  // namespace
}  // namespace mvsim::mobility
