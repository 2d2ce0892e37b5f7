// Engines that should sample the same distribution do.
//
// The golden tests pin each engine's fixed-seed curves, but two engines
// (or two builds of one) can take different sample paths that are
// equally valid, so hashes alone cannot tell "equally valid" from
// "subtly wrong". These tests compare samples of final infections and
// time to half plateau with a two-sample KS test and require each mean
// to lie inside the other's 95% confidence interval:
//
//  - Virus 1's baseline at K = 1, 2 and 4 shards, every pair;
//  - the Bluetooth-only worm scenario against outputs recorded from the
//    standalone Bluetooth engine it replaced.
//
// Every replication run here also passes the conservation audit (audit.h).
//
// Master seeds are fixed, so the outcomes are deterministic.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "audit.h"
#include "core/presets.h"
#include "core/runner.h"
#include "two_sample.h"

namespace mvsim {
namespace {

constexpr int kReplications = 30;
constexpr std::uint64_t kMasterSeed = 0xd157'2007'0001ULL;
constexpr double kMinPValue = 0.01;

struct Samples {
  std::vector<double> final_infected;
  std::vector<double> half_plateau_hours;  ///< first time at half the final count
};

Samples run_samples(const core::ScenarioConfig& config, std::uint32_t shards) {
  core::RunnerOptions options;
  options.replications = kReplications;
  options.master_seed = kMasterSeed;
  options.threads = 2;
  options.shards = shards;
  options.shard_workers = 1;
  const core::ExperimentResult result = core::run_experiment(config, options);
  Samples samples;
  for (const core::ReplicationResult& r : result.replications) {
    EXPECT_TRUE(test_audit::conserves(config, r));
    samples.final_infected.push_back(static_cast<double>(r.total_infected));
    const double half = static_cast<double>(r.total_infected) / 2.0;
    for (const auto& point : r.infections.points()) {
      if (point.value >= half) {
        samples.half_plateau_hours.push_back(point.time.to_hours());
        break;
      }
    }
  }
  return samples;
}

const Samples& samples_at(std::uint32_t shards) {
  static std::map<std::uint32_t, Samples> cache;
  auto it = cache.find(shards);
  if (it == cache.end()) {
    it = cache.emplace(shards, run_samples(core::baseline_scenario(virus::virus1()), shards))
             .first;
  }
  return it->second;
}

void expect_same_distribution(const std::vector<double>& a, const std::vector<double>& b,
                              const std::string& what) {
  ASSERT_EQ(a.size(), static_cast<std::size_t>(kReplications)) << what;
  ASSERT_EQ(b.size(), static_cast<std::size_t>(kReplications)) << what;
  EXPECT_GE(test_stats::ks_p_value(a, b), kMinPValue) << what << ": KS test rejects";
  EXPECT_TRUE(test_stats::mean_within_ci(a, b)) << what << ": 2nd mean outside 1st's 95% CI";
  EXPECT_TRUE(test_stats::mean_within_ci(b, a)) << what << ": 1st mean outside 2nd's 95% CI";
}

using ShardPair = std::pair<std::uint32_t, std::uint32_t>;

class SerialVsSharded : public ::testing::TestWithParam<ShardPair> {};

TEST_P(SerialVsSharded, FinalInfectionsAndHalfPlateauTimeMatch) {
  const auto [k1, k2] = GetParam();
  const std::string pair = "K=" + std::to_string(k1) + " vs K=" + std::to_string(k2);
  expect_same_distribution(samples_at(k1).final_infected, samples_at(k2).final_infected,
                           pair + " final infected");
  expect_same_distribution(samples_at(k1).half_plateau_hours, samples_at(k2).half_plateau_hours,
                           pair + " time to half plateau");
}

INSTANTIATE_TEST_SUITE_P(Virus1Baseline, SerialVsSharded,
                         ::testing::Values(ShardPair{1, 2}, ShardPair{1, 4}, ShardPair{2, 4}),
                         [](const auto& shard_pair) {
                           std::string name = "K";
                           name += std::to_string(shard_pair.param.first);
                           name += "vsK";
                           name += std::to_string(shard_pair.param.second);
                           return name;
                         });

// ---- Bluetooth-only worm vs the retired standalone Bluetooth engine ----
//
// Recorded at commit 025f992 from the standalone Bluetooth engine this
// scenario replaced (src/mobility/bluetooth.{h,cpp} there): its test
// config (200 phones, 7x7 grid, 5 days), 30 replications seeded
// derive_seed(kMasterSeed, rep). The folded scenario draws from
// different RNG streams, so it must match in distribution, not in value.

core::ScenarioConfig small_bluetooth() {
  core::ScenarioConfig config = core::bluetooth_worm_scenario();
  config.population = 200;
  config.proximity->grid_width = 7;
  config.proximity->grid_height = 7;
  config.horizon = SimTime::days(5.0);
  return config;
}

const Samples kRetiredBaseline = {
    {67, 70, 67, 54, 58, 66, 57, 58, 73, 63, 59, 72, 61, 68, 55,
     68, 65, 69, 62, 59, 72, 67, 67, 59, 58, 63, 57, 54, 69, 50},
    {24.8386, 45.7222, 20.7807, 25.5622, 27.2627, 28.8584, 22.9258, 34.1871,
     31.8313, 22.7638, 34.2043, 41.8391, 26.7186, 19.6429, 29.2014, 16.4000,
     23.3494, 19.4772, 32.1118, 18.9725, 20.2635, 21.5913, 35.3019, 40.9258,
     17.7180, 30.0544, 22.1568, 33.8163, 33.2944, 39.6787},
};

/// Out-of-band detection at 6 h, 6 h patch development, 1 h rollout.
const Samples kRetiredImmunized = {
    {3, 1, 13, 5, 6, 3, 9, 4, 3, 12, 3, 1, 3, 14, 7,
     22, 6, 15, 1, 13, 14, 14, 4, 1, 16, 4, 7, 3, 2, 3},
    {6.8513, 0.0000, 6.5050, 10.2473, 8.6489, 3.8877, 8.3742, 3.5355,
     6.5987, 6.1898, 2.9813, 0.0000, 7.4135, 7.3041, 8.1696, 9.3048,
     5.9362, 10.6532, 0.0000, 9.9077, 7.5525, 7.3742, 9.2218, 0.0000,
     6.5125, 10.6623, 3.6787, 4.4898, 0.0000, 3.9128},
};

void expect_matches_retired(const core::ScenarioConfig& config, const Samples& retired) {
  const Samples folded = run_samples(config, 1);
  expect_same_distribution(retired.final_infected, folded.final_infected, "final infected");
  expect_same_distribution(retired.half_plateau_hours, folded.half_plateau_hours,
                           "time to half plateau");
}

TEST(BluetoothFold, BaselineMatchesRetiredEngine) {
  expect_matches_retired(small_bluetooth(), kRetiredBaseline);
}

TEST(BluetoothFold, ImmunizedMatchesRetiredEngine) {
  core::ScenarioConfig config = small_bluetooth();
  response::ImmunizationConfig immunization;
  immunization.detection_time = SimTime::hours(6.0);
  immunization.development_time = SimTime::hours(6.0);
  immunization.deployment_duration = SimTime::hours(1.0);
  config.responses.immunization = immunization;
  expect_matches_retired(config, kRetiredImmunized);
}

TEST(TwoSample, KsStatisticAndPValueBehave) {
  const std::vector<double> a = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const std::vector<double> shifted = {11, 12, 13, 14, 15, 16, 17, 18, 19, 20};
  EXPECT_DOUBLE_EQ(test_stats::ks_statistic(a, a), 0.0);
  EXPECT_DOUBLE_EQ(test_stats::ks_p_value(a, a), 1.0);
  EXPECT_DOUBLE_EQ(test_stats::ks_statistic(a, shifted), 1.0);
  EXPECT_LT(test_stats::ks_p_value(a, shifted), 1e-3);
  // Ties across samples step both CDFs together.
  EXPECT_DOUBLE_EQ(test_stats::ks_statistic({1, 1, 2, 2}, {1, 2, 2, 2}), 0.25);
}

}  // namespace
}  // namespace mvsim
