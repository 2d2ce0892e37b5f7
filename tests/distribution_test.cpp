// Serial and sharded engines sample the same distribution.
//
// The golden tests pin each engine's fixed-seed curves, but a sharded
// run is a different sample path than a serial one (salted streams, the
// cross-shard latency floor, barrier-quantized detection), so hashes
// alone cannot tell "equally valid" from "subtly wrong". These tests run
// Virus 1's baseline at K = 1, 2 and 4 shards and require, for every
// pair of shard counts, that final infections and time to half plateau
// pass a two-sample KS test and that each mean lies inside the other's
// 95% confidence interval. The master seed is fixed, so the outcome is
// deterministic.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

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

Samples run_at(std::uint32_t shards) {
  core::RunnerOptions options;
  options.replications = kReplications;
  options.master_seed = kMasterSeed;
  options.threads = 2;
  options.shards = shards;
  options.shard_workers = 1;
  const core::ExperimentResult result =
      core::run_experiment(core::baseline_scenario(virus::virus1()), options);
  Samples samples;
  for (const core::ReplicationResult& r : result.replications) {
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
  if (it == cache.end()) it = cache.emplace(shards, run_at(shards)).first;
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
