// Unit tests for src/rng: seeding, engine, samplers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "rng/seed.h"
#include "rng/stream.h"

namespace mvsim::rng {
namespace {

TEST(Seed, SplitMixAdvancesState) {
  std::uint64_t state = 42;
  std::uint64_t a = splitmix64_next(state);
  std::uint64_t b = splitmix64_next(state);
  EXPECT_NE(a, b);
  EXPECT_NE(state, 42u);
}

TEST(Seed, DeriveIsDeterministic) {
  EXPECT_EQ(derive_seed(1, 2), derive_seed(1, 2));
  EXPECT_EQ(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
}

TEST(Seed, DeriveSeparatesIndices) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(derive_seed(0xABCD, i));
  EXPECT_EQ(seeds.size(), 1000u) << "adjacent indices must not collide";
}

TEST(Seed, DeriveSeparatesMasters) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t m = 0; m < 1000; ++m) seeds.insert(derive_seed(m, 7));
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(Seed, TwoLevelDiffersFromOneLevel) {
  EXPECT_NE(derive_seed(1, 2, 3), derive_seed(1, 2));
  EXPECT_NE(derive_seed(1, 2, 3), derive_seed(1, 3, 2));
}

TEST(Xoshiro, DeterministicGivenSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256 a(123), b(124);
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 95);
}

TEST(Xoshiro, JumpChangesSequence) {
  Xoshiro256 a(9), b(9);
  b.jump();
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(Stream, Uniform01InRangeWithPlausibleMean) {
  Stream s(7);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    double u = s.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Stream, UniformRespectsBounds) {
  Stream s(8);
  for (int i = 0; i < 1000; ++i) {
    double v = s.uniform(-3.0, 5.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 5.0);
  }
}

TEST(Stream, UniformIndexCoversRangeUniformly) {
  Stream s(9);
  std::vector<int> counts(10, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[s.uniform_index(10)];
  for (int c : counts) EXPECT_NEAR(c, kN / 10, 500);
}

TEST(Stream, UniformIndexOneAlwaysZero) {
  Stream s(10);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(s.uniform_index(1), 0u);
}

TEST(Stream, UniformIndexZeroThrows) {
  Stream s(11);
  EXPECT_THROW((void)s.uniform_index(0), std::invalid_argument);
}

// The plain rejection loop, computing 2^64 mod n on every call: the
// reference uniform_index() must reproduce word for word.
std::uint64_t reference_uniform_index(Stream& s, std::uint64_t n) {
  const std::uint64_t threshold = (~n + 1) % n;  // = 2^64 mod n
  for (;;) {
    std::uint64_t r = s.next_raw();
    if (r >= threshold) return r % n;
  }
}

TEST(Stream, UniformIndexMatchesRejectionReference) {
  constexpr std::uint64_t kTwo32 = std::uint64_t{1} << 32;
  constexpr std::uint64_t kTwo63 = std::uint64_t{1} << 63;
  const std::uint64_t ranges[] = {1,          2,          3,          4,
                                  7,          10,         64,         kTwo32 - 1,
                                  kTwo32,     kTwo32 + 1, kTwo63 - 1, kTwo63,
                                  kTwo63 + 1, 0xC000000000000001ULL,  ~std::uint64_t{0}};
  constexpr int kDraws = 100000;
  for (std::uint64_t n : ranges) {
    Stream fast(0x5eed + n);
    Stream reference(0x5eed + n);
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(fast.uniform_index(n), reference_uniform_index(reference, n))
          << "n = " << n << ", draw " << i;
    }
    EXPECT_EQ(fast.draw_count(), reference.draw_count()) << "n = " << n;
    if ((~n + 1) % n >= (std::uint64_t{1} << 62)) {
      // A quarter or more of the words fall below 2^64 mod n and are
      // redrawn, so the rejection tail really ran.
      EXPECT_GT(fast.draw_count(), std::uint64_t{kDraws}) << "n = " << n;
    }
  }

  Stream empty(11);
  (void)empty.uniform_index(10);
  const std::uint64_t before = empty.draw_count();
  EXPECT_THROW((void)empty.uniform_index(0), std::invalid_argument);
  EXPECT_EQ(empty.draw_count(), before) << "an empty range consumes no word";
}

TEST(Stream, BernoulliEdgeCases) {
  Stream s(12);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(s.bernoulli(0.0));
    EXPECT_TRUE(s.bernoulli(1.0));
    EXPECT_FALSE(s.bernoulli(-0.5));
    EXPECT_TRUE(s.bernoulli(1.5));
  }
}

TEST(Stream, BernoulliFrequencyMatchesP) {
  Stream s(13);
  constexpr int kN = 100000;
  int hits = 0;
  for (int i = 0; i < kN; ++i) hits += s.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Stream, ExponentialMeanAndPositivity) {
  Stream s(14);
  constexpr int kN = 100000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) {
    double v = s.exponential(5.0);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kN, 5.0, 0.15);
}

TEST(Stream, ExponentialRejectsNonPositiveMean) {
  Stream s(15);
  EXPECT_THROW((void)s.exponential(0.0), std::invalid_argument);
  EXPECT_THROW((void)s.exponential(-1.0), std::invalid_argument);
}

TEST(Stream, SimTimeSamplersUseMinutes) {
  Stream s(16);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += s.exponential(SimTime::hours(1.0)).to_minutes();
  EXPECT_NEAR(sum / kN, 60.0, 2.5);
  for (int i = 0; i < 1000; ++i) {
    SimTime t = s.uniform(SimTime::minutes(10.0), SimTime::minutes(20.0));
    ASSERT_GE(t.to_minutes(), 10.0);
    ASSERT_LT(t.to_minutes(), 20.0);
  }
}

TEST(Stream, ShufflePreservesElements) {
  Stream s(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  s.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Stream, ShuffleActuallyPermutes) {
  Stream s(18);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  s.shuffle(std::span<int>(v));
  int displaced = 0;
  for (int i = 0; i < 100; ++i) displaced += (v[static_cast<std::size_t>(i)] != i) ? 1 : 0;
  EXPECT_GT(displaced, 80);
}

TEST(Stream, SampleWithoutReplacementDistinctAndBounded) {
  Stream s(19);
  auto sample = s.sample_without_replacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (auto v : sample) EXPECT_LT(v, 50u);
}

TEST(Stream, SampleWithoutReplacementFullRange) {
  Stream s(20);
  auto sample = s.sample_without_replacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Stream, SampleWithoutReplacementRejectsOversample) {
  Stream s(21);
  EXPECT_THROW((void)s.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(PowerLawTable, SamplesWithinBounds) {
  Stream s(22);
  PowerLawTable table(2, 50, 2.0);
  for (int i = 0; i < 10000; ++i) {
    auto k = table.sample(s);
    ASSERT_GE(k, 2u);
    ASSERT_LE(k, 50u);
  }
}

TEST(PowerLawTable, EmpiricalMeanMatchesAnalytic) {
  Stream s(23);
  PowerLawTable table(1, 100, 2.0);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += static_cast<double>(table.sample(s));
  EXPECT_NEAR(sum / kN, table.mean(), table.mean() * 0.03);
}

TEST(PowerLawTable, HeavierAlphaMeansSmallerMean) {
  PowerLawTable shallow(1, 100, 1.5);
  PowerLawTable steep(1, 100, 3.0);
  EXPECT_GT(shallow.mean(), steep.mean());
}

TEST(PowerLawTable, LowValuesDominate) {
  Stream s(24);
  PowerLawTable table(1, 100, 2.0);
  int low = 0;
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) low += (table.sample(s) <= 3) ? 1 : 0;
  // P(k<=3) = (1 + 1/4 + 1/9)/H(2,100) ~ 0.85
  EXPECT_GT(low, kN * 7 / 10);
}

TEST(PowerLawTable, RejectsBadBounds) {
  EXPECT_THROW(PowerLawTable(0, 10, 2.0), std::invalid_argument);
  EXPECT_THROW(PowerLawTable(5, 4, 2.0), std::invalid_argument);
}

TEST(PowerLawTable, DegenerateSingleValue) {
  Stream s(25);
  PowerLawTable table(7, 7, 2.5);
  EXPECT_DOUBLE_EQ(table.mean(), 7.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.sample(s), 7u);
}

TEST(Stream, IndependentStreamsDiverge) {
  Stream a(derive_seed(99, 0)), b(derive_seed(99, 1));
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.uniform01() == b.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

}  // namespace
}  // namespace mvsim::rng
