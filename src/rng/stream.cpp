#include "rng/stream.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace mvsim::rng {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  // Seed all 256 bits of state from SplitMix64, per the xoshiro
  // authors' recommendation (never seed with correlated words).
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64_next(sm);
  // The all-zero state is the one invalid state; SplitMix64 cannot emit
  // four zero words from any seed, but keep the guard explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Xoshiro256::step() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Xoshiro256::result_type Xoshiro256::operator()() {
  ++draws_;
  return step();
}

void Xoshiro256::fill(std::uint64_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = step();
  draws_ += n;
}

void Xoshiro256::jump() {
  static constexpr std::uint64_t kJump[] = {0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL,
                                            0xA9582618E03FC9AAULL, 0x39ABDC4529B1661CULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t jump_word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump_word & (1ULL << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      (*this)();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

void Stream::refill() {
  engine_.fill(buf_, kBatchSize);
  filled_ = kBatchSize;
  cursor_ = 0;
}

void Stream::throw_empty_index_range() {
  throw std::invalid_argument("uniform_index: n must be > 0");
}

std::uint64_t Stream::uniform_index_tail(std::uint64_t n, std::uint64_t r) {
  const std::uint64_t threshold = (~n + 1) % n;  // = 2^64 mod n
  while (r < threshold) r = next_raw();
  return r % n;
}

bool Stream::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Stream::exponential(double mean) {
  if (!(mean > 0.0)) throw std::invalid_argument("exponential: mean must be > 0");
  // -mean * log(U) with U in (0, 1]; uniform01() returns [0,1) so flip.
  return -mean * std::log1p(-uniform01());
}

SimTime Stream::exponential(SimTime mean) {
  return SimTime::minutes(exponential(mean.to_minutes()));
}

SimTime Stream::uniform(SimTime lo, SimTime hi) {
  return SimTime::minutes(uniform(lo.to_minutes(), hi.to_minutes()));
}

std::uint64_t Stream::power_law(std::uint64_t k_min, std::uint64_t k_max, double alpha) {
  PowerLawTable table(k_min, k_max, alpha);
  return table.sample(*this);
}

std::vector<std::uint64_t> Stream::sample_without_replacement(std::uint64_t n, std::uint64_t k) {
  if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
  // Partial Fisher–Yates over an index vector; O(n) setup, fine at the
  // population sizes mvsim uses (<= tens of thousands).
  std::vector<std::uint64_t> indices(n);
  std::iota(indices.begin(), indices.end(), 0ULL);
  for (std::uint64_t i = 0; i < k; ++i) {
    std::uint64_t j = i + uniform_index(n - i);
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

PowerLawTable::PowerLawTable(std::uint64_t k_min, std::uint64_t k_max, double alpha)
    : k_min_(k_min), k_max_(k_max) {
  if (k_min == 0 || k_min > k_max) {
    throw std::invalid_argument("PowerLawTable: require 1 <= k_min <= k_max");
  }
  cdf_.resize(k_max - k_min + 1);
  double total = 0.0;
  double weighted = 0.0;
  for (std::uint64_t k = k_min; k <= k_max; ++k) {
    double w = std::pow(static_cast<double>(k), -alpha);
    total += w;
    weighted += w * static_cast<double>(k);
    cdf_[k - k_min] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding
  mean_ = weighted / total;
}

std::uint64_t PowerLawTable::sample(Stream& stream) const {
  double u = stream.uniform01();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return k_min_ + static_cast<std::uint64_t>(it - cdf_.begin());
}

}  // namespace mvsim::rng
