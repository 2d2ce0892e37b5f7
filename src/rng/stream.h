// Random-number stream with the samplers the simulator needs.
//
// A Stream owns one xoshiro256** engine seeded through SplitMix64.
// Components never share streams: the Simulation derives one stream per
// phone plus one per infrastructure component, so adding a sampler call
// in one place cannot perturb the sequence seen elsewhere (a classic
// reproducibility trap in DES codebases).
//
// Raw outputs are drawn in batches: the engine refills a fixed buffer
// of 64 words and samplers consume them one load at a time via
// next_raw(). Batching changes neither the sequence nor its
// consumption order — sampler k sees exactly the word it saw when the
// engine was stepped per call — so replication curves stay
// bit-identical; it only moves the recurrence out of the per-sample
// path. Refills are lazy (first sample triggers the first batch) and
// draw_count() reports *consumed* words, so telemetry is unchanged too.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rng/seed.h"
#include "util/sim_time.h"

namespace mvsim::rng {

/// xoshiro256** 1.0 — small, fast, passes BigCrush; state is 4x64 bits.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed);

  using result_type = std::uint64_t;
  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~0ULL; }
  result_type operator()();

  /// Writes the next `n` outputs into `out` — the exact sequence `n`
  /// operator() calls would produce, with the draw counter bumped once.
  void fill(std::uint64_t* out, std::size_t n);

  /// 2^128 jump — advances as if 2^128 calls were made. Used by tests
  /// to verify stream-splitting never overlaps in practice.
  void jump();

  /// Raw outputs drawn via operator() since construction (jump() does
  /// not count). Telemetry only; counting never perturbs the sequence.
  [[nodiscard]] std::uint64_t draw_count() const { return draws_; }

 private:
  std::uint64_t step();  // one recurrence step, uncounted

  std::uint64_t s_[4];
  std::uint64_t draws_ = 0;
};

/// High-level sampler facade over Xoshiro256.
class Stream {
 public:
  /// Words per refill. Big enough to amortize the refill loop, small
  /// enough that an idle stream wastes at most 512 bytes of lookahead.
  static constexpr std::size_t kBatchSize = 64;

  explicit Stream(std::uint64_t seed) : engine_(seed) {}

  /// Next raw engine word. The hot primitive every sampler sits on:
  /// one load and one increment, plus a buffer refill every
  /// kBatchSize-th call.
  [[nodiscard]] std::uint64_t next_raw() {
    if (cursor_ == filled_) refill();
    return buf_[cursor_++];
  }

  /// Uniform in [0, 1).
  [[nodiscard]] double uniform01() {
    // 53 random bits into [0, 1) — the standard double conversion.
    return static_cast<double>(next_raw() >> 11) * 0x1.0p-53;
  }
  /// Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }
  /// Uniform integer in [0, n). Requires n > 0; n == 0 throws
  /// std::invalid_argument without consuming a word.
  ///
  /// Unbiased by rejection: a raw word r is rejected only when
  /// r < 2^64 mod n, and is otherwise mapped to r % n. That threshold
  /// is always < n, so a word r >= n is accepted without computing it
  /// (one division), and a power of two has threshold 0 and keeps r's
  /// low bits (no division). Only r < n, which has probability n/2^64,
  /// reaches the out-of-line tail; it computes the threshold and draws
  /// exactly the words the plain rejection loop would, so values and
  /// draw_count() are those of that loop.
  [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n) {
    if (n == 0) throw_empty_index_range();
    const std::uint64_t r = next_raw();
    if ((n & (n - 1)) == 0) return r & (n - 1);
    if (r >= n) return r % n;
    return uniform_index_tail(n, r);
  }
  /// True with probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p);
  /// Exponential with the given mean. Requires mean > 0.
  [[nodiscard]] double exponential(double mean);

  /// Exponentially distributed duration with the given mean duration.
  [[nodiscard]] SimTime exponential(SimTime mean);
  /// Uniform duration in [lo, hi).
  [[nodiscard]] SimTime uniform(SimTime lo, SimTime hi);

  /// Discrete bounded power-law (Zipf-like): value k in [k_min, k_max]
  /// with P(k) proportional to k^(-alpha). Sampled by inversion over the
  /// precomputed CDF owned by the caller (see PowerLawTable) or, here,
  /// by rejection for one-off use. Requires 1 <= k_min <= k_max.
  [[nodiscard]] std::uint64_t power_law(std::uint64_t k_min, std::uint64_t k_max, double alpha);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Sample k distinct indices from [0, n) (k <= n), order randomized.
  [[nodiscard]] std::vector<std::uint64_t> sample_without_replacement(std::uint64_t n,
                                                                      std::uint64_t k);

  /// Raw engine outputs this stream has consumed (telemetry). Words
  /// the batch buffer has generated but not yet served are excluded,
  /// so the count matches what an unbatched stream would report.
  [[nodiscard]] std::uint64_t draw_count() const {
    return engine_.draw_count() - (filled_ - cursor_);
  }

 private:
  void refill();
  [[noreturn]] static void throw_empty_index_range();
  /// The rejection loop of uniform_index() for a first word r < n.
  std::uint64_t uniform_index_tail(std::uint64_t n, std::uint64_t r);

  Xoshiro256 engine_;
  std::uint64_t buf_[kBatchSize];
  std::size_t cursor_ = 0;
  std::size_t filled_ = 0;
};

/// Precomputed inversion table for a bounded discrete power law; use
/// when many samples share (k_min, k_max, alpha), e.g. graph degrees.
class PowerLawTable {
 public:
  PowerLawTable(std::uint64_t k_min, std::uint64_t k_max, double alpha);

  [[nodiscard]] std::uint64_t sample(Stream& stream) const;
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] std::uint64_t k_min() const { return k_min_; }
  [[nodiscard]] std::uint64_t k_max() const { return k_max_; }

 private:
  std::uint64_t k_min_;
  std::uint64_t k_max_;
  std::vector<double> cdf_;  // cdf_[i] = P(K <= k_min + i)
  double mean_ = 0.0;
};

}  // namespace mvsim::rng
