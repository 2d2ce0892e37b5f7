// Two-sample statistics for engine-equivalence tests: do two engines
// (or two builds of one engine) sample the same distribution?
//
// Test-only; the simulator itself never needs them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "stats/aggregate.h"

namespace mvsim::test_stats {

/// Two-sample Kolmogorov–Smirnov statistic: the largest vertical gap
/// between the two empirical CDFs. Tied values step both CDFs together.
inline double ks_statistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] == x) ++i;
    while (j < b.size() && b[j] == x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / na - static_cast<double>(j) / nb));
  }
  return d;
}

/// Asymptotic p-value of a two-sample KS statistic `d` for sample
/// sizes `n` and `m`: the Kolmogorov distribution's tail with Stephens'
/// small-sample correction. Ties make it conservative (too large).
inline double ks_p_value(double d, std::size_t n, std::size_t m) {
  const double ne = static_cast<double>(n) * static_cast<double>(m) /
                    static_cast<double>(n + m);
  const double root = std::sqrt(ne);
  const double lambda = (root + 0.12 + 0.11 / root) * d;
  if (lambda < 1e-3) return 1.0;
  double sum = 0.0;
  double sign = 1.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = sign * std::exp(-2.0 * k * k * lambda * lambda);
    sum += term;
    if (std::abs(term) < 1e-12) break;
    sign = -sign;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

inline double ks_p_value(const std::vector<double>& a, const std::vector<double>& b) {
  return ks_p_value(ks_statistic(a, b), a.size(), b.size());
}

inline stats::Accumulator accumulate(const std::vector<double>& xs) {
  stats::Accumulator acc;
  for (double x : xs) acc.add(x);
  return acc;
}

/// True when `b`'s mean lies inside `a`'s 95% confidence interval.
inline bool mean_within_ci(const std::vector<double>& a, const std::vector<double>& b) {
  const stats::Accumulator ca = accumulate(a);
  return std::abs(accumulate(b).mean() - ca.mean()) <= ca.ci95_half_width();
}

}  // namespace mvsim::test_stats
