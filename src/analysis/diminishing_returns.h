// Diminishing-returns analysis (paper §5.3).
//
// "We can still assume that there are increasing costs associated with
// implementing a stronger version of the same response mechanism.
// Given this, the results of our experiments are useful for locating
// the point of diminishing returns for each individual response
// mechanism, the point where implementing a faster or more accurate
// response mechanism does not much improve the success rate."
//
// Given a sweep's points in any order and which end of the parameter
// is the stronger response, this module orders the points from weakest
// to strongest, computes the infections avoided by each strengthening
// step (normalized per unit of parameter change) and locates the knee:
// the first step at or after the best step whose per-unit gain falls
// below a fraction of that best gain.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "analysis/param_registry.h"

namespace mvsim::analysis {

struct MarginalGain {
  double from_parameter = 0.0;
  double to_parameter = 0.0;
  double from_final = 0.0;
  double to_final = 0.0;
  /// Infections avoided by this strengthening step (can be negative
  /// when noise dominates a saturated mechanism).
  double infections_avoided = 0.0;
  /// Avoided per unit of |parameter change|.
  double avoided_per_unit = 0.0;
};

struct DiminishingReturnsReport {
  std::string parameter_name;
  std::vector<MarginalGain> gains;  ///< weakest -> strongest
  /// A step earning under this fraction of the best per-unit rate is
  /// low-rate: past the knee after the peak, ramp-up before it.
  double knee_fraction = 0.2;
  /// Index of the step with the best per-unit rate. Low-rate steps
  /// *before* it are "ramp-up" (the mechanism has not started biting
  /// yet — e.g. a detector below ~0.9 accuracy barely matters), not
  /// diminishing returns.
  std::size_t peak_index = 0;
  /// Index into `gains` of the first step past the knee — the first
  /// low-rate step at or after the peak (== gains.size() when every
  /// step from the peak onward still pays off; 0 when no step avoids
  /// any infection).
  std::size_t knee_index = 0;
  /// True when some step lies past the knee.
  [[nodiscard]] bool has_knee() const { return knee_index < gains.size(); }
  /// True when the strongest settings studied still earn at full rate —
  /// the response is convex (returns increase with strength) and the
  /// provider should buy as much strength as it can afford.
  [[nodiscard]] bool returns_still_increasing() const {
    return !gains.empty() && peak_index == gains.size() - 1 && !has_knee();
  }
};

/// `points` are (parameter, mean final infections) pairs in any order
/// — a sweep's points or one ladder of an experiment ledger. They are
/// ordered weakest -> strongest by `stronger` before the steps are
/// taken. `knee_fraction` is the cutoff relative to the best per-unit
/// gain (default: a step earning less than 20% of the best step's rate
/// is past the point of diminishing returns).
[[nodiscard]] DiminishingReturnsReport analyze_diminishing_returns(
    const std::string& parameter_name, std::vector<std::pair<double, double>> points,
    Stronger stronger, double knee_fraction = 0.2);

/// Renders the report as an aligned text table (for the CLI).
[[nodiscard]] std::string to_table(const DiminishingReturnsReport& report);

}  // namespace mvsim::analysis
