// Registry of sweepable scenario parameters.
//
// `mvsim sweep --param NAME --values ...` varies one knob of a base
// scenario across a ladder of values; this registry names the knobs
// and knows how to apply a value to a ScenarioConfig. Every parameter
// the paper sweeps (Figs. 2-7: activation delay, detection accuracy,
// educated acceptance, immunization rollout, forced wait, blacklist
// threshold) is here, plus the population/behavior knobs sensitivity
// studies vary (which get no knee analysis). Applying a mechanism
// parameter enables the mechanism (with defaults for its other knobs)
// when the base scenario does not already carry it, so `mvsim sweep
// virus1-baseline --param gateway_scan.activation_delay_h ...` works
// without a handcrafted scenario file.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/scenario.h"

namespace mvsim::analysis {

/// Which end of a parameter's range is the stronger response (the one
/// expected to leave fewer infections): a shorter delay, a lower
/// threshold, a higher accuracy.
enum class Stronger { kHigher, kLower };

struct SweepableParam {
  const char* name;         ///< e.g. "gateway_scan.activation_delay_h"
  const char* unit;         ///< e.g. "hours"
  const char* description;  ///< one line for `mvsim sweep --list-params`
  /// Orders a ladder for the knee analysis. None for a property of the
  /// phone population (its size, the vulnerable share, the baseline
  /// acceptance), which no provider's response sets: a "worth it"
  /// verdict on it has no meaning.
  std::optional<Stronger> stronger;
  /// Sets the knob to the value; false when the knob is an integer
  /// and the value is fractional or out of its range.
  bool (*apply)(core::ScenarioConfig&, double);
};

/// All sweepable parameters, in stable listing order.
[[nodiscard]] const std::vector<SweepableParam>& sweepable_params();

/// nullptr when `name` is not a sweepable parameter.
[[nodiscard]] const SweepableParam* find_sweepable(const std::string& name);

}  // namespace mvsim::analysis
