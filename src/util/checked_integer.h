// Range-checked conversion of a JSON number (a double) to an integer.
//
// static_cast from a double that is out of the target type's range is
// undefined behaviour, and a JSON reader cannot trust its input's
// range. Every reader that turns a number into an integer goes through
// this one helper and turns nullopt into its own error.
#pragma once

#include <cmath>
#include <limits>
#include <optional>
#include <type_traits>

namespace mvsim::util {

/// `value` as a T when it is an exact integer in T's range; nullopt
/// when it is non-finite, fractional or out of range. The range is
/// [min, 2^digits), e.g. [0, 2^64) for uint64: both bounds are exact
/// doubles, so no representable in-range value is refused.
template <typename T>
[[nodiscard]] std::optional<T> checked_integer(double value) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  constexpr double kLowest = static_cast<double>(std::numeric_limits<T>::min());
  constexpr double kPastMax =
      2.0 * static_cast<double>(T{1} << (std::numeric_limits<T>::digits - 1));
  if (!std::isfinite(value) || value != std::floor(value)) return std::nullopt;
  if (value < kLowest || value >= kPastMax) return std::nullopt;
  return static_cast<T>(value);
}

}  // namespace mvsim::util
