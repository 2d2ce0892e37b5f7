// Strong type for simulation time.
//
// All of mvsim measures time in *minutes* stored as double. The paper's
// figures report hours and its virus definitions mix minutes ("waits at
// least 30 minutes"), hours ("initial one-hour dormancy") and days
// ("30 messages per 24-hour period"); a strong type with named
// constructors removes the unit-confusion class of bugs entirely.
#pragma once

#include <compare>
#include <iosfwd>
#include <limits>
#include <string>

namespace mvsim {

/// A point in (or duration of) simulation time, internally in minutes.
///
/// SimTime is used both as an absolute timestamp (minutes since the
/// start of the simulation, which is the moment phone 0 is infected)
/// and as a duration; arithmetic between the two behaves as expected.
class SimTime {
 public:
  constexpr SimTime() = default;

  /// Named constructors: the only way to make a SimTime from a number.
  [[nodiscard]] static constexpr SimTime minutes(double m) { return SimTime{m}; }
  [[nodiscard]] static constexpr SimTime seconds(double s) { return SimTime{s / 60.0}; }
  [[nodiscard]] static constexpr SimTime hours(double h) { return SimTime{h * 60.0}; }
  [[nodiscard]] static constexpr SimTime days(double d) { return SimTime{d * 24.0 * 60.0}; }
  [[nodiscard]] static constexpr SimTime zero() { return SimTime{0.0}; }
  [[nodiscard]] static constexpr SimTime infinity() {
    return SimTime{std::numeric_limits<double>::infinity()};
  }

  [[nodiscard]] constexpr double to_minutes() const { return minutes_; }
  [[nodiscard]] constexpr double to_seconds() const { return minutes_ * 60.0; }
  [[nodiscard]] constexpr double to_hours() const { return minutes_ / 60.0; }
  [[nodiscard]] constexpr double to_days() const { return minutes_ / (24.0 * 60.0); }

  [[nodiscard]] constexpr bool is_finite() const {
    return minutes_ != std::numeric_limits<double>::infinity() &&
           minutes_ != -std::numeric_limits<double>::infinity();
  }
  [[nodiscard]] constexpr bool is_nonnegative() const { return minutes_ >= 0.0; }

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime& operator+=(SimTime rhs) {
    minutes_ += rhs.minutes_;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime rhs) {
    minutes_ -= rhs.minutes_;
    return *this;
  }

  friend constexpr SimTime operator+(SimTime a, SimTime b) { return SimTime{a.minutes_ + b.minutes_}; }
  friend constexpr SimTime operator-(SimTime a, SimTime b) { return SimTime{a.minutes_ - b.minutes_}; }
  friend constexpr SimTime operator*(SimTime a, double k) { return SimTime{a.minutes_ * k}; }
  friend constexpr SimTime operator*(double k, SimTime a) { return SimTime{a.minutes_ * k}; }
  friend constexpr SimTime operator/(SimTime a, double k) { return SimTime{a.minutes_ / k}; }
  /// Ratio of two times (e.g. how many windows fit in an interval).
  friend constexpr double operator/(SimTime a, SimTime b) { return a.minutes_ / b.minutes_; }

  /// "123.5 min" — human-readable, used in logs and error messages.
  [[nodiscard]] std::string to_string() const;

 private:
  explicit constexpr SimTime(double m) : minutes_(m) {}
  double minutes_ = 0.0;
};

[[nodiscard]] constexpr SimTime min(SimTime a, SimTime b) { return a < b ? a : b; }
[[nodiscard]] constexpr SimTime max(SimTime a, SimTime b) { return a < b ? b : a; }

/// Writes `time.to_string()`, so a failed test assertion on two times
/// prints them in their natural unit.
std::ostream& operator<<(std::ostream& out, SimTime time);

}  // namespace mvsim
