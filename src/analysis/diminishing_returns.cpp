#include "analysis/diminishing_returns.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace mvsim::analysis {

DiminishingReturnsReport analyze_diminishing_returns(
    const std::string& parameter_name, std::vector<std::pair<double, double>> points,
    Stronger stronger, double knee_fraction) {
  if (points.size() < 2) {
    throw std::invalid_argument("analyze_diminishing_returns: need at least two sweep points");
  }
  if (!(knee_fraction > 0.0) || knee_fraction >= 1.0) {
    throw std::invalid_argument("analyze_diminishing_returns: knee_fraction must be in (0, 1)");
  }

  // Weakest first: ascending when a higher value is stronger.
  std::stable_sort(points.begin(), points.end(), [stronger](const auto& a, const auto& b) {
    return stronger == Stronger::kHigher ? a.first < b.first : a.first > b.first;
  });

  DiminishingReturnsReport report;
  report.parameter_name = parameter_name;
  report.knee_fraction = knee_fraction;
  report.gains.reserve(points.size() - 1);
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    const auto& [weak_parameter, weak_final] = points[i];
    const auto& [strong_parameter, strong_final] = points[i + 1];
    MarginalGain gain;
    gain.from_parameter = weak_parameter;
    gain.to_parameter = strong_parameter;
    gain.from_final = weak_final;
    gain.to_final = strong_final;
    gain.infections_avoided = gain.from_final - gain.to_final;
    double step = std::abs(strong_parameter - weak_parameter);
    gain.avoided_per_unit = step > 0.0 ? gain.infections_avoided / step : 0.0;
    report.gains.push_back(gain);
  }

  // Knee: the first step AT OR AFTER the peak-rate step whose per-unit
  // rate drops below knee_fraction of the peak. Low-rate steps before
  // the peak are the mechanism ramping up, not diminishing returns.
  double best_rate = 0.0;
  for (std::size_t i = 0; i < report.gains.size(); ++i) {
    if (report.gains[i].avoided_per_unit > best_rate) {
      best_rate = report.gains[i].avoided_per_unit;
      report.peak_index = i;
    }
  }
  // When no step avoids an infection, strengthening never pays: every
  // step lies past the knee and none reads "worth it".
  report.knee_index = 0;
  if (best_rate > 0.0) {
    report.knee_index = report.gains.size();
    for (std::size_t i = report.peak_index; i < report.gains.size(); ++i) {
      if (report.gains[i].avoided_per_unit < knee_fraction * best_rate) {
        report.knee_index = i;
        break;
      }
    }
  }
  return report;
}

std::string to_table(const DiminishingReturnsReport& report) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-22s %10s %10s %12s %14s %s\n",
                report.parameter_name.c_str(), "final", "final'", "avoided", "avoided/unit",
                "verdict");
  out += line;
  double peak_rate =
      report.gains.empty() ? 0.0 : report.gains[report.peak_index].avoided_per_unit;
  for (std::size_t i = 0; i < report.gains.size(); ++i) {
    const MarginalGain& g = report.gains[i];
    const char* verdict = "worth it";
    if (i >= report.knee_index) {
      verdict = "diminishing";
    } else if (i < report.peak_index && g.avoided_per_unit < report.knee_fraction * peak_rate) {
      verdict = "ramp-up";
    }
    std::snprintf(line, sizeof line, "%8.2f -> %-10.2f %10.1f %10.1f %12.1f %14.2f %s\n",
                  g.from_parameter, g.to_parameter, g.from_final, g.to_final,
                  g.infections_avoided, g.avoided_per_unit, verdict);
    out += line;
  }
  return out;
}

}  // namespace mvsim::analysis
