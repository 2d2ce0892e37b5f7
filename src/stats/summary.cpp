#include "stats/summary.h"

#include <cstdio>
#include <stdexcept>

#include "util/csv.h"

namespace mvsim::stats {

namespace {
std::string fixed(double v, int precision = 1) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}
}  // namespace

void write_curve_csv(std::ostream& out, const AggregatedSeries& curve) {
  CsvWriter csv(out);
  csv.header({"hours", "mean_infected", "stddev", "ci95", "min", "max"});
  for (const auto& point : curve.grid()) {
    csv.row(point.time.to_hours(), point.mean, point.stddev, point.ci95, point.min, point.max);
  }
}

void write_figure_csv(std::ostream& out, const std::vector<LabelledSeries>& curves,
                      SimTime row_step) {
  if (curves.empty()) throw std::invalid_argument("write_figure_csv: no curves");
  const AggregatedSeries& first = *curves.front().series;
  for (const auto& c : curves) {
    if (c.series == nullptr) throw std::invalid_argument("write_figure_csv: null series");
    if (c.series->step() != first.step() || c.series->horizon() != first.horizon()) {
      throw std::invalid_argument("write_figure_csv: curves on different grids");
    }
  }
  out << "Hours";
  for (const auto& c : curves) out << ',' << c.label;
  out << '\n';
  for (SimTime t = SimTime::zero(); t <= first.horizon(); t += row_step) {
    out << fixed(t.to_hours());
    for (const auto& c : curves) out << ',' << fixed(c.series->mean_at(t));
    out << '\n';
  }
}

}  // namespace mvsim::stats
