// The two curve CSVs.
//
// `mvsim run --curve-csv` writes one experiment's mean infection curve
// with its spread; `mvsim sweep --curve-csv` writes a figure as a CSV
// table of Hours vs mean infection count per configuration.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "stats/aggregate.h"
#include "util/sim_time.h"

namespace mvsim::stats {

/// Curve CSV: hours, mean_infected, stddev, ci95, min, max; one row
/// per grid point.
void write_curve_csv(std::ostream& out, const AggregatedSeries& curve);

/// One labelled curve of a figure (e.g. "24-Hour Delay").
struct LabelledSeries {
  std::string label;
  const AggregatedSeries* series = nullptr;
};

/// Writes a figure as CSV: first column Hours, one column per curve,
/// rows every `row_step` (coarser than the aggregation grid is fine).
/// All series must share the aggregation grid.
void write_figure_csv(std::ostream& out, const std::vector<LabelledSeries>& curves,
                      SimTime row_step);

}  // namespace mvsim::stats
