// The `mvsim profile-analyze` "where the time goes" report.
//
// A profile is not a file format of its own: `mvsim run --profile PATH`
// writes the ordinary `--metrics` JSON report of a profiled run, whose
// `prof.*` histograms (see profiler.h) carry the phase and event-type
// wall-clock. This report renders those histograms
// directly from a metrics::Snapshot, so it reads any metrics report of
// a profiled run.
#pragma once

#include <iosfwd>

#include "metrics/registry.h"
#include "metrics/report.h"

namespace mvsim::prof {

/// Estimated quantile (q in [0,1]) from a histogram's buckets, by
/// linear interpolation inside the winning bucket; the overflow bucket
/// reports the observed max. 0 for an empty histogram. An estimate,
/// not an exact order statistic — fine for a "where the time goes"
/// table, and cheap enough to compute per report.
[[nodiscard]] double histogram_quantile(const metrics::HistogramSample& histogram, double q);

/// The human-readable top-N table: phases, event types sorted by total
/// time descending
/// (top_n <= 0 prints all), then the coverage line (event time as a
/// fraction of the run phase). Throws std::invalid_argument when the
/// snapshot has no `prof.*` event histograms (the run was not
/// profiled).
void write_profile_report(const metrics::ReportInfo& info, const metrics::Snapshot& snapshot,
                          std::ostream& out, int top_n = 0);

}  // namespace mvsim::prof
