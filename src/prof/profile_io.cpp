#include "prof/profile_io.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "prof/profiler.h"

namespace mvsim::prof {

namespace {

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

double mean_of(const metrics::HistogramSample& h) {
  return h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
}

}  // namespace

double histogram_quantile(const metrics::HistogramSample& histogram, double q) {
  if (histogram.count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(histogram.count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < histogram.bucket_counts.size(); ++i) {
    const std::uint64_t in_bucket = histogram.bucket_counts[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      if (i >= histogram.upper_bounds.size()) return histogram.max;  // overflow bucket
      const double lower = i == 0 ? std::min(histogram.min, histogram.upper_bounds[0])
                                  : histogram.upper_bounds[i - 1];
      const double upper = histogram.upper_bounds[i];
      const double into = (rank - static_cast<double>(cumulative)) /
                          static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::clamp(into, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return histogram.max;
}

void write_profile_report(const metrics::ReportInfo& info, const metrics::Snapshot& snapshot,
                          std::ostream& out, int top_n) {
  struct EventRow {
    const char* name;
    const metrics::HistogramSample* histogram;
  };
  std::vector<EventRow> rows;
  double event_wall_ms = 0.0;
  for (std::size_t i = 0; i < des::kEventTypeCount; ++i) {
    const des::EventType type = static_cast<des::EventType>(i);
    const metrics::HistogramSample* h = snapshot.find_histogram(event_metric_name(type));
    if (h == nullptr) continue;
    rows.push_back({des::to_string(type), h});
    event_wall_ms += h->sum / 1000.0;  // histogram is microseconds
  }
  if (rows.empty()) {
    throw std::invalid_argument(
        "no profile data: the metrics report has no prof.* histograms (run with --profile)");
  }
  std::stable_sort(rows.begin(), rows.end(), [](const EventRow& a, const EventRow& b) {
    return a.histogram->sum > b.histogram->sum;
  });

  out << "profile: " << info.scenario << " (" << info.replications << " replication(s), "
      << info.threads << " thread(s))\n";

  bool phase_header = false;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const Phase phase = static_cast<Phase>(i);
    const metrics::HistogramSample* h = snapshot.find_histogram(phase_metric_name(phase));
    if (h == nullptr) continue;
    if (!phase_header) out << "-- phases (wall-clock across replications) --\n";
    phase_header = true;
    char line[160];
    std::snprintf(line, sizeof line, "  %-10s %10.2f ms total, %8.2f ms mean\n",
                  to_string(phase), h->sum, mean_of(*h));
    out << line;
  }

  out << "-- where the time goes (event loop) --\n";
  out << "  event type                     count   total ms  share    mean us     p90 us\n";
  int printed = 0;
  for (const EventRow& row : rows) {
    if (top_n > 0 && printed >= top_n) break;
    const metrics::HistogramSample& h = *row.histogram;
    if (h.count == 0 && event_wall_ms > 0.0) continue;
    const double total_ms = h.sum / 1000.0;
    char line[200];
    std::snprintf(line, sizeof line, "  %-26s %10.0f %10.2f %5.1f%% %10.2f %10.2f\n", row.name,
                  static_cast<double>(h.count), total_ms,
                  100.0 * (event_wall_ms > 0.0 ? total_ms / event_wall_ms : 0.0), mean_of(h),
                  histogram_quantile(h, 0.90));
    out << line;
    ++printed;
  }
  // Event time is a decomposition of the run phase (the event loop),
  // not of the whole replication (build dominates small runs); fall
  // back to replication wall-clock for reports without phase data.
  const metrics::HistogramSample* run_phase =
      snapshot.find_histogram(phase_metric_name(Phase::kRun));
  double denominator = run_phase != nullptr ? run_phase->sum : 0.0;
  const char* denominator_label = "run-phase";
  if (denominator <= 0.0) {
    const metrics::HistogramSample* wall = snapshot.find_histogram("timing.replication_wall_ms");
    denominator = wall != nullptr ? wall->sum : 0.0;
    denominator_label = "replication";
  }
  if (denominator > 0.0) {
    out << "coverage: " << fmt(event_wall_ms, 2) << " ms attributed to events of "
        << fmt(denominator, 2) << " ms " << denominator_label << " wall-clock ("
        << fmt(100.0 * event_wall_ms / denominator, 1) << "%)\n";
  }
}

}  // namespace mvsim::prof
