// Transmission-tree analytics over a causal event trace.
//
// The trace's infection events carry (victim, infector, message id),
// which is exactly a transmission tree: patient zero at generation 0,
// everyone it infected at generation 1, and so on. This module
// reconstructs that tree and derives the quantities the response-time
// literature judges mechanisms by — generation depth, the
// secondary-infection distribution (effective R per generation),
// time-to-infection quantiles — plus per-mechanism block attribution:
// how many in-transit messages each mechanism stopped, how many of
// those truncated a live infection chain, and how many prospective
// recipients that spared.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "trace/trace.h"
#include "util/sim_time.h"

namespace mvsim::trace {

/// One generation of the transmission tree (0 = seeded patient zero).
struct GenerationRow {
  std::uint32_t generation = 0;
  std::uint64_t infections = 0;
  /// Mean infection time of this generation, hours since t=0.
  double mean_time_hours = 0.0;
  /// Mean secondary infections caused per member — the effective
  /// reproduction number R observed at this generation.
  double effective_r = 0.0;
};

/// Block attribution for one response mechanism.
struct MechanismBlockRow {
  std::string mechanism;
  /// In-transit messages this mechanism stopped.
  std::uint64_t messages_blocked = 0;
  /// Blocked messages whose sender was already infected — each one a
  /// truncated branch of the transmission tree.
  std::uint64_t chains_truncated = 0;
  /// Valid recipients on those blocked messages: exposure that never
  /// happened.
  std::uint64_t recipients_spared = 0;
};

struct TreeStats {
  // Tree shape.
  std::uint64_t infections = 0;  ///< total infection events
  std::uint64_t seeds = 0;       ///< patient-zero roots (channel "seed")
  /// Infections whose infector never appeared in the trace (possible
  /// under bounded capture); treated as extra generation-0 roots.
  std::uint64_t orphans = 0;
  std::uint32_t max_generation = 0;
  std::vector<GenerationRow> generations;

  // Channels.
  std::uint64_t infections_via_mms = 0;
  std::uint64_t infections_via_bluetooth = 0;

  // Time to infection (hours since t=0, non-seed infections).
  double time_to_infection_p10 = 0.0;
  double time_to_infection_p50 = 0.0;
  double time_to_infection_p90 = 0.0;

  // Traffic and attribution.
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_blocked = 0;
  std::uint64_t messages_delivered = 0;
  std::vector<MechanismBlockRow> mechanism_blocks;  ///< first-seen order

  SimTime detected_at = SimTime::infinity();
  /// Events the capture dropped (from the exporter's meta record); the
  /// statistics above describe only what was kept.
  std::uint64_t dropped = 0;
};

/// Reconstructs the transmission tree and attribution tables from a
/// time-ordered event span. Tolerant of truncated traces: unknown
/// infectors become orphan roots rather than errors.
[[nodiscard]] TreeStats analyze(std::span<const Event> events);

/// Human-readable report (the `mvsim trace-analyze` output).
void write_report(const TreeStats& stats, std::ostream& out);

}  // namespace mvsim::trace
