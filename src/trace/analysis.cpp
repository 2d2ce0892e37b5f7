#include "trace/analysis.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <unordered_map>

namespace mvsim::trace {

namespace {

/// Linear-interpolated quantile of a sorted sample (q in [0, 1]).
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  double rank = q * static_cast<double>(sorted.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

TreeStats analyze(std::span<const Event> events) {
  TreeStats stats;

  // Pass 1: the transmission tree. Events are time-ordered, so a
  // victim's generation is always known before its children arrive.
  std::unordered_map<PhoneId, std::uint32_t> generation;
  std::unordered_map<PhoneId, std::uint64_t> children;
  std::vector<double> infection_hours;
  std::vector<std::uint64_t> per_generation_count;
  std::vector<double> per_generation_time_sum;
  std::vector<std::uint64_t> per_generation_children;

  auto bump_generation = [&](std::uint32_t gen, double hours) {
    if (per_generation_count.size() <= gen) {
      per_generation_count.resize(gen + 1, 0);
      per_generation_time_sum.resize(gen + 1, 0.0);
      per_generation_children.resize(gen + 1, 0);
    }
    ++per_generation_count[gen];
    per_generation_time_sum[gen] += hours;
  };

  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kInfection: {
        ++stats.infections;
        std::uint32_t gen = 0;
        if (e.detail == "seed") {
          ++stats.seeds;
        } else {
          auto parent = e.peer != kInvalidPhoneId ? generation.find(e.peer) : generation.end();
          if (parent == generation.end()) {
            // Infector unknown (trace truncated, or recorded without
            // provenance): keep the node as an extra root.
            ++stats.orphans;
          } else {
            gen = parent->second + 1;
            ++children[e.peer];
          }
          infection_hours.push_back(e.time.to_hours());
          if (e.detail == "bluetooth") {
            ++stats.infections_via_bluetooth;
          } else {
            ++stats.infections_via_mms;
          }
        }
        generation.emplace(e.phone, gen);
        stats.max_generation = std::max(stats.max_generation, gen);
        bump_generation(gen, e.time.to_hours());
        break;
      }
      case EventKind::kMessageSent:
        ++stats.messages_sent;
        break;
      case EventKind::kMessageDelivered:
        ++stats.messages_delivered;
        break;
      case EventKind::kMessageBlocked: {
        ++stats.messages_blocked;
        auto row = std::find_if(stats.mechanism_blocks.begin(), stats.mechanism_blocks.end(),
                                [&](const MechanismBlockRow& r) { return r.mechanism == e.detail; });
        if (row == stats.mechanism_blocks.end()) {
          stats.mechanism_blocks.push_back({e.detail, 0, 0, 0});
          row = std::prev(stats.mechanism_blocks.end());
        }
        ++row->messages_blocked;
        if (e.phone != kInvalidPhoneId && generation.count(e.phone) > 0) {
          // The sender is a known node of the transmission tree, so
          // this block pruned a live branch.
          ++row->chains_truncated;
          row->recipients_spared += e.value;
        }
        break;
      }
      case EventKind::kDetectabilityCrossed:
        if (!stats.detected_at.is_finite()) stats.detected_at = e.time;
        break;
      case EventKind::kPatchApplied:
      case EventKind::kReboot:
      case EventKind::kMechanismAction:
        break;
    }
  }

  // Pass 2: per-generation children (the parents' generations are
  // final only after all infections are seen — bounded capture can
  // interleave arbitrarily, and orphans re-root subtrees).
  for (const auto& [phone, kids] : children) {
    auto it = generation.find(phone);
    if (it == generation.end()) continue;
    per_generation_children[it->second] += kids;
  }

  for (std::uint32_t gen = 0; gen < per_generation_count.size(); ++gen) {
    GenerationRow row;
    row.generation = gen;
    row.infections = per_generation_count[gen];
    row.mean_time_hours =
        row.infections > 0 ? per_generation_time_sum[gen] / static_cast<double>(row.infections)
                           : 0.0;
    row.effective_r = row.infections > 0 ? static_cast<double>(per_generation_children[gen]) /
                                               static_cast<double>(row.infections)
                                         : 0.0;
    stats.generations.push_back(row);
  }

  std::sort(infection_hours.begin(), infection_hours.end());
  stats.time_to_infection_p10 = quantile_sorted(infection_hours, 0.10);
  stats.time_to_infection_p50 = quantile_sorted(infection_hours, 0.50);
  stats.time_to_infection_p90 = quantile_sorted(infection_hours, 0.90);

  return stats;
}

void write_report(const TreeStats& stats, std::ostream& out) {
  char line[160];
  auto emit = [&out](const char* text) { out << text; };

  emit("transmission tree\n");
  std::snprintf(line, sizeof line,
                "  infections: %llu (%llu seed, %llu mms, %llu bluetooth, %llu orphan)\n",
                static_cast<unsigned long long>(stats.infections),
                static_cast<unsigned long long>(stats.seeds),
                static_cast<unsigned long long>(stats.infections_via_mms),
                static_cast<unsigned long long>(stats.infections_via_bluetooth),
                static_cast<unsigned long long>(stats.orphans));
  emit(line);
  std::snprintf(line, sizeof line, "  generation depth: %u\n", stats.max_generation);
  emit(line);
  if (stats.detected_at.is_finite()) {
    std::snprintf(line, sizeof line, "  detectability crossed: %.2f h\n",
                  stats.detected_at.to_hours());
    emit(line);
  }
  std::snprintf(line, sizeof line,
                "  time to infection (h): p10 %.2f, p50 %.2f, p90 %.2f\n",
                stats.time_to_infection_p10, stats.time_to_infection_p50,
                stats.time_to_infection_p90);
  emit(line);

  emit("\ngeneration  infections  mean_time_h  effective_R\n");
  for (const GenerationRow& row : stats.generations) {
    std::snprintf(line, sizeof line, "%10u  %10llu  %11.2f  %11.2f\n", row.generation,
                  static_cast<unsigned long long>(row.infections), row.mean_time_hours,
                  row.effective_r);
    emit(line);
  }

  std::snprintf(line, sizeof line,
                "\nmessages: %llu sent, %llu blocked, %llu delivered\n",
                static_cast<unsigned long long>(stats.messages_sent),
                static_cast<unsigned long long>(stats.messages_blocked),
                static_cast<unsigned long long>(stats.messages_delivered));
  emit(line);
  if (!stats.mechanism_blocks.empty()) {
    emit("\nmechanism            blocked  chains_truncated  recipients_spared\n");
    for (const MechanismBlockRow& row : stats.mechanism_blocks) {
      std::snprintf(line, sizeof line, "%-18s  %7llu  %16llu  %17llu\n", row.mechanism.c_str(),
                    static_cast<unsigned long long>(row.messages_blocked),
                    static_cast<unsigned long long>(row.chains_truncated),
                    static_cast<unsigned long long>(row.recipients_spared));
      emit(line);
    }
  }
  if (stats.dropped > 0) {
    std::snprintf(line, sizeof line,
                  "\nwarning: capture dropped %llu event(s); statistics cover the kept prefix\n",
                  static_cast<unsigned long long>(stats.dropped));
    emit(line);
  }
}

}  // namespace mvsim::trace
