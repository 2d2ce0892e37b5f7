// Structural statistics over a ContactGraph.
//
// Used by property tests (degree targets, connectivity of generated
// topologies) and by the topology-ablation anchors to report what kind
// of network each generator actually produced.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/contact_graph.h"

namespace mvsim::graph {

struct DegreeStats {
  std::size_t min = 0;
  std::size_t max = 0;
  double mean = 0.0;
  double stddev = 0.0;
  /// histogram[d] = number of phones with degree d.
  std::vector<std::size_t> histogram;
};

[[nodiscard]] DegreeStats degree_stats(const ContactGraph& graph);

struct ComponentStats {
  std::size_t component_count = 0;
  std::size_t largest_size = 0;
  /// Fraction of phones inside the largest connected component.
  double largest_fraction = 0.0;
};

[[nodiscard]] ComponentStats component_stats(const ContactGraph& graph);

/// component id per phone (ids are dense, 0-based, ordered by discovery).
[[nodiscard]] std::vector<std::uint32_t> component_labels(const ContactGraph& graph);

/// Global clustering coefficient (3 x triangles / open triads);
/// O(sum of degree^2) — fine at mvsim scales.
[[nodiscard]] double global_clustering_coefficient(const ContactGraph& graph);

}  // namespace mvsim::graph
