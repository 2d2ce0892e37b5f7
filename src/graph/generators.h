// Contact-graph generators.
//
// The paper generated its contact-list topology with the NGCE package
// (power-law random graph, 1000 nodes, mean contact-list size 80). We
// rebuild that capability from scratch: a configuration-model power-law
// generator whose degree sequence is tuned to a target mean degree,
// plus Erdős–Rényi, Barabási–Albert and k-regular-ring generators for
// the topology ablation (anchors.Abl1).
#pragma once

#include <cstdint>

#include "graph/contact_graph.h"
#include "rng/stream.h"
#include "util/validation.h"

namespace mvsim::graph {

/// Parameters for the power-law (scale-free-ish) generator.
///
/// Degrees are drawn from a bounded discrete power law
/// P(k) ~ k^(-alpha) on [min_degree, max_degree]; the generator then
/// rescales the distribution's support sampling to hit `target_mean_degree`
/// in expectation, wires stubs configuration-model style, and repairs
/// self-loops/multi-edges by edge swaps.
struct PowerLawConfig {
  PhoneId node_count = 1000;
  double target_mean_degree = 80.0;
  double alpha = 2.0;           ///< power-law exponent (typical social range 2-3)
  std::uint32_t min_degree = 1; ///< floor before rescaling
  std::uint32_t max_degree = 0; ///< 0 = auto (node_count / 3)

  /// Social clustering knob. 0 = pure configuration model (edges
  /// globally random, clustering ~ degree/n). Positive values embed
  /// phones on a ring and pair contact-list stubs with positional
  /// noise of this width (as a fraction of the ring), so nearby phones
  /// share contacts — the triadic structure real address books have
  /// (friends' friends are friends). Smaller = more clustered;
  /// ~0.05-0.15 gives the 0.2-0.4 clustering typical of social graphs.
  double locality_jitter = 0.0;

  [[nodiscard]] ValidationErrors validate() const;
};

/// Power-law contact graph per PowerLawConfig. Deterministic given the
/// stream's seed. The realized mean degree is within a few percent of
/// target for node_count >= ~200 (property-tested).
[[nodiscard]] ContactGraph generate_power_law(const PowerLawConfig& config, rng::Stream& stream);

/// Erdős–Rényi G(n, p) with p chosen to hit `target_mean_degree`.
[[nodiscard]] ContactGraph generate_erdos_renyi(PhoneId node_count, double target_mean_degree,
                                                rng::Stream& stream);

/// Barabási–Albert preferential attachment: each arriving node links to
/// `edges_per_node` distinct existing nodes chosen with probability
/// proportional to degree. Produces a k^-3 tail organically (no degree
/// sequence is imposed); mean degree ~ 2 * edges_per_node. A second,
/// mechanistically different scale-free construction used to check that
/// the epidemic results do not hinge on the configuration-model recipe.
[[nodiscard]] ContactGraph generate_barabasi_albert(PhoneId node_count,
                                                    std::uint32_t edges_per_node,
                                                    rng::Stream& stream);

/// Ring lattice where every phone knows its k nearest neighbours
/// (k even). Fully deterministic; no randomness consumed.
[[nodiscard]] ContactGraph generate_regular_ring(PhoneId node_count, std::uint32_t k);

}  // namespace mvsim::graph
