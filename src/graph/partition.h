// Contiguous, degree-balanced partition of a contact graph.
//
// The sharded engine (core/sharded_simulation.h) assigns each worker shard a
// contiguous range of phone ids. Contiguity keeps ownership checks a
// two-comparison range test and lets per-shard state stay dense; the
// cut points are chosen so the per-shard *work estimate* — nodes plus
// incident edge endpoints, a proxy for the event traffic a shard will
// carry — is balanced even when the degree sequence is heavily skewed
// (power-law hubs). The partition is a pure function of the graph and
// the shard count, so a fixed (seed, shards) pair always yields the
// same ownership map — part of the determinism contract.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/contact_graph.h"

namespace mvsim::graph {

class Partition {
 public:
  struct Range {
    PhoneId begin = 0;
    PhoneId end = 0;  ///< exclusive
    [[nodiscard]] PhoneId size() const { return end - begin; }
  };

  /// Cuts [0, node_count) into `shards` contiguous ranges whose summed
  /// node weights (1 + degree) are as even as a left-to-right greedy
  /// sweep can make them. Every shard is non-empty; throws
  /// std::invalid_argument when shards == 0 or shards > node_count.
  static Partition degree_balanced(const ContactGraph& graph, std::uint32_t shards);

  /// Equal-width cut ignoring degrees (the degenerate balancer for
  /// graphs the caller knows are degree-uniform, and for tests).
  static Partition uniform(PhoneId node_count, std::uint32_t shards);

  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(bounds_.size() - 1);
  }
  [[nodiscard]] PhoneId node_count() const { return bounds_.back(); }
  [[nodiscard]] Range range(std::uint32_t shard) const {
    return {bounds_[shard], bounds_[shard + 1]};
  }

  /// Owner shard of `id` (binary search over the cut points; the shard
  /// count is small, ids must be < node_count()).
  [[nodiscard]] std::uint32_t shard_of(PhoneId id) const;

  /// Cut points: bounds()[s] .. bounds()[s+1] is shard s's range;
  /// size() == shard_count() + 1, front() == 0, back() == node_count.
  [[nodiscard]] const std::vector<PhoneId>& bounds() const { return bounds_; }

  /// Max over shards of weight(shard) / (total_weight / shards), where
  /// weight is the same 1 + degree estimate the balancer minimizes.
  /// 1.0 is a perfect split; tests pin an upper bound under skew.
  [[nodiscard]] double max_imbalance(const ContactGraph& graph) const;

 private:
  explicit Partition(std::vector<PhoneId> bounds) : bounds_(std::move(bounds)) {}

  std::vector<PhoneId> bounds_;
};

}  // namespace mvsim::graph
