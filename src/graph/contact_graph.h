// Reciprocal contact-list graph.
//
// The paper's phones are connected by reciprocal contact lists ("if
// phone 22 is in the contact list of phone 83, then phone 83 is in the
// contact list of phone 22"), i.e. an undirected simple graph.
// ContactGraph enforces that invariant at construction: adjacency is
// symmetric, self-loop-free and duplicate-free by the time a graph is
// handed to the simulator.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/ids.h"

namespace mvsim::graph {

using mvsim::PhoneId;
using mvsim::kInvalidPhoneId;

class CsrBuilder;

class ContactGraph {
 public:
  /// An undirected edge; normalized so a <= b is not required on input.
  struct Edge {
    PhoneId a;
    PhoneId b;
  };

  /// Builds the graph from an edge list. Throws std::invalid_argument
  /// on self-loops, duplicate edges (in either orientation) or
  /// endpoints >= node_count. Generators avoid this path (they stream
  /// edges through CsrBuilder instead of materializing a list); it
  /// remains the construction route for hand-built graphs and tests,
  /// and pays CsrBuilder::finish's transient 2E-entry transpose scratch.
  ContactGraph(PhoneId node_count, std::span<const Edge> edges);

  /// An empty graph (no edges) over `node_count` phones.
  explicit ContactGraph(PhoneId node_count);

  [[nodiscard]] PhoneId node_count() const { return static_cast<PhoneId>(offsets_.size() - 1); }
  [[nodiscard]] std::size_t edge_count() const { return adjacency_.size() / 2; }

  /// The contact list of `phone`, sorted ascending.
  [[nodiscard]] std::span<const PhoneId> contacts(PhoneId phone) const;

  [[nodiscard]] std::size_t degree(PhoneId phone) const { return contacts(phone).size(); }

  /// True if `a` and `b` are in each other's contact lists.
  [[nodiscard]] bool connected(PhoneId a, PhoneId b) const;

  [[nodiscard]] double average_degree() const;

  /// Heap footprint of the CSR arrays, for the bytes-per-phone budget
  /// the scale tests assert: exactly (n+1)·4 + 2E·4 bytes, whatever
  /// buffer CsrBuilder::finish transposed through.
  [[nodiscard]] std::size_t memory_bytes() const {
    return offsets_.capacity() * sizeof(std::uint32_t) + adjacency_.capacity() * sizeof(PhoneId);
  }

 private:
  friend class CsrBuilder;

  /// Adopts fully-built CSR arrays (CsrBuilder::finish has already
  /// ordered every contact list by its transpose and enforced the
  /// simple-graph invariants).
  ContactGraph(std::vector<std::uint32_t> offsets, std::vector<PhoneId> adjacency)
      : offsets_(std::move(offsets)), adjacency_(std::move(adjacency)) {}

  void check_node(PhoneId phone) const;

  // CSR layout: contacts of phone p are adjacency_[offsets_[p] .. offsets_[p+1]).
  // Offsets are 32-bit on purpose — the adjacency array holds 2*E
  // entries and CsrBuilder rejects graphs past 2^32-1 of them, which at
  // mean degree 80 is ~27M phones, far above any simulated population.
  // At 10^6 nodes this halves the index memory vs size_t offsets.
  std::vector<std::uint32_t> offsets_;
  std::vector<PhoneId> adjacency_;
};

}  // namespace mvsim::graph
