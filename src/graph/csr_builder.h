// Streaming CSR construction.
//
// Generators used to materialize a full O(E) edge vector and hand it
// to ContactGraph's two-pass constructor. CsrBuilder exposes those two
// passes directly so a generator can instead *emit* its edge sequence
// twice — count pass, then fill pass — and never own an edge list at
// all. For stochastic generators the second emission replays the first
// bit-identically by running the count pass on a copy of the RNG
// stream and the fill pass on the real one (rng::Stream is a value
// type; copying captures the exact mid-sequence state).
//
// Usage:
//   CsrBuilder b(n);
//   for (edge e : sequence) b.count_edge(e.a, e.b);   // pass 1
//   b.begin_fill();
//   for (edge e : sequence) b.fill_edge(e.a, e.b);    // same sequence
//   ContactGraph g = std::move(b).finish(std::move(spent_edges));
//
// The fill pass leaves each contact list in emission order. finish()
// orders them without a comparison sort: one transpose walks the
// sources in ascending order and appends each source to its
// neighbours' lists, so every list comes out sorted and a duplicate
// edge shows up as the same source appended twice in a row. It
// enforces the simple-graph invariants with the same
// std::invalid_argument contract as the ContactGraph edge-list
// constructor (self-loop, duplicate edge, endpoint out of range).
//
// Peak memory. The transpose needs a 2E-entry target. A generator that
// kept its edges in a buffer of its own (two PhoneIds per edge) no
// longer reads it once the fill pass is over, so it hands that spent
// buffer to finish(), which transposes into it and copies the result
// back over the exact-size adjacency array: the build never holds more
// than the generator's edges plus the adjacency, and the graph's
// footprint is (n+1)·4 + 2E·4 bytes whatever the buffer's capacity. Callers with
// no buffer (the Erdős–Rényi and ring generators, which stream their
// edges, and the edge-list constructor) let finish() allocate it, a
// transient 2E·4-byte scratch on top of the adjacency.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/contact_graph.h"

namespace mvsim::graph {

class CsrBuilder {
 public:
  explicit CsrBuilder(PhoneId node_count);

  /// Pass 1: tally one undirected edge. Validates endpoints eagerly so
  /// a bad edge is reported at its first appearance. Inline (as is
  /// fill_edge), so a generator's emission loop keeps the arrays in
  /// registers; the throws live out of line.
  void count_edge(PhoneId a, PhoneId b) {
    if (filling_) order_error("CsrBuilder: count_edge after begin_fill");
    check_edge(a, b);
    ++offsets_[a + 1ULL];
    ++offsets_[b + 1ULL];
    ++edge_count_;
  }

  /// Seals pass 1: prefix-sums the per-node counts and allocates the
  /// adjacency array. Throws std::length_error if the graph needs more
  /// than 2^32-1 adjacency entries (the documented 32-bit offset limit).
  void begin_fill();

  /// Pass 2: place one undirected edge. The fill sequence must repeat
  /// the count sequence (checked: a mismatch overruns a node's slot
  /// range and throws std::logic_error).
  void fill_edge(PhoneId a, PhoneId b) {
    if (!filling_) order_error("CsrBuilder: fill_edge before begin_fill");
    check_edge(a, b);
    const std::uint32_t slot_a = cursor_[a]++;
    const std::uint32_t slot_b = cursor_[b]++;
    if (slot_a >= offsets_[a + 1ULL] || slot_b >= offsets_[b + 1ULL]) {
      order_error("CsrBuilder: fill sequence does not match count sequence");
    }
    adjacency_[slot_a] = b;
    adjacency_[slot_b] = a;
  }

  /// Orders every contact list by transposing into `scratch` (any
  /// contents, overwritten; grown to 2E entries if smaller), rejects
  /// duplicate edges naming the smallest phone that has one, and adopts
  /// the arrays into a ContactGraph. Consumes the builder.
  [[nodiscard]] ContactGraph finish(std::vector<PhoneId> scratch = {}) &&;

 private:
  void check_edge(PhoneId a, PhoneId b) const {
    if (a >= node_count_ || b >= node_count_ || a == b) bad_edge(a, b);
  }
  [[noreturn]] void bad_edge(PhoneId a, PhoneId b) const;
  [[noreturn]] static void order_error(const char* what);

  PhoneId node_count_;
  bool filling_ = false;
  std::uint64_t edge_count_ = 0;
  // During pass 1 this holds per-node degree counts at [p + 1]; after
  // begin_fill it is the final offset array, with cursor_ tracking each
  // node's next free adjacency slot (and, in finish(), its next free
  // transpose slot).
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> cursor_;
  std::vector<PhoneId> adjacency_;
};

}  // namespace mvsim::graph
