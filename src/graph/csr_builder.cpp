#include "graph/csr_builder.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace mvsim::graph {

CsrBuilder::CsrBuilder(PhoneId node_count) : node_count_(node_count) {
  offsets_.assign(static_cast<std::size_t>(node_count) + 1, 0);
}

void CsrBuilder::bad_edge(PhoneId a, PhoneId b) const {
  if (a >= node_count_ || b >= node_count_) {
    throw std::invalid_argument("ContactGraph: edge endpoint out of range (" + std::to_string(a) +
                                "," + std::to_string(b) + ")");
  }
  throw std::invalid_argument("ContactGraph: self-loop at phone " + std::to_string(a));
}

void CsrBuilder::order_error(const char* what) { throw std::logic_error(what); }

void CsrBuilder::begin_fill() {
  if (filling_) throw std::logic_error("CsrBuilder: begin_fill called twice");
  filling_ = true;
  if (2 * edge_count_ > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("CsrBuilder: adjacency exceeds 32-bit offset range");
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  adjacency_.resize(static_cast<std::size_t>(2 * edge_count_));
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
}

ContactGraph CsrBuilder::finish(std::vector<PhoneId> scratch) && {
  if (!filling_) {
    // A graph counted but never filled is only valid when empty.
    begin_fill();
  }
  for (PhoneId p = 0; p < node_count_; ++p) {
    if (cursor_[p] != offsets_[p + 1ULL]) {
      throw std::logic_error("CsrBuilder: fill sequence does not match count sequence");
    }
  }
  // Transpose: source s lands in each neighbour t's list in ascending
  // order of s, so every list is sorted. Adjacency is symmetric (each
  // fill_edge placed both directions), so t receives exactly its degree
  // in entries. A duplicate edge (s, t) puts t twice in s's list, which
  // appends s to t's list twice in a row; the first source caught that
  // way is the smallest phone with a duplicate.
  scratch.resize(adjacency_.size());
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for (PhoneId s = 0; s < node_count_; ++s) {
    const std::uint32_t end = offsets_[s + 1ULL];
    for (std::uint32_t i = offsets_[s]; i < end; ++i) {
      const PhoneId t = adjacency_[i];
      std::uint32_t& slot = cursor_[t];
      if (slot != offsets_[t] && scratch[slot - 1] == s) {
        throw std::invalid_argument("ContactGraph: duplicate edge at phone " + std::to_string(s));
      }
      scratch[slot++] = s;
    }
  }
  // Copy back rather than adopt `scratch`: its capacity is the caller's,
  // and the graph keeps the exact-size array.
  std::copy(scratch.begin(), scratch.end(), adjacency_.begin());
  cursor_ = {};
  return ContactGraph(std::move(offsets_), std::move(adjacency_));
}

}  // namespace mvsim::graph
