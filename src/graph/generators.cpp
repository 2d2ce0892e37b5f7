#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/csr_builder.h"

namespace mvsim::graph {

namespace {

/// Packs an undirected edge into one normalized key for duplicate
/// detection.
std::uint64_t edge_key(PhoneId a, PhoneId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Open-addressing membership set for normalized edge keys.
///
/// std::unordered_set costs ~40 bytes per edge (node allocation +
/// bucket pointer); this flat table costs 8 bytes per slot at ~60%
/// peak load. Two keys can never occur as real edges — 0 is the
/// self-loop (0,0) and 2^64-1 the self-loop (max,max), both rejected
/// before insertion — so they serve as the empty and tombstone
/// markers and no separate occupancy bitmap is needed.
class FlatEdgeSet {
 public:
  explicit FlatEdgeSet(std::size_t expected) { rehash(slots_for(expected)); }

  bool insert(std::uint64_t key) {
    if (used_ + 1 > (slots_.size() * 3) / 5) rehash(slots_.size() * 2);
    std::size_t i = probe(key);
    if (slots_[i] == key) return false;
    if (slots_[i] == kEmpty) ++used_;  // reusing a tombstone keeps used_
    slots_[i] = key;
    ++size_;
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t key) const { return slots_[probe(key)] == key; }

  void erase(std::uint64_t key) {
    std::size_t i = probe(key);
    if (slots_[i] != key) return;
    slots_[i] = kTombstone;
    --size_;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Releases the table (the CSR build that follows no longer needs
  /// membership queries).
  void free_memory() {
    slots_ = {};
    size_ = used_ = 0;
  }

 private:
  static constexpr std::uint64_t kEmpty = 0;                        // self-loop (0,0)
  static constexpr std::uint64_t kTombstone = ~std::uint64_t{0};    // self-loop (max,max)

  static std::size_t slots_for(std::size_t expected) {
    std::size_t n = 16;
    while (n * 3 < expected * 5) n *= 2;  // keep load below 60%
    return n;
  }

  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xFF51'AFD7'ED55'8CCDull;
    x ^= x >> 33;
    x *= 0xC4CE'B9FE'1A85'EC53ull;
    x ^= x >> 33;
    return x;
  }

  /// Index of `key` if present, else of the slot where it would be
  /// inserted (first tombstone on the probe path, or the empty slot).
  [[nodiscard]] std::size_t probe(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix(key)) & mask;
    std::size_t first_tombstone = slots_.size();
    while (true) {
      if (slots_[i] == key) return i;
      if (slots_[i] == kEmpty) {
        return first_tombstone != slots_.size() ? first_tombstone : i;
      }
      if (slots_[i] == kTombstone && first_tombstone == slots_.size()) first_tombstone = i;
      i = (i + 1) & mask;
    }
  }

  void rehash(std::size_t new_slots) {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(new_slots, 16), kEmpty);
    size_ = used_ = 0;
    for (std::uint64_t key : old) {
      if (key == kEmpty || key == kTombstone) continue;
      std::size_t i = probe(key);
      slots_[i] = key;
      ++size_;
      ++used_;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;
  std::size_t used_ = 0;  ///< occupied + tombstoned (governs rehash)
};

/// Builds the graph from a flat endpoint sequence (edge i is
/// endpoints[2i], endpoints[2i+1]): count and fill straight from the
/// buffer, then hand the spent buffer to finish() as its transpose
/// target, so the build needs no memory beyond the buffer and the CSR.
ContactGraph build_from_endpoints(PhoneId node_count, std::vector<PhoneId> endpoints) {
  CsrBuilder builder(node_count);
  for (std::size_t i = 0; i + 1 < endpoints.size(); i += 2) {
    builder.count_edge(endpoints[i], endpoints[i + 1]);
  }
  builder.begin_fill();
  for (std::size_t i = 0; i + 1 < endpoints.size(); i += 2) {
    builder.fill_edge(endpoints[i], endpoints[i + 1]);
  }
  return std::move(builder).finish(std::move(endpoints));
}

/// The power-law generator's working edge set: an insertion-ordered,
/// orientation-preserving flat endpoint sequence (two PhoneIds, 8
/// bytes, per edge — the repair pass reads edge endpoints
/// asymmetrically, so orientation matters) plus flat membership.
/// build() streams it into CsrBuilder and then hands the sequence over
/// as the transpose buffer — the O(E) ContactGraph::Edge vector never
/// exists and the ordering pass allocates nothing.
class EdgeStore {
 public:
  explicit EdgeStore(std::size_t expected) : seen_(expected) { ends_.reserve(2 * expected); }

  bool try_add(PhoneId a, PhoneId b) {
    if (a == b) return false;
    if (!seen_.insert(edge_key(a, b))) return false;
    ends_.push_back(a);
    ends_.push_back(b);
    return true;
  }

  [[nodiscard]] bool contains(PhoneId a, PhoneId b) const {
    return seen_.contains(edge_key(a, b));
  }

  void replace(std::size_t index, PhoneId a, PhoneId b) {
    seen_.erase(edge_key(this->a(index), this->b(index)));
    seen_.insert(edge_key(a, b));
    ends_[2 * index] = a;
    ends_[2 * index + 1] = b;
  }

  void remove(std::size_t index) {
    seen_.erase(edge_key(a(index), b(index)));
    ends_[2 * index] = ends_[ends_.size() - 2];
    ends_[2 * index + 1] = ends_.back();
    ends_.resize(ends_.size() - 2);
  }

  [[nodiscard]] std::size_t size() const { return ends_.size() / 2; }
  [[nodiscard]] bool empty() const { return ends_.empty(); }
  [[nodiscard]] PhoneId a(std::size_t index) const { return ends_[2 * index]; }
  [[nodiscard]] PhoneId b(std::size_t index) const { return ends_[2 * index + 1]; }

  /// Streams the accumulated edges into a ContactGraph; frees the
  /// membership table before allocating the CSR so the two never
  /// coexist at full size. Consumes the edge sequence.
  [[nodiscard]] ContactGraph build(PhoneId node_count) {
    seen_.free_memory();
    return build_from_endpoints(node_count, std::move(ends_));
  }

 private:
  std::vector<PhoneId> ends_;
  FlatEdgeSet seen_;
};

/// The bounded power-law pmf the degree sampler draws from, kept
/// locally so the scale calibration can evaluate clamped expectations.
struct DegreeLaw {
  DegreeLaw(std::uint64_t k_min, std::uint64_t k_max, double alpha) : k_min_(k_min) {
    double total = 0.0;
    pmf_.reserve(k_max - k_min + 1);
    for (std::uint64_t k = k_min; k <= k_max; ++k) {
      double w = std::pow(static_cast<double>(k), -alpha);
      pmf_.push_back(w);
      total += w;
    }
    for (double& p : pmf_) p /= total;
  }

  /// E[clamp(scale * K, 1, cap)] — strictly increasing in scale until
  /// every mass point saturates at the cap.
  [[nodiscard]] double clamped_mean(double scale, double cap) const {
    double expectation = 0.0;
    for (std::size_t i = 0; i < pmf_.size(); ++i) {
      double value = scale * static_cast<double>(k_min_ + i);
      expectation += pmf_[i] * std::clamp(value, 1.0, cap);
    }
    return expectation;
  }

  /// Smallest scale whose clamped mean reaches `target` (bisection).
  [[nodiscard]] double solve_scale(double target, double cap) const {
    double lo = 0.0, hi = 1.0;
    while (clamped_mean(hi, cap) < target && hi < 1e9) hi *= 2.0;
    for (int iter = 0; iter < 100; ++iter) {
      double mid = 0.5 * (lo + hi);
      if (clamped_mean(mid, cap) < target) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return 0.5 * (lo + hi);
  }

  std::uint64_t k_min_;
  std::vector<double> pmf_;
};

}  // namespace

ValidationErrors PowerLawConfig::validate() const {
  ValidationErrors errors("PowerLawConfig");
  errors.require(node_count >= 2, "node_count must be >= 2");
  errors.require(target_mean_degree > 0.0, "target_mean_degree must be positive");
  errors.require(target_mean_degree < static_cast<double>(node_count),
                 "target_mean_degree must be < node_count");
  errors.require(alpha > 0.0, "alpha must be positive");
  errors.require(min_degree >= 1, "min_degree must be >= 1");
  errors.require(locality_jitter >= 0.0, "locality_jitter must be >= 0");
  if (max_degree != 0) {
    errors.require(max_degree >= min_degree, "max_degree must be >= min_degree");
    errors.require(max_degree < node_count, "max_degree must be < node_count");
  }
  return errors;
}

ContactGraph generate_power_law(const PowerLawConfig& config, rng::Stream& stream) {
  config.validate().throw_if_invalid();
  const PhoneId n = config.node_count;
  std::uint32_t max_degree = config.max_degree;
  if (max_degree == 0) max_degree = std::max<std::uint32_t>(config.min_degree, n / 3);
  max_degree = std::min<std::uint32_t>(max_degree, n - 1);

  // Draw raw power-law degrees, then rescale so the expected mean hits
  // the target. Rescaling preserves the heavy-tailed *shape* — which is
  // all the paper relies on — while pinning the mean contact-list size
  // (80 in the paper's setup). The scale is calibrated against the
  // clamped expectation: naive scaling undershoots whenever the tail
  // would exceed the n-1 degree cap.
  rng::PowerLawTable table(config.min_degree, max_degree, config.alpha);
  DegreeLaw law(config.min_degree, max_degree, config.alpha);
  // max_degree caps the *final* contact-list size: nobody's address
  // book holds a third of the subscriber base. Without this cap the
  // scaled tail produces degree-(n-1) super-hubs that let a burst virus
  // cover the whole network in one generation.
  const double cap = static_cast<double>(max_degree);
  const double scale = law.solve_scale(config.target_mean_degree, cap);

  std::vector<std::uint32_t> degrees(n);
  for (auto& d : degrees) {
    double scaled = std::clamp(static_cast<double>(table.sample(stream)) * scale, 1.0, cap);
    // Stochastic rounding keeps the mean unbiased.
    auto floor_part = static_cast<std::uint32_t>(scaled);
    double frac = scaled - floor_part;
    std::uint32_t value = floor_part + (stream.bernoulli(frac) ? 1U : 0U);
    d = std::clamp<std::uint32_t>(value, 1U, max_degree);
  }

  // The stub count must be even for pairing.
  std::uint64_t stub_total = std::accumulate(degrees.begin(), degrees.end(), std::uint64_t{0});
  if (stub_total % 2 == 1) {
    auto bump = static_cast<std::size_t>(stream.uniform_index(n));
    if (degrees[bump] < n - 1) {
      ++degrees[bump];
    } else {
      --degrees[bump];
    }
    ++stub_total;  // parity flipped either way; value only used for reserve below
  }

  // Configuration model: one stub per degree unit, paired after either
  // a uniform shuffle (locality_jitter == 0) or a sort by ring position
  // plus positional noise. The latter pairs stubs of nearby phones, so
  // contact lists overlap locally and the graph acquires the triadic
  // clustering of real social networks while keeping the exact degree
  // sequence.
  std::vector<PhoneId> stubs;
  stubs.reserve(static_cast<std::size_t>(stub_total));
  for (PhoneId p = 0; p < n; ++p) {
    stubs.insert(stubs.end(), degrees[p], p);
  }
  if (config.locality_jitter <= 0.0) {
    stream.shuffle(std::span<PhoneId>(stubs));
  } else {
    std::vector<std::pair<double, PhoneId>> keyed;
    keyed.reserve(stubs.size());
    for (PhoneId p : stubs) {
      double position = static_cast<double>(p) / static_cast<double>(n);
      double key = position + config.locality_jitter * stream.uniform(-0.5, 0.5);
      key -= std::floor(key);  // wrap around the ring
      keyed.emplace_back(key, p);
    }
    std::sort(keyed.begin(), keyed.end());
    for (std::size_t i = 0; i < keyed.size(); ++i) stubs[i] = keyed[i].second;
  }

  EdgeStore acc(stubs.size() / 2);
  std::vector<PhoneId> leftovers;  // stubs whose pairing collided
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    if (!acc.try_add(stubs[i], stubs[i + 1])) {
      leftovers.push_back(stubs[i]);
      leftovers.push_back(stubs[i + 1]);
    }
  }
  stubs = {};

  // Repair pass: rewire collided stub pairs through random edge swaps.
  // For leftover pair (u, v) pick an existing edge (x, y) and replace it
  // with (u, x) and (v, y) when all constraints hold. A bounded number
  // of attempts per pair keeps generation O(edges) with high probability;
  // irreparable pairs are dropped (shaves < 1% off the mean degree).
  constexpr int kMaxAttemptsPerPair = 64;
  for (std::size_t i = 0; i + 1 < leftovers.size(); i += 2) {
    PhoneId u = leftovers[i];
    PhoneId v = leftovers[i + 1];
    if (acc.try_add(u, v)) continue;
    bool repaired = false;
    for (int attempt = 0; attempt < kMaxAttemptsPerPair && !acc.empty(); ++attempt) {
      auto index = static_cast<std::size_t>(stream.uniform_index(acc.size()));
      PhoneId x = acc.a(index), y = acc.b(index);
      if (u == x || u == y || v == x || v == y) continue;
      if (acc.contains(u, x) || acc.contains(v, y)) continue;
      acc.replace(index, u, x);
      acc.try_add(v, y);  // cannot collide: checked above and (x,y) removed
      repaired = true;
      break;
    }
    if (!repaired) {
      // Drop the pair; realized degree of u and v falls short by one.
    }
  }

  // Exact-mean pass: collisions (dense graphs, hub-heavy sequences)
  // bleed a few percent of edges; top up with uniform random edges —
  // or trim — until the realized mean degree matches the target. The
  // correction is a small fraction of the edge set, so the power-law
  // shape is untouched.
  const auto target_edges = static_cast<std::size_t>(
      std::llround(config.target_mean_degree * static_cast<double>(n) / 2.0));
  std::uint64_t attempts = 0;
  const std::uint64_t max_attempts = 200ULL * (target_edges + 16);
  while (acc.size() < target_edges && attempts++ < max_attempts) {
    auto a = static_cast<PhoneId>(stream.uniform_index(n));
    auto b = static_cast<PhoneId>(stream.uniform_index(n));
    acc.try_add(a, b);
  }
  while (acc.size() > target_edges) {
    acc.remove(static_cast<std::size_t>(stream.uniform_index(acc.size())));
  }

  return acc.build(n);
}

ContactGraph generate_erdos_renyi(PhoneId node_count, double target_mean_degree,
                                  rng::Stream& stream) {
  if (node_count < 2) throw std::invalid_argument("generate_erdos_renyi: node_count must be >= 2");
  if (!(target_mean_degree > 0.0) || target_mean_degree >= static_cast<double>(node_count)) {
    throw std::invalid_argument("generate_erdos_renyi: mean degree out of range");
  }
  // In G(n, p) the mean degree is p * (n - 1).
  const double p = target_mean_degree / static_cast<double>(node_count - 1);
  // Geometric skipping: iterate only over present edges, O(edges).
  const double log1mp = std::log1p(-p);
  const std::uint64_t total_pairs = static_cast<std::uint64_t>(node_count) * (node_count - 1) / 2;
  auto emit = [&](rng::Stream& s, auto&& sink) {
    std::uint64_t position = 0;
    while (true) {
      double u = s.uniform01();
      auto skip = static_cast<std::uint64_t>(std::floor(std::log1p(-u) / log1mp));
      position += skip;
      if (position >= total_pairs) break;
      // Unrank `position` into (a, b), a < b: row a has (n-1-a) pairs.
      std::uint64_t remaining = position;
      PhoneId a = 0;
      std::uint64_t row = node_count - 1;
      while (remaining >= row) {
        remaining -= row;
        --row;
        ++a;
      }
      PhoneId b = static_cast<PhoneId>(a + 1 + remaining);
      sink(a, b);
      ++position;
    }
  };

  // Clone-replay streaming: the count pass runs on a copy of the
  // stream, the fill pass on the real one — both see the identical
  // draw sequence and the caller-visible stream advances exactly as a
  // single pass would, so no edge list is ever materialized and the
  // RNG telemetry is unchanged. With no spent buffer to offer, finish()
  // allocates a transient 2E-entry transpose scratch.
  CsrBuilder builder(node_count);
  {
    rng::Stream counting = stream;
    emit(counting, [&](PhoneId a, PhoneId b) { builder.count_edge(a, b); });
  }
  builder.begin_fill();
  emit(stream, [&](PhoneId a, PhoneId b) { builder.fill_edge(a, b); });
  return std::move(builder).finish();
}

ContactGraph generate_barabasi_albert(PhoneId node_count, std::uint32_t edges_per_node,
                                      rng::Stream& stream) {
  if (edges_per_node == 0) {
    throw std::invalid_argument("generate_barabasi_albert: edges_per_node must be >= 1");
  }
  if (node_count <= edges_per_node) {
    throw std::invalid_argument("generate_barabasi_albert: node_count must exceed edges_per_node");
  }
  // Seed graph: a clique over the first m+1 nodes, so every early node
  // has nonzero degree and attachment is well-defined.
  const std::uint32_t m = edges_per_node;
  // The repeated-endpoints trick: sampling a uniform entry of this list
  // IS degree-proportional sampling. Consecutive pairs of the list are
  // exactly the accepted edges in insertion order, so it doubles as the
  // edge sequence for the CSR build and no separate edge vector exists;
  // once spent it is also finish()'s transpose buffer.
  FlatEdgeSet seen(static_cast<std::size_t>(node_count) * m);
  std::vector<PhoneId> endpoints;
  endpoints.reserve(2ULL * node_count * m);
  auto try_add = [&](PhoneId a, PhoneId b) {
    if (a == b) return false;
    if (!seen.insert(edge_key(a, b))) return false;
    endpoints.push_back(a);
    endpoints.push_back(b);
    return true;
  };
  for (PhoneId a = 0; a <= m; ++a) {
    for (PhoneId b = a + 1; b <= m; ++b) try_add(a, b);
  }
  for (PhoneId arrival = m + 1; arrival < node_count; ++arrival) {
    std::uint32_t attached = 0;
    // Rejection keeps targets distinct; with m far below the graph
    // size the expected retry count is negligible.
    std::uint32_t guard = 0;
    while (attached < m && guard++ < 100 * m) {
      PhoneId target = endpoints[static_cast<std::size_t>(stream.uniform_index(endpoints.size()))];
      if (try_add(arrival, target)) ++attached;
    }
  }
  seen.free_memory();
  return build_from_endpoints(node_count, std::move(endpoints));
}

ContactGraph generate_regular_ring(PhoneId node_count, std::uint32_t k) {
  if (node_count < 3) throw std::invalid_argument("generate_regular_ring: node_count must be >= 3");
  if (k % 2 != 0) throw std::invalid_argument("generate_regular_ring: k must be even");
  if (k >= node_count) throw std::invalid_argument("generate_regular_ring: k must be < node_count");
  // Deterministic sequence: emit it twice straight into the builder
  // (finish() allocates its transient transpose scratch).
  auto emit = [&](auto&& sink) {
    for (PhoneId p = 0; p < node_count; ++p) {
      for (std::uint32_t offset = 1; offset <= k / 2; ++offset) {
        PhoneId q = static_cast<PhoneId>((p + offset) % node_count);
        sink(p, q);
      }
    }
  };
  CsrBuilder builder(node_count);
  emit([&](PhoneId a, PhoneId b) { builder.count_edge(a, b); });
  builder.begin_fill();
  emit([&](PhoneId a, PhoneId b) { builder.fill_edge(a, b); });
  return std::move(builder).finish();
}

}  // namespace mvsim::graph
