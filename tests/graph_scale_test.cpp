// Tests for the streamed CSR construction path and the shared-graph
// cache: pinned pre-refactor fingerprints (the generators must emit
// byte-identical graphs and consume identical RNG draw counts through
// any internal restructuring), streamed-vs-materialized equivalence,
// and GraphCache reuse/rebuild/stream-restore semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/contact_graph.h"
#include "graph/csr_builder.h"
#include "graph/generators.h"
#include "graph/graph_cache.h"
#include "rng/stream.h"

namespace mvsim::graph {
namespace {

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Order-sensitive digest of the full CSR content (degrees + sorted
/// contact lists). Two graphs with equal fingerprints are structurally
/// identical for the simulator's purposes.
std::uint64_t graph_fingerprint(const ContactGraph& g) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv(h, g.node_count());
  h = fnv(h, g.edge_count());
  for (PhoneId p = 0; p < g.node_count(); ++p) {
    h = fnv(h, g.degree(p));
    for (PhoneId c : g.contacts(p)) h = fnv(h, c);
  }
  return h;
}

/// Recovers the (a < b) edge list from a built graph.
std::vector<ContactGraph::Edge> extract_edges(const ContactGraph& g) {
  std::vector<ContactGraph::Edge> edges;
  edges.reserve(g.edge_count());
  for (PhoneId a = 0; a < g.node_count(); ++a) {
    for (PhoneId b : g.contacts(a)) {
      if (a < b) edges.push_back({a, b});
    }
  }
  return edges;
}

// ---- Pinned pre-refactor fingerprints ----
//
// Captured at the materialized-edge-vector HEAD immediately before the
// streaming refactor. These pin BOTH the graph content and the RNG
// draw count: a generator change that alters either breaks the golden
// curves, and this test localizes the break to the generator.

TEST(GeneratorFingerprint, PowerLawDefaultMatchesPreRefactor) {
  PowerLawConfig plc;  // paper defaults: n=1000, mean 80, alpha 2
  rng::Stream s(0x9e3779b97f4a7c15ull);
  ContactGraph g = generate_power_law(plc, s);
  EXPECT_EQ(graph_fingerprint(g), 0xa22a8033c09d766full);
  EXPECT_EQ(s.draw_count(), 97615u);
}

TEST(GeneratorFingerprint, PowerLawJitterMatchesPreRefactor) {
  PowerLawConfig plc;
  plc.node_count = 2500;
  plc.target_mean_degree = 12.0;
  plc.alpha = 2.6;
  plc.locality_jitter = 0.08;
  rng::Stream s(42);
  ContactGraph g = generate_power_law(plc, s);
  EXPECT_EQ(graph_fingerprint(g), 0x87c158e91ae64c63ull);
  EXPECT_EQ(s.draw_count(), 37171u);
}

TEST(GeneratorFingerprint, ErdosRenyiMatchesPreRefactor) {
  rng::Stream s(7);
  ContactGraph g = generate_erdos_renyi(3000, 9.5, s);
  EXPECT_EQ(graph_fingerprint(g), 0x43eef0797687ed2full);
  EXPECT_EQ(s.draw_count(), 14311u);
}

TEST(GeneratorFingerprint, BarabasiAlbertMatchesPreRefactor) {
  rng::Stream s(1234567);
  ContactGraph g = generate_barabasi_albert(2000, 4, s);
  EXPECT_EQ(graph_fingerprint(g), 0x2c9b6f9818b4bc85ull);
  EXPECT_EQ(s.draw_count(), 8051u);
}

TEST(GeneratorFingerprint, RegularRingMatchesPreRefactor) {
  ContactGraph g = generate_regular_ring(1000, 8);
  EXPECT_EQ(graph_fingerprint(g), 0xd8b36e4814ed8de9ull);
}

// ---- Streamed vs materialized construction ----
//
// The generators stream edges through CsrBuilder (two passes, no O(E)
// edge vector). Rebuilding from the extracted edge list through the
// public span constructor — the materialized path — must produce an
// identical CSR.

TEST(StreamedCsr, PowerLawEqualsMaterializedRebuild) {
  PowerLawConfig plc;
  plc.node_count = 800;
  plc.target_mean_degree = 20.0;
  rng::Stream s(99);
  ContactGraph streamed = generate_power_law(plc, s);
  std::vector<ContactGraph::Edge> edges = extract_edges(streamed);
  ContactGraph rebuilt(streamed.node_count(), edges);
  EXPECT_EQ(graph_fingerprint(rebuilt), graph_fingerprint(streamed));
}

TEST(StreamedCsr, ErdosRenyiEqualsMaterializedRebuild) {
  rng::Stream s(5);
  ContactGraph streamed = generate_erdos_renyi(1200, 7.0, s);
  std::vector<ContactGraph::Edge> edges = extract_edges(streamed);
  ContactGraph rebuilt(streamed.node_count(), edges);
  EXPECT_EQ(graph_fingerprint(rebuilt), graph_fingerprint(streamed));
}

TEST(StreamedCsr, BuilderRejectsBadEdges) {
  CsrBuilder builder(10);
  EXPECT_THROW(builder.count_edge(3, 3), std::invalid_argument);  // self-loop
  EXPECT_THROW(builder.count_edge(0, 10), std::invalid_argument);  // out of range
}

TEST(StreamedCsr, BuilderRejectsDuplicateEdges) {
  CsrBuilder builder(4);
  builder.count_edge(0, 1);
  builder.count_edge(1, 0);
  builder.begin_fill();
  builder.fill_edge(0, 1);
  builder.fill_edge(1, 0);
  EXPECT_THROW(std::move(builder).finish(), std::invalid_argument);

  // Duplicates buried in a larger list, each in both orientations and
  // out of id order: the message names the smallest phone that has a
  // duplicate (7, from the 7-12 pair), not the first one emitted (9).
  std::vector<ContactGraph::Edge> edges;
  for (PhoneId p = 0; p < 20; ++p) edges.push_back({p, static_cast<PhoneId>((p + 1) % 20)});
  edges.insert(edges.begin() + 3, {15, 9});
  edges.insert(edges.begin() + 8, {12, 7});
  edges.insert(edges.begin() + 14, {9, 15});
  edges.push_back({7, 12});
  try {
    ContactGraph g(20, edges);
    FAIL() << "duplicate edges must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "ContactGraph: duplicate edge at phone 7");
  }
}

TEST(StreamedCsr, FinishGivesOneGraphWhateverTheScratchBuffer) {
  // An unsorted fill: the Erdős–Rényi edges shuffled, with every other
  // edge reversed, so each contact list leaves the fill pass out of order.
  rng::Stream s(11);
  const ContactGraph reference = generate_erdos_renyi(600, 9.0, s);
  std::vector<ContactGraph::Edge> edges = extract_edges(reference);
  s.shuffle(std::span<ContactGraph::Edge>(edges));
  for (std::size_t i = 0; i < edges.size(); i += 2) std::swap(edges[i].a, edges[i].b);

  const auto build = [&](std::vector<PhoneId> scratch) {
    CsrBuilder builder(reference.node_count());
    for (const auto& e : edges) builder.count_edge(e.a, e.b);
    builder.begin_fill();
    for (const auto& e : edges) builder.fill_edge(e.a, e.b);
    return std::move(builder).finish(std::move(scratch));
  };
  std::vector<PhoneId> spare;
  spare.reserve(3 * edges.size());
  spare.assign(2 * edges.size(), kInvalidPhoneId);
  const ContactGraph graphs[] = {
      build({}),                                         // no buffer
      build(std::vector<PhoneId>(2 * edges.size(), 0)),  // exact size
      build(std::move(spare)),                           // spare capacity
  };
  const std::size_t expected_bytes =
      (reference.node_count() + 1ULL) * sizeof(std::uint32_t) + 2 * edges.size() * sizeof(PhoneId);
  for (const ContactGraph& g : graphs) {
    EXPECT_EQ(graph_fingerprint(g), graph_fingerprint(reference));
    EXPECT_EQ(g.memory_bytes(), expected_bytes);
  }
}

TEST(StreamedCsr, EmptyBuilderYieldsEmptyGraph) {
  CsrBuilder builder(5);
  ContactGraph g = std::move(builder).finish();
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
}

// ---- GraphCache ----

CachedGraph build_ring(PhoneId n, std::uint32_t k, std::uint64_t seed) {
  rng::Stream stream(seed);
  (void)stream.uniform01();  // consume one word so post-build state is distinctive
  auto g = std::make_shared<const ContactGraph>(generate_regular_ring(n, k));
  return {std::move(g), stream};
}

TEST(GraphCache, SameKeyReusesGraphObject) {
  GraphCache cache;
  GraphCacheKey key{123, 456};
  auto first = cache.get_or_build(key, [] { return build_ring(100, 4, 1); });
  auto second = cache.get_or_build(key, [] { return build_ring(100, 4, 1); });
  EXPECT_EQ(first->graph.get(), second->graph.get()) << "hit must share the same object";
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(GraphCache, DifferentSeedOrParamsRebuilds) {
  GraphCache cache;
  auto a = cache.get_or_build({1, 10}, [] { return build_ring(100, 4, 1); });
  auto b = cache.get_or_build({2, 10}, [] { return build_ring(100, 4, 2); });
  auto c = cache.get_or_build({1, 11}, [] { return build_ring(100, 6, 1); });
  EXPECT_NE(a->graph.get(), b->graph.get());
  EXPECT_NE(a->graph.get(), c->graph.get());
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(GraphCache, HitRestoresPostBuildStreamState) {
  GraphCache cache;
  GraphCacheKey key{77, 0};
  auto built = cache.get_or_build(key, [] { return build_ring(50, 4, 77); });
  auto hit = cache.get_or_build(key, [] { return build_ring(50, 4, 77); });
  // The cached stream must replay identically: same state, same
  // subsequent draws, same draw_count (rng.draws telemetry relies on
  // the count surviving the round-trip).
  rng::Stream replay_a = built->post_build_stream;
  rng::Stream replay_b = hit->post_build_stream;
  EXPECT_EQ(replay_a.draw_count(), replay_b.draw_count());
  for (int i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(replay_a.uniform01(), replay_b.uniform01());
  }
}

TEST(GraphCache, EvictsLeastRecentlyUsedAtCapacity) {
  GraphCache cache(2);
  auto a = cache.get_or_build({1, 0}, [] { return build_ring(10, 2, 1); });
  auto b = cache.get_or_build({2, 0}, [] { return build_ring(10, 2, 2); });
  (void)cache.get_or_build({1, 0}, [] { return build_ring(10, 2, 1); });  // touch a
  auto c = cache.get_or_build({3, 0}, [] { return build_ring(10, 2, 3); });  // evicts b
  EXPECT_EQ(cache.size(), 2u);
  auto a_again = cache.get_or_build({1, 0}, [] { return build_ring(10, 2, 1); });
  EXPECT_EQ(a_again->graph.get(), a->graph.get()) << "recently-used entry survived";
  auto b_again = cache.get_or_build({2, 0}, [] { return build_ring(10, 2, 2); });
  EXPECT_NE(b_again->graph.get(), b->graph.get()) << "LRU entry was evicted and rebuilt";
}

TEST(GraphCache, BuilderExceptionEvictsEntryAndRethrows) {
  GraphCache cache;
  GraphCacheKey key{9, 9};
  EXPECT_THROW(cache.get_or_build(key, []() -> CachedGraph {
    throw std::runtime_error("build failed");
  }), std::runtime_error);
  EXPECT_EQ(cache.size(), 0u) << "failed build must not poison the key";
  auto ok = cache.get_or_build(key, [] { return build_ring(10, 2, 9); });
  EXPECT_NE(ok->graph, nullptr);
}

}  // namespace
}  // namespace mvsim::graph
