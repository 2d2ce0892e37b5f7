// Unit tests for src/graph: ContactGraph invariants, generators and
// stats.
#include <gtest/gtest.h>

#include "graph/contact_graph.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "rng/stream.h"

namespace mvsim::graph {
namespace {

ContactGraph triangle() {
  std::vector<ContactGraph::Edge> edges{{0, 1}, {1, 2}, {2, 0}};
  return ContactGraph(3, edges);
}

TEST(ContactGraph, EmptyGraphHasNoEdges) {
  ContactGraph g(5);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.contacts(0).empty());
  EXPECT_DOUBLE_EQ(g.average_degree(), 0.0);
}

TEST(ContactGraph, AdjacencyIsReciprocal) {
  ContactGraph g = triangle();
  for (PhoneId a = 0; a < 3; ++a) {
    for (PhoneId b : g.contacts(a)) {
      EXPECT_TRUE(g.connected(b, a)) << a << "<->" << b;
    }
  }
}

TEST(ContactGraph, ContactsAreSorted) {
  std::vector<ContactGraph::Edge> edges{{0, 3}, {0, 1}, {0, 2}};
  ContactGraph g(4, edges);
  auto list = g.contacts(0);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], 1u);
  EXPECT_EQ(list[1], 2u);
  EXPECT_EQ(list[2], 3u);
}

TEST(ContactGraph, ConnectedQueries) {
  ContactGraph g = triangle();
  EXPECT_TRUE(g.connected(0, 1));
  EXPECT_FALSE(ContactGraph(3, std::vector<ContactGraph::Edge>{{0, 1}}).connected(0, 2));
}

TEST(ContactGraph, RejectsSelfLoops) {
  std::vector<ContactGraph::Edge> edges{{1, 1}};
  EXPECT_THROW(ContactGraph(3, edges), std::invalid_argument);
}

TEST(ContactGraph, RejectsDuplicateEdgesEitherOrientation) {
  std::vector<ContactGraph::Edge> dup1{{0, 1}, {0, 1}};
  EXPECT_THROW(ContactGraph(3, dup1), std::invalid_argument);
  std::vector<ContactGraph::Edge> dup2{{0, 1}, {1, 0}};
  EXPECT_THROW(ContactGraph(3, dup2), std::invalid_argument);
}

TEST(ContactGraph, RejectsOutOfRangeEndpoints) {
  std::vector<ContactGraph::Edge> edges{{0, 3}};
  EXPECT_THROW(ContactGraph(3, edges), std::invalid_argument);
}

TEST(ContactGraph, OutOfRangeQueriesThrow) {
  ContactGraph g = triangle();
  EXPECT_THROW((void)g.contacts(3), std::out_of_range);
  EXPECT_THROW((void)g.degree(7), std::out_of_range);
  EXPECT_THROW((void)g.connected(0, 9), std::out_of_range);
}

TEST(ContactGraph, AverageDegreeCountsBothEndpoints) {
  ContactGraph g = triangle();
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
}

TEST(PowerLawGenerator, HitsTargetMeanDegree) {
  rng::Stream stream(31);
  PowerLawConfig config;
  config.node_count = 1000;
  config.target_mean_degree = 80.0;
  ContactGraph g = generate_power_law(config, stream);
  EXPECT_EQ(g.node_count(), 1000u);
  EXPECT_NEAR(g.average_degree(), 80.0, 80.0 * 0.05);
}

TEST(PowerLawGenerator, ProducesHeavyTail) {
  rng::Stream stream(32);
  PowerLawConfig config;
  config.node_count = 1000;
  config.target_mean_degree = 80.0;
  ContactGraph g = generate_power_law(config, stream);
  DegreeStats stats = degree_stats(g);
  // A heavy-tailed degree sequence has stddev comparable to the mean
  // and a max far above it (an ER graph would have stddev ~ sqrt(80)).
  EXPECT_GT(stats.stddev, 40.0);
  EXPECT_GT(static_cast<double>(stats.max), 2.5 * stats.mean);
}

TEST(PowerLawGenerator, GraphIsSimpleAndReciprocal) {
  rng::Stream stream(33);
  PowerLawConfig config;
  config.node_count = 500;
  config.target_mean_degree = 40.0;
  ContactGraph g = generate_power_law(config, stream);
  // ContactGraph's constructor enforces simplicity; verify reciprocity.
  for (PhoneId p = 0; p < g.node_count(); ++p) {
    for (PhoneId q : g.contacts(p)) {
      ASSERT_TRUE(g.connected(q, p));
      ASSERT_NE(q, p);
    }
  }
}

TEST(PowerLawGenerator, DeterministicGivenSeed) {
  PowerLawConfig config;
  config.node_count = 300;
  config.target_mean_degree = 20.0;
  rng::Stream s1(44), s2(44);
  ContactGraph a = generate_power_law(config, s1);
  ContactGraph b = generate_power_law(config, s2);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (PhoneId p = 0; p < a.node_count(); ++p) {
    auto la = a.contacts(p);
    auto lb = b.contacts(p);
    ASSERT_EQ(std::vector<PhoneId>(la.begin(), la.end()),
              std::vector<PhoneId>(lb.begin(), lb.end()));
  }
}

TEST(PowerLawGenerator, ValidatesConfig) {
  rng::Stream stream(35);
  PowerLawConfig bad;
  bad.node_count = 1;
  EXPECT_THROW((void)generate_power_law(bad, stream), std::invalid_argument);
  bad = PowerLawConfig{};
  bad.target_mean_degree = 0.0;
  EXPECT_THROW((void)generate_power_law(bad, stream), std::invalid_argument);
  bad = PowerLawConfig{};
  bad.alpha = -1.0;
  EXPECT_THROW((void)generate_power_law(bad, stream), std::invalid_argument);
  bad = PowerLawConfig{};
  bad.min_degree = 0;
  EXPECT_THROW((void)generate_power_law(bad, stream), std::invalid_argument);
  bad = PowerLawConfig{};
  bad.max_degree = 2000;  // >= node_count
  EXPECT_THROW((void)generate_power_law(bad, stream), std::invalid_argument);
}

TEST(ErdosRenyi, HitsTargetMeanDegree) {
  rng::Stream stream(36);
  ContactGraph g = generate_erdos_renyi(1000, 80.0, stream);
  EXPECT_NEAR(g.average_degree(), 80.0, 80.0 * 0.05);
}

TEST(ErdosRenyi, DegreeSpreadIsNarrow) {
  rng::Stream stream(37);
  ContactGraph g = generate_erdos_renyi(1000, 80.0, stream);
  DegreeStats stats = degree_stats(g);
  // Binomial degrees: stddev ~ sqrt(80) ~ 9.
  EXPECT_LT(stats.stddev, 15.0);
}

TEST(ErdosRenyi, SparseGraphIsPossible) {
  rng::Stream stream(38);
  ContactGraph g = generate_erdos_renyi(200, 2.0, stream);
  EXPECT_NEAR(g.average_degree(), 2.0, 1.0);
}

TEST(ErdosRenyi, RejectsBadParameters) {
  rng::Stream stream(39);
  EXPECT_THROW((void)generate_erdos_renyi(1, 1.0, stream), std::invalid_argument);
  EXPECT_THROW((void)generate_erdos_renyi(100, 0.0, stream), std::invalid_argument);
  EXPECT_THROW((void)generate_erdos_renyi(100, 100.0, stream), std::invalid_argument);
}

TEST(RegularRing, EveryPhoneHasExactlyK) {
  ContactGraph g = generate_regular_ring(100, 6);
  for (PhoneId p = 0; p < 100; ++p) EXPECT_EQ(g.degree(p), 6u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 6.0);
}

TEST(RegularRing, NeighboursAreLocal) {
  ContactGraph g = generate_regular_ring(100, 4);
  EXPECT_TRUE(g.connected(0, 1));
  EXPECT_TRUE(g.connected(0, 2));
  EXPECT_TRUE(g.connected(0, 98));
  EXPECT_FALSE(g.connected(0, 50));
}

TEST(RegularRing, RejectsBadParameters) {
  EXPECT_THROW((void)generate_regular_ring(2, 2), std::invalid_argument);
  EXPECT_THROW((void)generate_regular_ring(10, 3), std::invalid_argument);
  EXPECT_THROW((void)generate_regular_ring(10, 10), std::invalid_argument);
}


TEST(BarabasiAlbert, MeanDegreeNearTwiceM) {
  rng::Stream stream(50);
  ContactGraph g = generate_barabasi_albert(1000, 40, stream);
  EXPECT_EQ(g.node_count(), 1000u);
  EXPECT_NEAR(g.average_degree(), 80.0, 80.0 * 0.08);
}

TEST(BarabasiAlbert, ProducesHubsAndIsConnected) {
  rng::Stream stream(51);
  ContactGraph g = generate_barabasi_albert(1000, 10, stream);
  DegreeStats stats = degree_stats(g);
  EXPECT_GE(stats.min, 10u) << "every arrival brings m edges";
  EXPECT_GT(static_cast<double>(stats.max), 5.0 * stats.mean) << "preferential hubs";
  ComponentStats components = component_stats(g);
  EXPECT_EQ(components.component_count, 1u) << "attachment keeps the graph connected";
}

TEST(BarabasiAlbert, GraphIsSimpleAndReciprocal) {
  rng::Stream stream(52);
  ContactGraph g = generate_barabasi_albert(400, 6, stream);
  for (PhoneId p = 0; p < g.node_count(); ++p) {
    for (PhoneId q : g.contacts(p)) {
      ASSERT_NE(q, p);
      ASSERT_TRUE(g.connected(q, p));
    }
  }
}

TEST(BarabasiAlbert, DeterministicGivenSeed) {
  rng::Stream s1(53), s2(53);
  ContactGraph a = generate_barabasi_albert(300, 5, s1);
  ContactGraph b = generate_barabasi_albert(300, 5, s2);
  EXPECT_EQ(a.edge_count(), b.edge_count());
  for (PhoneId p = 0; p < a.node_count(); ++p) {
    auto la = a.contacts(p);
    auto lb = b.contacts(p);
    ASSERT_EQ(std::vector<PhoneId>(la.begin(), la.end()),
              std::vector<PhoneId>(lb.begin(), lb.end()));
  }
}

TEST(BarabasiAlbert, RejectsBadParameters) {
  rng::Stream stream(54);
  EXPECT_THROW((void)generate_barabasi_albert(100, 0, stream), std::invalid_argument);
  EXPECT_THROW((void)generate_barabasi_albert(5, 5, stream), std::invalid_argument);
  EXPECT_THROW((void)generate_barabasi_albert(5, 9, stream), std::invalid_argument);
}

TEST(GraphStats, DegreeStatsOnKnownGraph) {
  std::vector<ContactGraph::Edge> edges{{0, 1}, {0, 2}, {0, 3}};  // star
  ContactGraph g(4, edges);
  DegreeStats stats = degree_stats(g);
  EXPECT_EQ(stats.min, 1u);
  EXPECT_EQ(stats.max, 3u);
  EXPECT_DOUBLE_EQ(stats.mean, 1.5);
  ASSERT_GE(stats.histogram.size(), 4u);
  EXPECT_EQ(stats.histogram[1], 3u);
  EXPECT_EQ(stats.histogram[3], 1u);
}

TEST(GraphStats, ComponentsOfDisconnectedGraph) {
  std::vector<ContactGraph::Edge> edges{{0, 1}, {2, 3}, {3, 4}};
  ContactGraph g(6, edges);  // {0,1}, {2,3,4}, {5}
  ComponentStats stats = component_stats(g);
  EXPECT_EQ(stats.component_count, 3u);
  EXPECT_EQ(stats.largest_size, 3u);
  EXPECT_DOUBLE_EQ(stats.largest_fraction, 0.5);
  auto labels = component_labels(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[2], labels[4]);
  EXPECT_NE(labels[0], labels[2]);
  EXPECT_NE(labels[5], labels[0]);
}

TEST(GraphStats, DensePowerLawGraphIsNearlyConnected) {
  rng::Stream stream(40);
  PowerLawConfig config;
  config.node_count = 1000;
  config.target_mean_degree = 80.0;
  ContactGraph g = generate_power_law(config, stream);
  ComponentStats stats = component_stats(g);
  EXPECT_GT(stats.largest_fraction, 0.99);
}

TEST(GraphStats, ClusteringOfTriangleIsOne) {
  EXPECT_DOUBLE_EQ(global_clustering_coefficient(triangle()), 1.0);
}

TEST(GraphStats, ClusteringOfStarIsZero) {
  std::vector<ContactGraph::Edge> edges{{0, 1}, {0, 2}, {0, 3}};
  ContactGraph g(4, edges);
  EXPECT_DOUBLE_EQ(global_clustering_coefficient(g), 0.0);
}

TEST(GraphStats, RingLatticeIsHighlyClustered) {
  ContactGraph g = generate_regular_ring(100, 6);
  EXPECT_GT(global_clustering_coefficient(g), 0.5);
}

}  // namespace
}  // namespace mvsim::graph
