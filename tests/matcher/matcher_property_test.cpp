// Property-based tests of the matching engine: randomized cross-checks
// against the brute-force reference, and invariants that must hold for
// any graph (permutation invariance, subgraph containment, cost bounds).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "graph/property_graph.h"
#include "matcher/brute_force.h"
#include "matcher/matcher.h"
#include "test_graphs.h"
#include "util/rng.h"

namespace provmark::matcher {
namespace {

using graph::PropertyGraph;
using test_graphs::random_graph;
using test_graphs::shuffled_copy;

/// `g` without the given nodes (and their incident edges) and edges,
/// otherwise in g's insertion order.
PropertyGraph without(const PropertyGraph& g,
                      const std::set<graph::Id>& nodes,
                      const std::set<graph::Id>& edges) {
  PropertyGraph out;
  for (const graph::Node& n : g.nodes()) {
    if (nodes.count(n.id) == 0) out.add_node(n.id, n.label, n.props);
  }
  for (const graph::Edge& e : g.edges()) {
    if (edges.count(e.id) == 0 && nodes.count(e.src) == 0 &&
        nodes.count(e.tgt) == 0) {
      out.add_edge(e.id, e.src, e.tgt, e.label, e.props);
    }
  }
  return out;
}

class MatcherRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MatcherRandomTest, ShuffledCopyIsSimilar) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  PropertyGraph g = random_graph(2 + GetParam() % 5, GetParam() % 7, rng);
  PropertyGraph h = shuffled_copy(g, rng);
  EXPECT_TRUE(similar(g, h));
  EXPECT_TRUE(similar(h, g));  // symmetry
}

TEST_P(MatcherRandomTest, ShuffledCopyHasZeroCostIsomorphism) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  PropertyGraph g = random_graph(2 + GetParam() % 5, GetParam() % 6, rng);
  PropertyGraph h = shuffled_copy(g, rng);
  SearchOptions options;
  options.cost_model = CostModel::Symmetric;
  auto matching = best_isomorphism(g, h, options);
  ASSERT_TRUE(matching.has_value());
  EXPECT_EQ(matching->cost, 0);
}

TEST_P(MatcherRandomTest, AgreesWithBruteForceIsomorphism) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 3);
  PropertyGraph g1 = random_graph(2 + GetParam() % 4, GetParam() % 5, rng);
  // Sometimes compare against a shuffled copy (isomorphic), sometimes an
  // independent graph (usually not isomorphic).
  PropertyGraph g2 = rng.chance(0.5)
                         ? shuffled_copy(g1, rng)
                         : random_graph(2 + GetParam() % 4,
                                        GetParam() % 5, rng);
  SearchOptions options;
  options.cost_model = CostModel::Symmetric;
  auto fast = best_isomorphism(g1, g2, options);
  auto slow = brute_force_isomorphism(g1, g2, CostModel::Symmetric);
  ASSERT_EQ(fast.has_value(), slow.has_value());
  if (fast.has_value()) {
    EXPECT_EQ(fast->cost, slow->cost);
  }
}

TEST_P(MatcherRandomTest, AgreesWithBruteForceEmbedding) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  PropertyGraph fg = random_graph(3 + GetParam() % 4, GetParam() % 6, rng);
  PropertyGraph bg = random_graph(1 + GetParam() % 3, GetParam() % 3, rng);
  SearchOptions options;
  options.cost_model = CostModel::OneSided;
  auto fast = best_subgraph_embedding(bg, fg, options);
  auto slow = brute_force_embedding(bg, fg, CostModel::OneSided);
  ASSERT_EQ(fast.has_value(), slow.has_value());
  if (fast.has_value()) {
    EXPECT_EQ(fast->cost, slow->cost);
  }
}

TEST_P(MatcherRandomTest, SubgraphAlwaysEmbedsIntoSupergraph) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 53 + 11);
  PropertyGraph fg = random_graph(4 + GetParam() % 4, 3 + GetParam() % 5,
                                  rng);
  // Build bg by deleting some elements of fg — guaranteed embeddable.
  std::set<graph::Id> dropped_edges, dropped_nodes;
  for (const graph::Edge& e : fg.edges()) {
    if (rng.chance(0.4)) dropped_edges.insert(e.id);
  }
  for (const graph::Node& n : fg.nodes()) {
    if (rng.chance(0.3)) dropped_nodes.insert(n.id);
  }
  PropertyGraph bg = without(fg, dropped_nodes, dropped_edges);
  auto matching = best_subgraph_embedding(bg, fg);
  ASSERT_TRUE(matching.has_value());
  EXPECT_EQ(matching->cost, 0);  // bg elements carry identical properties
  EXPECT_EQ(matching->node_index.size(), bg.node_count());
  EXPECT_EQ(matching->edge_index.size(), bg.edge_count());
}

TEST_P(MatcherRandomTest, MatchingIsStructurePreserving) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 211 + 13);
  PropertyGraph fg = random_graph(4 + GetParam() % 3, 4, rng);
  std::set<graph::Id> dropped_nodes;
  if (!fg.nodes().empty()) dropped_nodes.insert(fg.nodes().front().id);
  PropertyGraph bg = without(fg, dropped_nodes, {});
  auto matching = best_subgraph_embedding(bg, fg);
  ASSERT_TRUE(matching.has_value());
  // Verify the returned maps really form a homomorphism on labels and
  // endpoints (independently of the engine's own bookkeeping).
  ASSERT_EQ(matching->node_index.size(), bg.node_count());
  ASSERT_EQ(matching->edge_index.size(), bg.edge_count());
  auto matched_node = [&](const graph::Id& id) -> const graph::Node& {
    return fg.nodes()[matching->node_index[bg.find_node(id) -
                                           bg.nodes().data()]];
  };
  for (std::size_t i = 0; i < bg.node_count(); ++i) {
    ASSERT_LT(matching->node_index[i], fg.node_count());
    EXPECT_EQ(bg.nodes()[i].label, fg.nodes()[matching->node_index[i]].label);
  }
  for (std::size_t i = 0; i < bg.edge_count(); ++i) {
    const graph::Edge& be = bg.edges()[i];
    ASSERT_LT(matching->edge_index[i], fg.edge_count());
    const graph::Edge& fe = fg.edges()[matching->edge_index[i]];
    EXPECT_EQ(be.label, fe.label);
    EXPECT_EQ(matched_node(be.src).id, fe.src);
    EXPECT_EQ(matched_node(be.tgt).id, fe.tgt);
  }
}

TEST_P(MatcherRandomTest, PerturbedCopyCostMatchesBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 389 + 17);
  PropertyGraph g = random_graph(2 + GetParam() % 4, GetParam() % 5, rng);
  PropertyGraph h = shuffled_copy(g, rng);
  // Perturb one property value so cost > 0 is possible.
  if (!h.nodes().empty()) {
    h.set_property(h.nodes().front().id, "time", "99999");
  }
  SearchOptions options;
  options.cost_model = CostModel::Symmetric;
  auto a = best_isomorphism(g, h, options);
  auto b = brute_force_isomorphism(g, h, CostModel::Symmetric);
  ASSERT_EQ(a.has_value(), b.has_value());
  if (a.has_value()) {
    EXPECT_EQ(a->cost, b->cost);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherRandomTest,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace provmark::matcher
