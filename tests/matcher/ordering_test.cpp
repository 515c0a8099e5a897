// Tests for the WL-scarcity search order: it must report the same
// feasibility and optimal cost as the string-keyed reference engine
// (pinned to the historical PropertyCost order), and its admissible
// suffix bound must collapse the proof-of-optimality phase on the
// instances it was built for.
#include <gtest/gtest.h>

#include <string>

#include "graph/property_graph.h"
#include "matcher/legacy_matcher.h"
#include "matcher/matcher.h"
#include "util/rng.h"

namespace provmark::matcher {
namespace {

using graph::PropertyGraph;

PropertyGraph random_corpus_graph(int index, bool second, util::Rng& rng) {
  static const char* kNodeLabels[] = {"Process", "Artifact", "Agent"};
  static const char* kEdgeLabels[] = {"Used", "WasGeneratedBy", "Was"};
  static const char* kKeys[] = {"pid", "path", "time"};
  int nodes = 2 + index % 5;
  int edges = index % 6;
  PropertyGraph g;
  for (int i = 0; i < nodes; ++i) {
    graph::Properties props;
    int prop_count = static_cast<int>(rng.next_below(3));
    for (int p = 0; p < prop_count; ++p) {
      props[kKeys[rng.next_below(3)]] = std::to_string(rng.next_below(4));
    }
    g.add_node((second ? "m" : "n") + std::to_string(i),
               kNodeLabels[rng.next_below(3)], std::move(props));
  }
  for (int i = 0; i < edges; ++i) {
    g.add_edge((second ? "f" : "e") + std::to_string(i),
               (second ? "m" : "n") +
                   std::to_string(rng.next_below(
                       static_cast<std::uint64_t>(nodes))),
               (second ? "m" : "n") +
                   std::to_string(rng.next_below(
                       static_cast<std::uint64_t>(nodes))),
               kEdgeLabels[rng.next_below(3)]);
  }
  return g;
}

TEST(WlScarcity, AgreesWithLegacyOnRandomCorpus) {
  // On a corpus that includes disconnected graphs, isolated nodes and
  // infeasible pairs, the engine must agree with the reference on
  // feasibility and optimal cost, bijective and embedding.
  for (int index = 0; index < 40; ++index) {
    util::Rng rng(static_cast<std::uint64_t>(index) * 6151 + 7);
    PropertyGraph g1 = random_corpus_graph(index, false, rng);
    PropertyGraph g2 = random_corpus_graph(index, true, rng);

    SearchOptions options;
    options.cost_model = CostModel::Symmetric;
    auto a = legacy::best_isomorphism(g1, g2, options);
    auto b = best_isomorphism(g1, g2, options);
    ASSERT_EQ(a.has_value(), b.has_value()) << "iso corpus " << index;
    if (a.has_value()) {
      EXPECT_EQ(a->cost, b->cost) << "iso corpus " << index;
    }

    options.cost_model = CostModel::OneSided;
    auto ea = legacy::best_subgraph_embedding(g2, g1, options);
    auto eb = best_subgraph_embedding(g2, g1, options);
    ASSERT_EQ(ea.has_value(), eb.has_value()) << "embed corpus " << index;
    if (ea.has_value()) {
      EXPECT_EQ(ea->cost, eb->cost) << "embed corpus " << index;
    }
  }
}

TEST(WlScarcity, EdgeGroupBoundPrunesPropertyHeavyEdges) {
  // Instance where the optimal cost lives entirely on edge properties:
  // bare nodes (every per-node candidate minimum is 0, so the node part
  // of the suffix bound is blind) and per-trial transient edge
  // timestamps that mismatch against every target edge. The per-edge-
  // group minima folded into the suffix bound price the unassigned
  // remainder exactly, so the proof-of-optimality phase collapses; a
  // node-only bound left the search at the PropertyCost baseline's step
  // count (3194 on this instance).
  const int k = 6;
  graph::PropertyGraph g1, g2;
  for (int i = 0; i < k; ++i) {
    std::string p = "p" + std::to_string(i);
    for (graph::PropertyGraph* g : {&g1, &g2}) {
      g->add_node(p, "Process");
      g->add_node(p + "f", "Artifact");
    }
    g1.add_edge(p + "e", p, p + "f", "Used",
                {{"operation", "read"}, {"time", std::to_string(1000 + i)}});
    g2.add_edge(p + "e", p, p + "f", "Used",
                {{"operation", "read"}, {"time", std::to_string(2000 + i)}});
  }
  SearchOptions options;
  options.cost_model = CostModel::Symmetric;

  Stats legacy_stats, wl_stats;
  auto a = legacy::best_isomorphism(g1, g2, options, &legacy_stats);
  auto b = best_isomorphism(g1, g2, options, &wl_stats);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  // Every fragment pairing mismatches `time` in both directions: 2 per
  // edge, and the bound must not change the optimum.
  EXPECT_EQ(a->cost, 2 * k);
  EXPECT_EQ(b->cost, a->cost);
  EXPECT_LT(wl_stats.steps, legacy_stats.steps);
  // One descent to the optimum plus immediate pruning of every sibling;
  // far under the node-only bound's step count.
  EXPECT_LE(wl_stats.steps, 50u);
}

TEST(WlScarcity, ComponentCountMismatchIsInfeasible) {
  PropertyGraph g1, g2;
  // Two components vs one: same node/edge label multisets overall.
  g1.add_node("a", "X");
  g1.add_node("b", "X");
  g1.add_node("c", "X");
  g1.add_edge("e1", "a", "b", "L");
  g1.add_edge("e2", "b", "c", "L");
  g2.add_node("p", "X");
  g2.add_node("q", "X");
  g2.add_node("r", "X");
  g2.add_edge("f1", "p", "q", "L");
  g2.add_edge("f2", "q", "p", "L");
  SearchOptions options;
  options.cost_model = CostModel::Symmetric;
  EXPECT_FALSE(best_isomorphism(g1, g2, options).has_value());
}

}  // namespace
}  // namespace provmark::matcher
