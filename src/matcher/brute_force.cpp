#include "matcher/brute_force.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

namespace provmark::matcher {

namespace {

using graph::Edge;
using graph::Node;
using graph::PropertyGraph;

constexpr int kInfinity = std::numeric_limits<int>::max() / 4;

int prop_cost(const graph::Properties& a, const graph::Properties& b,
              CostModel model) {
  if (model == CostModel::None) return 0;
  int c = 0;
  for (const auto& [k, v] : a) {
    auto it = b.find(k);
    if (it == b.end() || it->second != v) ++c;
  }
  if (model == CostModel::Symmetric) {
    for (const auto& [k, v] : b) {
      auto it = a.find(k);
      if (it == a.end() || it->second != v) ++c;
    }
  }
  return c;
}

/// Given a fixed node assignment (indices into g2 nodes, or SIZE_MAX for a
/// g2 node count larger than g1 in the embedding case), find the cheapest
/// consistent edge assignment by plain recursion and store it in
/// `edge_index`; return its cost, or kInfinity if edges cannot be matched.
int edge_assignment_cost(const PropertyGraph& g1, const PropertyGraph& g2,
                         const std::vector<std::size_t>& node_assignment,
                         const std::map<graph::Id, std::size_t>& idx1,
                         const std::map<graph::Id, std::size_t>& idx2,
                         CostModel model, bool bijective,
                         std::vector<std::uint32_t>& edge_index) {
  const auto& e1 = g1.edges();
  const auto& e2 = g2.edges();
  if (bijective && e1.size() != e2.size()) return kInfinity;

  std::vector<int> assignment(e1.size(), -1);
  std::vector<bool> used(e2.size(), false);
  std::vector<int> best_assignment;
  int best = kInfinity;

  auto compatible = [&](const Edge& a, const Edge& b) {
    if (a.label != b.label) return false;
    return node_assignment[idx1.at(a.src)] == idx2.at(b.src) &&
           node_assignment[idx1.at(a.tgt)] == idx2.at(b.tgt);
  };

  auto dfs = [&](auto&& self, std::size_t i, int acc) -> void {
    if (acc >= best) return;
    if (i == e1.size()) {
      best = acc;
      best_assignment.assign(assignment.begin(), assignment.end());
      return;
    }
    for (std::size_t j = 0; j < e2.size(); ++j) {
      if (used[j] || !compatible(e1[i], e2[j])) continue;
      used[j] = true;
      assignment[i] = static_cast<int>(j);
      self(self, i + 1, acc + prop_cost(e1[i].props, e2[j].props, model));
      used[j] = false;
    }
  };
  dfs(dfs, 0, 0);
  if (best >= kInfinity) return kInfinity;
  edge_index.assign(best_assignment.begin(), best_assignment.end());
  // Bijectivity of edges follows from equal counts + injectivity.
  return best;
}

std::optional<Matching> brute_force(const PropertyGraph& g1,
                                    const PropertyGraph& g2, CostModel model,
                                    bool bijective) {
  const auto& n1 = g1.nodes();
  const auto& n2 = g2.nodes();
  if (bijective && n1.size() != n2.size()) return std::nullopt;
  if (n1.size() > n2.size()) return std::nullopt;

  // Enumerate all injective assignments of n1 into n2 via permutations of
  // n2 indices taken |n1| at a time.
  std::vector<std::size_t> indices(n2.size());
  std::iota(indices.begin(), indices.end(), 0);

  // Node id -> index maps, built once per search rather than per edge
  // assignment (edge_assignment_cost runs for every complete node
  // assignment).
  std::map<graph::Id, std::size_t> idx1, idx2;
  for (std::size_t i = 0; i < n1.size(); ++i) idx1[n1[i].id] = i;
  for (std::size_t j = 0; j < n2.size(); ++j) idx2[n2[j].id] = j;

  int best = kInfinity;
  Matching best_matching;

  std::vector<std::size_t> chosen(n1.size());
  std::vector<bool> used(n2.size(), false);
  auto enumerate = [&](auto&& self, std::size_t i) -> void {
    if (i == n1.size()) {
      int cost = 0;
      for (std::size_t k = 0; k < n1.size(); ++k) {
        cost += prop_cost(n1[k].props, n2[chosen[k]].props, model);
      }
      std::vector<std::uint32_t> edge_index;
      int ecost = edge_assignment_cost(g1, g2, chosen, idx1, idx2, model,
                                       bijective, edge_index);
      if (ecost >= kInfinity) return;
      cost += ecost;
      if (cost < best) {
        best = cost;
        best_matching.node_index.assign(chosen.begin(), chosen.end());
        best_matching.edge_index = std::move(edge_index);
        best_matching.cost = cost;
      }
      return;
    }
    for (std::size_t j = 0; j < n2.size(); ++j) {
      if (used[j] || n1[i].label != n2[j].label) continue;
      used[j] = true;
      chosen[i] = j;
      self(self, i + 1);
      used[j] = false;
    }
  };
  enumerate(enumerate, 0);
  if (best >= kInfinity) return std::nullopt;
  return best_matching;
}

}  // namespace

std::optional<Matching> brute_force_isomorphism(const PropertyGraph& g1,
                                                const PropertyGraph& g2,
                                                CostModel model) {
  return brute_force(g1, g2, model, /*bijective=*/true);
}

std::optional<Matching> brute_force_embedding(const PropertyGraph& g1,
                                              const PropertyGraph& g2,
                                              CostModel model) {
  return brute_force(g1, g2, model, /*bijective=*/false);
}

}  // namespace provmark::matcher
