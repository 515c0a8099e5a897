// Copy of the string-keyed engine that matcher.cpp replaced, pinned to
// its historical PropertyCost candidate order. See legacy_matcher.h for
// why it is kept. Do not optimize this file: its value is being the
// unchanged baseline.
#include "matcher/legacy_matcher.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include "graph/algorithms.h"

namespace provmark::matcher::legacy {

namespace {

using graph::Edge;
using graph::Id;
using graph::Node;
using graph::PropertyGraph;

constexpr int kInfinity = std::numeric_limits<int>::max() / 4;

/// Property-mismatch cost of mapping element with props `a` onto element
/// with props `b` under the given model.
int property_cost(const graph::Properties& a, const graph::Properties& b,
                  CostModel model) {
  if (model == CostModel::None) return 0;
  int cost = 0;
  for (const auto& [k, v] : a) {
    auto it = b.find(k);
    if (it == b.end() || it->second != v) ++cost;
  }
  if (model == CostModel::Symmetric) {
    for (const auto& [k, v] : b) {
      auto it = a.find(k);
      if (it == a.end() || it->second != v) ++cost;
    }
  }
  return cost;
}

/// An edge group: all edges sharing (src, tgt, label) are structurally
/// interchangeable; only their property costs differ.
struct GroupKey {
  std::size_t src;  // pattern-side node index
  std::size_t tgt;
  std::string label;
  auto operator<=>(const GroupKey&) const = default;
};

/// Minimum-cost injective assignment of pattern edges to target edges
/// within one group, by exhaustive DFS (groups are tiny in practice:
/// parallel same-label edges between one node pair are rare in provenance
/// graphs). Returns kInfinity when |pattern| > |target|.
int min_group_assignment(const std::vector<const Edge*>& pattern_edges,
                         const std::vector<const Edge*>& target_edges,
                         CostModel model, bool bijective,
                         std::vector<std::pair<const Edge*, const Edge*>>*
                             best_pairs_out) {
  const std::size_t np = pattern_edges.size();
  const std::size_t nt = target_edges.size();
  if (np > nt) return kInfinity;
  if (bijective && np != nt) return kInfinity;

  // Precompute the cost matrix.
  std::vector<std::vector<int>> cost(np, std::vector<int>(nt, 0));
  for (std::size_t i = 0; i < np; ++i) {
    for (std::size_t j = 0; j < nt; ++j) {
      cost[i][j] =
          property_cost(pattern_edges[i]->props, target_edges[j]->props,
                        model);
    }
  }
  // In the symmetric (bijective generalization) model, unmatched target
  // edges cannot exist (np == nt), so the matrix covers everything.

  int best = kInfinity;
  std::vector<int> assignment(np, -1);
  std::vector<int> best_assignment;
  std::vector<bool> used(nt, false);
  auto dfs = [&](auto&& self, std::size_t i, int acc) -> void {
    if (acc >= best) return;
    if (i == np) {
      best = acc;
      best_assignment.assign(assignment.begin(), assignment.end());
      return;
    }
    for (std::size_t j = 0; j < nt; ++j) {
      if (used[j]) continue;
      used[j] = true;
      assignment[i] = static_cast<int>(j);
      self(self, i + 1, acc + cost[i][j]);
      used[j] = false;
    }
  };
  dfs(dfs, 0, 0);
  if (best >= kInfinity) return kInfinity;
  if (best_pairs_out != nullptr) {
    best_pairs_out->clear();
    for (std::size_t i = 0; i < np; ++i) {
      best_pairs_out->emplace_back(
          pattern_edges[i], target_edges[static_cast<std::size_t>(
                                best_assignment[i])]);
    }
  }
  return best;
}

/// Dense indexed view of a property graph for the search.
struct IndexedGraph {
  const PropertyGraph* g;
  std::vector<const Node*> nodes;
  std::map<Id, std::size_t> index_of;
  // adjacency[(i,j)] -> edges from node i to node j, grouped by label.
  std::map<std::pair<std::size_t, std::size_t>,
           std::map<std::string, std::vector<const Edge*>>>
      adjacency;
  std::vector<std::size_t> in_degree;
  std::vector<std::size_t> out_degree;

  explicit IndexedGraph(const PropertyGraph& graph) : g(&graph) {
    nodes.reserve(graph.node_count());
    for (const Node& n : graph.nodes()) {
      index_of[n.id] = nodes.size();
      nodes.push_back(&n);
    }
    in_degree.assign(nodes.size(), 0);
    out_degree.assign(nodes.size(), 0);
    for (const Edge& e : graph.edges()) {
      std::size_t s = index_of.at(e.src);
      std::size_t t = index_of.at(e.tgt);
      adjacency[{s, t}][e.label].push_back(&e);
      ++out_degree[s];
      ++in_degree[t];
    }
  }
};

class SearchEngine {
 public:
  SearchEngine(const PropertyGraph& g1, const PropertyGraph& g2,
               bool bijective, const SearchOptions& options, Stats* stats)
      : pattern_(g1),
        target_(g2),
        bijective_(bijective),
        options_(options),
        stats_(stats) {}

  std::optional<Matching> run() {
    if (bijective_) {
      // Cheap necessary conditions first.
      if (pattern_.g->node_count() != target_.g->node_count() ||
          pattern_.g->edge_count() != target_.g->edge_count()) {
        return std::nullopt;
      }
      if (graph::node_label_histogram(*pattern_.g) !=
              graph::node_label_histogram(*target_.g) ||
          graph::edge_label_histogram(*pattern_.g) !=
              graph::edge_label_histogram(*target_.g)) {
        return std::nullopt;
      }
    } else if (pattern_.g->node_count() > target_.g->node_count() ||
               pattern_.g->edge_count() > target_.g->edge_count()) {
      return std::nullopt;
    }

    if (!compute_candidates()) return std::nullopt;
    order_pattern_nodes();

    mapping_.assign(pattern_.nodes.size(), kUnmapped);
    reverse_used_.assign(target_.nodes.size(), false);
    best_cost_ = kInfinity;
    have_best_ = false;
    search(0, 0);
    if (have_best_) {
      return build_matching();
    }
    return std::nullopt;
  }

 private:
  static constexpr std::size_t kUnmapped =
      std::numeric_limits<std::size_t>::max();

  /// Candidate target nodes per pattern node. Returns false when some
  /// pattern node has no candidate at all.
  bool compute_candidates() {
    const std::size_t n = pattern_.nodes.size();
    candidates_.assign(n, {});
    std::map<Id, std::uint64_t> wl1, wl2;
    if (bijective_) {
      wl1 = graph::wl_colours(*pattern_.g, 2);
      wl2 = graph::wl_colours(*target_.g, 2);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Node* pn = pattern_.nodes[i];
      for (std::size_t j = 0; j < target_.nodes.size(); ++j) {
        const Node* tn = target_.nodes[j];
        if (pn->label != tn->label) continue;
        if (bijective_) {
          if (pattern_.in_degree[i] != target_.in_degree[j] ||
              pattern_.out_degree[i] != target_.out_degree[j]) {
            continue;
          }
          if (wl1.at(pn->id) != wl2.at(tn->id)) continue;
        } else if (pattern_.in_degree[i] > target_.in_degree[j] ||
                   pattern_.out_degree[i] > target_.out_degree[j]) {
          continue;
        }
        candidates_[i].push_back(j);
      }
      if (candidates_[i].empty()) return false;
    }
    order_candidates();
    return true;
  }

  /// The historical PropertyCost candidate order: cheapest node-property
  /// cost first. The search stays exhaustive, but finding a near-optimal
  /// solution early lets the cost bound prune the rest.
  void order_candidates() {
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
      const Node* pn = pattern_.nodes[i];
      std::stable_sort(
          candidates_[i].begin(), candidates_[i].end(),
          [&](std::size_t a, std::size_t b) {
            return property_cost(pn->props, target_.nodes[a]->props,
                                 options_.cost_model) <
                   property_cost(pn->props, target_.nodes[b]->props,
                                 options_.cost_model);
          });
    }
  }

  /// Most-constrained-first ordering, preferring nodes adjacent to already
  /// ordered ones (keeps the partial mapping connected, enabling early
  /// adjacency checks).
  void order_pattern_nodes() {
    const std::size_t n = pattern_.nodes.size();
    order_.clear();
    order_.reserve(n);
    std::vector<bool> placed(n, false);
    std::set<std::size_t> frontier;

    auto adjacency_links = [&](std::size_t i) {
      std::vector<std::size_t> out;
      for (const auto& [key, groups] : pattern_.adjacency) {
        if (key.first == i) out.push_back(key.second);
        if (key.second == i) out.push_back(key.first);
      }
      return out;
    };

    for (std::size_t step = 0; step < n; ++step) {
      std::size_t chosen = kUnmapped;
      // Prefer frontier nodes; among them, fewest candidates.
      for (std::size_t i = 0; i < n; ++i) {
        if (placed[i]) continue;
        bool in_frontier = frontier.count(i) > 0;
        if (chosen == kUnmapped) {
          chosen = i;
          continue;
        }
        bool chosen_in_frontier = frontier.count(chosen) > 0;
        if (in_frontier != chosen_in_frontier) {
          if (in_frontier) chosen = i;
          continue;
        }
        if (candidates_[i].size() < candidates_[chosen].size()) chosen = i;
      }
      placed[chosen] = true;
      order_.push_back(chosen);
      for (std::size_t nb : adjacency_links(chosen)) {
        if (!placed[nb]) frontier.insert(nb);
      }
      frontier.erase(chosen);
    }
  }

  /// Cost contribution of all edge groups that become fully mapped when
  /// pattern node `i` (order position `pos`) is assigned. For the
  /// bijective problem also *checks* group cardinalities. Returns
  /// kInfinity when structurally inconsistent.
  int edge_groups_cost(std::size_t i) {
    int total = 0;
    for (const auto& [key, label_groups] : pattern_.adjacency) {
      if (key.first != i && key.second != i) continue;
      std::size_t other = key.first == i ? key.second : key.first;
      if (mapping_[other] == kUnmapped) continue;  // not yet decidable
      std::size_t tsrc = mapping_[key.first];
      std::size_t ttgt = mapping_[key.second];
      auto target_it = target_.adjacency.find({tsrc, ttgt});
      for (const auto& [label, pattern_edges] : label_groups) {
        const std::vector<const Edge*>* target_edges = nullptr;
        if (target_it != target_.adjacency.end()) {
          auto lit = target_it->second.find(label);
          if (lit != target_it->second.end()) target_edges = &lit->second;
        }
        static const std::vector<const Edge*> kEmpty;
        int cost = min_group_assignment(
            pattern_edges, target_edges ? *target_edges : kEmpty,
            options_.cost_model, bijective_, nullptr);
        if (cost >= kInfinity) return kInfinity;
        total += cost;
      }
      // Bijective: the target may not have extra edges between the mapped
      // pair with labels absent from the pattern group (checked globally
      // by edge-count equality plus per-group equality here).
      if (bijective_ && target_it != target_.adjacency.end()) {
        for (const auto& [label, target_edges] : target_it->second) {
          auto lit = label_groups.find(label);
          std::size_t pattern_count =
              lit == label_groups.end() ? 0 : lit->second.size();
          if (pattern_count != target_edges.size()) return kInfinity;
        }
      }
    }
    return total;
  }

  void search(std::size_t pos, int acc_cost) {
    if (stats_ != nullptr) ++stats_->steps;
    if (options_.step_budget > 0 && stats_ != nullptr &&
        stats_->steps > options_.step_budget) {
      stats_->budget_exhausted = true;
      return;
    }
    if (acc_cost >= best_cost_) return;
    if (pos == order_.size()) {
      if (acc_cost < best_cost_ || !have_best_) {
        best_cost_ = acc_cost;
        best_node_mapping_ = mapping_;
        have_best_ = true;
      }
      if (stats_ != nullptr) ++stats_->solutions_found;
      found_any_ = true;
      return;
    }
    std::size_t i = order_[pos];
    const Node* pn = pattern_.nodes[i];
    for (std::size_t j : candidates_[i]) {
      if (reverse_used_[j]) continue;
      if (stop_early()) return;
      mapping_[i] = j;
      reverse_used_[j] = true;
      int node_cost = property_cost(pn->props, target_.nodes[j]->props,
                                    options_.cost_model);
      int group_cost = edge_groups_cost(i);
      if (group_cost < kInfinity) {
        int next = acc_cost + node_cost + group_cost;
        if (next < best_cost_) {
          search(pos + 1, next);
        }
      }
      mapping_[i] = kUnmapped;
      reverse_used_[j] = false;
      if (stop_early()) return;
    }
  }

  bool stop_early() const {
    if (options_.first_solution_only && found_any_) return true;
    if (stats_ != nullptr && stats_->budget_exhausted) return true;
    return false;
  }

  /// Reconstruct the full matching (including the optimal edge pairing)
  /// from the best node mapping.
  Matching build_matching() {
    Matching m;
    m.cost = 0;
    m.node_index.assign(best_node_mapping_.begin(),
                        best_node_mapping_.end());
    m.edge_index.resize(pattern_.g->edge_count());
    for (std::size_t i = 0; i < best_node_mapping_.size(); ++i) {
      m.cost += property_cost(pattern_.nodes[i]->props,
                              target_.nodes[best_node_mapping_[i]]->props,
                              options_.cost_model);
    }
    for (const auto& [key, label_groups] : pattern_.adjacency) {
      std::size_t tsrc = best_node_mapping_[key.first];
      std::size_t ttgt = best_node_mapping_[key.second];
      auto target_it = target_.adjacency.find({tsrc, ttgt});
      for (const auto& [label, pattern_edges] : label_groups) {
        static const std::vector<const Edge*> kEmpty;
        const std::vector<const Edge*>* target_edges = &kEmpty;
        if (target_it != target_.adjacency.end()) {
          auto lit = target_it->second.find(label);
          if (lit != target_it->second.end()) target_edges = &lit->second;
        }
        std::vector<std::pair<const Edge*, const Edge*>> pairs;
        int cost = min_group_assignment(pattern_edges, *target_edges,
                                        options_.cost_model, bijective_,
                                        &pairs);
        m.cost += cost;
        for (const auto& [pe, te] : pairs) {
          m.edge_index[pe - pattern_.g->edges().data()] =
              static_cast<std::uint32_t>(te - target_.g->edges().data());
        }
      }
    }
    return m;
  }

  IndexedGraph pattern_;
  IndexedGraph target_;
  bool bijective_;
  SearchOptions options_;
  Stats* stats_;

  std::vector<std::vector<std::size_t>> candidates_;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> mapping_;
  std::vector<bool> reverse_used_;
  std::vector<std::size_t> best_node_mapping_;
  int best_cost_ = kInfinity;
  bool have_best_ = false;
  bool found_any_ = false;
};

}  // namespace

std::optional<Matching> best_isomorphism(const PropertyGraph& g1,
                                         const PropertyGraph& g2,
                                         const SearchOptions& options,
                                         Stats* stats) {
  Stats local;
  SearchEngine engine(g1, g2, /*bijective=*/true, options,
                      stats != nullptr ? stats : &local);
  return engine.run();
}

std::optional<Matching> best_subgraph_embedding(const PropertyGraph& g1,
                                                const PropertyGraph& g2,
                                                const SearchOptions& options,
                                                Stats* stats) {
  Stats local;
  SearchEngine engine(g1, g2, /*bijective=*/false, options,
                      stats != nullptr ? stats : &local);
  return engine.run();
}

}  // namespace provmark::matcher::legacy
