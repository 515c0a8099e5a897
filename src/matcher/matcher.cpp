// The production matching engine, running entirely on the interned
// InternedGraph representation (matcher/interned.h): labels and property
// keys/values are dense uint32 symbols shared between the two graphs,
// adjacency is pre-grouped by (src,tgt,label), and property-mismatch
// costs are linear merges of sorted symbol pairs. String ids are only
// touched again when materializing the final Matching.
//
// The engine never interns: both operands arrive pre-snapshotted (either
// built here by the PropertyGraph convenience overloads, or lifted from
// the pipeline's per-trial snapshots), so repeated calls over the same
// graphs — the similarity-classification pattern — pay the interning
// cost once.
//
// The branch-and-bound core searches in the WL-scarcity order:
// bijective candidate lists are pruned to the pattern node's WL colour
// class and tried cheapest-first; the most constrained pattern node is
// assigned next, with candidate-count ties broken towards the rarer
// target colour class; and the cost bound is tightened with an
// admissible lower bound on the cost of the unassigned suffix.
//
// A call is one depth-first search on the calling thread, so its step
// count, budget verdict and matching are a function of the operands and
// options alone. The pipeline runs many calls at once on its pool (one
// per trial pair or digest bucket); no call fans out itself.
//
// Memory: a call makes its scratch in one region on its own stack
// (util/region.h): the flat candidate lists, the search order and
// bound, the search state and the edge-group assignment scratch.
// Scratch that a search step reuses (the group assignment's cost matrix
// and DFS arrays) grows only, so a search of any length allocates a
// bounded amount; only the returned Matching is heap memory.
//
// The engine reports the same feasibility and optimal cost as the
// string-keyed reference in legacy_matcher.cpp and the exhaustive
// brute_force oracle, which the equivalence test enforces.
#include "matcher/matcher.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory_resource>
#include <queue>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/compact.h"
#include "matcher/interned.h"
#include "util/region.h"

namespace provmark::matcher {

namespace {

using graph::CompactProps;
using graph::PropertyGraph;
using graph::Symbol;
using graph::SymbolTable;

constexpr int kInfinity = std::numeric_limits<int>::max() / 4;
constexpr std::uint32_t kUnmapped = std::numeric_limits<std::uint32_t>::max();

/// Property-mismatch cost under the given model; allocation-free merge of
/// the sorted (key,value) symbol spans.
int prop_cost(CompactProps a, CompactProps b, CostModel model) {
  switch (model) {
    case CostModel::None:
      return 0;
    case CostModel::OneSided:
      return graph::one_sided_mismatch(a, b);
    case CostModel::Symmetric:
      return graph::symmetric_mismatch(a, b);
  }
  return 0;
}

/// Property-mismatch cost of matching pattern node i to target node j,
/// and of pattern edge pe to target edge te. Zero without reading any
/// property under CostModel::None, whose operands may have none.
int node_cost(const InternedGraph& pattern, std::uint32_t i,
              const InternedGraph& target, std::uint32_t j, CostModel model) {
  if (model == CostModel::None) return 0;
  return prop_cost(pattern.g.node_props(i), target.g.node_props(j), model);
}

int edge_cost(const InternedGraph& pattern, std::uint32_t pe,
              const InternedGraph& target, std::uint32_t te, CostModel model) {
  if (model == CostModel::None) return 0;
  return prop_cost(pattern.g.edge_props(pe), target.g.edge_props(te), model);
}

/// The reusable scratch of min_group_assignment's exhaustive DFS. Its
/// arrays only grow, so repeated calls allocate nothing once they have
/// seen the largest group.
struct GroupScratch {
  explicit GroupScratch(std::pmr::memory_resource* memory)
      : cost(memory), assignment(memory), best(memory), used(memory) {}

  std::pmr::vector<int> cost;  ///< row-major, pattern edge by target edge
  std::pmr::vector<int> assignment;
  std::pmr::vector<int> best;
  std::pmr::vector<char> used;
};

/// Minimum-cost injective assignment of pattern edges to target edges
/// within one group. Groups are tiny in practice — almost always a single
/// edge, which is handled without touching `scratch`; parallel
/// same-label edges between one node pair fall back to exhaustive DFS.
int min_group_assignment(
    const InternedGraph& pattern, std::span<const std::uint32_t> pattern_edges,
    const InternedGraph& target, std::span<const std::uint32_t> tgt,
    CostModel model, bool bijective, GroupScratch& scratch,
    std::pmr::vector<std::pair<std::uint32_t, std::uint32_t>>* best_pairs_out) {
  const std::size_t np = pattern_edges.size();
  const std::size_t nt = tgt.size();
  if (np > nt) return kInfinity;
  if (bijective && np != nt) return kInfinity;

  if (np == 1) {
    // The common case: no parallel same-label edges between this pair.
    int best = kInfinity;
    std::uint32_t best_te = kUnmapped;
    for (std::uint32_t te : tgt) {
      int c = edge_cost(pattern, pattern_edges[0], target, te, model);
      if (c < best) {
        best = c;
        best_te = te;
      }
    }
    if (best_pairs_out != nullptr) {
      best_pairs_out->clear();
      best_pairs_out->emplace_back(pattern_edges[0], best_te);
    }
    return best;
  }

  std::pmr::vector<int>& cost = scratch.cost;
  cost.resize(np * nt);
  for (std::size_t i = 0; i < np; ++i) {
    for (std::size_t j = 0; j < nt; ++j) {
      cost[i * nt + j] =
          edge_cost(pattern, pattern_edges[i], target, tgt[j], model);
    }
  }
  int best = kInfinity;
  std::pmr::vector<int>& assignment = scratch.assignment;
  std::pmr::vector<int>& best_assignment = scratch.best;
  std::pmr::vector<char>& used = scratch.used;
  assignment.assign(np, -1);
  best_assignment.clear();
  used.assign(nt, 0);
  auto dfs = [&](auto&& self, std::size_t i, int acc) -> void {
    if (acc >= best) return;
    if (i == np) {
      best = acc;
      best_assignment.assign(assignment.begin(), assignment.end());
      return;
    }
    for (std::size_t j = 0; j < nt; ++j) {
      if (used[j] != 0) continue;
      used[j] = 1;
      assignment[i] = static_cast<int>(j);
      self(self, i + 1, acc + cost[i * nt + j]);
      used[j] = 0;
    }
  };
  dfs(dfs, 0, 0);
  if (best >= kInfinity) return kInfinity;
  if (best_pairs_out != nullptr) {
    best_pairs_out->clear();
    for (std::size_t i = 0; i < np; ++i) {
      best_pairs_out->emplace_back(
          pattern_edges[i],
          tgt[static_cast<std::size_t>(best_assignment[i])]);
    }
  }
  return best;
}

class SearchEngine {
 public:
  SearchEngine(const InternedGraph& pattern, const InternedGraph& target,
               bool bijective, const SearchOptions& options, Stats* stats)
      : pattern_(pattern),
        target_(target),
        bijective_(bijective),
        options_(options),
        stats_(stats),
        candidate_offsets_(memory()),
        candidates_(memory()),
        scarcity_(memory()),
        order_(memory()),
        suffix_min_(memory()),
        mapping_(memory()),
        reverse_used_(memory()),
        best_node_mapping_(memory()),
        group_(memory()) {
    if (pattern.g.symbols != target.g.symbols) {
      throw std::invalid_argument(
          "matcher: operands interned against different symbol tables");
    }
    if (options.cost_model != CostModel::None &&
        (!pattern.g.has_properties() || !target.g.has_properties())) {
      throw std::logic_error(
          "matcher: costed search on an operand without interned "
          "properties");
    }
  }

  std::optional<Matching> run() {
    if (!search_best()) return std::nullopt;
    return build_matching();
  }

  /// Run the search; true when a matching was found (its node mapping is
  /// then in best_node_mapping_).
  bool search_best() {
    if (bijective_) {
      // Cheap necessary conditions first.
      if (pattern_.g.node_count() != target_.g.node_count() ||
          pattern_.g.edge_count() != target_.g.edge_count()) {
        return false;
      }
      if (!label_histograms_match()) return false;
    } else if (pattern_.g.node_count() > target_.g.node_count() ||
               pattern_.g.edge_count() > target_.g.edge_count()) {
      return false;
    }

    if (!compute_candidates()) return false;
    order_pattern_nodes();
    compute_suffix_min();

    mapping_.assign(pattern_.g.node_count(), kUnmapped);
    reverse_used_.assign(target_.g.node_count(), 0);
    best_node_mapping_.reserve(pattern_.g.node_count());
    search(0, 0);
    return have_best_;
  }

 private:
  /// A candidate target node with its precomputed node-property cost
  /// (computed once here instead of on every assignment attempt).
  struct Candidate {
    std::uint32_t node;
    int cost;
  };

  /// Multisets of node labels and edge labels must agree for the graphs
  /// to be similar. Symbols are shared, so the interned histograms
  /// compare directly.
  bool label_histograms_match() const {
    return pattern_.node_label_counts == target_.node_label_counts &&
           pattern_.edge_label_counts == target_.edge_label_counts;
  }

  /// The candidates of pattern node i, cheapest first.
  std::span<const Candidate> candidates(std::uint32_t i) const {
    return {candidates_.data() + candidate_offsets_[i],
            candidates_.data() + candidate_offsets_[i + 1]};
  }

  /// Can target node j be matched to pattern node i at all? Only
  /// same-label target nodes are asked. Bijective candidate lists are
  /// pruned per colour class (matched nodes of any label-preserving
  /// bijection have equal WL colours, so no valid matching is lost);
  /// both operands carry their 2-round colours from interning.
  bool admissible(std::uint32_t i, std::uint32_t j) const {
    if (bijective_) {
      return pattern_.g.in_degree(i) == target_.g.in_degree(j) &&
             pattern_.g.out_degree(i) == target_.g.out_degree(j) &&
             pattern_.wl2[i] == target_.wl2[j];
    }
    return pattern_.g.in_degree(i) <= target_.g.in_degree(j) &&
           pattern_.g.out_degree(i) <= target_.g.out_degree(j);
  }

  /// Candidate target nodes per pattern node, as one flat array with
  /// per-node offsets (counted first, so the array is sized once).
  /// Returns false when some pattern node has no candidate at all.
  bool compute_candidates() {
    const std::uint32_t n = pattern_.g.node_count();
    candidate_offsets_.assign(n + 1, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint32_t count = 0;
      for (std::uint32_t j :
           target_.g.label_bucket(pattern_.g.node_label[i])) {
        count += admissible(i, j) ? 1 : 0;
      }
      if (count == 0) return false;
      candidate_offsets_[i + 1] = candidate_offsets_[i] + count;
    }
    candidates_.resize(candidate_offsets_[n]);
    scarcity_.assign(n, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      // The bucket is ascending, so each list starts in node order.
      Candidate* out = candidates_.data() + candidate_offsets_[i];
      for (std::uint32_t j :
           target_.g.label_bucket(pattern_.g.node_label[i])) {
        if (!admissible(i, j)) continue;
        *out++ = Candidate{
            j, node_cost(pattern_, i, target_, j, options_.cost_model)};
      }
      Candidate* first = candidates_.data() + candidate_offsets_[i];
      // Rarity of this node's colour class in the target (every
      // candidate is in that class); embedding problems (no comparable
      // colours) fall back to candidate count.
      scarcity_[i] = bijective_
                         ? target_.colour_class_size[first->node]
                         : static_cast<std::uint32_t>(out - first);
      // Cheapest candidate first: the search stays exhaustive, but the
      // list head equals the per-node minimum used by the suffix bound,
      // so the greedy first descent realizes the bound when it can.
      // Ties keep node order (the list was ascending), which is what a
      // stable sort by cost gives, without its buffer.
      std::sort(first, out, [](const Candidate& a, const Candidate& b) {
        return a.cost != b.cost ? a.cost < b.cost : a.node < b.node;
      });
    }
    return true;
  }

  /// Most-constrained-first ordering, preferring nodes adjacent to already
  /// ordered ones (keeps the partial mapping connected, enabling early
  /// adjacency checks). Ties on candidate count break towards the rarer
  /// target colour class: after the colour filter the candidate count is
  /// the *available* slice of a colour class, so rarity is the scarcity
  /// signal that survives when counts tie — the greedy descent stays on
  /// the most-constrained path (empirically the optimum on
  /// provenance-shaped graphs) and the suffix bound then prunes the
  /// proof-of-optimality phase.
  ///
  /// Each step takes the unplaced node with the least (not on the
  /// frontier, candidate count, scarcity, index). Nodes are ranked once by
  /// the last three keys; the frontier is a min-heap of ranks (placed
  /// nodes are skipped when they surface) and the rest are taken in rank
  /// order, so ordering costs O((n + groups) log n).
  void order_pattern_nodes() {
    const std::uint32_t n = pattern_.g.node_count();
    order_.clear();
    order_.reserve(n);
    std::pmr::vector<std::uint32_t> by_rank(n, memory());
    for (std::uint32_t i = 0; i < n; ++i) by_rank[i] = i;
    auto count = [this](std::uint32_t i) {
      return candidate_offsets_[i + 1] - candidate_offsets_[i];
    };
    std::sort(by_rank.begin(), by_rank.end(),
              [this, &count](std::uint32_t a, std::uint32_t b) {
                if (count(a) != count(b)) return count(a) < count(b);
                if (scarcity_[a] != scarcity_[b]) {
                  return scarcity_[a] < scarcity_[b];
                }
                return a < b;
              });
    std::pmr::vector<std::uint32_t> rank(n, memory());
    for (std::uint32_t r = 0; r < n; ++r) rank[by_rank[r]] = r;

    std::pmr::vector<char> placed(n, 0, memory());
    // Each node pushes each of its groups' other ends at most once.
    std::pmr::vector<std::uint32_t> heap(memory());
    heap.reserve(pattern_.node_groups.size());
    std::priority_queue<std::uint32_t, std::pmr::vector<std::uint32_t>,
                        std::greater<>>
        frontier(std::greater<>(), std::move(heap));
    std::uint32_t next_rank = 0;  // every node ranked below is placed
    for (std::uint32_t step = 0; step < n; ++step) {
      while (!frontier.empty() && placed[by_rank[frontier.top()]] != 0) {
        frontier.pop();
      }
      std::uint32_t chosen;
      if (!frontier.empty()) {
        chosen = by_rank[frontier.top()];
        frontier.pop();
      } else {
        while (placed[by_rank[next_rank]] != 0) ++next_rank;
        chosen = by_rank[next_rank];
      }
      placed[chosen] = 1;
      order_.push_back(chosen);
      for (std::uint32_t gi : pattern_.groups_of_node(chosen)) {
        const EdgeGroup& group = pattern_.groups[gi];
        std::uint32_t nb = group.src == chosen ? group.tgt : group.src;
        if (placed[nb] == 0) frontier.push(rank[nb]);
      }
    }
  }

  /// Admissible remaining-cost estimate: suffix_min_[pos]
  /// = sum over order positions >= pos of the node's minimum candidate
  /// cost, plus the minimum cost of every edge group decided at or after
  /// pos. A group's cost lands when its later endpoint is assigned
  /// (edge_groups_cost), and the realized per-edge cost is an injective
  /// assignment within one same-label target group — never below the
  /// cheapest same-label target edge anywhere in the graph. Neither term
  /// overestimates (node minima are taken over the full candidate list,
  /// a superset of the available candidates), so pruning on acc + suffix
  /// preserves the optimum — and the first minimum-cost solution in DFS
  /// order, hence the matching.
  void compute_suffix_min() {
    auto saturating_add = [](int a, int b) {
      return std::min(a + b, kInfinity);
    };
    // Minimum cost of each edge group, charged to the order position
    // where the group becomes fully mapped. Property-heavy edge
    // workloads put the entire optimal cost here, where the per-node
    // term is blind (ROADMAP "admissible edge-cost bounds").
    std::pmr::vector<int> group_min_at(order_.size(), 0, memory());
    if (options_.cost_model != CostModel::None) {
      std::pmr::vector<std::size_t> pos_of(order_.size(), 0, memory());
      for (std::size_t pos = 0; pos < order_.size(); ++pos) {
        pos_of[order_[pos]] = pos;
      }
      // Target edges sorted by (label, index): one label's edges are a
      // contiguous run.
      const graph::CompactGraph& t = target_.g;
      std::pmr::vector<std::uint32_t> target_by_label(t.edge_count(),
                                                      memory());
      for (std::uint32_t e = 0; e < t.edge_count(); ++e) {
        target_by_label[e] = e;
      }
      std::sort(target_by_label.begin(), target_by_label.end(),
                [&t](std::uint32_t a, std::uint32_t b) {
                  return t.edge_label[a] != t.edge_label[b]
                             ? t.edge_label[a] < t.edge_label[b]
                             : a < b;
                });
      for (const EdgeGroup& group : pattern_.groups) {
        std::size_t decided_at =
            std::max(pos_of[group.src], pos_of[group.tgt]);
        auto lo = std::lower_bound(
            target_by_label.begin(), target_by_label.end(), group.label,
            [&t](std::uint32_t e, Symbol label) {
              return t.edge_label[e] < label;
            });
        auto hi = std::upper_bound(
            lo, target_by_label.end(), group.label,
            [&t](Symbol label, std::uint32_t e) {
              return label < t.edge_label[e];
            });
        int group_min = lo == hi ? kInfinity : 0;
        if (lo != hi) {
          for (std::uint32_t pe : pattern_.edges_of(group)) {
            int edge_min = kInfinity;
            for (auto it = lo; it != hi; ++it) {
              edge_min = std::min(edge_min, prop_cost(pattern_.g.edge_props(pe),
                                                     target_.g.edge_props(*it),
                                                     options_.cost_model));
            }
            group_min = saturating_add(group_min, edge_min);
            if (group_min >= kInfinity) break;
          }
        }
        group_min_at[decided_at] =
            saturating_add(group_min_at[decided_at], group_min);
      }
    }
    suffix_min_.assign(order_.size() + 1, 0);
    for (std::size_t pos = order_.size(); pos-- > 0;) {
      int node_min = kInfinity;
      for (const Candidate& candidate : candidates(order_[pos])) {
        node_min = std::min(node_min, candidate.cost);
      }
      suffix_min_[pos] = saturating_add(
          suffix_min_[pos + 1], saturating_add(node_min, group_min_at[pos]));
    }
  }

  /// Cost contribution of all edge groups that become fully mapped when
  /// pattern node `i` is assigned. For the bijective problem also *checks*
  /// group cardinalities. Returns kInfinity when structurally
  /// inconsistent.
  int edge_groups_cost(std::uint32_t i) {
    int total = 0;
    for (std::uint32_t gi : pattern_.groups_of_node(i)) {
      const EdgeGroup& group = pattern_.groups[gi];
      std::uint32_t other = group.src == i ? group.tgt : group.src;
      if (mapping_[other] == kUnmapped) continue;  // not yet decidable
      std::uint32_t tsrc = mapping_[group.src];
      std::uint32_t ttgt = mapping_[group.tgt];
      int cost = min_group_assignment(
          pattern_, pattern_.edges_of(group), target_,
          target_.group_edges(tsrc, ttgt, group.label), options_.cost_model,
          bijective_, group_, nullptr);
      if (cost >= kInfinity) return kInfinity;
      total += cost;
      // Bijective: the target may not have extra edges between the mapped
      // pair with labels absent from the pattern's groups (checked
      // globally by edge-count equality plus per-pair equality here).
      // All groups of a pair become decidable at the same step, so the
      // pair representative runs the check exactly once.
      if (bijective_ && group.pair_representative) {
        for (std::uint32_t tgi : target_.pair_groups(tsrc, ttgt)) {
          const EdgeGroup& tgroup = target_.groups[tgi];
          if (pattern_.group_edges(group.src, group.tgt, tgroup.label)
                  .size() != tgroup.count) {
            return kInfinity;
          }
        }
      }
    }
    return total;
  }

  /// One step of accounting, on the caller's Stats: the step that
  /// takes the count past step_budget is the last one searched.
  void count_step() {
    ++stats_->steps;
    if (options_.step_budget > 0 && stats_->steps > options_.step_budget) {
      stats_->budget_exhausted = true;
    }
  }

  bool stop_early() const {
    return (options_.first_solution_only && found_any_) ||
           stats_->budget_exhausted;
  }

  void search(std::size_t pos, int acc_cost) {
    count_step();
    if (stats_->budget_exhausted) return;
    if (acc_cost + suffix_min_[pos] >= best_cost_) return;
    if (pos == order_.size()) {
      // The bound check above let only a strictly cheaper solution in.
      best_cost_ = acc_cost;
      best_node_mapping_ = mapping_;
      have_best_ = true;
      ++stats_->solutions_found;
      found_any_ = true;
      return;
    }
    std::uint32_t i = order_[pos];
    for (const Candidate& candidate : candidates(i)) {
      std::uint32_t j = candidate.node;
      if (reverse_used_[j] != 0) continue;
      if (stop_early()) return;
      mapping_[i] = j;
      reverse_used_[j] = 1;
      int group_cost = edge_groups_cost(i);
      if (group_cost < kInfinity) {
        int next = acc_cost + candidate.cost + group_cost;
        if (next + suffix_min_[pos + 1] < best_cost_) search(pos + 1, next);
      }
      mapping_[i] = kUnmapped;
      reverse_used_[j] = 0;
      if (stop_early()) return;
    }
  }

  /// Reconstruct the full matching (including the optimal edge pairing)
  /// from the best node mapping.
  Matching build_matching() {
    Matching m;
    m.cost = 0;
    m.node_index.assign(best_node_mapping_.begin(), best_node_mapping_.end());
    for (std::uint32_t i = 0; i < best_node_mapping_.size(); ++i) {
      m.cost += node_cost(pattern_, i, target_, best_node_mapping_[i],
                          options_.cost_model);
    }
    m.edge_index.assign(pattern_.g.edge_count(), kUnmapped);
    std::pmr::vector<std::pair<std::uint32_t, std::uint32_t>> pairs(
        memory());
    for (const EdgeGroup& group : pattern_.groups) {
      std::uint32_t tsrc = best_node_mapping_[group.src];
      std::uint32_t ttgt = best_node_mapping_[group.tgt];
      pairs.clear();
      int cost = min_group_assignment(
          pattern_, pattern_.edges_of(group), target_,
          target_.group_edges(tsrc, ttgt, group.label), options_.cost_model,
          bijective_, group_, &pairs);
      m.cost += cost;
      for (const auto& [pe, te] : pairs) m.edge_index[pe] = te;
    }
    return m;
  }

  std::pmr::memory_resource* memory() { return region_.resource(); }

  const InternedGraph& pattern_;
  const InternedGraph& target_;
  bool bijective_;
  SearchOptions options_;
  Stats* stats_;

  /// The call's arena; declared before everything that draws from it.
  util::Region region_;
  /// Pattern node i's candidates are candidates_[candidate_offsets_[i]
  /// .. candidate_offsets_[i + 1]).
  std::pmr::vector<std::uint32_t> candidate_offsets_;
  std::pmr::vector<Candidate> candidates_;
  std::pmr::vector<std::uint32_t> scarcity_;  // target colour-class size
  std::pmr::vector<std::uint32_t> order_;
  std::pmr::vector<int> suffix_min_;
  // The search state: the partial assignment and the best one so far.
  std::pmr::vector<std::uint32_t> mapping_;  // pattern index -> target index
  std::pmr::vector<char> reverse_used_;      // target index taken?
  std::pmr::vector<std::uint32_t> best_node_mapping_;
  GroupScratch group_;
  int best_cost_ = kInfinity;
  bool have_best_ = false;
  bool found_any_ = false;
};

}  // namespace

std::optional<Matching> best_isomorphism(const InternedGraph& g1,
                                         const InternedGraph& g2,
                                         const SearchOptions& options,
                                         Stats* stats) {
  Stats local;
  SearchEngine engine(g1, g2, /*bijective=*/true, options,
                      stats != nullptr ? stats : &local);
  return engine.run();
}

std::optional<Matching> best_subgraph_embedding(const InternedGraph& g1,
                                                const InternedGraph& g2,
                                                const SearchOptions& options,
                                                Stats* stats) {
  Stats local;
  SearchEngine engine(g1, g2, /*bijective=*/false, options,
                      stats != nullptr ? stats : &local);
  return engine.run();
}

bool similar(const InternedGraph& g1, const InternedGraph& g2) {
  SearchOptions options;
  options.cost_model = CostModel::None;
  options.first_solution_only = true;
  Stats stats;
  // Only feasibility is asked for, so no Matching is built.
  return SearchEngine(g1, g2, /*bijective=*/true, options, &stats)
      .search_best();
}

std::optional<Matching> best_isomorphism(const PropertyGraph& g1,
                                         const PropertyGraph& g2,
                                         const SearchOptions& options,
                                         Stats* stats) {
  SymbolTable symbols;
  InternedGraph pattern(g1, symbols);
  InternedGraph target(g2, symbols);
  return best_isomorphism(pattern, target, options, stats);
}

std::optional<Matching> best_subgraph_embedding(const PropertyGraph& g1,
                                                const PropertyGraph& g2,
                                                const SearchOptions& options,
                                                Stats* stats) {
  SymbolTable symbols;
  InternedGraph pattern(g1, symbols);
  InternedGraph target(g2, symbols);
  return best_subgraph_embedding(pattern, target, options, stats);
}

bool similar(const PropertyGraph& g1, const PropertyGraph& g2) {
  SearchOptions options;
  options.cost_model = CostModel::None;
  options.first_solution_only = true;
  return best_isomorphism(g1, g2, options).has_value();
}

}  // namespace provmark::matcher
