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
// Two layers stack on the branch-and-bound core:
//
//  * The WL-scarcity search order: bijective candidate lists are pruned
//    to the pattern node's WL colour class and tried cheapest-first; the
//    most constrained pattern node is assigned next, with candidate-count
//    ties broken towards the rarer target colour class; and the cost
//    bound is tightened with an admissible lower bound on the cost of
//    the unassigned suffix.
//  * Deterministic parallel search (SearchOptions::threads > 1): the
//    root candidate space is partitioned into fixed prefix subtrees
//    dispatched onto the runtime pool. Workers prune against their own
//    strict local bound plus a shared monotonically tightening global
//    bound with *allow-equal* semantics, so no interleaving can prune
//    the first minimum-cost solution of any subtree; merging per-subtree
//    winners in subtree order therefore reproduces the serial search's
//    matching bit-for-bit (see docs/matcher.md "Search strategy").
//
// The engine reports the same feasibility and optimal cost as the
// string-keyed reference in legacy_matcher.cpp and the exhaustive
// brute_force oracle, which the equivalence test enforces.
#include "matcher/matcher.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "graph/compact.h"
#include "matcher/interned.h"
#include "runtime/thread_pool.h"

namespace provmark::matcher {

namespace {

using graph::CompactProps;
using graph::PropertyGraph;
using graph::Symbol;
using graph::SymbolTable;

constexpr int kInfinity = std::numeric_limits<int>::max() / 4;
constexpr std::uint32_t kUnmapped = std::numeric_limits<std::uint32_t>::max();
/// Parallel workers flush their step counts into the shared budget
/// counter in batches of this size, so budget enforcement costs one
/// relaxed load per step and one shared write per batch. Cooperative
/// cancellation is therefore accurate to one batch per worker.
constexpr std::size_t kStepFlushBatch = 512;

/// Monotonically tighten `target` towards `value` (atomic fetch-min).
void atomic_min(std::atomic<int>& target, int value) {
  int current = target.load(std::memory_order_relaxed);
  while (value < current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

/// Property-mismatch cost under the given model; allocation-free merge of
/// the sorted (key,value) symbol vectors.
int prop_cost(const CompactProps& a, const CompactProps& b, CostModel model) {
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

/// Minimum-cost injective assignment of pattern edges to target edges
/// within one group. Groups are tiny in practice — almost always a single
/// edge, which is handled allocation-free; parallel same-label edges
/// between one node pair fall back to exhaustive DFS.
int min_group_assignment(
    const InternedGraph& pattern,
    const std::vector<std::uint32_t>& pattern_edges,
    const InternedGraph& target, const std::vector<std::uint32_t>* target_edges,
    CostModel model, bool bijective,
    std::vector<std::pair<std::uint32_t, std::uint32_t>>* best_pairs_out) {
  static const std::vector<std::uint32_t> kEmpty;
  const std::vector<std::uint32_t>& tgt =
      target_edges != nullptr ? *target_edges : kEmpty;
  const std::size_t np = pattern_edges.size();
  const std::size_t nt = tgt.size();
  if (np > nt) return kInfinity;
  if (bijective && np != nt) return kInfinity;

  if (np == 1) {
    // The common case: no parallel same-label edges between this pair.
    const CompactProps& pp = pattern.g.edge_props[pattern_edges[0]];
    int best = kInfinity;
    std::uint32_t best_te = kUnmapped;
    for (std::uint32_t te : tgt) {
      int c = prop_cost(pp, target.g.edge_props[te], model);
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

  std::vector<std::vector<int>> cost(np, std::vector<int>(nt, 0));
  for (std::size_t i = 0; i < np; ++i) {
    for (std::size_t j = 0; j < nt; ++j) {
      cost[i][j] = prop_cost(pattern.g.edge_props[pattern_edges[i]],
                             target.g.edge_props[tgt[j]], model);
    }
  }
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
          pattern_edges[i],
          tgt[static_cast<std::size_t>(best_assignment[i])]);
    }
  }
  return best;
}

/// Coordination block shared by the workers of one parallel search.
/// The bound is read on every prune check by every worker while the
/// step counter is written on every flush, so they live on separate
/// cache lines — sharing one would put a hot read on a line invalidated
/// by every worker's batch flush.
struct SharedSearch {
  /// Global best-cost bound, tightened monotonically by every recorded
  /// solution. Pruned against with allow-equal semantics (see
  /// SearchState) so determinism survives any interleaving.
  alignas(64) std::atomic<int> bound{kInfinity};
  /// Cooperative cancellation: set by the worker that trips the step
  /// budget; every sibling unwinds within one flush batch.
  std::atomic<bool> cancelled{false};
  /// Steps across all workers (plus the serial prefix enumeration),
  /// flushed in batches; the budget is enforced against this total.
  alignas(64) std::atomic<std::size_t> steps{0};
};

/// Mutable state of one search participant. The serial search uses a
/// single state with no `shared` block, writing directly to the caller's
/// Stats — byte-for-byte the pre-parallel behaviour. Each parallel
/// worker owns a private state (local Stats, local best) merged exactly
/// once after the pool joins, so no counter is ever double-counted.
struct SearchState {
  std::vector<std::uint32_t> mapping;      // pattern index -> target index
  std::vector<bool> reverse_used;          // target index taken?
  std::vector<std::uint32_t> best_mapping;
  int best_cost = kInfinity;
  bool have_best = false;
  bool found_any = false;
  Stats* stats = nullptr;
  SharedSearch* shared = nullptr;  // null in the serial search
  std::size_t unflushed = 0;       // steps not yet flushed to shared
};

class SearchEngine {
 public:
  SearchEngine(const InternedGraph& pattern, const InternedGraph& target,
               bool bijective, const SearchOptions& options, Stats* stats)
      : pattern_(pattern),
        target_(target),
        bijective_(bijective),
        options_(options),
        stats_(stats) {
    if (pattern.g.symbols != target.g.symbols) {
      throw std::invalid_argument(
          "matcher: operands interned against different symbol tables");
    }
  }

  std::optional<Matching> run() {
    if (bijective_) {
      // Cheap necessary conditions first.
      if (pattern_.g.node_count() != target_.g.node_count() ||
          pattern_.g.edge_count() != target_.g.edge_count()) {
        return std::nullopt;
      }
      if (options_.candidate_pruning && !label_histograms_match()) {
        return std::nullopt;
      }
    } else if (pattern_.g.node_count() > target_.g.node_count() ||
               pattern_.g.edge_count() > target_.g.edge_count()) {
      return std::nullopt;
    }

    if (!compute_candidates()) return std::nullopt;
    order_pattern_nodes();
    if (options_.cost_bounding) compute_suffix_min();

    best_cost_ = kInfinity;
    have_best_ = false;
    // The parallel search needs at least one undecided level below the
    // partition point and a well-defined "first solution" is only
    // meaningful in DFS order, so first_solution_only stays serial.
    if (options_.threads > 1 && !options_.first_solution_only &&
        order_.size() > 1) {
      run_parallel();
    } else {
      SearchState state;
      init_state(state);
      state.stats = stats_;
      search(state, 0, 0);
      if (state.have_best) {
        best_cost_ = state.best_cost;
        best_node_mapping_ = std::move(state.best_mapping);
        have_best_ = true;
      }
    }
    if (have_best_) {
      return build_matching();
    }
    return std::nullopt;
  }

 private:
  /// A candidate target node with its precomputed node-property cost
  /// (computed once here instead of on every assignment attempt).
  struct Candidate {
    std::uint32_t node;
    int cost;
  };

  /// Multisets of node labels and edge labels must agree for the graphs
  /// to be similar. Symbols are shared, so this is integer counting.
  bool label_histograms_match() const {
    if (pattern_.g.label_buckets.size() != target_.g.label_buckets.size()) {
      return false;
    }
    for (const auto& [label, bucket] : pattern_.g.label_buckets) {
      auto it = target_.g.label_buckets.find(label);
      if (it == target_.g.label_buckets.end() ||
          it->second.size() != bucket.size()) {
        return false;
      }
    }
    std::unordered_map<Symbol, std::size_t> pattern_edges, target_edges;
    for (Symbol label : pattern_.g.edge_label) ++pattern_edges[label];
    for (Symbol label : target_.g.edge_label) ++target_edges[label];
    return pattern_edges == target_edges;
  }

  /// Candidate target nodes per pattern node. Returns false when some
  /// pattern node has no candidate at all.
  bool compute_candidates() {
    const std::uint32_t n = pattern_.g.node_count();
    candidates_.assign(n, {});
    scarcity_.assign(n, 0);
    // Bijective candidate lists are pruned per colour class even with
    // the generic pruning knob off: the colour filter is part of the
    // search order (matched nodes of any label-preserving bijection have
    // equal WL colours, so no valid matching is lost).
    std::vector<std::uint64_t> wl1, wl2;
    std::unordered_map<std::uint64_t, std::uint32_t> colour_freq;
    if (bijective_) {
      wl1 = graph::compact_wl_colours(pattern_.g, 2);
      wl2 = graph::compact_wl_colours(target_.g, 2);
      for (std::uint64_t colour : wl2) ++colour_freq[colour];
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      // Only same-label target nodes can match; the bucket is ascending,
      // preserving the baseline's candidate order.
      auto bucket = target_.g.label_buckets.find(pattern_.g.node_label[i]);
      if (bucket != target_.g.label_buckets.end()) {
        for (std::uint32_t j : bucket->second) {
          if (options_.candidate_pruning) {
            if (bijective_) {
              if (pattern_.g.in_degree(i) != target_.g.in_degree(j) ||
                  pattern_.g.out_degree(i) != target_.g.out_degree(j)) {
                continue;
              }
            } else {
              if (pattern_.g.in_degree(i) > target_.g.in_degree(j) ||
                  pattern_.g.out_degree(i) > target_.g.out_degree(j)) {
                continue;
              }
            }
          }
          if (bijective_ && wl1[i] != wl2[j]) continue;
          candidates_[i].push_back(Candidate{
              j, prop_cost(pattern_.g.node_props[i], target_.g.node_props[j],
                           options_.cost_model)});
        }
      }
      if (candidates_[i].empty()) return false;
      // Rarity of this node's colour class in the target; embedding
      // problems (no comparable colours) fall back to candidate count.
      scarcity_[i] = bijective_
                         ? colour_freq[wl1[i]]
                         : static_cast<std::uint32_t>(candidates_[i].size());
      // Cheapest candidate first: the search stays exhaustive, but the
      // list head equals the per-node minimum used by the suffix bound,
      // so the greedy first descent realizes the bound when it can.
      std::stable_sort(candidates_[i].begin(), candidates_[i].end(),
                       [](const Candidate& a, const Candidate& b) {
                         return a.cost < b.cost;
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
  void order_pattern_nodes() {
    const std::uint32_t n = pattern_.g.node_count();
    order_.clear();
    order_.reserve(n);
    std::vector<bool> placed(n, false);
    std::set<std::uint32_t> frontier;

    for (std::uint32_t step = 0; step < n; ++step) {
      std::uint32_t chosen = kUnmapped;
      // Prefer frontier nodes; among them, fewest candidates, with
      // count ties broken towards the rarer colour class; remaining
      // ties keep the lowest index.
      for (std::uint32_t i = 0; i < n; ++i) {
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
        if (candidates_[i].size() != candidates_[chosen].size()) {
          if (candidates_[i].size() < candidates_[chosen].size()) chosen = i;
          continue;
        }
        if (scarcity_[i] < scarcity_[chosen]) chosen = i;
      }
      placed[chosen] = true;
      order_.push_back(chosen);
      for (std::uint32_t gi : pattern_.groups_of_node[chosen]) {
        const EdgeGroup& group = pattern_.groups[gi];
        std::uint32_t nb = group.src == chosen ? group.tgt : group.src;
        if (!placed[nb]) frontier.insert(nb);
      }
      frontier.erase(chosen);
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
    std::vector<int> group_min_at(order_.size(), 0);
    if (options_.cost_model != CostModel::None) {
      std::vector<std::size_t> pos_of(order_.size(), 0);
      for (std::size_t pos = 0; pos < order_.size(); ++pos) {
        pos_of[order_[pos]] = pos;
      }
      std::unordered_map<Symbol, std::vector<std::uint32_t>> target_by_label;
      for (std::uint32_t e = 0; e < target_.g.edge_count(); ++e) {
        target_by_label[target_.g.edge_label[e]].push_back(e);
      }
      for (const EdgeGroup& group : pattern_.groups) {
        std::size_t decided_at =
            std::max(pos_of[group.src], pos_of[group.tgt]);
        auto it = target_by_label.find(group.label);
        int group_min = it == target_by_label.end() ? kInfinity : 0;
        if (it != target_by_label.end()) {
          for (std::uint32_t pe : group.edges) {
            int edge_min = kInfinity;
            for (std::uint32_t te : it->second) {
              edge_min = std::min(
                  edge_min, prop_cost(pattern_.g.edge_props[pe],
                                      target_.g.edge_props[te],
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
      for (const Candidate& candidate : candidates_[order_[pos]]) {
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
  int edge_groups_cost(const std::vector<std::uint32_t>& mapping,
                       std::uint32_t i) const {
    int total = 0;
    for (std::uint32_t gi : pattern_.groups_of_node[i]) {
      const EdgeGroup& group = pattern_.groups[gi];
      std::uint32_t other = group.src == i ? group.tgt : group.src;
      if (mapping[other] == kUnmapped) continue;  // not yet decidable
      std::uint32_t tsrc = mapping[group.src];
      std::uint32_t ttgt = mapping[group.tgt];
      const std::vector<std::uint32_t>* target_edges =
          target_.group_edges(tsrc, ttgt, group.label);
      int cost = min_group_assignment(pattern_, group.edges, target_,
                                      target_edges, options_.cost_model,
                                      bijective_, nullptr);
      if (cost >= kInfinity) return kInfinity;
      total += cost;
      // Bijective: the target may not have extra edges between the mapped
      // pair with labels absent from the pattern's groups (checked
      // globally by edge-count equality plus per-pair equality here).
      // All groups of a pair become decidable at the same step, so the
      // pair representative runs the check exactly once.
      if (bijective_ && group.pair_representative) {
        const std::vector<std::uint32_t>* target_pair =
            target_.pair_groups(tsrc, ttgt);
        if (target_pair != nullptr) {
          for (std::uint32_t tgi : *target_pair) {
            const EdgeGroup& tgroup = target_.groups[tgi];
            const std::vector<std::uint32_t>* pattern_edges =
                pattern_.group_edges(group.src, group.tgt, tgroup.label);
            std::size_t pattern_count =
                pattern_edges == nullptr ? 0 : pattern_edges->size();
            if (pattern_count != tgroup.edges.size()) return kInfinity;
          }
        }
      }
    }
    return total;
  }

  void init_state(SearchState& state) const {
    state.mapping.assign(pattern_.g.node_count(), kUnmapped);
    state.reverse_used.assign(target_.g.node_count(), false);
  }

  /// Publish a parallel participant's unflushed steps into the shared
  /// counter and enforce the budget against the new total. Called every
  /// kStepFlushBatch steps *and* when a task ends (tasks are small by
  /// design — ~16 per thread — so most never fill a batch; without the
  /// end-of-task check a fleet of sub-batch tasks could overrun the
  /// budget unnoticed). The un-checked window is therefore at most one
  /// batch per in-flight participant.
  void flush_steps(SearchState& s) const {
    if (s.unflushed == 0) return;
    std::size_t total =
        s.shared->steps.fetch_add(s.unflushed, std::memory_order_relaxed) +
        s.unflushed;
    s.unflushed = 0;
    if (options_.step_budget > 0 && total > options_.step_budget) {
      s.stats->budget_exhausted = true;
      s.shared->cancelled.store(true, std::memory_order_relaxed);
    }
  }

  /// One step of accounting. Serial: the caller's Stats carry the count
  /// and the budget check, exactly as before. Parallel: the worker's
  /// local Stats accumulate (merged once at the end) and batches are
  /// flushed through flush_steps — the hot step path touches no shared
  /// cache line in between.
  void count_step(SearchState& s) const {
    ++s.stats->steps;
    if (s.shared == nullptr) {
      if (options_.step_budget > 0 && s.stats->steps > options_.step_budget) {
        s.stats->budget_exhausted = true;
      }
      return;
    }
    if (++s.unflushed >= kStepFlushBatch) flush_steps(s);
  }

  /// Would a branch whose completed cost is at least `value` be cut?
  /// The local bound is strict (serial semantics); the shared bound
  /// allows equality, so a concurrently tightened bound can never prune
  /// a subtree's first minimum-cost solution — the determinism linchpin.
  bool bound_exceeded(const SearchState& s, int value) const {
    if (value >= s.best_cost) return true;
    if (s.shared != nullptr &&
        value > s.shared->bound.load(std::memory_order_relaxed)) {
      return true;
    }
    return false;
  }

  bool stop_early(const SearchState& s) const {
    if (options_.first_solution_only && s.found_any) return true;
    if (s.stats->budget_exhausted) return true;
    if (s.shared != nullptr &&
        s.shared->cancelled.load(std::memory_order_relaxed)) {
      return true;
    }
    return false;
  }

  void search(SearchState& s, std::size_t pos, int acc_cost) const {
    count_step(s);
    if (s.stats->budget_exhausted) return;
    if (s.shared != nullptr &&
        s.shared->cancelled.load(std::memory_order_relaxed)) {
      return;
    }
    if (options_.cost_bounding &&
        bound_exceeded(s, acc_cost + suffix_min_[pos])) {
      return;
    }
    if (pos == order_.size()) {
      if (acc_cost < s.best_cost || !s.have_best) {
        s.best_cost = acc_cost;
        s.best_mapping = s.mapping;
        s.have_best = true;
        if (s.shared != nullptr) atomic_min(s.shared->bound, acc_cost);
      }
      ++s.stats->solutions_found;
      s.found_any = true;
      return;
    }
    std::uint32_t i = order_[pos];
    for (const Candidate& candidate : candidates_[i]) {
      std::uint32_t j = candidate.node;
      if (s.reverse_used[j]) continue;
      if (stop_early(s)) return;
      s.mapping[i] = j;
      s.reverse_used[j] = true;
      int group_cost = edge_groups_cost(s.mapping, i);
      if (group_cost < kInfinity) {
        int next = acc_cost + candidate.cost + group_cost;
        if (!options_.cost_bounding ||
            !bound_exceeded(s, next + suffix_min_[pos + 1])) {
          search(s, pos + 1, next);
        }
      }
      s.mapping[i] = kUnmapped;
      s.reverse_used[j] = false;
      if (stop_early(s)) return;
    }
  }

  /// The deterministic parallel search: enumerate every structurally
  /// consistent assignment prefix down to a depth with enough subtrees
  /// to feed the pool, run each subtree as an independent task, and
  /// merge per-task winners in subtree (= serial DFS) order. The merge
  /// picks the first strictly better cost, which — together with the
  /// allow-equal shared bound — reproduces exactly the matching the
  /// serial search would return.
  void run_parallel() {
    const std::size_t n = order_.size();
    struct Prefix {
      std::vector<std::uint32_t> nodes;  // target per order position
      int acc = 0;
    };
    std::vector<Prefix> tasks(1);
    std::size_t depth = 0;
    // Oversubscribe the partition: subtree sizes are wildly uneven (the
    // whole point of pruning), so many small tasks drained in order from
    // the pool's shared counter keep every worker busy without work
    // stealing. Enumeration stays a negligible serial prefix.
    const std::size_t want = static_cast<std::size_t>(options_.threads) * 16;

    SearchState scratch;
    init_state(scratch);
    scratch.stats = stats_;
    while (depth + 1 < n && tasks.size() < want) {
      std::vector<Prefix> next;
      const std::uint32_t i = order_[depth];
      for (const Prefix& prefix : tasks) {
        for (std::size_t q = 0; q < depth; ++q) {
          scratch.mapping[order_[q]] = prefix.nodes[q];
          scratch.reverse_used[prefix.nodes[q]] = true;
        }
        for (const Candidate& candidate : candidates_[i]) {
          const std::uint32_t j = candidate.node;
          if (scratch.reverse_used[j]) continue;
          count_step(scratch);  // enumeration steps are search steps
          if (scratch.stats->budget_exhausted) return;
          scratch.mapping[i] = j;
          scratch.reverse_used[j] = true;
          int group_cost = edge_groups_cost(scratch.mapping, i);
          if (group_cost < kInfinity) {
            Prefix extended = prefix;
            extended.nodes.push_back(j);
            extended.acc = prefix.acc + candidate.cost + group_cost;
            next.push_back(std::move(extended));
          }
          scratch.mapping[i] = kUnmapped;
          scratch.reverse_used[j] = false;
        }
        for (std::size_t q = 0; q < depth; ++q) {
          scratch.mapping[order_[q]] = kUnmapped;
          scratch.reverse_used[prefix.nodes[q]] = false;
        }
      }
      tasks = std::move(next);
      ++depth;
      if (tasks.empty()) return;  // no structurally consistent prefix
    }

    SharedSearch shared;
    shared.steps.store(stats_->steps, std::memory_order_relaxed);
    runtime::ThreadPool& pool =
        options_.pool != nullptr ? *options_.pool : runtime::default_pool();

    struct TaskResult {
      Stats stats;
      std::vector<std::uint32_t> best_mapping;
      int best_cost = kInfinity;
      bool have_best = false;
    };
    std::vector<TaskResult> results(tasks.size());
    const std::size_t prefix_depth = depth;
    pool.parallel_for(tasks.size(), [&](std::size_t t) {
      // All hot state lives on the worker's own stack/heap; the shared
      // `results` slot is written exactly once at the end. Pointing
      // s.stats into results[t] directly would false-share the step
      // counter across adjacent slots on every single step.
      Stats local;
      SearchState s;
      init_state(s);
      s.stats = &local;
      s.shared = &shared;
      for (std::size_t q = 0; q < prefix_depth; ++q) {
        s.mapping[order_[q]] = tasks[t].nodes[q];
        s.reverse_used[tasks[t].nodes[q]] = true;
      }
      if (!shared.cancelled.load(std::memory_order_relaxed)) {
        search(s, prefix_depth, tasks[t].acc);
      }
      flush_steps(s);
      results[t].stats = local;
      if (s.have_best) {
        results[t].best_cost = s.best_cost;
        results[t].best_mapping = std::move(s.best_mapping);
        results[t].have_best = true;
      }
    });

    // Deterministic merge: totals are sums, the winner is the first
    // subtree (in DFS order) with a strictly better cost.
    stats_->steps = shared.steps.load(std::memory_order_relaxed);
    bool exhausted = shared.cancelled.load(std::memory_order_relaxed);
    for (const TaskResult& result : results) {
      stats_->solutions_found += result.stats.solutions_found;
      exhausted = exhausted || result.stats.budget_exhausted;
      if (result.have_best && (!have_best_ || result.best_cost < best_cost_)) {
        best_cost_ = result.best_cost;
        best_node_mapping_ = result.best_mapping;
        have_best_ = true;
      }
    }
    if (exhausted) stats_->budget_exhausted = true;
  }

  /// Reconstruct the full matching (including the optimal edge pairing)
  /// from the best node mapping. The only place string ids reappear.
  Matching build_matching() {
    Matching m;
    m.cost = 0;
    const std::vector<graph::Node>& pattern_nodes =
        pattern_.g.source->nodes();
    const std::vector<graph::Node>& target_nodes = target_.g.source->nodes();
    for (std::uint32_t i = 0; i < best_node_mapping_.size(); ++i) {
      m.node_map[pattern_nodes[i].id] =
          target_nodes[best_node_mapping_[i]].id;
      m.cost += prop_cost(pattern_.g.node_props[i],
                          target_.g.node_props[best_node_mapping_[i]],
                          options_.cost_model);
    }
    const std::vector<graph::Edge>& pattern_edges =
        pattern_.g.source->edges();
    const std::vector<graph::Edge>& target_edges = target_.g.source->edges();
    for (const EdgeGroup& group : pattern_.groups) {
      std::uint32_t tsrc = best_node_mapping_[group.src];
      std::uint32_t ttgt = best_node_mapping_[group.tgt];
      std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
      int cost = min_group_assignment(
          pattern_, group.edges, target_,
          target_.group_edges(tsrc, ttgt, group.label), options_.cost_model,
          bijective_, &pairs);
      m.cost += cost;
      for (const auto& [pe, te] : pairs) {
        m.edge_map[pattern_edges[pe].id] = target_edges[te].id;
      }
    }
    return m;
  }

  const InternedGraph& pattern_;
  const InternedGraph& target_;
  bool bijective_;
  SearchOptions options_;
  Stats* stats_;

  std::vector<std::vector<Candidate>> candidates_;
  std::vector<std::uint32_t> scarcity_;  // target colour-class size
  std::vector<std::uint32_t> order_;
  std::vector<int> suffix_min_;  // filled only when cost_bounding is on
  std::vector<std::uint32_t> best_node_mapping_;
  int best_cost_ = kInfinity;
  bool have_best_ = false;
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
  return best_isomorphism(g1, g2, options).has_value();
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
