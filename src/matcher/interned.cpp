#include "matcher/interned.h"

#include <algorithm>
#include <limits>
#include <span>

namespace provmark::matcher {

namespace {
constexpr std::uint32_t kUnmapped = std::numeric_limits<std::uint32_t>::max();

/// (symbol, count) pairs of `labels`, sorted by symbol, into `out`; the
/// scratch copy draws from `out`'s resource.
void label_counts(std::span<const graph::Symbol> labels,
                  std::pmr::vector<std::pair<graph::Symbol, std::uint32_t>>&
                      out) {
  std::pmr::vector<graph::Symbol> sorted(labels.begin(), labels.end(),
                                         out.get_allocator());
  std::sort(sorted.begin(), sorted.end());
  for (graph::Symbol label : sorted) {
    if (out.empty() || out.back().first != label) out.emplace_back(label, 0);
    ++out.back().second;
  }
}

}  // namespace

InternedGraph::InternedGraph(const graph::PropertyGraph& graph,
                             graph::SymbolTable& symbols)
    : InternedGraph(graph::view_of(graph), symbols, /*with_properties=*/true) {
}

InternedGraph::InternedGraph(const graph::GraphView& view,
                             graph::SymbolTable& symbols)
    : InternedGraph(view, symbols, /*with_properties=*/false) {}

InternedGraph::InternedGraph(const graph::GraphView& view,
                             graph::SymbolTable& symbols,
                             bool with_properties)
    : g(graph::CompactGraph::build(view, symbols)),
      groups(view.resource()),
      grouped_edges(view.resource()),
      src_group_offsets(view.resource()),
      src_groups(view.resource()),
      node_group_offsets(view.resource()),
      node_groups(view.resource()),
      node_label_counts(view.resource()),
      edge_label_counts(view.resource()),
      wl2(view.resource()),
      colour_class_size(view.resource()) {
  if (with_properties) g.intern_properties(view, symbols);
  std::pmr::memory_resource* memory = view.resource();
  const std::uint32_t n = g.node_count();
  const std::uint32_t m = g.edge_count();

  // Each source's out-edges (ascending in the CSR) sorted by (tgt,
  // label, edge): every (src, tgt, label) group is then one run, its
  // edges ascending, and the runs of one source come in (tgt, label)
  // order, which is the per-source pair index.
  grouped_edges = g.out_edges;
  for (std::uint32_t s = 0; s < n; ++s) {
    std::sort(grouped_edges.begin() + g.out_offsets[s],
              grouped_edges.begin() + g.out_offsets[s + 1],
              [this](std::uint32_t a, std::uint32_t b) {
                if (g.edge_tgt[a] != g.edge_tgt[b]) {
                  return g.edge_tgt[a] < g.edge_tgt[b];
                }
                if (g.edge_label[a] != g.edge_label[b]) {
                  return g.edge_label[a] < g.edge_label[b];
                }
                return a < b;
              });
  }
  // Runs in that order; a run is numbered later by its first edge.
  std::pmr::vector<std::uint32_t> run_at_first_edge(m, kUnmapped, memory);
  std::pmr::vector<std::uint32_t> run_first(memory);  // into grouped_edges
  run_first.reserve(std::size_t{m} + 1);
  src_group_offsets.assign(n + 1, 0);
  for (std::uint32_t s = 0; s < n; ++s) {
    for (std::uint32_t k = g.out_offsets[s]; k < g.out_offsets[s + 1]; ++k) {
      const std::uint32_t e = grouped_edges[k];
      if (k > g.out_offsets[s]) {
        const std::uint32_t prev = grouped_edges[k - 1];
        if (g.edge_tgt[prev] == g.edge_tgt[e] &&
            g.edge_label[prev] == g.edge_label[e]) {
          continue;
        }
      }
      run_at_first_edge[e] = static_cast<std::uint32_t>(run_first.size());
      run_first.push_back(k);
    }
    src_group_offsets[s + 1] = static_cast<std::uint32_t>(run_first.size());
  }
  run_first.push_back(m);

  // The runs of one (src, tgt) pair are adjacent; the one whose first
  // edge comes first is the pair's representative.
  const auto group_count = static_cast<std::uint32_t>(run_first.size() - 1);
  auto first_edge = [&](std::uint32_t run) {
    return grouped_edges[run_first[run]];
  };
  std::pmr::vector<char> representative(group_count, 0, memory);
  for (std::uint32_t run = 0; run < group_count;) {
    const std::uint32_t t = g.edge_tgt[first_edge(run)];
    const std::uint32_t s = g.edge_src[first_edge(run)];
    std::uint32_t best = run;
    std::uint32_t next = run + 1;
    for (; next < src_group_offsets[s + 1] &&
           g.edge_tgt[first_edge(next)] == t;
         ++next) {
      if (first_edge(next) < first_edge(best)) best = next;
    }
    representative[best] = 1;
    run = next;
  }

  // Number the groups by first appearance in edge order; src_groups
  // maps each run, in run order, to its group.
  src_groups.resize(group_count);
  groups.reserve(group_count);
  for (std::uint32_t e = 0; e < m; ++e) {
    const std::uint32_t run = run_at_first_edge[e];
    if (run == kUnmapped) continue;
    src_groups[run] = static_cast<std::uint32_t>(groups.size());
    groups.push_back(EdgeGroup{g.edge_src[e], g.edge_tgt[e], g.edge_label[e],
                               representative[run] != 0, run_first[run],
                               run_first[run + 1] - run_first[run]});
  }

  // Groups per incident node, in group order.
  node_group_offsets.assign(n + 1, 0);
  for (const EdgeGroup& group : groups) {
    ++node_group_offsets[group.src + 1];
    if (group.tgt != group.src) ++node_group_offsets[group.tgt + 1];
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    node_group_offsets[v + 1] += node_group_offsets[v];
  }
  node_groups.resize(node_group_offsets[n]);
  std::pmr::vector<std::uint32_t> fill(node_group_offsets.begin(),
                                       node_group_offsets.end() - 1, memory);
  for (std::uint32_t gi = 0; gi < group_count; ++gi) {
    node_groups[fill[groups[gi].src]++] = gi;
    if (groups[gi].tgt != groups[gi].src) {
      node_groups[fill[groups[gi].tgt]++] = gi;
    }
  }

  label_counts(g.node_label, node_label_counts);
  label_counts(g.edge_label, edge_label_counts);
  wl2.resize(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    wl2[v] = symbols.hash(g.node_label[v]);
  }
  std::pmr::vector<std::uint64_t> sorted(n, memory);
  graph::wl_refine(g, wl2, sorted, 2);
  sorted.assign(wl2.begin(), wl2.end());
  std::sort(sorted.begin(), sorted.end());
  colour_class_size.reserve(wl2.size());
  for (std::uint64_t colour : wl2) {
    auto [first, last] = std::equal_range(sorted.begin(), sorted.end(), colour);
    colour_class_size.push_back(static_cast<std::uint32_t>(last - first));
  }
}

std::uint64_t InternedGraph::structural_digest(
    std::pmr::memory_resource* scratch) const {
  std::pmr::vector<std::uint64_t> colour(wl2.begin(), wl2.end(), scratch);
  std::pmr::vector<std::uint64_t> next(wl2.size(), scratch);
  graph::wl_refine(g, colour, next, graph::kDigestWlRounds - 2);
  return graph::structural_digest(g, colour);
}

std::span<const std::uint32_t> InternedGraph::pair_groups(
    std::uint32_t s, std::uint32_t t) const {
  const std::uint32_t* first = src_groups.data() + src_group_offsets[s];
  const std::uint32_t* last = src_groups.data() + src_group_offsets[s + 1];
  const std::uint32_t* lo = std::lower_bound(
      first, last, t,
      [this](std::uint32_t gi, std::uint32_t v) { return groups[gi].tgt < v; });
  const std::uint32_t* hi = std::upper_bound(
      lo, last, t,
      [this](std::uint32_t v, std::uint32_t gi) { return v < groups[gi].tgt; });
  return {lo, hi};
}

std::span<const std::uint32_t> InternedGraph::group_edges(
    std::uint32_t s, std::uint32_t t, graph::Symbol label) const {
  for (std::uint32_t gi : pair_groups(s, t)) {
    if (groups[gi].label == label) return edges_of(groups[gi]);
  }
  return {};
}

}  // namespace provmark::matcher
