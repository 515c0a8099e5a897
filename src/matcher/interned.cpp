#include "matcher/interned.h"

#include <algorithm>
#include <limits>

namespace provmark::matcher {

namespace {
constexpr std::uint32_t kUnmapped = std::numeric_limits<std::uint32_t>::max();

/// (symbol, count) pairs of `labels`, sorted by symbol.
std::vector<std::pair<graph::Symbol, std::uint32_t>> label_counts(
    std::vector<graph::Symbol> labels) {
  std::sort(labels.begin(), labels.end());
  std::vector<std::pair<graph::Symbol, std::uint32_t>> out;
  for (graph::Symbol label : labels) {
    if (out.empty() || out.back().first != label) out.emplace_back(label, 0);
    ++out.back().second;
  }
  return out;
}

}  // namespace

InternedGraph::InternedGraph(const graph::PropertyGraph& graph,
                             graph::SymbolTable& symbols)
    : InternedGraph(graph::view_of(graph), symbols) {}

InternedGraph::InternedGraph(const graph::GraphView& view,
                             graph::SymbolTable& symbols)
    : g(graph::CompactGraph::build(view, symbols)) {
  groups_of_node.resize(g.node_count());
  for (std::uint32_t e = 0; e < g.edge_count(); ++e) {
    std::uint32_t s = g.edge_src[e];
    std::uint32_t t = g.edge_tgt[e];
    std::vector<std::uint32_t>& bucket = groups_by_pair[pair_key(s, t)];
    std::uint32_t group = kUnmapped;
    for (std::uint32_t gi : bucket) {
      if (groups[gi].label == g.edge_label[e]) {
        group = gi;
        break;
      }
    }
    if (group == kUnmapped) {
      group = static_cast<std::uint32_t>(groups.size());
      groups.push_back(EdgeGroup{s, t, g.edge_label[e], bucket.empty(), {}});
      bucket.push_back(group);
      groups_of_node[s].push_back(group);
      if (t != s) groups_of_node[t].push_back(group);
    }
    groups[group].edges.push_back(e);
  }

  node_label_counts = label_counts(g.node_label);
  edge_label_counts = label_counts(g.edge_label);
  wl2 = graph::compact_wl_colours(g, 2);
  std::vector<std::uint64_t> sorted = wl2;
  std::sort(sorted.begin(), sorted.end());
  colour_class_size.reserve(wl2.size());
  for (std::uint64_t colour : wl2) {
    auto [first, last] = std::equal_range(sorted.begin(), sorted.end(), colour);
    colour_class_size.push_back(static_cast<std::uint32_t>(last - first));
  }
}

std::uint64_t InternedGraph::structural_digest() const {
  std::vector<std::uint64_t> colour = wl2;
  graph::wl_refine(g, colour, graph::kDigestWlRounds - 2);
  return graph::structural_digest(g, colour);
}

const std::vector<std::uint32_t>* InternedGraph::group_edges(
    std::uint32_t s, std::uint32_t t, graph::Symbol label) const {
  const std::vector<std::uint32_t>* bucket = pair_groups(s, t);
  if (bucket == nullptr) return nullptr;
  for (std::uint32_t gi : *bucket) {
    if (groups[gi].label == label) return &groups[gi].edges;
  }
  return nullptr;
}

}  // namespace provmark::matcher
