#include "core/compare.h"

#include <set>

#include "matcher/interned.h"

namespace provmark::core {

CompareResult compare_graphs(const graph::PropertyGraph& background,
                             const graph::PropertyGraph& foreground,
                             const CompareOptions& options) {
  graph::SymbolTable symbols;
  matcher::InternedGraph bg(background, symbols);
  matcher::InternedGraph fg(foreground, symbols);
  return compare_graphs(bg, fg, options);
}

CompareResult compare_graphs(const matcher::InternedGraph& background,
                             const matcher::InternedGraph& foreground,
                             const CompareOptions& options) {
  CompareResult result;

  matcher::SearchOptions search;
  search.cost_model = matcher::CostModel::OneSided;
  search.candidate_pruning = options.candidate_pruning;
  search.cost_bounding = options.cost_bounding;
  options.search.apply(search);
  std::optional<matcher::Matching> matching = matcher::best_subgraph_embedding(
      background, foreground, search, &result.search_stats);
  if (!matching.has_value()) {
    result.embedding_failed = true;
    return result;
  }
  result.embedding_cost = matching->cost;

  const graph::PropertyGraph& fg = *foreground.g.source;

  // Matched foreground elements correspond to background activity.
  std::set<graph::Id> matched_nodes;
  std::set<graph::Id> matched_edges;
  for (const auto& [bg, fgid] : matching->node_map) matched_nodes.insert(fgid);
  for (const auto& [bg, fgid] : matching->edge_map) matched_edges.insert(fgid);

  // Survivors: foreground edges not matched, and their endpoints.
  std::set<graph::Id> needed_nodes;
  for (const graph::Node& n : fg.nodes()) {
    if (matched_nodes.count(n.id) == 0) needed_nodes.insert(n.id);
  }
  std::vector<const graph::Edge*> surviving_edges;
  for (const graph::Edge& e : fg.edges()) {
    if (matched_edges.count(e.id) > 0) continue;
    surviving_edges.push_back(&e);
    needed_nodes.insert(e.src);
    needed_nodes.insert(e.tgt);
  }

  for (const graph::Id& id : needed_nodes) {
    const graph::Node* n = fg.find_node(id);
    if (matched_nodes.count(id) > 0) {
      // A pre-existing endpoint: keep it as a dummy placeholder so the
      // result stays a complete graph (green/gray nodes in the figures).
      result.benchmark.add_node(n->id, n->label, {{"dummy", "true"}});
      result.dummy_nodes.push_back(n->id);
    } else {
      result.benchmark.add_node(n->id, n->label, n->props);
    }
  }
  for (const graph::Edge* e : surviving_edges) {
    result.benchmark.add_edge(e->id, e->src, e->tgt, e->label, e->props);
  }
  return result;
}

}  // namespace provmark::core
