#include "core/compare.h"

#include <algorithm>
#include <string>
#include <vector>

#include "matcher/interned.h"

namespace provmark::core {

CompareResult compare_graphs(const matcher::InternedGraph& background,
                             const matcher::InternedGraph& foreground,
                             const CompareOptions&) {
  CompareResult result;

  matcher::SearchOptions search;
  search.cost_model = matcher::CostModel::OneSided;
  std::optional<matcher::Matching> matching = matcher::best_subgraph_embedding(
      background, foreground, search, &result.search_stats);
  if (!matching.has_value()) {
    result.embedding_failed = true;
    return result;
  }
  result.embedding_cost = matching->cost;

  const graph::CompactGraph& fg = foreground.g;
  const graph::SymbolTable& symbols = *fg.symbols;

  // Matched foreground elements correspond to background activity.
  std::vector<char> matched_node(fg.node_count(), 0);
  std::vector<char> matched_edge(fg.edge_count(), 0);
  for (std::uint32_t v : matching->node_index) matched_node[v] = 1;
  for (std::uint32_t e : matching->edge_index) matched_edge[e] = 1;

  // Survivors: foreground edges not matched, and their endpoints.
  std::vector<char> needed(fg.node_count(), 0);
  for (std::uint32_t v = 0; v < fg.node_count(); ++v) {
    if (!matched_node[v]) needed[v] = 1;
  }
  std::vector<std::uint32_t> surviving_edges;
  for (std::uint32_t e = 0; e < fg.edge_count(); ++e) {
    if (matched_edge[e]) continue;
    surviving_edges.push_back(e);
    needed[fg.edge_src[e]] = 1;
    needed[fg.edge_tgt[e]] = 1;
  }

  // Result nodes go in id order.
  std::vector<std::uint32_t> nodes;
  for (std::uint32_t v = 0; v < fg.node_count(); ++v) {
    if (needed[v]) nodes.push_back(v);
  }
  std::sort(nodes.begin(), nodes.end(), [&fg](std::uint32_t a, std::uint32_t b) {
    return fg.node_id[a] < fg.node_id[b];
  });
  for (std::uint32_t v : nodes) {
    std::string id(fg.node_id[v]);
    const std::string& label = symbols.resolve(fg.node_label[v]);
    if (matched_node[v]) {
      // A pre-existing endpoint: keep it as a dummy placeholder so the
      // result stays a complete graph (green/gray nodes in the figures).
      result.dummy_nodes.push_back(id);
      result.benchmark.add_node(std::move(id), label, {{"dummy", "true"}});
    } else {
      result.benchmark.add_node(std::move(id), label,
                                graph::resolve_props(fg.node_props(v), symbols));
    }
  }
  for (std::uint32_t e : surviving_edges) {
    result.benchmark.add_edge(std::string(fg.edge_id[e]),
                              std::string(fg.node_id[fg.edge_src[e]]),
                              std::string(fg.node_id[fg.edge_tgt[e]]),
                              symbols.resolve(fg.edge_label[e]),
                              graph::resolve_props(fg.edge_props(e), symbols));
  }
  return result;
}

}  // namespace provmark::core
