#include "graph/algorithms.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <set>

#include "graph/compact.h"
#include "util/rng.h"
#include "util/strings.h"

namespace provmark::graph {

std::map<Id, std::uint64_t> wl_colours(const PropertyGraph& g, int rounds) {
  // Refinement runs on the CSR form (O(V+E) per round instead of the
  // naive O(V*E) edge rescans); the colour values are unchanged.
  SymbolTable symbols;
  CompactGraph cg = CompactGraph::build(view_of(g), symbols);
  std::vector<std::uint64_t> colour = compact_wl_colours(cg, rounds);
  std::map<Id, std::uint64_t> out;
  for (std::size_t i = 0; i < g.nodes().size(); ++i) {
    out[g.nodes()[i].id] = colour[i];
  }
  return out;
}

std::uint64_t structural_digest(const PropertyGraph& g) {
  // Three WL rounds suffice to distinguish the small provenance graphs we
  // see in practice; collisions only cost matcher time, never correctness.
  SymbolTable symbols;
  CompactGraph cg = CompactGraph::build(view_of(g), symbols);
  return structural_digest(cg, compact_wl_colours(cg, kDigestWlRounds));
}

std::uint64_t full_digest(const PropertyGraph& g) {
  // Extend the node colouring with property hashes, then redo WL.
  PropertyGraph annotated;
  for (const Node& n : g.nodes()) {
    std::uint64_t ph = 0;
    for (const auto& [k, v] : n.props) {
      ph = hash_mix(ph, hash_mix(util::stable_hash(k), util::stable_hash(v)));
    }
    annotated.add_node(n.id, n.label + "#" + std::to_string(ph));
  }
  for (const Edge& e : g.edges()) {
    std::uint64_t ph = 0;
    for (const auto& [k, v] : e.props) {
      ph = hash_mix(ph, hash_mix(util::stable_hash(k), util::stable_hash(v)));
    }
    annotated.add_edge(e.id, e.src, e.tgt,
                       e.label + "#" + std::to_string(ph));
  }
  return structural_digest(annotated);
}

std::vector<std::vector<Id>> connected_components(const PropertyGraph& g) {
  std::map<Id, Id> parent;
  std::function<Id(const Id&)> find = [&](const Id& x) -> Id {
    Id root = x;
    while (parent.at(root) != root) root = parent.at(root);
    // Path compression.
    Id cur = x;
    while (parent.at(cur) != root) {
      Id next = parent.at(cur);
      parent[cur] = root;
      cur = next;
    }
    return root;
  };
  for (const Node& n : g.nodes()) parent[n.id] = n.id;
  for (const Edge& e : g.edges()) {
    Id a = find(e.src);
    Id b = find(e.tgt);
    if (a != b) parent[a] = b;
  }
  std::map<Id, std::vector<Id>> groups;
  for (const Node& n : g.nodes()) groups[find(n.id)].push_back(n.id);
  std::vector<std::vector<Id>> out;
  for (auto& [root, members] : groups) {
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::map<Id, DegreeSignature> degree_signatures(const PropertyGraph& g) {
  std::map<Id, DegreeSignature> out;
  for (const Node& n : g.nodes()) {
    out[n.id] = DegreeSignature{n.label, 0, 0};
  }
  for (const Edge& e : g.edges()) {
    ++out[e.src].out;
    ++out[e.tgt].in;
  }
  return out;
}

std::map<Label, std::size_t> node_label_histogram(const PropertyGraph& g) {
  std::map<Label, std::size_t> out;
  for (const Node& n : g.nodes()) ++out[n.label];
  return out;
}

std::map<Label, std::size_t> edge_label_histogram(const PropertyGraph& g) {
  std::map<Label, std::size_t> out;
  for (const Edge& e : g.edges()) ++out[e.label];
  return out;
}

std::string structure_summary(const PropertyGraph& g) {
  std::size_t components = connected_components(g).size();
  std::size_t props = 0;
  for (const Node& n : g.nodes()) props += n.props.size();
  for (const Edge& e : g.edges()) props += e.props.size();
  return util::format("%zu nodes, %zu edges, %zu components, %zu properties",
                      g.node_count(), g.edge_count(), components, props);
}

}  // namespace provmark::graph
