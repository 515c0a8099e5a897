#include "graph/compact.h"

#include <algorithm>
#include <iterator>
#include <span>

#include "util/rng.h"

namespace provmark::graph {

std::size_t SymbolTable::find_slot(std::string_view s,
                                   std::uint64_t h) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = (h ^ (h >> 29)) & mask;; i = (i + 1) & mask) {
    const Symbol id = index_[i];
    if (id == kNoSymbol || (hashes_[id] == h && strings_[id] == s)) return i;
  }
}

Symbol SymbolTable::intern(std::string_view s) {
  const std::uint64_t h = util::stable_hash(s);
  std::size_t slot = find_slot(s, h);
  if (index_[slot] != kNoSymbol) return index_[slot];
  const auto id = static_cast<Symbol>(strings_.size());
  strings_.emplace_back(s);
  hashes_.push_back(h);
  if (2 * strings_.size() <= index_.size()) {
    index_[slot] = id;
    return id;
  }
  // Grow at half load and place every symbol again.
  index_.assign(index_.size() * 2, kNoSymbol);
  for (Symbol placed = 0; placed <= id; ++placed) {
    index_[find_slot(strings_[placed], hashes_[placed])] = placed;
  }
  return id;
}

Symbol SymbolTable::lookup(std::string_view s) const {
  return index_[find_slot(s, util::stable_hash(s))];
}

int one_sided_mismatch(const CompactProps& a, const CompactProps& b) {
  int cost = 0;
  std::size_t j = 0;
  for (const auto& [key, value] : a) {
    while (j < b.size() && b[j].first < key) ++j;
    if (j >= b.size() || b[j].first != key || b[j].second != value) ++cost;
  }
  return cost;
}

int symmetric_mismatch(const CompactProps& a, const CompactProps& b) {
  int cost = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].first < b[j].first) {
      ++cost;  // key only in a
      ++i;
    } else if (b[j].first < a[i].first) {
      ++cost;  // key only in b
      ++j;
    } else {
      if (a[i].second != b[j].second) cost += 2;  // both sides mismatch
      ++i;
      ++j;
    }
  }
  cost += static_cast<int>((a.size() - i) + (b.size() - j));
  return cost;
}

Symbol find_prop(const CompactProps& props, Symbol key) {
  auto it = std::lower_bound(
      props.begin(), props.end(), key,
      [](const std::pair<Symbol, Symbol>& p, Symbol k) { return p.first < k; });
  if (it == props.end() || it->first != key) return kNoSymbol;
  return it->second;
}

Properties resolve_props(const CompactProps& props,
                         const SymbolTable& symbols) {
  Properties out;
  for (const auto& [k, v] : props) {
    out.emplace(symbols.resolve(k), symbols.resolve(v));
  }
  return out;
}

namespace {

/// Intern an element's properties, sorted by key symbol; a repeated key
/// keeps its last value. Elements carry a handful of properties, so an
/// insertion sort is the cheapest stable sort here.
CompactProps intern_props(std::span<const GraphView::Prop> props,
                          SymbolTable& symbols) {
  CompactProps out;
  out.reserve(props.size());
  for (const GraphView::Prop& p : props) {
    const Symbol key = symbols.intern(p.key);
    const Symbol value = symbols.intern(p.value);
    auto it = out.end();
    while (it != out.begin() && std::prev(it)->first > key) --it;
    if (it != out.begin() && std::prev(it)->first == key) {
      std::prev(it)->second = value;
    } else {
      out.insert(it, {key, value});
    }
  }
  return out;
}

}  // namespace

CompactGraph CompactGraph::build(const GraphView& view, SymbolTable& symbols,
                                 bool topology_only) {
  CompactGraph out;
  out.symbols = &symbols;

  const auto n = static_cast<std::uint32_t>(view.nodes.size());
  const auto m = static_cast<std::uint32_t>(view.edges.size());

  out.node_label.reserve(n);
  if (!topology_only) {
    out.node_id.reserve(n);
    out.node_props.reserve(n);
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    const GraphView::NodeRef& node = view.nodes[v];
    const Symbol label = symbols.intern(node.label);
    out.node_label.push_back(label);
    if (topology_only) continue;
    out.node_id.push_back(node.id);
    out.label_buckets[label].push_back(v);
    out.node_props.push_back(intern_props(view.props_of(node), symbols));
  }

  out.edge_src.reserve(m);
  out.edge_tgt.reserve(m);
  out.edge_label.reserve(m);
  if (!topology_only) {
    out.edge_id.reserve(m);
    out.edge_props.reserve(m);
  }
  for (const GraphView::EdgeRef& edge : view.edges) {
    out.edge_src.push_back(edge.src);
    out.edge_tgt.push_back(edge.tgt);
    out.edge_label.push_back(symbols.intern(edge.label));
    if (topology_only) continue;
    out.edge_id.push_back(edge.id);
    out.edge_props.push_back(intern_props(view.props_of(edge), symbols));
  }

  // CSR: count, prefix-sum, fill (edge order preserved within each node).
  out.out_offsets.assign(n + 1, 0);
  out.in_offsets.assign(n + 1, 0);
  for (std::uint32_t e = 0; e < m; ++e) {
    ++out.out_offsets[out.edge_src[e] + 1];
    ++out.in_offsets[out.edge_tgt[e] + 1];
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    out.out_offsets[v + 1] += out.out_offsets[v];
    out.in_offsets[v + 1] += out.in_offsets[v];
  }
  out.out_edges.resize(m);
  out.in_edges.resize(m);
  std::vector<std::uint32_t> out_fill(out.out_offsets.begin(),
                                      out.out_offsets.end() - 1);
  std::vector<std::uint32_t> in_fill(out.in_offsets.begin(),
                                     out.in_offsets.end() - 1);
  for (std::uint32_t e = 0; e < m; ++e) {
    out.out_edges[out_fill[out.edge_src[e]]++] = e;
    out.in_edges[in_fill[out.edge_tgt[e]]++] = e;
  }
  return out;
}

std::vector<std::uint64_t> compact_wl_colours(const CompactGraph& g,
                                              int rounds) {
  const std::uint32_t n = g.node_count();
  std::vector<std::uint64_t> colour(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    colour[v] = g.symbols->hash(g.node_label[v]);
  }
  wl_refine(g, colour, rounds);
  return colour;
}

void wl_refine(const CompactGraph& g, std::vector<std::uint64_t>& colour,
               int rounds) {
  const std::uint32_t n = g.node_count();
  std::vector<std::uint64_t> next(n);
  for (int round = 0; round < rounds; ++round) {
    for (std::uint32_t v = 0; v < n; ++v) {
      UnorderedHashSum in_sig, out_sig;
      for (std::uint32_t k = g.in_offsets[v]; k < g.in_offsets[v + 1]; ++k) {
        std::uint32_t e = g.in_edges[k];
        in_sig.add(hash_mix(g.symbols->hash(g.edge_label[e]),
                            colour[g.edge_src[e]]));
      }
      for (std::uint32_t k = g.out_offsets[v]; k < g.out_offsets[v + 1];
           ++k) {
        std::uint32_t e = g.out_edges[k];
        out_sig.add(hash_mix(g.symbols->hash(g.edge_label[e]),
                             colour[g.edge_tgt[e]]));
      }
      std::uint64_t h = colour[v];
      h = hash_mix(h, in_sig.value());
      h = hash_mix(hash_mix(h, 0xABCDULL), out_sig.value());
      next[v] = h;
    }
    colour.swap(next);
  }
}

std::uint64_t structural_digest(const CompactGraph& g,
                                const std::vector<std::uint64_t>& colour) {
  UnorderedHashSum node_hashes;
  for (std::uint64_t c : colour) node_hashes.add(c);
  UnorderedHashSum edge_hashes;
  for (std::uint32_t e = 0; e < g.edge_count(); ++e) {
    std::uint64_t h = g.symbols->hash(g.edge_label[e]);
    h = hash_mix(h, colour[g.edge_src[e]]);
    h = hash_mix(hash_mix(h, 0x77ULL), colour[g.edge_tgt[e]]);
    edge_hashes.add(h);
  }
  return hash_mix(node_hashes.value(),
                  hash_mix(edge_hashes.value(),
                           hash_mix(g.node_count(), g.edge_count())));
}

}  // namespace provmark::graph
