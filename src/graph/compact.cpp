#include "graph/compact.h"

#include <algorithm>
#include <span>
#include <stdexcept>

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

int one_sided_mismatch(CompactProps a, CompactProps b) {
  int cost = 0;
  std::size_t j = 0;
  for (const auto& [key, value] : a) {
    while (j < b.size() && b[j].first < key) ++j;
    if (j >= b.size() || b[j].first != key || b[j].second != value) ++cost;
  }
  return cost;
}

int symmetric_mismatch(CompactProps a, CompactProps b) {
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

Symbol find_prop(CompactProps props, Symbol key) {
  auto it = std::lower_bound(
      props.begin(), props.end(), key,
      [](const CompactProp& p, Symbol k) { return p.first < k; });
  if (it == props.end() || it->first != key) return kNoSymbol;
  return it->second;
}

Properties resolve_props(CompactProps props, const SymbolTable& symbols) {
  Properties out;
  for (const auto& [k, v] : props) {
    out.emplace(symbols.resolve(k), symbols.resolve(v));
  }
  return out;
}

PropertyGraph resolve_graph(const CompactGraph& g) {
  const SymbolTable& symbols = *g.symbols;
  PropertyGraph out;
  for (std::uint32_t v = 0; v < g.node_count(); ++v) {
    out.add_node(std::string(g.node_id[v]), symbols.resolve(g.node_label[v]),
                 resolve_props(g.node_props(v), symbols));
  }
  for (std::uint32_t e = 0; e < g.edge_count(); ++e) {
    out.add_edge(std::string(g.edge_id[e]),
                 std::string(g.node_id[g.edge_src[e]]),
                 std::string(g.node_id[g.edge_tgt[e]]),
                 symbols.resolve(g.edge_label[e]),
                 resolve_props(g.edge_props(e), symbols));
  }
  return out;
}

namespace {

/// Append an element's properties to `out`, sorted by key symbol; a
/// repeated key keeps its last value. Elements carry a handful of
/// properties, so an insertion sort of the appended tail is the cheapest
/// stable sort here.
void append_props(std::span<const GraphView::Prop> props,
                  SymbolTable& symbols, std::pmr::vector<CompactProp>& out) {
  const std::size_t first = out.size();
  for (const GraphView::Prop& p : props) {
    const Symbol key = symbols.intern(p.key);
    const Symbol value = symbols.intern(p.value);
    std::size_t at = out.size();
    while (at > first && out[at - 1].first > key) --at;
    if (at > first && out[at - 1].first == key) {
      out[at - 1].second = value;
    } else {
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), {key, value});
    }
  }
}

}  // namespace

std::span<const std::uint32_t> CompactGraph::label_bucket(
    Symbol label) const {
  auto it = std::lower_bound(bucket_label.begin(), bucket_label.end(), label);
  if (it == bucket_label.end() || *it != label) return {};
  const std::size_t k = static_cast<std::size_t>(it - bucket_label.begin());
  return {bucket_nodes.data() + bucket_offsets[k],
          bucket_nodes.data() + bucket_offsets[k + 1]};
}

CompactGraph::CompactGraph(std::pmr::memory_resource* memory)
    : node_id(memory),
      edge_id(memory),
      node_label(memory),
      edge_src(memory),
      edge_tgt(memory),
      edge_label(memory),
      out_offsets(memory),
      out_edges(memory),
      in_offsets(memory),
      in_edges(memory),
      bucket_label(memory),
      bucket_offsets(memory),
      bucket_nodes(memory),
      props(memory),
      prop_offsets(memory) {}

CompactGraph CompactGraph::build(const GraphView& view, SymbolTable& symbols) {
  std::pmr::memory_resource* memory = view.resource();
  CompactGraph out(memory);
  out.symbols = &symbols;

  const auto n = static_cast<std::uint32_t>(view.nodes.size());
  const auto m = static_cast<std::uint32_t>(view.edges.size());

  out.node_label.reserve(n);
  out.node_id.reserve(n);
  for (const GraphView::NodeRef& node : view.nodes) {
    out.node_label.push_back(symbols.intern(node.label));
    out.node_id.push_back(node.id);
  }

  out.edge_src.reserve(m);
  out.edge_tgt.reserve(m);
  out.edge_label.reserve(m);
  out.edge_id.reserve(m);
  for (const GraphView::EdgeRef& edge : view.edges) {
    out.edge_src.push_back(edge.src);
    out.edge_tgt.push_back(edge.tgt);
    out.edge_label.push_back(symbols.intern(edge.label));
    out.edge_id.push_back(edge.id);
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
  std::pmr::vector<std::uint32_t> out_fill(
      out.out_offsets.begin(), out.out_offsets.end() - 1, memory);
  std::pmr::vector<std::uint32_t> in_fill(out.in_offsets.begin(),
                                          out.in_offsets.end() - 1, memory);
  for (std::uint32_t e = 0; e < m; ++e) {
    out.out_edges[out_fill[out.edge_src[e]]++] = e;
    out.in_edges[in_fill[out.edge_tgt[e]]++] = e;
  }

  // Label buckets: nodes sorted by (label, index), cut into runs.
  out.bucket_nodes.resize(n);
  for (std::uint32_t v = 0; v < n; ++v) out.bucket_nodes[v] = v;
  std::sort(out.bucket_nodes.begin(), out.bucket_nodes.end(),
            [&out](std::uint32_t a, std::uint32_t b) {
              return out.node_label[a] != out.node_label[b]
                         ? out.node_label[a] < out.node_label[b]
                         : a < b;
            });
  for (std::uint32_t k = 0; k < n; ++k) {
    const Symbol label = out.node_label[out.bucket_nodes[k]];
    if (out.bucket_label.empty() || out.bucket_label.back() != label) {
      out.bucket_label.push_back(label);
      out.bucket_offsets.push_back(k);
    }
  }
  out.bucket_offsets.push_back(n);
  return out;
}

void CompactGraph::intern_properties(const GraphView& view,
                                     SymbolTable& symbols) {
  if (has_properties()) return;
  const std::uint32_t n = node_count();
  const std::uint32_t m = edge_count();
  if (view.nodes.size() != n || view.edges.size() != m) {
    throw std::invalid_argument(
        "intern_properties: the view is not the one the graph was built from");
  }
  props.reserve(view.props.size());
  prop_offsets.reserve(std::size_t{n} + m + 1);
  prop_offsets.push_back(0);
  for (std::uint32_t v = 0; v < n; ++v) {
    append_props(view.props_of(view.nodes[v]), symbols, props);
    prop_offsets.push_back(static_cast<std::uint32_t>(props.size()));
  }
  for (std::uint32_t e = 0; e < m; ++e) {
    append_props(view.props_of(view.edges[e]), symbols, props);
    prop_offsets.push_back(static_cast<std::uint32_t>(props.size()));
  }
}

std::vector<std::uint64_t> compact_wl_colours(const CompactGraph& g,
                                              int rounds) {
  const std::uint32_t n = g.node_count();
  std::vector<std::uint64_t> colour(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    colour[v] = g.symbols->hash(g.node_label[v]);
  }
  std::vector<std::uint64_t> scratch(n);
  wl_refine(g, colour, scratch, rounds);
  return colour;
}

void wl_refine(const CompactGraph& g, std::span<std::uint64_t> colour,
               std::span<std::uint64_t> scratch, int rounds) {
  const std::uint32_t n = g.node_count();
  // Rounds alternate between the two buffers; an odd count ends in
  // `scratch` and is copied back.
  std::span<std::uint64_t> current = colour;
  std::span<std::uint64_t> next = scratch;
  for (int round = 0; round < rounds; ++round) {
    for (std::uint32_t v = 0; v < n; ++v) {
      UnorderedHashSum in_sig, out_sig;
      for (std::uint32_t k = g.in_offsets[v]; k < g.in_offsets[v + 1]; ++k) {
        std::uint32_t e = g.in_edges[k];
        in_sig.add(hash_mix(g.symbols->hash(g.edge_label[e]),
                            current[g.edge_src[e]]));
      }
      for (std::uint32_t k = g.out_offsets[v]; k < g.out_offsets[v + 1];
           ++k) {
        std::uint32_t e = g.out_edges[k];
        out_sig.add(hash_mix(g.symbols->hash(g.edge_label[e]),
                             current[g.edge_tgt[e]]));
      }
      std::uint64_t h = current[v];
      h = hash_mix(h, in_sig.value());
      h = hash_mix(hash_mix(h, 0xABCDULL), out_sig.value());
      next[v] = h;
    }
    std::swap(current, next);
  }
  if (current.data() != colour.data()) {
    std::copy(current.begin(), current.end(), colour.begin());
  }
}

std::uint64_t structural_digest(const CompactGraph& g,
                                std::span<const std::uint64_t> colour) {
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
