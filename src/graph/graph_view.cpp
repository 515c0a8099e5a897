#include "graph/graph_view.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

namespace provmark::graph {

PropertyGraph GraphView::materialize() const {
  PropertyGraph g;
  for (const NodeRef& n : nodes) {
    g.add_node(std::string(n.id), std::string(n.label), properties(n));
  }
  for (const EdgeRef& e : edges) {
    g.add_edge(std::string(e.id), std::string(nodes[e.src].id),
               std::string(nodes[e.tgt].id), std::string(e.label),
               properties(e));
  }
  return g;
}

std::span<const GraphView::Prop> GraphView::ordered(
    std::span<const Prop> props, std::pmr::vector<Prop>& scratch) {
  auto before = [](const Prop& a, const Prop& b) { return a.key < b.key; };
  if (std::adjacent_find(props.begin(), props.end(),
                         [&](const Prop& a, const Prop& b) {
                           return !before(a, b);
                         }) == props.end()) {
    return props;
  }
  scratch.assign(props.begin(), props.end());
  // Stable, so a repeated key's values stay in list order; recorder
  // elements hold a handful of properties, where insertion sort is
  // cheapest.
  if (scratch.size() > 32) {
    std::stable_sort(scratch.begin(), scratch.end(), before);
  } else {
    for (std::size_t i = 1; i < scratch.size(); ++i) {
      const Prop p = scratch[i];
      std::size_t j = i;
      for (; j > 0 && before(p, scratch[j - 1]); --j) {
        scratch[j] = scratch[j - 1];
      }
      scratch[j] = p;
    }
  }
  // Keep the last of each run of one key.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    if (i + 1 < scratch.size() && scratch[i + 1].key == scratch[i].key) {
      continue;
    }
    scratch[kept++] = scratch[i];
  }
  scratch.resize(kept);
  return scratch;
}

GraphView view_of(const PropertyGraph& g) {
  GraphView view;
  const std::vector<Node>& nodes = g.nodes();
  view.nodes.reserve(nodes.size());
  view.edges.reserve(g.edge_count());
  auto add_props = [&view](const Properties& props) {
    for (const auto& [k, v] : props) view.props.push_back({k, v});
    return static_cast<std::uint32_t>(props.size());
  };
  for (const Node& n : nodes) {
    const auto first = static_cast<std::uint32_t>(view.props.size());
    view.nodes.push_back({n.id, n.label, first, add_props(n.props)});
  }
  auto index_of = [&](const Id& id) {
    return static_cast<std::uint32_t>(g.find_node(id) - nodes.data());
  };
  for (const Edge& e : g.edges()) {
    const auto first = static_cast<std::uint32_t>(view.props.size());
    view.edges.push_back({e.id, index_of(e.src), index_of(e.tgt), e.label,
                          first, add_props(e.props)});
  }
  return view;
}

GraphView copy_of(const PropertyGraph& g) {
  GraphView view = view_of(g);
  auto own = [&view](std::string_view& s) {
    s = view.arena.keep(std::string(s));
  };
  for (GraphView::NodeRef& n : view.nodes) {
    own(n.id);
    own(n.label);
  }
  for (GraphView::EdgeRef& e : view.edges) {
    own(e.id);
    own(e.label);
  }
  for (GraphView::Prop& p : view.props) {
    own(p.key);
    own(p.value);
  }
  return view;
}

// -- builder ------------------------------------------------------------------

namespace {

/// The id table's hash: 8 bytes at a time (the last 8 read overlapping),
/// each word multiplied in, then one finalizing mix so the low bits the
/// table indexes by depend on every byte. Element ids are short, where
/// this costs a few multiplies against std::hash's byte-oriented
/// _Hash_bytes; the hash only places ids in the table, so it decides no
/// order anywhere.
std::uint32_t hash_id(std::string_view id) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  const char* p = id.data();
  const std::size_t n = id.size();
  std::uint64_t h = n * kMul;
  auto mix = [&h](std::uint64_t word) { h = (h ^ word) * kMul; };
  if (n >= 8) {
    std::uint64_t word = 0;
    for (std::size_t i = 0; i + 8 < n; i += 8) {
      std::memcpy(&word, p + i, 8);
      mix(word);
    }
    std::memcpy(&word, p + n - 8, 8);
    mix(word);
  } else {
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < n; ++i) {
      word |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
              << (8 * i);
    }
    mix(word);
  }
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 32;
  return static_cast<std::uint32_t>(h);
}

}  // namespace

GraphViewBuilder::GraphViewBuilder(GraphView& view)
    : view_(view),
      slots_(std::bit_ceil(std::max<std::size_t>(
                 32, view.nodes.capacity() + view.edges.capacity())) *
                 2,
             view.resource()) {}

std::string_view GraphViewBuilder::id_of(std::uint32_t element) const {
  return (element & kEdgeBit) != 0
             ? view_.edges[(element & ~kEdgeBit) - 1].id
             : view_.nodes[element - 1].id;
}

std::size_t GraphViewBuilder::probe(std::string_view id,
                                    std::uint32_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.element == 0) return i;
    if (slot.hash == hash && id_of(slot.element) == id) return i;
  }
}

std::uint32_t GraphViewBuilder::find_node(std::string_view id) const {
  const Slot& slot = slots_[probe(id, hash_id(id))];
  if (slot.element == 0 || (slot.element & kEdgeBit) != 0) return kNoNode;
  return slot.element - 1;
}

void GraphViewBuilder::claim(std::string_view id, std::uint32_t element) {
  if ((used_ + 1) * 2 > slots_.size()) {
    // Grow at half load; the stored hashes place every entry again.
    std::pmr::vector<Slot> old(slots_.size() * 2, slots_.get_allocator());
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.element == 0) continue;
      std::size_t i = slot.hash & mask;
      while (slots_[i].element != 0) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }
  const std::uint32_t hash = hash_id(id);
  Slot& slot = slots_[probe(id, hash)];
  if (slot.element != 0) {
    throw std::invalid_argument("duplicate element id: " + std::string(id));
  }
  slot = Slot{element, hash};
  ++used_;
}

std::uint32_t GraphViewBuilder::add_node(std::string_view id,
                                         std::string_view label,
                                         std::uint32_t first_prop,
                                         std::uint32_t prop_count) {
  const auto index = static_cast<std::uint32_t>(view_.nodes.size());
  claim(id, index + 1);
  view_.nodes.push_back({id, label, first_prop, prop_count});
  return index;
}

void GraphViewBuilder::add_edge(std::string_view id, std::uint32_t src,
                                std::uint32_t tgt, std::string_view label,
                                std::uint32_t first_prop,
                                std::uint32_t prop_count) {
  const auto index = static_cast<std::uint32_t>(view_.edges.size());
  claim(id, (index + 1) | kEdgeBit);
  view_.edges.push_back({id, src, tgt, label, first_prop, prop_count});
}

void GraphViewBuilder::add_edge(std::string_view id, std::string_view src,
                                std::string_view tgt, std::string_view label,
                                std::uint32_t first_prop,
                                std::uint32_t prop_count) {
  const Slot& taken = slots_[probe(id, hash_id(id))];
  if (taken.element != 0) {
    throw std::invalid_argument("duplicate element id: " + std::string(id));
  }
  const std::uint32_t s = find_node(src);
  const std::uint32_t t = find_node(tgt);
  if (s == kNoNode || t == kNoNode) {
    throw std::invalid_argument(
        "edge " + std::string(id) + ": missing " +
        (s == kNoNode ? "source node " + std::string(src)
                      : "target node " + std::string(tgt)));
  }
  add_edge(id, s, t, label, first_prop, prop_count);
}

}  // namespace provmark::graph
