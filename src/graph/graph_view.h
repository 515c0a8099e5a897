// A property graph of string views: how a trial's graph is written and
// read on the trial path.
//
// The recorders build their graph as a GraphView (ids and computed values
// in the arena, trace strings referenced in place) and the writers in
// formats/ serialize one. The transformation stage (§3.3) reads each
// trial's document once: the readers in formats/ emit a GraphView with
// element ids, labels and properties as string views into the document
// and each edge's endpoints resolved to node indices. Only strings the
// document does not hold verbatim live in the view's own arena: decoded
// escapes, the compact text of non-string JSON values, and DOT's
// synthetic edge ids. graph::CompactGraph::build interns a view into the
// matcher's integer form; materialize() turns it into a PropertyGraph
// where a string graph is needed.
//
// A view keeps PropertyGraph's rules: ids are unique across nodes and
// edges, and every edge's endpoints are nodes of the view
// (GraphViewBuilder checks both, with PropertyGraph's exceptions and
// messages). An element's properties are listed in document order and
// may repeat a key; the last value wins, as it does when a reader
// assigns into graph::Properties. Both CompactGraph::build and
// materialize() apply that rule.
//
// Lifetime: a view is valid while the strings it points into live — the
// document it was read from, or the event trace a recorder built it
// from. It is move-only, because its arena moves with it; a moved view's
// string views stay valid.
//
// Memory: the element and property lists and the arena draw from the
// view's memory resource — the heap by default. A recorder builds its
// view in the recorded trial's region (systems/recorded_graph.h), and
// the transformation stage reads each trial into a region of its own
// (core/trials.h), where the reader's scratch goes too. The writers in
// formats/ take their scratch from the same resource. Move assignment
// hands the resource over with the lists.
#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/property_graph.h"
#include "util/strings.h"

namespace provmark::graph {

struct GraphView {
  struct Prop {
    std::string_view key;
    std::string_view value;
  };
  struct NodeRef {
    std::string_view id;
    std::string_view label;
    std::uint32_t first_prop = 0;  ///< range in `props`
    std::uint32_t prop_count = 0;
  };
  struct EdgeRef {
    std::string_view id;
    std::uint32_t src = 0;  ///< index into `nodes`
    std::uint32_t tgt = 0;
    std::string_view label;
    std::uint32_t first_prop = 0;
    std::uint32_t prop_count = 0;
  };

  std::pmr::vector<NodeRef> nodes;  ///< in PropertyGraph insertion order
  std::pmr::vector<EdgeRef> edges;
  std::pmr::vector<Prop> props;
  util::StringArena arena;

  GraphView() = default;
  /// An empty view whose lists and arena draw from `memory`.
  explicit GraphView(std::pmr::memory_resource* memory)
      : nodes(memory), edges(memory), props(memory), arena(memory) {}
  GraphView(GraphView&&) = default;
  /// Takes `other` over whole, its memory resource included, so a view
  /// read into a region and assigned stays in that region.
  GraphView& operator=(GraphView&& other) noexcept {
    if (this != &other) {
      std::destroy_at(this);
      std::construct_at(this, std::move(other));
    }
    return *this;
  }
  GraphView(const GraphView&) = delete;
  GraphView& operator=(const GraphView&) = delete;

  /// Reserve room for what a document of `bytes` bytes can hold; recorder
  /// output spends at least ~24 bytes per property and ~128 per element.
  void reserve_for(std::size_t bytes) {
    nodes.reserve(bytes / 128);
    edges.reserve(bytes / 128);
    props.reserve(bytes / 24);
  }

  /// The bytes of every id, label, endpoint id, key and value the view
  /// lists, plus `per_node`, `per_edge` and `per_prop` fixed bytes for
  /// each: what a writer takes for its document's size before escapes.
  std::size_t text_size(std::size_t per_node, std::size_t per_edge,
                        std::size_t per_prop) const {
    std::size_t bytes = 0;
    for (const NodeRef& n : nodes) bytes += n.id.size() + n.label.size();
    for (const EdgeRef& e : edges) {
      bytes += e.id.size() + e.label.size() + nodes[e.src].id.size() +
               nodes[e.tgt].id.size();
    }
    for (const Prop& p : props) bytes += p.key.size() + p.value.size();
    return bytes + per_node * nodes.size() + per_edge * edges.size() +
           per_prop * props.size();
  }

  /// The memory resource the view's lists draw from.
  std::pmr::memory_resource* resource() const {
    return nodes.get_allocator().resource();
  }

  template <typename Element>
  std::span<const Prop> props_of(const Element& element) const {
    return {props.data() + element.first_prop, element.prop_count};
  }

  /// An element's properties as a PropertyGraph holds them (the last
  /// value of a repeated key wins).
  template <typename Element>
  Properties properties(const Element& element) const {
    Properties out;
    for (const Prop& p : props_of(element)) {
      out.insert_or_assign(std::string(p.key), std::string(p.value));
    }
    return out;
  }

  /// An element's properties as graph::Properties holds them: in key
  /// order, the last value of a repeated key winning. The element's own
  /// range when it is in that order already; else a sorted copy in
  /// `scratch`.
  template <typename Element>
  std::span<const Prop> ordered_props(const Element& element,
                                      std::pmr::vector<Prop>& scratch) const {
    return ordered(props_of(element), scratch);
  }

  /// The PropertyGraph the view describes, with its own copies of every
  /// string.
  PropertyGraph materialize() const;

 private:
  static std::span<const Prop> ordered(std::span<const Prop> props,
                                       std::pmr::vector<Prop>& scratch);
};

/// A view of `g`'s own strings (nothing goes in the arena). Valid while
/// `g` lives unmutated.
GraphView view_of(const PropertyGraph& g);

/// A view that owns a copy of every string of `g`.
GraphView copy_of(const PropertyGraph& g);

/// Adds elements to a GraphView under PropertyGraph's checks. Properties
/// are appended to `view.props` by the reader; an element names its
/// range there. The id table starts with room for as many elements as
/// the view's lists have room for (a reader's reserve_for), so a read
/// does not grow it.
class GraphViewBuilder {
 public:
  static constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;

  explicit GraphViewBuilder(GraphView& view);

  /// Index of the node `id`, or kNoNode.
  std::uint32_t find_node(std::string_view id) const;

  /// Add a node and return its index. Throws std::invalid_argument when
  /// `id` names a node or an edge already (PropertyGraph::add_node).
  std::uint32_t add_node(std::string_view id, std::string_view label,
                         std::uint32_t first_prop, std::uint32_t prop_count);

  /// Add an edge between node indices. Throws std::invalid_argument when
  /// `id` is taken.
  void add_edge(std::string_view id, std::uint32_t src, std::uint32_t tgt,
                std::string_view label, std::uint32_t first_prop,
                std::uint32_t prop_count);

  /// Add an edge between node ids, checked in PropertyGraph::add_edge's
  /// order: a taken id, then a missing source, then a missing target.
  void add_edge(std::string_view id, std::string_view src,
                std::string_view tgt, std::string_view label,
                std::uint32_t first_prop, std::uint32_t prop_count);

 private:
  static constexpr std::uint32_t kEdgeBit = 0x80000000u;
  struct Slot {
    std::uint32_t element = 0;  ///< 0 = empty; else node index + 1, or
                                ///< (edge index + 1) | kEdgeBit
    std::uint32_t hash = 0;
  };

  std::string_view id_of(std::uint32_t element) const;
  /// The slot holding `id`, or the empty slot where it would go.
  std::size_t probe(std::string_view id, std::uint32_t hash) const;
  /// Claim `id` for `element`; throws when it is taken.
  void claim(std::string_view id, std::uint32_t element);

  GraphView& view_;
  std::pmr::vector<Slot> slots_;  ///< open addressing, power-of-two size
  std::size_t used_ = 0;
};

}  // namespace provmark::graph
