#include "formats/prov_json.h"

#include <algorithm>
#include <memory_resource>
#include <array>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/json.h"

namespace provmark::formats {

namespace {

using util::Json;

constexpr std::array<std::string_view, 3> kNodeKinds = {"entity", "activity",
                                                        "agent"};

/// Endpoint attribute keys per PROV relation: {source key, target key}.
/// Source/target follow the PROV-DM argument order (first argument is the
/// edge source in our graphs, pointing to the second).
struct RelationKeys {
  std::string_view relation;
  std::string_view src_key;
  std::string_view tgt_key;
};

constexpr std::array<RelationKeys, 7> kKnownRelations = {{
    {"used", "prov:activity", "prov:entity"},
    {"wasGeneratedBy", "prov:entity", "prov:activity"},
    {"wasInformedBy", "prov:informed", "prov:informant"},
    {"wasDerivedFrom", "prov:generatedEntity", "prov:usedEntity"},
    {"wasAssociatedWith", "prov:activity", "prov:agent"},
    {"wasAttributedTo", "prov:entity", "prov:agent"},
    {"actedOnBehalfOf", "prov:delegate", "prov:responsible"},
}};

const RelationKeys* known_relation(std::string_view name) {
  for (const RelationKeys& r : kKnownRelations) {
    if (r.relation == name) return &r;
  }
  return nullptr;
}

bool is_node_kind(std::string_view name) {
  for (std::string_view k : kNodeKinds) {
    if (k == name) return true;
  }
  return false;
}

/// One relation section: each edge's endpoint keys first, then its
/// properties. A property named like an endpoint key takes that key's
/// place (PROV-JSON has one value per attribute name).
void write_relation(util::JsonWriter& w, std::string_view relation,
                    const graph::GraphView& view,
                    const std::pmr::vector<std::uint32_t>& edges,
                    std::pmr::vector<graph::GraphView::Prop>& scratch) {
  const RelationKeys* keys = known_relation(relation);
  std::string_view src_key = keys ? keys->src_key : "prov:from";
  std::string_view tgt_key = keys ? keys->tgt_key : "prov:to";
  w.begin_object();
  for (std::uint32_t index : edges) {
    const graph::GraphView::EdgeRef& e = view.edges[index];
    const std::span<const graph::GraphView::Prop> props =
        view.ordered_props(e, scratch);
    w.key(e.id);
    w.begin_object();
    auto endpoint = [&](std::string_view key, std::string_view id) {
      for (const auto& [k, v] : props) {
        if (k == key) id = v;
      }
      w.key(key);
      w.string(id);
    };
    endpoint(src_key, view.nodes[e.src].id);
    endpoint(tgt_key, view.nodes[e.tgt].id);
    for (const auto& [k, v] : props) {
      if (k == src_key || k == tgt_key) continue;
      w.key(k);
      w.string(v);
    }
    w.end_object();
  }
  w.end_object();
}

}  // namespace

std::string to_prov_json(const graph::GraphView& view) {
  // Edges grouped by relation label, sections in label order. The groups
  // and the property scratch draw from the view's memory; the document is
  // written straight into the returned string.
  std::pmr::map<std::string_view, std::pmr::vector<std::uint32_t>> relations(
      view.resource());
  for (std::uint32_t i = 0; i < view.edges.size(); ++i) {
    relations[view.edges[i].label].push_back(i);
  }

  // Sized for the view's strings plus each element's and property's
  // punctuation and indentation (an edge's two endpoint keys included).
  util::JsonWriter w(2, view.text_size(16, 96, 14) + 64);
  std::pmr::vector<graph::GraphView::Prop> scratch(view.resource());
  w.begin_object();
  for (std::string_view kind : kNodeKinds) {
    auto in_kind = [&](const graph::GraphView::NodeRef& n) {
      return n.label == kind;
    };
    if (std::none_of(view.nodes.begin(), view.nodes.end(), in_kind)) {
      continue;
    }
    w.key(kind);
    // A relation labelled like a node kind takes over that kind's
    // section: a PROV-JSON object has one member per name.
    if (auto relation = relations.find(kind); relation != relations.end()) {
      write_relation(w, kind, view, relation->second, scratch);
      relations.erase(relation);
      continue;
    }
    w.begin_object();
    for (const graph::GraphView::NodeRef& n : view.nodes) {
      if (!in_kind(n)) continue;
      w.key(n.id);
      w.begin_object();
      for (const auto& [k, v] : view.ordered_props(n, scratch)) {
        w.key(k);
        w.string(v);
      }
      w.end_object();
    }
    w.end_object();
  }
  for (const auto& [relation, edges] : relations) {
    w.key(relation);
    write_relation(w, relation, view, edges, scratch);
  }
  w.end_object();
  return w.take();
}

std::string to_prov_json(const graph::PropertyGraph& g) {
  return to_prov_json(graph::view_of(g));
}

graph::GraphView prov_json_view(std::string_view text, bool* neo4j_keys,
                                std::pmr::memory_resource* memory) {
  util::JsonReader r(text);
  if (r.peek() != Json::Type::Object) {
    throw std::runtime_error("PROV-JSON document must be an object");
  }
  graph::GraphView view(memory);
  view.reserve_for(text.size());
  graph::GraphViewBuilder builder(view);
  util::StringArena& arena = view.arena;
  // Nodes are added as their sections stream past; relations wait until
  // the whole document is read, since a relation section may precede the
  // nodes it links.
  struct PendingEdge {
    std::string_view id, src, tgt, label;
    std::uint32_t first_prop = 0, prop_count = 0;
  };
  std::pmr::vector<PendingEdge> pending(memory);
  pending.reserve(view.edges.capacity());
  bool nodes_key = false, relationships_key = false;
  std::string_view section_name, id, key;
  r.begin_object();
  while (r.next_key_view(section_name, arena)) {
    nodes_key |= section_name == "nodes";
    relationships_key |= section_name == "relationships";
    if (section_name == "prefix") {
      r.skip();
      continue;
    }
    const bool node_section = is_node_kind(section_name);
    if (r.peek() != Json::Type::Object) {
      throw std::runtime_error("PROV-JSON section " +
                               std::string(section_name) +
                               " must be an object");
    }
    const RelationKeys* keys = known_relation(section_name);
    std::string_view src_key = keys ? keys->src_key : "prov:from";
    std::string_view tgt_key = keys ? keys->tgt_key : "prov:to";
    r.begin_object();
    while (r.next_key_view(id, arena)) {
      if (r.peek() != Json::Type::Object) {
        throw std::runtime_error("PROV-JSON record " + std::string(id) +
                                 " must be an object");
      }
      r.begin_object();
      const auto first_prop = static_cast<std::uint32_t>(view.props.size());
      auto prop_count = [&] {
        return static_cast<std::uint32_t>(view.props.size()) - first_prop;
      };
      if (node_section) {
        while (r.next_key_view(key, arena)) {
          view.props.push_back({key, r.read_text_view(arena)});
        }
        builder.add_node(id, section_name, first_prop, prop_count());
        continue;
      }
      // The first occurrence of each endpoint key names the endpoint;
      // every occurrence is left out of the properties.
      PendingEdge edge{id, {}, {}, section_name, first_prop, 0};
      bool have_src = false, have_tgt = false;
      while (r.next_key_view(key, arena)) {
        const bool is_src = key == src_key, is_tgt = key == tgt_key;
        if (!is_src && !is_tgt) {
          view.props.push_back({key, r.read_text_view(arena)});
          continue;
        }
        bool& have = is_src ? have_src : have_tgt;
        if (have) {
          r.skip();
          continue;
        }
        if (r.peek() != Json::Type::String) {
          throw std::runtime_error("PROV-JSON relation " +
                                   std::string(edge.id) +
                                   " has a non-string endpoint");
        }
        (is_src ? edge.src : edge.tgt) = r.read_string_view(arena);
        have = true;
      }
      if (!have_src || !have_tgt) {
        throw std::runtime_error("PROV-JSON relation " + std::string(edge.id) +
                                 " lacks endpoint attributes");
      }
      edge.prop_count = prop_count();
      pending.push_back(edge);
    }
  }
  r.finish();
  for (const PendingEdge& e : pending) {
    const std::uint32_t src = builder.find_node(e.src);
    const std::uint32_t tgt = builder.find_node(e.tgt);
    if (src == graph::GraphViewBuilder::kNoNode ||
        tgt == graph::GraphViewBuilder::kNoNode) {
      throw std::runtime_error("PROV-JSON relation " + std::string(e.id) +
                               " references missing node");
    }
    builder.add_edge(e.id, src, tgt, e.label, e.first_prop, e.prop_count);
  }
  if (neo4j_keys != nullptr) *neo4j_keys = nodes_key && relationships_key;
  return view;
}

graph::PropertyGraph from_prov_json(std::string_view text) {
  return prov_json_view(text).materialize();
}

}  // namespace provmark::formats
