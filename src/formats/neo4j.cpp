#include "formats/neo4j.h"

#include <algorithm>
#include <memory_resource>
#include <numeric>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "util/json.h"
#include "util/rng.h"

namespace provmark::formats {

namespace {

using util::Json;

void write_properties(util::JsonWriter& w,
                      std::span<const graph::GraphView::Prop> props) {
  w.key("properties");
  w.begin_object();
  for (const auto& [k, v] : props) {
    w.key(k);
    w.string(v);
  }
  w.end_object();
}

/// A `properties` value: an object's members as strings (a non-string
/// value keeps its compact JSON text), appended to `view.props`; any
/// other value means none.
void read_properties(util::JsonReader& r, graph::GraphView& view) {
  if (r.peek() != Json::Type::Object) {
    r.skip();
    return;
  }
  std::string_view key;
  r.begin_object();
  while (r.next_key_view(key, view.arena)) {
    view.props.push_back({key, r.read_text_view(view.arena)});
  }
}

/// The fields of one export record. Only the first occurrence of a key
/// counts; later duplicates are checked and skipped, and so are keys the
/// record's kind does not use.
struct Record {
  std::string_view id, start, end, type, label;
  std::uint32_t first_prop = 0, prop_count = 0;
  bool has_id = false, has_start = false, has_end = false, has_type = false,
       has_labels = false, has_props = false;
};

void read_string_field(util::JsonReader& r, util::StringArena& arena,
                       bool& seen, std::string_view& out) {
  if (seen) {
    r.skip();
    return;
  }
  if (r.peek() != Json::Type::String) {
    throw std::runtime_error("neo4j export field must be a string");
  }
  out = r.read_string_view(arena);
  seen = true;
}

/// The first label names the node; a value that is not an array, or an
/// empty array, means no label.
void read_labels(util::JsonReader& r, util::StringArena& arena,
                 Record& rec) {
  rec.has_labels = true;
  if (r.peek() != Json::Type::Array) {
    r.skip();
    return;
  }
  r.begin_array();
  bool seen = false;
  while (r.next_element()) {
    read_string_field(r, arena, seen, rec.label);
  }
}

Record read_record(util::JsonReader& r, graph::GraphView& view,
                   bool relationship) {
  if (r.peek() != Json::Type::Object) {
    throw std::runtime_error("neo4j export record must be an object");
  }
  util::StringArena& arena = view.arena;
  Record rec;
  std::string_view key;
  r.begin_object();
  while (r.next_key_view(key, arena)) {
    if (key == "id") {
      read_string_field(r, arena, rec.has_id, rec.id);
    } else if (key == "properties" && !rec.has_props) {
      rec.first_prop = static_cast<std::uint32_t>(view.props.size());
      read_properties(r, view);
      rec.prop_count =
          static_cast<std::uint32_t>(view.props.size()) - rec.first_prop;
      rec.has_props = true;
    } else if (!relationship && key == "labels" && !rec.has_labels) {
      read_labels(r, arena, rec);
    } else if (relationship && key == "start") {
      read_string_field(r, arena, rec.has_start, rec.start);
    } else if (relationship && key == "end") {
      read_string_field(r, arena, rec.has_end, rec.end);
    } else if (relationship && key == "type") {
      read_string_field(r, arena, rec.has_type, rec.type);
    } else {
      r.skip();
    }
  }
  if (relationship ? !(rec.has_id && rec.has_start && rec.has_end &&
                       rec.has_type)
                   : !(rec.has_id && rec.has_labels)) {
    throw std::runtime_error("neo4j export record lacks a field");
  }
  return rec;
}

}  // namespace

std::string to_neo4j_json(const graph::GraphView& view) {
  // Written straight into the returned string, sized for the view's
  // strings plus each record's and property's keys, punctuation and
  // indentation; the property scratch draws from the view's memory.
  util::JsonWriter w(2, view.text_size(100, 120, 16) + 64);
  std::pmr::vector<graph::GraphView::Prop> scratch(view.resource());
  w.begin_object();
  w.key("nodes");
  w.begin_array();
  for (const graph::GraphView::NodeRef& n : view.nodes) {
    w.begin_object();
    w.key("id");
    w.string(n.id);
    w.key("labels");
    w.begin_array();
    w.string(n.label);
    w.end_array();
    write_properties(w, view.ordered_props(n, scratch));
    w.end_object();
  }
  w.end_array();
  w.key("relationships");
  w.begin_array();
  for (const graph::GraphView::EdgeRef& e : view.edges) {
    w.begin_object();
    w.key("id");
    w.string(e.id);
    w.key("start");
    w.string(view.nodes[e.src].id);
    w.key("end");
    w.string(view.nodes[e.tgt].id);
    w.key("type");
    w.string(e.label);
    write_properties(w, view.ordered_props(e, scratch));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string to_neo4j_json(const graph::PropertyGraph& g) {
  return to_neo4j_json(graph::view_of(g));
}

graph::GraphView neo4j_json_view(std::string_view text,
                                 bool* relationships_key,
                                 std::pmr::memory_resource* memory) {
  util::JsonReader r(text);
  if (r.peek() != Json::Type::Object) {
    throw std::runtime_error("neo4j export lacks a nodes array");
  }
  graph::GraphView view(memory);
  view.reserve_for(text.size());
  graph::GraphViewBuilder builder(view);
  // Nodes are added as the first `nodes` array streams past;
  // relationships wait for the end of the document, since they may come
  // first. Later duplicates of either key are ignored.
  bool has_nodes = false, has_relationships = false;
  std::pmr::vector<Record> relationships(memory);
  std::string_view key;
  r.begin_object();
  while (r.next_key_view(key, view.arena)) {
    const bool nodes = key == "nodes" && !has_nodes;
    const bool rels = key == "relationships" && !has_relationships;
    if (!nodes && !rels) {
      r.skip();
      continue;
    }
    if (r.peek() != Json::Type::Array) {
      throw std::runtime_error(nodes ? "neo4j export lacks a nodes array"
                                     : "neo4j relationships must be an array");
    }
    (nodes ? has_nodes : has_relationships) = true;
    r.begin_array();
    while (r.next_element()) {
      Record rec = read_record(r, view, rels);
      if (rels) {
        relationships.push_back(rec);
      } else {
        builder.add_node(rec.id, rec.label, rec.first_prop, rec.prop_count);
      }
    }
  }
  r.finish();
  if (!has_nodes) throw std::runtime_error("neo4j export lacks a nodes array");
  if (relationships_key != nullptr) *relationships_key = has_relationships;
  for (const Record& rec : relationships) {
    builder.add_edge(rec.id, rec.start, rec.end, rec.type, rec.first_prop,
                     rec.prop_count);
  }
  return view;
}

graph::PropertyGraph from_neo4j_json(std::string_view text) {
  return neo4j_json_view(text).materialize();
}

void Neo4jStore::open(std::string_view export_json) {
  open(neo4j_json_view(export_json));
}

void Neo4jStore::open(graph::GraphView export_view) {
  view_ = std::move(export_view);
  // Model the one-time database startup cost: repeated full index builds.
  // The checksum keeps the optimizer from eliding the work and doubles as
  // an internal consistency check across rounds. The index is built at
  // least once, whatever the round count.
  std::uint64_t first_round = 0;
  for (int round = 0; round < std::max(1, options_.startup_rounds); ++round) {
    build_indices();
    if (round == 0) {
      first_round = index_checksum_;
    } else if (index_checksum_ != first_round) {
      throw std::logic_error("neo4j index build is not deterministic");
    }
  }
  // Hand nodes out in the label index's order, labels ascending and ids
  // ascending within a label: the order MATCH (n) RETURN n walks it.
  std::pmr::vector<graph::GraphView::NodeRef>& nodes = view_.nodes;
  std::pmr::vector<std::uint32_t> order(nodes.size(), view_.resource());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&nodes](std::uint32_t a,
                                                 std::uint32_t b) {
    return std::tie(nodes[a].label, nodes[a].id) <
           std::tie(nodes[b].label, nodes[b].id);
  });
  std::pmr::vector<graph::GraphView::NodeRef> ordered(view_.resource());
  ordered.reserve(nodes.size());
  std::pmr::vector<std::uint32_t> position(nodes.size(), view_.resource());
  for (std::uint32_t old : order) {
    position[old] = static_cast<std::uint32_t>(ordered.size());
    ordered.push_back(nodes[old]);
  }
  nodes = std::move(ordered);
  for (graph::GraphView::EdgeRef& e : view_.edges) {
    e.src = position[e.src];
    e.tgt = position[e.tgt];
  }
}

namespace {

/// index[key], creating the entry (and its key string) only when absent.
std::vector<graph::Id>& entry(
    std::map<std::string, std::vector<graph::Id>, std::less<>>& index,
    std::string_view key) {
  auto it = index.lower_bound(key);
  if (it == index.end() || it->first != key) {
    it = index.emplace_hint(it, std::string(key), std::vector<graph::Id>());
  }
  return it->second;
}

}  // namespace

void Neo4jStore::build_indices() {
  label_index_.clear();
  property_key_index_.clear();
  std::uint64_t checksum = 0;
  for (const graph::GraphView::NodeRef& n : view_.nodes) {
    entry(label_index_, n.label).emplace_back(n.id);
    checksum ^= util::stable_hash(n.label) * util::stable_hash(n.id);
    for (const auto& [k, v] : view_.props_of(n)) {
      entry(property_key_index_, k).emplace_back(n.id);
      checksum += util::stable_hash(k) ^ util::stable_hash(v);
    }
  }
  for (const graph::GraphView::EdgeRef& e : view_.edges) {
    checksum ^= util::stable_hash(e.label) * util::stable_hash(e.id);
    for (const auto& [k, v] : view_.props_of(e)) {
      entry(property_key_index_, k).emplace_back(e.id);
      checksum += util::stable_hash(k) ^ util::stable_hash(v);
    }
  }
  for (auto& [label, ids] : label_index_) std::sort(ids.begin(), ids.end());
  for (auto& [key, ids] : property_key_index_) {
    std::sort(ids.begin(), ids.end());
  }
  index_checksum_ = checksum;
}

std::vector<graph::Node> Neo4jStore::match_all_nodes() const {
  std::vector<graph::Node> out;
  out.reserve(view_.nodes.size());
  for (const graph::GraphView::NodeRef& n : view_.nodes) {
    out.push_back(graph::Node{std::string(n.id), std::string(n.label),
                              view_.properties(n)});
  }
  return out;
}

std::vector<graph::Edge> Neo4jStore::match_all_relationships() const {
  std::vector<graph::Edge> out;
  out.reserve(view_.edges.size());
  for (const graph::GraphView::EdgeRef& e : view_.edges) {
    out.push_back(graph::Edge{std::string(e.id),
                              std::string(view_.nodes[e.src].id),
                              std::string(view_.nodes[e.tgt].id),
                              std::string(e.label), view_.properties(e)});
  }
  return out;
}

std::vector<graph::Node> Neo4jStore::match_nodes_by_label(
    const std::string& label) const {
  std::vector<graph::Node> out;
  for (const graph::GraphView::NodeRef& n : view_.nodes) {
    if (n.label != label) continue;
    out.push_back(graph::Node{std::string(n.id), std::string(n.label),
                              view_.properties(n)});
  }
  return out;
}

graph::PropertyGraph Neo4jStore::export_graph() const {
  return view_.materialize();
}

}  // namespace provmark::formats
