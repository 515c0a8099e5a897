#include "formats/neo4j.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/json.h"
#include "util/rng.h"

namespace provmark::formats {

namespace {

using util::Json;

void write_properties(util::JsonWriter& w, const graph::Properties& props) {
  w.key("properties");
  w.begin_object();
  for (const auto& [k, v] : props) {
    w.key(k);
    w.string(v);
  }
  w.end_object();
}

/// A `properties` value: an object's members as strings (a non-string
/// value keeps its compact JSON text); any other value means none.
graph::Properties read_properties(util::JsonReader& r) {
  graph::Properties props;
  if (r.peek() != Json::Type::Object) {
    r.skip();
    return props;
  }
  std::string key;
  r.begin_object();
  while (r.next_key(key)) {
    props.insert_or_assign(std::move(key), r.read_text());
  }
  return props;
}

/// The fields of one export record. Only the first occurrence of a key
/// counts; later duplicates are checked and skipped, and so are keys the
/// record's kind does not use.
struct Record {
  std::string id, start, end, type, label;
  graph::Properties props;
  bool has_id = false, has_start = false, has_end = false, has_type = false,
       has_labels = false, has_props = false;
};

void read_string_field(util::JsonReader& r, bool& seen, std::string& out) {
  if (seen) {
    r.skip();
    return;
  }
  if (r.peek() != Json::Type::String) {
    throw std::runtime_error("neo4j export field must be a string");
  }
  r.read_string(out);
  seen = true;
}

/// The first label names the node; a value that is not an array, or an
/// empty array, means no label.
void read_labels(util::JsonReader& r, Record& rec) {
  rec.has_labels = true;
  if (r.peek() != Json::Type::Array) {
    r.skip();
    return;
  }
  r.begin_array();
  bool seen = false;
  while (r.next_element()) {
    if (seen) {
      r.skip();
    } else {
      read_string_field(r, seen, rec.label);
    }
  }
}

Record read_record(util::JsonReader& r, bool relationship) {
  if (r.peek() != Json::Type::Object) {
    throw std::runtime_error("neo4j export record must be an object");
  }
  Record rec;
  std::string key;
  r.begin_object();
  while (r.next_key(key)) {
    if (key == "id") {
      read_string_field(r, rec.has_id, rec.id);
    } else if (key == "properties" && !rec.has_props) {
      rec.props = read_properties(r);
      rec.has_props = true;
    } else if (!relationship && key == "labels" && !rec.has_labels) {
      read_labels(r, rec);
    } else if (relationship && key == "start") {
      read_string_field(r, rec.has_start, rec.start);
    } else if (relationship && key == "end") {
      read_string_field(r, rec.has_end, rec.end);
    } else if (relationship && key == "type") {
      read_string_field(r, rec.has_type, rec.type);
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

std::string to_neo4j_json(const graph::PropertyGraph& g) {
  std::string out;
  out.reserve(256 * (g.node_count() + g.edge_count()) + 64);
  util::JsonWriter w(out, 2);
  w.begin_object();
  w.key("nodes");
  w.begin_array();
  for (const graph::Node& n : g.nodes()) {
    w.begin_object();
    w.key("id");
    w.string(n.id);
    w.key("labels");
    w.begin_array();
    w.string(n.label);
    w.end_array();
    write_properties(w, n.props);
    w.end_object();
  }
  w.end_array();
  w.key("relationships");
  w.begin_array();
  for (const graph::Edge& e : g.edges()) {
    w.begin_object();
    w.key("id");
    w.string(e.id);
    w.key("start");
    w.string(e.src);
    w.key("end");
    w.string(e.tgt);
    w.key("type");
    w.string(e.label);
    write_properties(w, e.props);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out;
}

graph::PropertyGraph from_neo4j_json(std::string_view text) {
  util::JsonReader r(text);
  if (r.peek() != Json::Type::Object) {
    throw std::runtime_error("neo4j export lacks a nodes array");
  }
  graph::PropertyGraph g;
  // Nodes are added as the first `nodes` array streams past;
  // relationships wait for the end of the document, since they may come
  // first. Later duplicates of either key are ignored.
  bool has_nodes = false, has_relationships = false;
  std::vector<Record> relationships;
  std::string key;
  r.begin_object();
  while (r.next_key(key)) {
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
      Record rec = read_record(r, rels);
      if (rels) {
        relationships.push_back(std::move(rec));
      } else {
        g.add_node(std::move(rec.id), std::move(rec.label),
                   std::move(rec.props));
      }
    }
  }
  r.finish();
  if (!has_nodes) throw std::runtime_error("neo4j export lacks a nodes array");
  for (Record& rec : relationships) {
    g.add_edge(std::move(rec.id), std::move(rec.start), std::move(rec.end),
               std::move(rec.type), std::move(rec.props));
  }
  return g;
}

void Neo4jStore::open(std::string_view export_json) {
  graph_ = from_neo4j_json(export_json);
  // Model the one-time database startup cost: repeated full index builds.
  // The checksum keeps the optimizer from eliding the work and doubles as
  // an internal consistency check across rounds.
  std::uint64_t first_round = 0;
  for (int round = 0; round < options_.startup_rounds; ++round) {
    build_indices();
    if (round == 0) {
      first_round = index_checksum_;
    } else if (index_checksum_ != first_round) {
      throw std::logic_error("neo4j index build is not deterministic");
    }
  }
}

void Neo4jStore::build_indices() {
  label_index_.clear();
  property_key_index_.clear();
  std::uint64_t checksum = 0;
  for (const graph::Node& n : graph_.nodes()) {
    label_index_[n.label].push_back(n.id);
    checksum ^= util::stable_hash(n.label) * util::stable_hash(n.id);
    for (const auto& [k, v] : n.props) {
      property_key_index_[k].push_back(n.id);
      checksum += util::stable_hash(k) ^ util::stable_hash(v);
    }
  }
  for (const graph::Edge& e : graph_.edges()) {
    checksum ^= util::stable_hash(e.label) * util::stable_hash(e.id);
    for (const auto& [k, v] : e.props) {
      property_key_index_[k].push_back(e.id);
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
  out.reserve(graph_.node_count());
  for (const auto& [label, ids] : label_index_) {
    for (const graph::Id& id : ids) {
      out.push_back(*graph_.find_node(id));
    }
  }
  return out;
}

std::vector<graph::Edge> Neo4jStore::match_all_relationships() const {
  return graph_.edges();
}

std::vector<graph::Node> Neo4jStore::match_nodes_by_label(
    const std::string& label) const {
  std::vector<graph::Node> out;
  auto it = label_index_.find(label);
  if (it == label_index_.end()) return out;
  for (const graph::Id& id : it->second) {
    out.push_back(*graph_.find_node(id));
  }
  return out;
}

graph::PropertyGraph Neo4jStore::export_graph() const {
  // The query results are copies; the graph takes them over.
  graph::PropertyGraph g;
  for (graph::Node& n : match_all_nodes()) {
    g.add_node(std::move(n.id), std::move(n.label), std::move(n.props));
  }
  for (graph::Edge& e : match_all_relationships()) {
    g.add_edge(std::move(e.id), std::move(e.src), std::move(e.tgt),
               std::move(e.label), std::move(e.props));
  }
  return g;
}

}  // namespace provmark::formats
