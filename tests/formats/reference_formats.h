// Test-only reference implementations of the recorder formats, kept to
// check the streaming writers and readers in src/formats against.
//
// The writers build a util::Json tree and dump it; the readers parse a
// whole util::Json tree and walk it (PROV-JSON in two passes, nodes
// first); the DOT writer concatenates strings and the DOT parser copies
// quoted runs one character at a time. These are the tree-based
// implementations the library used before its formats wrote and read in
// one pass. Only the differential tests include this header.
//
// disagreement() checks a reader against its reference, and
// recorder_documents() supplies the inputs: the first background and
// foreground trial of every Table-1 program on every recorder.
#pragma once

#include <array>
#include <cctype>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench_suite/executor.h"
#include "bench_suite/program.h"
#include "core/pipeline.h"
#include "formats/detect.h"
#include "formats/dot.h"
#include "formats/neo4j.h"
#include "formats/prov_json.h"
#include "graph/property_graph.h"
#include "systems/recorder.h"
#include "util/json.h"

namespace provmark::formats::reference {

using util::Json;

// -- PROV-JSON ----------------------------------------------------------------

inline constexpr std::array<std::string_view, 3> kNodeKinds = {
    "entity", "activity", "agent"};

struct RelationKeys {
  std::string_view relation;
  std::string_view src_key;
  std::string_view tgt_key;
};

inline constexpr std::array<RelationKeys, 7> kKnownRelations = {{
    {"used", "prov:activity", "prov:entity"},
    {"wasGeneratedBy", "prov:entity", "prov:activity"},
    {"wasInformedBy", "prov:informed", "prov:informant"},
    {"wasDerivedFrom", "prov:generatedEntity", "prov:usedEntity"},
    {"wasAssociatedWith", "prov:activity", "prov:agent"},
    {"wasAttributedTo", "prov:entity", "prov:agent"},
    {"actedOnBehalfOf", "prov:delegate", "prov:responsible"},
}};

inline const RelationKeys* known_relation(std::string_view name) {
  for (const RelationKeys& r : kKnownRelations) {
    if (r.relation == name) return &r;
  }
  return nullptr;
}

inline bool is_node_kind(std::string_view name) {
  for (std::string_view k : kNodeKinds) {
    if (k == name) return true;
  }
  return false;
}

inline std::string to_prov_json(const graph::PropertyGraph& g) {
  Json doc = Json::object();
  for (std::string_view kind : kNodeKinds) {
    Json section = Json::object();
    for (const graph::Node& n : g.nodes()) {
      if (n.label != kind) continue;
      Json attrs = Json::object();
      for (const auto& [k, v] : n.props) attrs.set(k, Json(v));
      section.set(n.id, std::move(attrs));
    }
    if (!section.as_object().empty()) doc.set(kind, std::move(section));
  }
  std::map<std::string, std::vector<const graph::Edge*>> by_relation;
  for (const graph::Edge& e : g.edges()) {
    by_relation[e.label].push_back(&e);
  }
  for (const auto& [relation, edges] : by_relation) {
    const RelationKeys* keys = known_relation(relation);
    std::string src_key = keys ? std::string(keys->src_key) : "prov:from";
    std::string tgt_key = keys ? std::string(keys->tgt_key) : "prov:to";
    Json section = Json::object();
    for (const graph::Edge* e : edges) {
      Json attrs = Json::object();
      attrs.set(src_key, Json(e->src));
      attrs.set(tgt_key, Json(e->tgt));
      for (const auto& [k, v] : e->props) attrs.set(k, Json(v));
      section.set(e->id, std::move(attrs));
    }
    doc.set(relation, std::move(section));
  }
  return doc.dump(2);
}

inline graph::PropertyGraph from_prov_json(std::string_view text) {
  Json doc = Json::parse(text);
  if (!doc.is_object()) {
    throw std::runtime_error("PROV-JSON document must be an object");
  }
  graph::PropertyGraph g;
  for (const auto& [section_name, section] : doc.as_object()) {
    if (!is_node_kind(section_name)) continue;
    if (!section.is_object()) {
      throw std::runtime_error("PROV-JSON section " + section_name +
                               " must be an object");
    }
    for (const auto& [id, attrs] : section.as_object()) {
      graph::Properties props;
      for (const auto& [k, v] : attrs.as_object()) {
        props[k] = v.is_string() ? v.as_string() : v.dump();
      }
      g.add_node(id, section_name, std::move(props));
    }
  }
  for (const auto& [section_name, section] : doc.as_object()) {
    if (is_node_kind(section_name) || section_name == "prefix") continue;
    const RelationKeys* keys = known_relation(section_name);
    for (const auto& [id, attrs] : section.as_object()) {
      std::string src_key = keys ? std::string(keys->src_key) : "prov:from";
      std::string tgt_key = keys ? std::string(keys->tgt_key) : "prov:to";
      const Json* src = attrs.find(src_key);
      const Json* tgt = attrs.find(tgt_key);
      if (src == nullptr || tgt == nullptr) {
        throw std::runtime_error("PROV-JSON relation " + id +
                                 " lacks endpoint attributes");
      }
      graph::Properties props;
      for (const auto& [k, v] : attrs.as_object()) {
        if (k == src_key || k == tgt_key) continue;
        props[k] = v.is_string() ? v.as_string() : v.dump();
      }
      if (g.find_node(src->as_string()) == nullptr ||
          g.find_node(tgt->as_string()) == nullptr) {
        throw std::runtime_error("PROV-JSON relation " + id +
                                 " references missing node");
      }
      g.add_edge(id, src->as_string(), tgt->as_string(), section_name,
                 std::move(props));
    }
  }
  return g;
}

// -- Neo4j export -------------------------------------------------------------

inline Json properties_to_json(const graph::Properties& props) {
  Json obj = Json::object();
  for (const auto& [k, v] : props) obj.set(k, Json(v));
  return obj;
}

inline graph::Properties json_to_properties(const Json& obj) {
  graph::Properties props;
  if (!obj.is_object()) return props;
  for (const auto& [k, v] : obj.as_object()) {
    props[k] = v.is_string() ? v.as_string() : v.dump();
  }
  return props;
}

inline std::string to_neo4j_json(const graph::PropertyGraph& g) {
  Json nodes = Json::array();
  for (const graph::Node& n : g.nodes()) {
    Json record = Json::object();
    record.set("id", Json(n.id));
    Json labels = Json::array();
    labels.push_back(Json(n.label));
    record.set("labels", std::move(labels));
    record.set("properties", properties_to_json(n.props));
    nodes.push_back(std::move(record));
  }
  Json rels = Json::array();
  for (const graph::Edge& e : g.edges()) {
    Json record = Json::object();
    record.set("id", Json(e.id));
    record.set("start", Json(e.src));
    record.set("end", Json(e.tgt));
    record.set("type", Json(e.label));
    record.set("properties", properties_to_json(e.props));
    rels.push_back(std::move(record));
  }
  Json doc = Json::object();
  doc.set("nodes", std::move(nodes));
  doc.set("relationships", std::move(rels));
  return doc.dump(2);
}

inline graph::PropertyGraph from_neo4j_json(std::string_view text) {
  Json doc = Json::parse(text);
  graph::PropertyGraph g;
  const Json* nodes = doc.find("nodes");
  if (nodes == nullptr || !nodes->is_array()) {
    throw std::runtime_error("neo4j export lacks a nodes array");
  }
  for (const Json& record : nodes->as_array()) {
    const Json& labels = record.at("labels");
    std::string label;
    if (labels.is_array() && !labels.as_array().empty()) {
      label = labels.as_array().front().as_string();
    }
    const Json* props = record.find("properties");
    g.add_node(record.at("id").as_string(), label,
               props ? json_to_properties(*props) : graph::Properties{});
  }
  const Json* rels = doc.find("relationships");
  if (rels != nullptr) {
    for (const Json& record : rels->as_array()) {
      const Json* props = record.find("properties");
      g.add_edge(record.at("id").as_string(), record.at("start").as_string(),
                 record.at("end").as_string(), record.at("type").as_string(),
                 props ? json_to_properties(*props) : graph::Properties{});
    }
  }
  return g;
}

// -- Graphviz DOT -------------------------------------------------------------

inline std::string dot_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// A property key: bare when it is a non-empty run of [A-Za-z0-9_.:],
/// else quoted, so the reader takes every key back.
inline std::string dot_key(const std::string& k) {
  bool bare = !k.empty();
  for (char c : k) {
    bare = bare && ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == ':');
  }
  return bare ? k : "\"" + dot_escape(k) + "\"";
}

inline std::string shape_for(const graph::Node& n) {
  auto it = n.props.find("type");
  std::string type = it != n.props.end() ? it->second : n.label;
  if (type == "Process" || type == "Activity" || type == "activity" ||
      type == "task") {
    return "box";
  }
  if (type == "Agent" || type == "agent") return "octagon";
  if (type == "dummy") return "ellipse";
  return "ellipse";
}

inline std::string to_dot(const graph::PropertyGraph& g,
                          std::string_view graph_name = "provenance") {
  std::string out = "digraph " + std::string(graph_name) + " {\n";
  for (const graph::Node& n : g.nodes()) {
    out += "  \"" + dot_escape(n.id) + "\" [label=\"" + dot_escape(n.label) +
           "\", shape=" + shape_for(n);
    for (const auto& [k, v] : n.props) {
      out += ", " + dot_key(k) + "=\"" + dot_escape(v) + "\"";
    }
    out += "];\n";
  }
  for (const graph::Edge& e : g.edges()) {
    out += "  \"" + dot_escape(e.src) + "\" -> \"" + dot_escape(e.tgt) +
           "\" [label=\"" + dot_escape(e.label) + "\"";
    for (const auto& [k, v] : e.props) {
      out += ", " + dot_key(k) + "=\"" + dot_escape(v) + "\"";
    }
    out += "];\n";
  }
  out += "}\n";
  return out;
}

class DotParser {
 public:
  explicit DotParser(std::string_view text) : text_(text) {}

  graph::PropertyGraph parse() {
    expect_keyword("digraph");
    name();
    expect('{');
    graph::PropertyGraph g;
    int synthetic_edge_id = 0;
    while (true) {
      skip_space();
      if (peek() == '}') {
        ++pos_;
        break;
      }
      std::string first = name();
      skip_space();
      if (pos_ + 1 < text_.size() && text_[pos_] == '-' &&
          text_[pos_ + 1] == '>') {
        pos_ += 2;
        std::string second = name();
        graph::Properties attrs = attributes();
        expect(';');
        std::string label;
        if (auto it = attrs.find("label"); it != attrs.end()) {
          label = it->second;
          attrs.erase(it);
        }
        ensure_node(g, first);
        ensure_node(g, second);
        std::string edge_id = "dot_e" + std::to_string(synthetic_edge_id++);
        g.add_edge(edge_id, first, second, label, std::move(attrs));
      } else {
        graph::Properties attrs = attributes();
        expect(';');
        std::string label;
        if (auto it = attrs.find("label"); it != attrs.end()) {
          label = it->second;
          attrs.erase(it);
        }
        attrs.erase("shape");
        if (graph::Node* existing = g.find_node(first)) {
          existing->label = label;
          for (auto& [k, v] : attrs) existing->props[k] = v;
        } else {
          g.add_node(first, label, std::move(attrs));
        }
      }
    }
    skip_space();
    if (pos_ != text_.size()) fail("trailing content after digraph");
    return g;
  }

 private:
  void ensure_node(graph::PropertyGraph& g, const std::string& id) {
    if (g.find_node(id) == nullptr) g.add_node(id, "");
  }

  [[noreturn]] void fail(const std::string& message) {
    throw std::runtime_error("dot parse error at offset " +
                             std::to_string(pos_) + ": " + message);
  }

  void skip_space() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    skip_space();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void expect_keyword(std::string_view kw) {
    skip_space();
    if (text_.substr(pos_, kw.size()) != kw) {
      fail("expected keyword " + std::string(kw));
    }
    pos_ += kw.size();
  }

  std::string name() {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == '"') return quoted();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '.' || text_[pos_] == ':')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a name");
    return std::string(text_.substr(start, pos_ - start));
  }

  std::string quoted() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        out += text_[pos_++];
      } else {
        out += c;
      }
    }
  }

  graph::Properties attributes() {
    graph::Properties attrs;
    skip_space();
    if (pos_ >= text_.size() || text_[pos_] != '[') return attrs;
    ++pos_;
    while (true) {
      skip_space();
      if (peek() == ']') {
        ++pos_;
        return attrs;
      }
      std::string key = name();
      skip_space();
      expect('=');
      std::string value = name();
      attrs[key] = value;
      skip_space();
      if (pos_ < text_.size() && text_[pos_] == ',') ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

inline graph::PropertyGraph from_dot(std::string_view text) {
  return DotParser(text).parse();
}

// -- the differential check ---------------------------------------------------

/// A one-pass reader in src/formats and the reference it must agree with.
struct ReaderPair {
  const char* name;
  graph::PropertyGraph (*reader)(std::string_view);
  graph::PropertyGraph (*reference)(std::string_view);
  /// Whether a rejection must also carry the reference's message: the DOT
  /// reader and parser share no code but word their errors alike, while
  /// the JSON references fail through util::Json's own messages.
  bool same_error = false;
};

inline const ReaderPair kProvJson{"from_prov_json", formats::from_prov_json,
                                  from_prov_json};
inline const ReaderPair kNeo4j{"from_neo4j_json", formats::from_neo4j_json,
                               from_neo4j_json};
inline const ReaderPair kDot{"from_dot", formats::from_dot, from_dot, true};

/// "" when `pair.reader` agrees with its reference on `text`, else what
/// differs: one accepts what the other rejects, the graphs differ (ids,
/// labels, properties, insertion order), or, for a `same_error` pair,
/// the messages differ.
inline std::string disagreement(const ReaderPair& pair, std::string_view text) {
  std::optional<graph::PropertyGraph> expected, actual;
  std::string expected_error, actual_error;
  try {
    expected = pair.reference(text);
  } catch (const std::exception& e) {
    expected_error = e.what();
  }
  try {
    actual = pair.reader(text);
  } catch (const std::exception& e) {
    actual_error = e.what();
  }
  if (expected.has_value() != actual.has_value()) {
    return std::string(pair.name) + (actual ? " accepted" : " rejected") +
           " what the reference " + (expected ? "accepted" : "rejected") +
           " (" + expected_error + actual_error + ")";
  }
  if (expected && !(*expected == *actual)) {
    return std::string(pair.name) + " read a different graph";
  }
  if (pair.same_error && expected_error != actual_error) {
    return std::string(pair.name) + " failed with \"" + actual_error +
           "\", the reference with \"" + expected_error + "\"";
  }
  return "";
}

/// The pairs that read a document of `format`.
inline std::vector<const ReaderPair*> readers_for(formats::Format format) {
  if (format == formats::Format::Dot) return {&kDot};
  return {&kProvJson, &kNeo4j};
}

// -- inputs -------------------------------------------------------------------

struct RecorderDocument {
  std::string system;
  std::string program;
  bool foreground = false;
  std::string text;
};

/// Trial 0 of both variants of every Table-1 program on every recorder,
/// recorded as the pipeline records them at seed 42.
inline std::vector<RecorderDocument> recorder_documents() {
  std::vector<RecorderDocument> docs;
  for (const char* system :
       {"spade", "opus", "camflow", "spade-camflow", "audit", "ebpf"}) {
    auto recorder = systems::make_recorder(system);
    for (const bench_suite::BenchmarkProgram& program :
         bench_suite::table_benchmarks()) {
      for (bool foreground : {false, true}) {
        const std::uint64_t seed =
            core::trial_seed(42, program.name, foreground, 0);
        bench_suite::ExecutionResult run = bench_suite::execute_program(
            program, foreground, seed, recorder->extra_audit_rules());
        docs.push_back({system, program.name, foreground,
                        recorder->record(run.trace, systems::TrialContext{
                                                        seed ^ 0xC0FFEEULL})});
      }
    }
  }
  return docs;
}

}  // namespace provmark::formats::reference
