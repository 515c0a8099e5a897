// What the readers make of a document, written out in full, and a digest
// over many of those outcomes.
//
// An outcome is either the value a reader returns (every node, edge and
// property of a view in the view's own order, duplicates included, with
// the reader's flags; a util::Json tree walked type by type) or the
// exception it throws (its kind and message, offset included). It is
// built without util::JsonWriter or any other code under test, so a
// digest of outcomes pins the readers' accept/reject decisions, views and
// error messages byte for byte. The pinned digests in the reader tests
// are recorded from these functions; a deliberate change to what a
// reader accepts or reports replaces them with the values the failing
// test prints.
#pragma once

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>

#include "formats/dot.h"
#include "formats/neo4j.h"
#include "formats/prov_json.h"
#include "graph/graph_view.h"
#include "util/json.h"

namespace provmark::formats::outcome {

/// `s` length-prefixed, so no two lists of strings describe alike.
inline void put(std::string& out, std::string_view s) {
  out += std::to_string(s.size());
  out += ':';
  out += s;
}

inline std::string describe(const graph::GraphView& view) {
  std::string out;
  auto props = [&](std::uint32_t first, std::uint32_t count) {
    out += " props " + std::to_string(count);
    for (std::uint32_t i = first; i < first + count; ++i) {
      put(out, view.props[i].key);
      put(out, view.props[i].value);
    }
  };
  out += "nodes " + std::to_string(view.nodes.size());
  for (const graph::GraphView::NodeRef& n : view.nodes) {
    out += "\n n ";
    put(out, n.id);
    put(out, n.label);
    props(n.first_prop, n.prop_count);
  }
  out += "\nedges " + std::to_string(view.edges.size());
  for (const graph::GraphView::EdgeRef& e : view.edges) {
    out += "\n e ";
    put(out, e.id);
    out += std::to_string(e.src) + ">" + std::to_string(e.tgt) + " ";
    put(out, e.label);
    props(e.first_prop, e.prop_count);
  }
  return out;
}

inline void describe(const util::Json& j, std::string& out) {
  switch (j.type()) {
    case util::Json::Type::Null: out += 'n'; break;
    case util::Json::Type::Bool: out += j.as_bool() ? 't' : 'f'; break;
    case util::Json::Type::Number: {
      char buf[40];
      std::snprintf(buf, sizeof buf, "#%.17g;", j.as_double());
      out += buf;
      break;
    }
    case util::Json::Type::String:
      out += 's';
      put(out, j.as_string());
      break;
    case util::Json::Type::Array:
      out += '[';
      for (const util::Json& element : j.as_array()) describe(element, out);
      out += ']';
      break;
    case util::Json::Type::Object:
      out += '{';
      for (const auto& [k, v] : j.as_object()) {
        put(out, k);
        describe(v, out);
      }
      out += '}';
      break;
  }
}

/// "ok <what read() returns>", or the exception's kind and message.
template <typename Read>
std::string of(Read&& read) {
  try {
    return "ok " + read();
  } catch (const util::JsonParseError& e) {
    return std::string("json_parse_error ") + e.what();
  } catch (const std::invalid_argument& e) {
    return std::string("invalid_argument ") + e.what();
  } catch (const std::runtime_error& e) {
    return std::string("runtime_error ") + e.what();
  } catch (const std::exception& e) {
    return std::string("exception ") + e.what();
  }
}

/// Json::parse, prov_json_view, neo4j_json_view and dot_view on `text`,
/// one line each.
inline std::string of_every_reader(std::string_view text) {
  std::string out = of([&] {
    std::string tree;
    describe(util::Json::parse(text), tree);
    return tree;
  });
  out += "\n" + of([&] {
    bool neo4j_keys = false;
    graph::GraphView view = prov_json_view(text, &neo4j_keys);
    return describe(view) + (neo4j_keys ? "\nneo4j keys" : "");
  });
  out += "\n" + of([&] {
    bool relationships = false;
    graph::GraphView view = neo4j_json_view(text, &relationships);
    return describe(view) + (relationships ? "\nrelationships" : "");
  });
  out += "\n" + of([&] { return describe(dot_view(text)); });
  return out;
}

/// FNV-1a over a sequence of strings, each one length-prefixed.
class Digest {
 public:
  void add(std::string_view s) {
    std::string framed;
    put(framed, s);
    for (unsigned char c : framed) {
      h_ ^= c;
      h_ *= 0x100000001B3ULL;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

}  // namespace provmark::formats::outcome
