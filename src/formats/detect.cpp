#include "formats/detect.h"

#include <stdexcept>

#include "datalog/fact_io.h"
#include "formats/dot.h"
#include "formats/neo4j.h"
#include "formats/prov_json.h"
#include "util/json.h"
#include "util/strings.h"

namespace provmark::formats {

Format detect_format(std::string_view text) {
  std::string_view t = util::trim(text);
  if (util::starts_with(t, "digraph")) return Format::Dot;
  if (util::starts_with(t, "{")) {
    // Distinguish PROV-JSON from Neo4j export by their top-level keys:
    // an export has both `nodes` and `relationships`, and reading stops
    // once both are seen. JSON that breaks before then reads as
    // PROV-JSON, whose reader rejects it.
    bool nodes = false, relationships = false;
    try {
      util::JsonReader reader(t);
      std::string key;
      reader.begin_object();
      while (reader.next_key(key)) {
        nodes |= key == "nodes";
        relationships |= key == "relationships";
        if (nodes && relationships) break;
        reader.skip();
      }
    } catch (const util::JsonParseError&) {
      return Format::ProvJson;
    }
    return nodes && relationships ? Format::Neo4jJson : Format::ProvJson;
  }
  if (util::starts_with(t, "n") || util::starts_with(t, "e") ||
      util::starts_with(t, "p") || util::starts_with(t, "%")) {
    return Format::Datalog;
  }
  return Format::Unknown;
}

const char* format_name(Format f) {
  switch (f) {
    case Format::Dot: return "graphviz-dot";
    case Format::ProvJson: return "prov-json";
    case Format::Neo4jJson: return "neo4j-json";
    case Format::Datalog: return "datalog";
    case Format::Unknown: return "unknown";
  }
  return "unknown";
}

namespace {

graph::PropertyGraph single_datalog_graph(std::string_view text) {
  auto graphs = datalog::from_datalog(text);
  if (graphs.size() != 1) {
    throw std::runtime_error(
        "expected a single graph in datalog document, found " +
        std::to_string(graphs.size()));
  }
  return std::move(graphs.begin()->second);
}

}  // namespace

graph::GraphView view_as(Format format, std::string_view text,
                         std::pmr::memory_resource* memory) {
  switch (format) {
    case Format::Dot: return dot_view(text, memory);
    case Format::ProvJson: return prov_json_view(text, nullptr, memory);
    case Format::Neo4jJson: return neo4j_json_view(text, nullptr, memory);
    case Format::Datalog: return graph::copy_of(single_datalog_graph(text));
    case Format::Unknown: break;
  }
  throw std::runtime_error("unrecognized provenance output format");
}

graph::PropertyGraph parse_as(Format format, std::string_view text) {
  if (format == Format::Datalog) return single_datalog_graph(text);
  return view_as(format, text).materialize();
}

graph::PropertyGraph parse_any(std::string_view text) {
  return parse_as(detect_format(text), text);
}

}  // namespace provmark::formats
