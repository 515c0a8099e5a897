#include "core/transform.h"

#include "datalog/fact_io.h"
#include "formats/detect.h"
#include "formats/neo4j.h"
#include "formats/prov_json.h"
#include "util/json.h"
#include "util/strings.h"

namespace provmark::core {

namespace {

/// Does the JSON object `text` name `nodes` or `relationships` first, as
/// an OPUS export does? False for anything else, malformed JSON included.
bool export_key_first(std::string_view text) {
  try {
    util::JsonReader reader(text);
    util::StringArena arena;
    std::string_view key;
    reader.begin_object();
    return reader.next_key_view(key, arena) &&
           (key == "nodes" || key == "relationships");
  } catch (const util::JsonParseError&) {
    return false;
  }
}

/// A document whose first key is an export's, read in one pass as an
/// export and loaded into the store. It reads to what detect_format and
/// view_as (or the store) give any document: an export with both
/// top-level keys is what detection takes for Neo4j, and a document that
/// is not a well-formed one goes back to detection.
graph::GraphView read_export(std::string_view text,
                             const TransformOptions& options,
                             std::pmr::memory_resource* memory) {
  bool relationships = false;
  graph::GraphView view;
  try {
    view = formats::neo4j_json_view(text, &relationships, memory);
  } catch (const std::exception&) {
    if (formats::detect_format(text) == formats::Format::Neo4jJson) throw;
    return formats::view_as(formats::Format::ProvJson, text, memory);
  }
  if (!relationships) {
    return formats::view_as(formats::Format::ProvJson, text, memory);
  }
  formats::Neo4jStore::Options store_options;
  store_options.startup_rounds = options.neo4j_startup_rounds;
  formats::Neo4jStore store(store_options);
  store.open(std::move(view));
  return std::move(store).view();
}

}  // namespace

graph::GraphView read_native(std::string_view native_output,
                             const TransformOptions& options,
                             std::pmr::memory_resource* memory) {
  // CamFlow's PROV-JSON is the common JSON document: read it once instead
  // of detecting the format first. A successful read means valid JSON, so
  // detection would have said PROV-JSON too, unless the document has the
  // two top-level keys of a Neo4j export; those, and every read that
  // fails, take the detecting path below. An OPUS export names its nodes
  // first, so it goes straight to the store instead.
  if (util::starts_with(util::trim(native_output), "{")) {
    if (export_key_first(native_output)) {
      return read_export(native_output, options, memory);
    }
    try {
      bool neo4j_keys = false;
      graph::GraphView view =
          formats::prov_json_view(native_output, &neo4j_keys, memory);
      if (!neo4j_keys) return view;
    } catch (const std::exception&) {
    }
  }
  const formats::Format format = formats::detect_format(native_output);
  if (format == formats::Format::Neo4jJson) {
    // OPUS stores provenance in Neo4j; extraction loads the database
    // (expensive) and queries the nodes and relationships back out.
    formats::Neo4jStore::Options store_options;
    store_options.startup_rounds = options.neo4j_startup_rounds;
    formats::Neo4jStore store(store_options);
    store.open(formats::neo4j_json_view(native_output, nullptr, memory));
    return std::move(store).view();
  }
  return formats::view_as(format, native_output, memory);
}

graph::PropertyGraph transform_native(std::string_view native_output,
                                      const TransformOptions& options) {
  return read_native(native_output, options).materialize();
}

std::string transform_to_datalog(std::string_view native_output,
                                 std::string_view gid,
                                 const TransformOptions& options) {
  return datalog::to_datalog(transform_native(native_output, options), gid);
}

}  // namespace provmark::core
