#include "core/transform.h"

#include "datalog/fact_io.h"
#include "formats/detect.h"
#include "formats/neo4j.h"
#include "formats/prov_json.h"
#include "util/strings.h"

namespace provmark::core {

graph::GraphView read_native(std::string_view native_output,
                             const TransformOptions& options) {
  // CamFlow's PROV-JSON is the common JSON document: read it once instead
  // of detecting the format first. A successful read means valid JSON, so
  // detection would have said PROV-JSON too, unless the document has the
  // two top-level keys of a Neo4j export; those, and every read that
  // fails (an OPUS export fails at its first key), take the detecting
  // path below.
  if (util::starts_with(util::trim(native_output), "{")) {
    try {
      bool neo4j_keys = false;
      graph::GraphView view = formats::prov_json_view(native_output,
                                                      &neo4j_keys);
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
    store.open(native_output);
    return std::move(store).view();
  }
  return formats::view_as(format, native_output);
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
