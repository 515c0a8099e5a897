#include "core/transform.h"

#include "datalog/fact_io.h"
#include "formats/detect.h"
#include "formats/neo4j.h"

namespace provmark::core {

graph::PropertyGraph transform_native(std::string_view native_output,
                                      const TransformOptions& options) {
  const formats::Format format = formats::detect_format(native_output);
  if (format == formats::Format::Neo4jJson) {
    // OPUS stores provenance in Neo4j; extraction loads the database
    // (expensive) and queries the nodes and relationships back out.
    formats::Neo4jStore::Options store_options;
    store_options.startup_rounds = options.neo4j_startup_rounds;
    formats::Neo4jStore store(store_options);
    store.open(native_output);
    return store.export_graph();
  }
  return formats::parse_as(format, native_output);
}

std::string transform_to_datalog(std::string_view native_output,
                                 std::string_view gid,
                                 const TransformOptions& options) {
  return datalog::to_datalog(transform_native(native_output, options), gid);
}

}  // namespace provmark::core
