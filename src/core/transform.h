// Stage 2 — Transformation (§3.3): map each recorder's native output to
// the uniform Datalog property-graph representation.
//
// Everything downstream (generalization, comparison, regression storage)
// is independent of the recorder and its format once this stage has run.
//
// The OPUS path goes through the Neo4j store emulation: the real OPUS
// transformation runs Neo4j queries, paying a one-time JVM/database
// startup cost that dominates Figure 6; `Neo4jStore` reproduces that cost
// profile with genuine index-building work.
#pragma once

#include <memory_resource>
#include <string>
#include <string_view>

#include "graph/graph_view.h"
#include "graph/property_graph.h"

namespace provmark::core {

struct TransformOptions {
  /// Index-rebuild rounds for the Neo4j store emulation (see
  /// formats::Neo4jStore::Options); only used for neo4j-json input.
  int neo4j_startup_rounds = 400;
};

/// Read a native recorder document (format auto-detected) into a view
/// over it; `native_output` must outlive the view. The view's lists and
/// arena and the reader's scratch draw from `memory` (the pipeline passes
/// the trial's region); only a Datalog document's view and the modeled
/// Neo4j store's index maps use the heap. Throws std::runtime_error (or
/// std::invalid_argument on an id clash or a dangling edge) on malformed
/// input.
graph::GraphView read_native(
    std::string_view native_output, const TransformOptions& options = {},
    std::pmr::memory_resource* memory = std::pmr::get_default_resource());

/// read_native(), materialized into a property graph.
graph::PropertyGraph transform_native(std::string_view native_output,
                                      const TransformOptions& options = {});

/// Full transformation: native document -> Datalog text under `gid`.
std::string transform_to_datalog(std::string_view native_output,
                                 std::string_view gid,
                                 const TransformOptions& options = {});

}  // namespace provmark::core
