// Recorder output format auto-detection for the transformation stage.
#pragma once

#include <memory_resource>
#include <string_view>

#include "graph/graph_view.h"
#include "graph/property_graph.h"

namespace provmark::formats {

enum class Format { Dot, ProvJson, Neo4jJson, Datalog, Unknown };

/// Sniff the format of a recorder output document.
Format detect_format(std::string_view text);

const char* format_name(Format f);

/// Read a document of a known format into a view (Datalog documents
/// must contain a single graph, which the view owns a copy of on the
/// heap; every other format is viewed in place, so `text` must outlive
/// the view, and the view draws from `memory`). Throws
/// std::runtime_error for Unknown.
graph::GraphView view_as(
    Format format, std::string_view text,
    std::pmr::memory_resource* memory = std::pmr::get_default_resource());

/// Parse a document of a known format into a property graph (Datalog
/// documents must contain a single graph). Throws std::runtime_error for
/// Unknown.
graph::PropertyGraph parse_as(Format format, std::string_view text);

/// parse_as(detect_format(text), text).
graph::PropertyGraph parse_any(std::string_view text);

}  // namespace provmark::formats
