// Graphviz DOT reader/writer for property graphs.
//
// SPADE's Graphviz storage emits one DOT file per recording; ProvMark's
// transformation stage parses it back into the uniform property-graph
// representation. The writer is also used to visualize benchmark results
// (Figure 1 / Table 3 reproductions).
//
// Supported DOT subset: `digraph name { ... }` with node statements
// `id [key="value", ...];` and edge statements `a -> b [key="value", ...];`.
// The property-graph label is carried in the `label` attribute when
// present; remaining attributes become properties. This mirrors how SPADE
// serializes OPM vertices/edges.
#pragma once

#include <memory_resource>
#include <string>
#include <string_view>

#include "graph/graph_view.h"
#include "graph/property_graph.h"

namespace provmark::formats {

/// Render `view` as a DOT digraph. Node/edge labels become `label`
/// attributes and properties become further attributes, in key order with
/// the last value of a repeated key winning; `type` styling follows the
/// paper's figures (rectangles for processes, ovals for artifacts). A
/// property key is quoted unless it is a non-empty run of name
/// characters (letters, digits, '_', '.', ':'), so from_dot reads every
/// key back.
std::string to_dot(const graph::GraphView& view,
                   std::string_view graph_name = "provenance");

/// to_dot(view_of(g), graph_name).
std::string to_dot(const graph::PropertyGraph& g,
                   std::string_view graph_name = "provenance");

/// Read the DOT subset described above into a view over `text`. Nodes
/// referenced only in edge statements are created implicitly with an
/// empty label, matching Graphviz semantics; a node declared again takes
/// the new label and merges the new attributes. Edge k is named
/// "dot_e<k>". Throws std::runtime_error on syntax errors and
/// std::invalid_argument on an id clash. The view's lists and the
/// reader's scratch draw from `memory`.
graph::GraphView dot_view(
    std::string_view text,
    std::pmr::memory_resource* memory = std::pmr::get_default_resource());

/// dot_view(text), materialized.
graph::PropertyGraph from_dot(std::string_view text);

}  // namespace provmark::formats
