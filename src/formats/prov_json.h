// W3C PROV-JSON reader/writer.
//
// CamFlow serializes provenance as PROV-JSON: a JSON object with one member
// per node type ("entity", "activity", "agent") and one per relation type
// ("used", "wasGeneratedBy", "wasInformedBy", "wasDerivedFrom", ...), each
// mapping identifiers to attribute dictionaries. Relation records carry
// their endpoints in role-specific keys (e.g. "prov:entity" +
// "prov:activity" for `used`).
//
// The property-graph mapping: each node keeps its PROV type as its label;
// each relation becomes an edge labelled with the relation name; all other
// attributes become properties.
#pragma once

#include <memory_resource>
#include <string>
#include <string_view>

#include "graph/graph_view.h"
#include "graph/property_graph.h"

namespace provmark::formats {

/// Serialize to PROV-JSON. Node labels must be one of the PROV node kinds
/// ("entity", "activity", "agent"); edge labels name the relation. Edges
/// whose label is unknown to PROV are emitted under that label verbatim,
/// which PROV-JSON tolerates as an extension. Each element's properties
/// are written in key order, the last value of a repeated key winning.
std::string to_prov_json(const graph::GraphView& view);

/// to_prov_json(view_of(g)).
std::string to_prov_json(const graph::PropertyGraph& g);

/// Read PROV-JSON into a view over `text`. Unknown top-level sections
/// are treated as relation sections. Throws std::runtime_error when a
/// relation references a missing endpoint. When `neo4j_keys` is given it
/// is set to whether the document has both a `nodes` and a
/// `relationships` top-level key (what detect_format takes for a Neo4j
/// export). The view's lists and the reader's scratch draw from
/// `memory`.
graph::GraphView prov_json_view(
    std::string_view text, bool* neo4j_keys = nullptr,
    std::pmr::memory_resource* memory = std::pmr::get_default_resource());

/// prov_json_view(text), materialized.
graph::PropertyGraph from_prov_json(std::string_view text);

}  // namespace provmark::formats
