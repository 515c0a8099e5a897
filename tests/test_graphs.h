// Seeded graph generators shared by the matcher and Datalog suites.
//
//  * random_graph / shuffled_copy: small labelled graphs with a few
//    low-cardinality properties, for differential tests against the
//    brute_force oracle and the legacy engines;
//  * provenance_graph / fragment_graph / transient_copy: the shapes
//    recorders produce (a process spine with artifact fan-out, and
//    disjoint identical fragments), big enough that the search order
//    and the indexed Datalog joins pay off.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/property_graph.h"
#include "util/rng.h"

namespace provmark::test_graphs {

inline graph::PropertyGraph random_graph(int nodes, int edges,
                                         util::Rng& rng) {
  static const char* kNodeLabels[] = {"Process", "Artifact", "Agent"};
  static const char* kEdgeLabels[] = {"Used", "WasGeneratedBy", "Was"};
  static const char* kKeys[] = {"pid", "path", "time"};
  graph::PropertyGraph g;
  for (int i = 0; i < nodes; ++i) {
    graph::Properties props;
    int prop_count = static_cast<int>(rng.next_below(3));
    for (int p = 0; p < prop_count; ++p) {
      props[kKeys[rng.next_below(3)]] = std::to_string(rng.next_below(4));
    }
    g.add_node("n" + std::to_string(i), kNodeLabels[rng.next_below(3)],
               std::move(props));
  }
  for (int i = 0; i < edges; ++i) {
    graph::Properties props;
    if (rng.chance(0.5)) props["op"] = std::to_string(rng.next_below(3));
    g.add_edge("e" + std::to_string(i),
               "n" + std::to_string(
                         rng.next_below(static_cast<std::uint64_t>(nodes))),
               "n" + std::to_string(
                         rng.next_below(static_cast<std::uint64_t>(nodes))),
               kEdgeLabels[rng.next_below(3)], std::move(props));
  }
  return g;
}

/// An isomorphic copy with ids prefixed "s_" and nodes inserted in a
/// shuffled order.
inline graph::PropertyGraph shuffled_copy(const graph::PropertyGraph& g,
                                          util::Rng& rng) {
  std::vector<const graph::Node*> nodes;
  for (const graph::Node& n : g.nodes()) nodes.push_back(&n);
  for (std::size_t i = nodes.size(); i > 1; --i) {
    std::swap(nodes[i - 1], nodes[rng.next_below(i)]);
  }
  graph::PropertyGraph out;
  for (const graph::Node* n : nodes) {
    out.add_node("s_" + n->id, n->label, n->props);
  }
  for (const graph::Edge& e : g.edges()) {
    out.add_edge("s_" + e.id, "s_" + e.src, "s_" + e.tgt, e.label, e.props);
  }
  return out;
}

/// One process spine (each process triggered by the previous one) with
/// `artifacts` read or written artifacts per process, labelled like
/// recorder output.
inline graph::PropertyGraph provenance_graph(int processes, int artifacts,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  graph::PropertyGraph g;
  std::string prev;
  int edge = 0;
  for (int p = 0; p < processes; ++p) {
    std::string pid = "p" + std::to_string(p);
    g.add_node(pid, "Process",
               {{"pid", std::to_string(1000 + p)},
                {"name", "proc" + std::to_string(p % 3)}});
    if (!prev.empty()) {
      g.add_edge("e" + std::to_string(edge++), pid, prev, "WasTriggeredBy",
                 {{"operation", "fork"}});
    }
    for (int a = 0; a < artifacts; ++a) {
      std::string aid = pid + "a" + std::to_string(a);
      g.add_node(aid, "Artifact",
                 {{"path", "/tmp/p" + std::to_string(p) + "f" +
                               std::to_string(a)},
                  {"time", std::to_string(rng.next_below(100000))}});
      bool used = rng.chance(0.5);
      g.add_edge("e" + std::to_string(edge++), used ? pid : aid,
                 used ? aid : pid, used ? "Used" : "WasGeneratedBy",
                 {{"operation", used ? "read" : "write"}});
    }
    prev = pid;
  }
  return g;
}

/// `fragments` disjoint, structurally identical 4-process spines with
/// 4 artifacts each; only property values tell the fragments apart.
inline graph::PropertyGraph fragment_graph(int fragments,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  graph::PropertyGraph g;
  int edge = 0;
  for (int f = 0; f < fragments; ++f) {
    std::string prev;
    for (int p = 0; p < 4; ++p) {
      std::string pid = "f" + std::to_string(f) + "p" + std::to_string(p);
      g.add_node(pid, "Process",
                 {{"pid", std::to_string(1000 + f * 10 + p)},
                  {"name", "proc" + std::to_string(p % 3)}});
      if (!prev.empty()) {
        g.add_edge("e" + std::to_string(edge++), pid, prev,
                   "WasTriggeredBy", {{"operation", "fork"}});
      }
      for (int a = 0; a < 4; ++a) {
        std::string aid = pid + "a" + std::to_string(a);
        g.add_node(aid, "Artifact",
                   {{"path", "/tmp/frag" + std::to_string(f) + "f" +
                                 std::to_string(a)},
                    {"time", std::to_string(rng.next_below(100000))}});
        bool used = a % 2 == 0;
        g.add_edge("e" + std::to_string(edge++), used ? pid : aid,
                   used ? aid : pid, used ? "Used" : "WasGeneratedBy",
                   {{"operation", used ? "read" : "write"}});
      }
      prev = pid;
    }
  }
  return g;
}

/// An isomorphic copy as a second recording trial would produce: ids
/// prefixed "x", fresh `time` and `pid` values.
inline graph::PropertyGraph transient_copy(const graph::PropertyGraph& g,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  graph::PropertyGraph out;
  for (const graph::Node& n : g.nodes()) {
    graph::Properties props = n.props;
    if (props.count("time") > 0) {
      props["time"] = std::to_string(rng.next_below(100000));
    }
    if (props.count("pid") > 0) {
      props["pid"] = std::to_string(5000 + rng.next_below(1000));
    }
    out.add_node("x" + n.id, n.label, std::move(props));
  }
  for (const graph::Edge& e : g.edges()) {
    out.add_edge("x" + e.id, "x" + e.src, "x" + e.tgt, e.label, e.props);
  }
  return out;
}

}  // namespace provmark::test_graphs
