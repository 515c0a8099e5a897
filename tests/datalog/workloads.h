// Datalog workloads shared by the engine equivalence and index speedup
// tests: the batched-replay split of the regression-store update
// pattern, and the query shapes the paper's storage format produces
// (transitive closure over provenance edges, a triangle join, and a
// stratified provenance query over the Listing 1 representation).
#pragma once

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "datalog/fact_io.h"
#include "test_graphs.h"
#include "util/rng.h"
#include "util/strings.h"

namespace provmark::datalog {

struct Workload {
  std::string name;
  std::string program;
  std::vector<std::string> relations;  ///< output relations to compare
  std::vector<std::string> queries;    ///< query atoms to compare
};

/// Split `program` into its rule clauses (returned via `rules`, load
/// them first) and `batches` contiguous batches of fact clauses — the
/// regression-store update pattern: facts arrive in batches, the store
/// re-saturates after each. One clause per line; a line is a rule iff
/// it contains ":-".
inline void split_fact_batches(const std::string& program, int batches,
                               std::string* rules,
                               std::vector<std::string>* fact_batches) {
  std::vector<std::string> fact_lines;
  for (const std::string& line : util::split(program, '\n')) {
    if (line.empty()) continue;
    if (line.find(":-") != std::string::npos) {
      *rules += line + "\n";
    } else {
      fact_lines.push_back(line);
    }
  }
  fact_batches->assign(batches, "");
  for (std::size_t i = 0; i < fact_lines.size(); ++i) {
    (*fact_batches)[i * batches / fact_lines.size()] +=
        fact_lines[i] + "\n";
  }
}

/// Transitive closure over the edge facts of a provenance spine with
/// three artifacts per process. Derived tuples grow quadratically with
/// the spine, the shape that breaks scan joins.
inline Workload closure_workload(int processes) {
  graph::PropertyGraph g = test_graphs::provenance_graph(processes, 3, 11);
  Workload w;
  w.name = "closure" + std::to_string(processes);
  for (const graph::Edge& e : g.edges()) {
    w.program += "edge(" + e.src + "," + e.tgt + ").\n";
  }
  w.program +=
      "path(X,Y) :- edge(X,Y).\n"
      "path(X,Z) :- path(X,Y), edge(Y,Z).\n";
  w.relations = {"path"};
  w.queries = {"path(p0, X)", "path(X, p0)"};
  return w;
}

/// A three-way self-join over a random link relation with 4 links per
/// node: one round, pure join-order and index-probe stress.
inline Workload triangle_workload(int nodes) {
  util::Rng rng(23);
  Workload w;
  w.name = "triangle" + std::to_string(nodes);
  std::set<std::pair<int, int>> seen;
  for (int i = 0; i < nodes * 4; ++i) {
    int a = static_cast<int>(rng.next_below(nodes));
    int b = static_cast<int>(rng.next_below(nodes));
    if (!seen.insert({a, b}).second) continue;
    w.program += "link(v" + std::to_string(a) + ",v" + std::to_string(b) +
                 ").\n";
  }
  w.program +=
      "tri(X,Y,Z) :- link(X,Y), link(Y,Z), link(Z,X).\n"
      "fanout(X,Y,Z) :- link(X,Y), link(X,Z), Y != Z.\n";
  w.relations = {"tri", "fanout"};
  w.queries = {"tri(X, Y, Z)"};
  return w;
}

/// A provenance spine as Listing 1 facts, with reachability and the
/// negation-guarded "files written but never read back" query.
inline Workload provenance_query_workload(int processes) {
  graph::PropertyGraph g = test_graphs::provenance_graph(processes, 3, 31);
  Workload w;
  w.name = "provquery" + std::to_string(processes);
  w.program = to_datalog(g, "r");
  w.program +=
      "flow(A,B) :- er(E, A, B, L).\n"
      "reach(A,B) :- flow(A,B).\n"
      "reach(A,C) :- reach(A,B), flow(B,C).\n"
      "written(F) :- er(_, F, _, \"WasGeneratedBy\").\n"
      "readback(F) :- er(_, _, F, \"Used\").\n"
      "writeonly(F) :- written(F), not readback(F).\n"
      "proc(P) :- nr(P, \"Process\").\n"
      "touched(P,F) :- proc(P), reach(P,F), not proc(F).\n";
  w.relations = {"reach", "writeonly", "touched"};
  w.queries = {"reach(p0, X)", "writeonly(F)"};
  return w;
}

}  // namespace provmark::datalog
