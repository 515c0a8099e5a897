// Equivalence of the interned, indexed engine against the preserved
// seed-era evaluator (datalog::legacy::Engine), from scratch and with
// fact batches replayed through incremental re-runs. The engines must derive bit-identical relation contents and
// query results on every program — the same contract the matcher
// rewrite enforces through its legacy-equivalence test.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "datalog/engine.h"
#include "datalog/fact_io.h"
#include "datalog/legacy_engine.h"
#include "util/rng.h"
#include "workloads.h"

namespace provmark::datalog {
namespace {

/// A provenance-flavoured random fact base: edge/2 over `n` nodes plus
/// label/2 facts, seeded deterministically.
std::string random_edges(int n, int m, std::uint64_t seed) {
  util::Rng rng(seed);
  std::string out;
  for (int i = 0; i < m; ++i) {
    out += "edge(n" + std::to_string(rng.next_below(n)) + ",n" +
           std::to_string(rng.next_below(n)) + ").\n";
  }
  for (int i = 0; i < n; ++i) {
    out += "node(n" + std::to_string(i) + ").\n";
    out += "label(n" + std::to_string(i) + ",l" + std::to_string(i % 3) +
           ").\n";
  }
  return out;
}

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  out.push_back(
      {"transitive_closure",
       random_edges(12, 20, 1) +
           "path(X,Y) :- edge(X,Y).\n"
           "path(X,Z) :- path(X,Y), edge(Y,Z).\n",
       {"path"},
       {"path(n0, X)", "path(X, n3)", "path(X, Y)"}});
  out.push_back(
      {"same_generation",
       random_edges(10, 14, 2) +
           "sg(X,X) :- node(X).\n"
           "sg(X,Y) :- edge(A,X), sg(A,B), edge(B,Y).\n",
       {"sg"},
       {"sg(n1, X)"}});
  out.push_back(
      {"triangle_and_diseq",
       random_edges(9, 24, 3) +
           "tri(X,Y,Z) :- edge(X,Y), edge(Y,Z), edge(Z,X).\n"
           "pair(X,Y) :- node(X), node(Y), X != Y.\n"
           "loop(X) :- edge(X,X).\n",
       {"tri", "pair", "loop"},
       {"tri(X, Y, Z)", "pair(n0, X)"}});
  out.push_back(
      {"stratified_negation",
       random_edges(11, 16, 4) +
           "reach(X) :- edge(n0, X).\n"
           "reach(Y) :- reach(X), edge(X, Y).\n"
           "unreach(X) :- node(X), not reach(X), X != n0.\n"
           "source(X) :- node(X), not edge(_, X).\n"
           "sink(X) :- node(X), not edge(X, _).\n"
           "isolated(X) :- source(X), sink(X).\n",
       {"reach", "unreach", "source", "sink", "isolated"},
       {"unreach(X)", "isolated(X)"}});
  out.push_back(
      {"constants_and_repeats",
       random_edges(8, 18, 5) +
           "l0pair(X,Y) :- label(X,l0), label(Y,l0), edge(X,Y).\n"
           "selfpair(X) :- edge(X,X).\n"
           "tagged(X,\"a b\") :- label(X, l1).\n",
       {"l0pair", "selfpair", "tagged"},
       {"tagged(X, Y)", "l0pair(X, X)"}});
  // The Listing 1 graph representation end-to-end, as the regression and
  // query use cases exercise it.
  {
    graph::PropertyGraph g;
    g.add_node("p1", "Process");
    g.add_node("f1", "Artifact");
    g.add_node("f2", "Artifact");
    g.add_edge("x1", "p1", "f1", "Used");
    g.add_edge("x2", "f2", "p1", "WasGeneratedBy");
    out.push_back(
        {"graph_facts",
         to_datalog(g, "r") +
             "flow(A,B) :- er(E, A, B, _).\n"
             "reach(A,B) :- flow(A,B).\n"
             "reach(A,C) :- reach(A,B), flow(B,C).\n"
             "written(F) :- er(_, F, _, \"WasGeneratedBy\").\n"
             "readback(F) :- er(_, _, F, \"Used\").\n"
             "writeonly(F) :- written(F), not readback(F).\n",
         {"reach", "writeonly"},
         {"reach(f2, X)", "writeonly(F)"}});
  }
  // The provenance-shaped query workloads at two sizes each.
  for (int scale : {8, 16}) {
    out.push_back(closure_workload(scale));
    out.push_back(triangle_workload(scale * 3));
    out.push_back(provenance_query_workload(scale));
  }
  return out;
}

/// True when the program negates nothing: batched saturation of a
/// positive program lands exactly on the one-shot fixpoint. (With
/// negation, facts derived before a later batch arrives stay in the
/// append-only store, so the batched store is legitimately cumulative.)
bool is_positive(const Workload& w) {
  return w.program.find("not ") == std::string::npos;
}

void expect_equivalent(const Workload& w) {
  const std::string& context = w.name;
  legacy::Engine reference;
  reference.load_program(w.program);
  Engine engine;
  engine.load_program(w.program);

  std::size_t derived_tuples = 0;
  for (const std::string& relation : w.relations) {
    std::set<Tuple> derived = engine.relation(relation);
    EXPECT_EQ(derived, reference.relation(relation))
        << context << " / " << relation;
    derived_tuples += derived.size();
  }
  EXPECT_GT(derived_tuples, 0u) << context << ": workload derived nothing";
  for (const std::string& query : w.queries) {
    EXPECT_EQ(engine.query(query), reference.query(query))
        << context << " / " << query;
  }
  EXPECT_EQ(engine.fact_count(), reference.fact_count()) << context;
}

TEST(EngineEquivalence, IndexedMatchesLegacy) {
  for (const Workload& w : workloads()) expect_equivalent(w);
}

TEST(EngineEquivalence, ErrorBehaviourMatchesLegacy) {
  // The exception contract rides along with the rewrite.
  Engine engine;
  engine.add_fact("r", {"a"});
  EXPECT_THROW(engine.add_fact("r", {"a", "b"}), std::invalid_argument);
  EXPECT_THROW(engine.load_program("bad(X).\n"), std::invalid_argument);
  EXPECT_THROW(engine.load_program("q(X) :- p(X), not r(Y).\n"),
               std::invalid_argument);
  Engine unstratified;
  unstratified.load_program(
      "p(a).\n"
      "q(X) :- p(X), not r(X).\n"
      "r(X) :- p(X), not q(X).\n");
  EXPECT_THROW(unstratified.run(), std::logic_error);
}

TEST(EngineEquivalence, IncrementalDeltaReuseMatchesFromScratch) {
  // The incremental contract: seeding the first semi-naive round with
  // only the rows appended since the last run() must leave the fact
  // store bit-identical to the legacy engine replaying the same batches
  // after every batch, on every workload including stratified negation.
  // A positive program must also match a fresh engine loaded with every
  // batch so far, i.e. a from-scratch derivation.
  for (const Workload& w : workloads()) {
    std::string rules;
    std::vector<std::string> batches;
    split_fact_batches(w.program, 4, &rules, &batches);

    Engine incremental;
    legacy::Engine reference;
    incremental.load_program(rules);
    reference.load_program(rules);
    std::string so_far = rules;

    for (std::size_t b = 0; b < batches.size(); ++b) {
      incremental.load_program(batches[b]);
      reference.load_program(batches[b]);
      so_far += batches[b];
      Engine scratch;
      scratch.load_program(so_far);
      for (const std::string& relation : w.relations) {
        EXPECT_EQ(incremental.relation(relation),
                  reference.relation(relation))
            << w.name << " batch " << b << " / " << relation << " (legacy)";
        if (is_positive(w)) {
          EXPECT_EQ(incremental.relation(relation),
                    scratch.relation(relation))
              << w.name << " batch " << b << " / " << relation;
        }
      }
      EXPECT_EQ(incremental.fact_count(), reference.fact_count())
          << w.name << " batch " << b;
    }
    for (const std::string& query : w.queries) {
      EXPECT_EQ(incremental.query(query), reference.query(query))
          << w.name << " / " << query;
    }
  }
}

TEST(EngineEquivalence, RuleAddedAfterRunFallsBackToFullDerivation) {
  // A rule added between runs never saw the old rows, so the engine
  // must re-derive from scratch; the incremental watermark alone would
  // silently miss every old-rows-only derivation of the new rule.
  Engine engine;
  engine.load_program(
      "edge(a,b). edge(b,c).\n"
      "path(X,Y) :- edge(X,Y).\n"
      "path(X,Z) :- path(X,Y), edge(Y,Z).\n");
  EXPECT_EQ(engine.relation("path").size(), 3u);
  engine.load_program("reach(X) :- path(a,X).\n");
  EXPECT_EQ(engine.relation("reach").size(), 2u);
  // And fact batches after the new rule go back to incremental reuse.
  engine.add_fact("edge", {"c", "d"});
  EXPECT_EQ(engine.relation("path").size(), 6u);
  EXPECT_EQ(engine.relation("reach").size(), 3u);
}

TEST(EngineEquivalence, IncrementalFactsAfterRun) {
  // Facts added after a fixpoint must trigger re-evaluation, exactly as
  // the legacy engine's saturation flag did.
  Engine engine;
  engine.load_program(
      "edge(a,b).\n"
      "path(X,Y) :- edge(X,Y).\n"
      "path(X,Z) :- path(X,Y), edge(Y,Z).\n");
  EXPECT_EQ(engine.relation("path").size(), 1u);
  engine.add_fact("edge", {"b", "c"});
  EXPECT_EQ(engine.relation("path").size(), 3u);
  engine.add_fact("edge", {"c", "a"});
  EXPECT_EQ(engine.relation("path").size(), 9u);
}

}  // namespace
}  // namespace provmark::datalog
