// Ablation benchmark for the matching engine (the clingo replacement).
//
// The paper's §5.1 claim is that solving the NP-complete matching
// problems is "minutes rather than days" in practice. This benchmark
// measures our engine on provenance-shaped graphs of growing size and
// ablates the two design choices DESIGN.md calls out:
//   * candidate pruning (label/degree/WL filters),
//   * branch-and-bound cost pruning.
#include <benchmark/benchmark.h>

#include "graph/property_graph.h"
#include "matcher/matcher.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace provmark;

namespace {

/// A provenance-shaped random graph: one process spine with artifact
/// fan-out, labelled like recorder output.
graph::PropertyGraph make_provenance_graph(int processes,
                                           int artifacts_per_process,
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
    for (int a = 0; a < artifacts_per_process; ++a) {
      std::string aid = pid + "a" + std::to_string(a);
      // Stable per-artifact paths keep the instance realistic (recorders
      // name artifacts); the transient "time" property is what the
      // optimizer has to see through.
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

/// Relabel ids and shuffle property values slightly: an isomorphic copy
/// with transient noise, as two recording trials would produce.
graph::PropertyGraph transient_copy(const graph::PropertyGraph& g,
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

void configure(matcher::SearchOptions& options, bool pruning,
               bool bounding) {
  options.candidate_pruning = pruning;
  options.cost_bounding = bounding;
  // Bound the worst case (the paper accepts exponential blow-up as a
  // risk, §5.4); a budget hit shows up as an error in the bench output.
  options.step_budget = 5'000'000;
}

void BM_Isomorphism(benchmark::State& state) {
  int processes = static_cast<int>(state.range(0));
  bool pruning = state.range(1) != 0;
  graph::PropertyGraph g1 = make_provenance_graph(processes, 4, 1);
  graph::PropertyGraph g2 = transient_copy(g1, 2);
  matcher::SearchOptions options;
  options.cost_model = matcher::CostModel::Symmetric;
  configure(options, pruning, true);
  for (auto _ : state) {
    auto result = matcher::best_isomorphism(g1, g2, options);
    benchmark::DoNotOptimize(result);
    if (!result.has_value()) state.SkipWithError("no isomorphism found");
  }
  state.SetLabel(util::format("%zu elements, pruning=%s",
                              g1.size(), pruning ? "on" : "off"));
}
BENCHMARK(BM_Isomorphism)
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({12, 1})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Unit(benchmark::kMillisecond);

void BM_SubgraphEmbedding(benchmark::State& state) {
  int processes = static_cast<int>(state.range(0));
  bool bounding = state.range(1) != 0;
  // Background = first half of the foreground: the comparison stage shape.
  graph::PropertyGraph fg = make_provenance_graph(processes, 4, 3);
  graph::PropertyGraph bg = make_provenance_graph(processes / 2, 4, 3);
  matcher::SearchOptions options;
  options.cost_model = matcher::CostModel::OneSided;
  configure(options, true, bounding);
  for (auto _ : state) {
    auto result = matcher::best_subgraph_embedding(bg, fg, options);
    benchmark::DoNotOptimize(result);
    if (!result.has_value()) state.SkipWithError("no embedding found");
  }
  state.SetLabel(util::format("bg %zu -> fg %zu, cost bounding=%s",
                              bg.size(), fg.size(),
                              bounding ? "on" : "off"));
}
BENCHMARK(BM_SubgraphEmbedding)
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({16, 1})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
