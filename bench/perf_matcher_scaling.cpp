// Matcher scaling benchmark: the perf trajectory of the search engine
// against the string-keyed engine it replaced.
//
// Runs the two matcher problems the pipeline actually poses (Listing 3
// generalization isomorphisms and Listing 4 comparison embeddings) plus
// a disconnected multi-component workload on growing synthetic
// provenance graphs:
//
//   legacy — the string-keyed pre-rewrite engine with its historical
//            PropertyCost order (measured on the sizes it can finish)
//   wl     — the production engine (interned graphs, WL-scarcity order),
//            serially and on the parallel search at 8 threads
//
// The benchmark *asserts* (exit 1) that the production engine reports
// the same feasibility and optimal cost as legacy wherever legacy
// finishes, and that the parallel search reproduces the serial cost —
// so a search regression fails CI instead of silently inflating BENCH
// numbers.
//
// Usage: bench_perf_matcher_scaling [--smoke] [output.json]
//   --smoke  small sizes + fewer repetitions (CI-friendly)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "graph/property_graph.h"
#include "matcher/legacy_matcher.h"
#include "matcher/matcher.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

using namespace provmark;

namespace {

constexpr std::size_t kStepBudget = 50'000'000;
constexpr int kParallelThreads = 8;

/// A provenance-shaped random graph: one process spine with artifact
/// fan-out, labelled like recorder output (same shape as the ablation
/// benchmark).
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

/// A disconnected workload: `fragments` structurally identical 4-process
/// spines (distinct property values per fragment), the shape whose
/// cross-fragment symmetry multiplies an uninformed search tree.
graph::PropertyGraph make_fragment_graph(int fragments, std::uint64_t seed) {
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
        // Fixed read/write alternation keeps every fragment structurally
        // identical, so only properties tell the fragments apart.
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

/// Relabel ids and refresh transient property values: an isomorphic copy
/// as a second recording trial would produce.
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

using MatcherFn = std::optional<matcher::Matching> (*)(
    const graph::PropertyGraph&, const graph::PropertyGraph&,
    const matcher::SearchOptions&, matcher::Stats*);

struct Measurement {
  double seconds = 0;  ///< best-of-reps wall clock
  int cost = 0;
  std::size_t steps = 0;
  bool ok = false;
  bool exhausted = false;
};

Measurement measure(MatcherFn fn, const graph::PropertyGraph& g1,
                    const graph::PropertyGraph& g2,
                    const matcher::SearchOptions& options, int reps) {
  Measurement m;
  m.seconds = 1e100;
  for (int r = 0; r < reps; ++r) {
    matcher::Stats stats;
    auto start = std::chrono::steady_clock::now();
    auto result = fn(g1, g2, options, &stats);
    auto elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    if (elapsed < m.seconds) m.seconds = elapsed;
    m.ok = result.has_value();
    m.cost = result.has_value() ? result->cost : -1;
    m.steps = stats.steps;
    m.exhausted = stats.budget_exhausted;
    if (m.exhausted) break;  // a budget hit will only repeat itself
  }
  return m;
}

struct Case {
  std::string problem;  ///< isomorphism | embedding | components
  int processes;
  std::size_t elements;
  Measurement legacy;
  bool legacy_measured = false;
  Measurement wl;           ///< serial search
  Measurement parallel_wl;  ///< at kParallelThreads
};

matcher::SearchOptions make_options(matcher::CostModel model) {
  matcher::SearchOptions options;
  options.cost_model = model;
  options.step_budget = kStepBudget;
  return options;
}

bool check(bool condition, const char* what, const Case& c) {
  if (!condition) {
    std::fprintf(stderr, "ASSERTION FAILED [%s p=%d]: %s\n",
                 c.problem.c_str(), c.processes, what);
  }
  return condition;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string output = "BENCH_matcher_perf.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      output = argv[i];
    }
  }

  // The isomorphism problem is worst-case exponential (§5.4). Under the
  // PropertyCost order p=12 was the tractability frontier (p=16 blew
  // past the 50M step budget); the WL-scarcity order and its suffix
  // bound carry the p=16 spine in double-digit step counts.
  std::vector<int> sizes = smoke ? std::vector<int>{4, 8}
                                 : std::vector<int>{4, 8, 12, 16};
  const int reps = smoke ? 2 : 3;
  runtime::ThreadPool pool(kParallelThreads);

  using matcher::CostModel;

  std::vector<Case> cases;
  bool failed = false;
  for (int processes : sizes) {
    struct Workload {
      std::string problem;
      graph::PropertyGraph pattern, target;
      CostModel model;
      bool bijective;
    };
    std::vector<Workload> workloads;
    {
      // Listing 3 shape: two trials of the same recording.
      graph::PropertyGraph g1 = make_provenance_graph(processes, 4, 1);
      graph::PropertyGraph g2 = transient_copy(g1, 2);
      workloads.push_back(
          {"isomorphism", g1, g2, CostModel::Symmetric, true});
      // Listing 4 shape: generalized background into foreground.
      graph::PropertyGraph fg = make_provenance_graph(processes, 4, 3);
      graph::PropertyGraph bg = make_provenance_graph(processes / 2, 4, 3);
      workloads.push_back({"embedding", bg, fg, CostModel::OneSided, false});
      // Disconnected shape: processes/4 disjoint identical fragments.
      int fragments = processes / 4 > 0 ? processes / 4 : 1;
      graph::PropertyGraph c1 = make_fragment_graph(fragments, 5);
      graph::PropertyGraph c2 = transient_copy(c1, 6);
      workloads.push_back(
          {"components", c1, c2, CostModel::Symmetric, true});
    }

    for (Workload& w : workloads) {
      Case c;
      c.problem = w.problem;
      c.processes = processes;
      c.elements = w.pattern.size();

      MatcherFn compact_fn =
          w.bijective ? static_cast<MatcherFn>(&matcher::best_isomorphism)
                      : static_cast<MatcherFn>(
                            &matcher::best_subgraph_embedding);
      MatcherFn legacy_fn = w.bijective
                                ? &matcher::legacy::best_isomorphism
                                : &matcher::legacy::best_subgraph_embedding;
      matcher::SearchOptions options = make_options(w.model);

      // The legacy engine is only run where it is known to finish: the
      // connected problems up to p=12.
      if (w.problem != "components" && processes <= 12) {
        c.legacy = measure(legacy_fn, w.pattern, w.target, options, reps);
        c.legacy_measured = true;
      }
      c.wl = measure(compact_fn, w.pattern, w.target, options, reps);
      matcher::SearchOptions parallel = options;
      parallel.threads = kParallelThreads;
      parallel.pool = &pool;
      c.parallel_wl = measure(compact_fn, w.pattern, w.target, parallel, reps);

      // -- identity gates ---------------------------------------------------
      if (c.legacy_measured && !c.legacy.exhausted) {
        failed |= !check(!c.wl.exhausted && c.legacy.ok == c.wl.ok &&
                             c.legacy.cost == c.wl.cost,
                         "legacy and wl engines diverged", c);
      }
      if (!c.wl.exhausted && !c.parallel_wl.exhausted) {
        failed |= !check(c.parallel_wl.ok == c.wl.ok &&
                             c.parallel_wl.cost == c.wl.cost,
                         "parallel wl diverged from serial", c);
      }

      cases.push_back(std::move(c));
    }
  }

  std::printf("%-12s %5s %8s | %12s %12s | %12s %12s | %12s %9s\n",
              "problem", "p", "elems", "legacy(ms)", "legacy", "wl(ms)",
              "wl", "wl 8t(ms)", "speedup");
  auto steps = [](const Measurement& m) {
    char buf[64];
    if (m.exhausted) {
      std::snprintf(buf, sizeof(buf), ">%zuM!", m.steps / 1'000'000);
    } else {
      std::snprintf(buf, sizeof(buf), "%zu", m.steps);
    }
    return std::string(buf);
  };
  auto speedup = [](const Case& c) {
    return c.parallel_wl.seconds > 0 ? c.wl.seconds / c.parallel_wl.seconds
                                     : 0;
  };
  for (const Case& c : cases) {
    std::string legacy_ms = "-", legacy_steps = "-";
    if (c.legacy_measured) {
      legacy_ms = std::to_string(c.legacy.seconds * 1e3).substr(0, 8);
      legacy_steps = steps(c.legacy);
    }
    std::printf("%-12s %5d %8zu | %12s %12s | %12.3f %12s | %12.3f %8.2fx\n",
                c.problem.c_str(), c.processes, c.elements, legacy_ms.c_str(),
                legacy_steps.c_str(), c.wl.seconds * 1e3, steps(c.wl).c_str(),
                c.parallel_wl.seconds * 1e3, speedup(c));
  }

  std::FILE* f = std::fopen(output.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", output.c_str());
    return 1;
  }
  unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(f, "{\n  \"benchmark\": \"matcher_scaling\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"step_budget\": %zu,\n", kStepBudget);
  std::fprintf(f, "  \"parallel_threads\": %d,\n", kParallelThreads);
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(f, "  \"cases\": [\n");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    std::fprintf(f,
                 "    {\"problem\": \"%s\", \"processes\": %d, "
                 "\"elements\": %zu,\n",
                 c.problem.c_str(), c.processes, c.elements);
    if (c.legacy_measured) {
      std::fprintf(f, "      \"legacy\": {\"seconds\": %.6f, \"steps\": "
                      "%zu, \"cost\": %d},\n",
                   c.legacy.seconds, c.legacy.steps, c.legacy.cost);
    }
    std::fprintf(f,
                 "      \"wl\": {\"seconds\": %.6f, \"steps\": %zu, "
                 "\"cost\": %d, \"ok\": %s, \"budget_exhausted\": %s},\n",
                 c.wl.seconds, c.wl.steps, c.wl.cost, c.wl.ok ? "true" : "false",
                 c.wl.exhausted ? "true" : "false");
    std::fprintf(f,
                 "      \"wl_%dt\": {\"seconds\": %.6f, \"cost\": %d, "
                 "\"identical_cost\": %s, \"speedup_vs_serial\": %.3f}\n",
                 kParallelThreads, c.parallel_wl.seconds, c.parallel_wl.cost,
                 c.parallel_wl.cost == c.wl.cost ? "true" : "false",
                 speedup(c));
    std::fprintf(f, "    }%s\n", i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", output.c_str());
  if (failed) {
    std::fprintf(stderr, "\nFAILED: identity gates tripped\n");
    return 1;
  }
  return 0;
}
