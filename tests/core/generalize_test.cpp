#include "core/generalize.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_suite/program.h"
#include "core/pipeline.h"
#include "core/trials.h"
#include "graph/property_graph.h"
#include "matcher/interned.h"
#include "runtime/thread_pool.h"
#include "systems/recorder.h"

namespace provmark::core {
namespace {

using graph::PropertyGraph;

/// Trials interned against one symbol table with their digests, as the
/// pipeline holds them.
struct InternedTrials {
  graph::SymbolTable symbols;
  std::vector<PropertyGraph> graphs;  // the interned ids point into these
  std::deque<matcher::InternedGraph> interned;
  std::vector<const matcher::InternedGraph*> pointers;
  std::vector<std::uint64_t> digests;

  explicit InternedTrials(std::vector<PropertyGraph> trials)
      : graphs(std::move(trials)) {
    for (const PropertyGraph& g : graphs) {
      interned.emplace_back(g, symbols);
      pointers.push_back(&interned.back());
      digests.push_back(interned.back().structural_digest());
    }
  }
};

std::vector<std::vector<std::size_t>> classes_of(
    std::vector<PropertyGraph> trials) {
  InternedTrials in(std::move(trials));
  SimilarityClasses classes;
  classes.add(in.pointers, in.digests);
  return classes.sorted();
}

std::optional<PropertyGraph> generalize(const PropertyGraph& a,
                                        const PropertyGraph& b) {
  InternedTrials in({a, b});
  std::optional<matcher::InternedGraph> generalized =
      generalize_pair(*in.pointers[0], *in.pointers[1]);
  if (!generalized.has_value()) return std::nullopt;
  return graph::resolve_graph(generalized->g);
}

std::optional<GeneralizeResult> generalize(
    std::vector<PropertyGraph> trials) {
  InternedTrials in(std::move(trials));
  return generalize_trials(in.pointers, in.digests);
}

/// A "recording trial": fixed shape, stable + transient properties.
PropertyGraph trial(const std::string& timestamp, const std::string& pid) {
  PropertyGraph g;
  g.add_node("p", "Process",
             {{"name", "bench"}, {"pid", pid}, {"time", timestamp}});
  g.add_node("f", "Artifact", {{"path", "/tmp/x"}, {"time", timestamp}});
  g.add_edge("e", "p", "f", "Used",
             {{"operation", "open"}, {"serial", timestamp}});
  return g;
}

/// A structurally different (failed) trial.
PropertyGraph garbled() {
  PropertyGraph g;
  g.add_node("p", "Process");
  return g;
}

TEST(SimilarityClasses, GroupsByShape) {
  std::vector<PropertyGraph> trials = {trial("1", "100"), trial("2", "200"),
                                       garbled()};
  auto classes = classes_of(trials);
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].size(), 2u);  // sorted largest first
  EXPECT_EQ(classes[1].size(), 1u);
}

TEST(SimilarityClasses, AllDistinct) {
  PropertyGraph a = garbled();
  PropertyGraph b = trial("1", "1");
  PropertyGraph c;
  auto classes = classes_of({a, b, c});
  EXPECT_EQ(classes.size(), 3u);
}

TEST(SimilarityClasses, EmptyInput) {
  EXPECT_TRUE(classes_of({}).empty());
}

TEST(GeneralizePair, StripsTransientKeepsStable) {
  auto result = generalize(trial("111", "a"), trial("222", "b"));
  ASSERT_TRUE(result.has_value());
  const graph::Node* p = result->find_node("p");
  EXPECT_EQ(p->props.count("name"), 1u);   // stable kept
  EXPECT_EQ(p->props.count("pid"), 0u);    // transient dropped
  EXPECT_EQ(p->props.count("time"), 0u);
  const graph::Edge* e = result->find_edge("e");
  EXPECT_EQ(e->props.count("operation"), 1u);
  EXPECT_EQ(e->props.count("serial"), 0u);
}

TEST(GeneralizePair, IdenticalGraphsKeepEverything) {
  auto result = generalize(trial("1", "1"), trial("1", "1"));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->find_node("p")->props.size(), 3u);
}

TEST(GeneralizePair, DissimilarGraphsFail) {
  EXPECT_FALSE(generalize(trial("1", "1"), garbled()).has_value());
}

TEST(GeneralizePair, PicksPropertyOptimalMatching) {
  // Two interchangeable artifacts; only the optimal matching preserves
  // the stable "path" property on both.
  PropertyGraph a;
  a.add_node("p", "Process");
  a.add_node("f1", "Artifact", {{"path", "/x"}});
  a.add_node("f2", "Artifact", {{"path", "/y"}});
  a.add_edge("e1", "p", "f1", "Used");
  a.add_edge("e2", "p", "f2", "Used");
  PropertyGraph b;
  b.add_node("p", "Process");
  b.add_node("g1", "Artifact", {{"path", "/y"}});
  b.add_node("g2", "Artifact", {{"path", "/x"}});
  b.add_edge("e1", "p", "g1", "Used");
  b.add_edge("e2", "p", "g2", "Used");
  auto result = generalize(a, b);
  ASSERT_TRUE(result.has_value());
  int paths_kept = 0;
  for (const graph::Node& n : result->nodes()) {
    paths_kept += static_cast<int>(n.props.count("path"));
  }
  EXPECT_EQ(paths_kept, 2);
}

TEST(GeneralizeTrials, DiscardsSingletonsAndCounts) {
  std::vector<PropertyGraph> trials = {trial("1", "a"), trial("2", "b"),
                                       garbled()};
  auto result = generalize(trials);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->discarded, 1u);
  EXPECT_EQ(result->classes, 2u);
  // Transients stripped: p.pid, p.time, f.time, e.serial.
  EXPECT_EQ(result->transient_properties, 4);
}

TEST(GeneralizeTrials, FailsWhenAllSingletons) {
  std::vector<PropertyGraph> trials = {trial("1", "a"), garbled()};
  EXPECT_FALSE(generalize(trials).has_value());
}

TEST(GeneralizeTrials, SmallestClassWins) {
  // Two viable classes: the small graphs and the larger (noisy) graphs.
  PropertyGraph big1 = trial("1", "a");
  big1.add_node("noise", "Daemon");
  PropertyGraph big2 = trial("2", "b");
  big2.add_node("noise", "Daemon");
  std::vector<PropertyGraph> trials = {big1, big2, trial("3", "c"),
                                       trial("4", "d")};
  auto smallest = generalize(trials);
  ASSERT_TRUE(smallest.has_value());
  EXPECT_EQ(smallest->graph.node_count(), 2u);  // no Daemon node
}

TEST(GeneralizeTrials, TwoTrialsSuffice) {
  auto result = generalize({trial("1", "a"), trial("2", "b")});
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->discarded, 0u);
}

// -- the trial path: structure first, properties for the chosen pair --------

/// Trials of one cell as the pipeline holds them: recorded and read
/// through record_trials/read_trials, so each trial's structure is
/// interned and its properties are not.
struct RecordedCell {
  runtime::ThreadPool pool{2};
  std::unique_ptr<systems::Recorder> recorder;
  PipelineOptions options;
  graph::SymbolTable symbols;
  TrialSet background, foreground;
  int recorded = 0;  // per variant

  RecordedCell(const std::string& system, const std::string& program) {
    recorder = systems::make_recorder(system);
    options.system = system;
    options.transform.neo4j_startup_rounds = 1;
    record(default_trials(recorder->name()), program);
  }

  /// Records and reads `count` more trials of each variant.
  void record(int count, const std::string& program) {
    record_trials(bench_suite::benchmark_by_name(program), *recorder,
                  options, recorded, count, background, foreground, pool);
    read_trials(recorded, count, options.transform, symbols, background,
                foreground, pool);
    recorded += count;
  }
};

/// Each trial of `set` fully interned (structure and properties) against
/// a fresh table, from the same views.
struct FullyInterned {
  graph::SymbolTable symbols;
  std::deque<matcher::InternedGraph> interned;
  std::vector<const matcher::InternedGraph*> pointers;

  explicit FullyInterned(const TrialSet& set) {
    for (const graph::GraphView& view : set.views) {
      interned.emplace_back(view, symbols);
      interned.back().g.intern_properties(view, symbols);
      pointers.push_back(&interned.back());
    }
  }
};

const std::pair<const char*, const char*> kTrialCells[] = {
    {"camflow", "close"},    {"camflow", "rename"},  {"spade", "creat"},
    {"spade-camflow", "dup"}, {"camflow", "gen3x32"}, {"opus", "gen5x16"},
    {"audit", "gen7x12"},    {"ebpf", "close"}};

/// `trials` classified in one pass.
SimilarityClasses classify(
    const std::vector<const matcher::InternedGraph*>& trials,
    const std::vector<std::uint64_t>& digests) {
  SimilarityClasses classes;
  classes.add(trials, digests);
  return classes;
}

TEST(TrialPath, StructureOnlyTrialsClassifyLikeFullyInternedOnes) {
  for (const auto& [system, program] : kTrialCells) {
    RecordedCell cell(system, program);
    for (const TrialSet* set : {&cell.background, &cell.foreground}) {
      FullyInterned full(*set);
      const std::vector<const matcher::InternedGraph*> structure =
          set->pointers();
      for (const matcher::InternedGraph* g : structure) {
        ASSERT_FALSE(g->g.has_properties()) << system << " " << program;
      }
      const SimilarityClasses a = classify(structure, set->digests);
      const SimilarityClasses b = classify(full.pointers, set->digests);
      EXPECT_EQ(a.sorted(), b.sorted()) << system << " " << program;
      TrialClasses pa = choose_pair(a, structure);
      TrialClasses pb = choose_pair(b, full.pointers);
      EXPECT_EQ(pa.classes, pb.classes) << system << " " << program;
      EXPECT_EQ(pa.discarded, pb.discarded) << system << " " << program;
      EXPECT_EQ(pa.pair, pb.pair) << system << " " << program;
    }
  }
}

// Classes grown batch by batch, as run_benchmark's retry rounds grow
// them (n trials, then n more, then 2n), are the classes of one pass over
// all trials, found with the same matcher calls: no pair is posed twice.
TEST(TrialPath, ClassesGrownInRetryBatchesEqualOnePass) {
  for (const auto& [system, program] : kTrialCells) {
    RecordedCell cell(system, program);
    SimilarityClasses grown[2];
    TrialSet* sides[2] = {&cell.background, &cell.foreground};
    for (int batch = 0; batch < 3; ++batch) {
      if (batch > 0) cell.record(cell.recorded, program);
      for (int side = 0; side < 2; ++side) {
        grown[side].add(sides[side]->pointers(), sides[side]->digests);
      }
    }
    for (int side = 0; side < 2; ++side) {
      const std::string context = std::string(system) + " " + program +
                                  " side " + std::to_string(side);
      const SimilarityClasses once =
          classify(sides[side]->pointers(), sides[side]->digests);
      EXPECT_EQ(grown[side].sorted(), once.sorted()) << context;
      EXPECT_EQ(grown[side].comparisons(), once.comparisons()) << context;
    }
  }
}

TEST(TrialPath, InternsPropertiesOfExactlyTheGeneralizedPairs) {
  for (const auto& [system, program] : kTrialCells) {
    RecordedCell cell(system, program);
    TrialSet* sides[2] = {&cell.background, &cell.foreground};
    std::set<std::size_t> read[2];
    // Two rounds, as run_benchmark's retry loop runs them: the second
    // round adds trials and may choose another pair.
    for (int round = 0; round < 2; ++round) {
      if (round == 1) cell.record(cell.recorded, program);
      for (int side = 0; side < 2; ++side) {
        TrialSet& set = *sides[side];
        const std::vector<const matcher::InternedGraph*> trials =
            set.pointers();
        const TrialClasses expected =
            choose_pair(classify(trials, set.digests), trials);
        if (expected.pair.has_value()) {
          read[side].insert(expected.pair->first);
          read[side].insert(expected.pair->second);
        }
        const std::optional<GeneralizeResult> got =
            set.generalize(cell.symbols);
        for (std::size_t i = 0; i < set.interned.size(); ++i) {
          EXPECT_EQ(set.interned[i].g.has_properties(),
                    read[side].count(i) > 0)
              << system << " " << program << " round " << round << " side "
              << side << " trial " << i;
        }
        // Same result as the one-piece stage on fully interned trials.
        FullyInterned full(set);
        std::optional<GeneralizeResult> reference =
            generalize_trials(full.pointers, set.digests);
        ASSERT_EQ(got.has_value(), reference.has_value())
            << system << " " << program;
        if (!reference.has_value()) continue;
        EXPECT_TRUE(got->graph == reference->graph)
            << system << " " << program;
        EXPECT_EQ(got->classes, reference->classes);
        EXPECT_EQ(got->discarded, reference->discarded);
        EXPECT_EQ(got->transient_properties,
                  reference->transient_properties);
        EXPECT_EQ(got->search_stats.steps, reference->search_stats.steps);
      }
    }
  }
}

/// Every field of `got` equals the one of `want`, a graph interned anew.
void expect_same_interned(const matcher::InternedGraph& got,
                          const matcher::InternedGraph& want,
                          const std::string& context) {
  const graph::CompactGraph& a = got.g;
  const graph::CompactGraph& b = want.g;
  EXPECT_EQ(a.symbols, b.symbols) << context;
  EXPECT_EQ(a.node_id, b.node_id) << context;
  EXPECT_EQ(a.edge_id, b.edge_id) << context;
  EXPECT_EQ(a.node_label, b.node_label) << context;
  EXPECT_EQ(a.edge_src, b.edge_src) << context;
  EXPECT_EQ(a.edge_tgt, b.edge_tgt) << context;
  EXPECT_EQ(a.edge_label, b.edge_label) << context;
  EXPECT_EQ(a.out_offsets, b.out_offsets) << context;
  EXPECT_EQ(a.out_edges, b.out_edges) << context;
  EXPECT_EQ(a.in_offsets, b.in_offsets) << context;
  EXPECT_EQ(a.in_edges, b.in_edges) << context;
  EXPECT_EQ(a.bucket_label, b.bucket_label) << context;
  EXPECT_EQ(a.bucket_offsets, b.bucket_offsets) << context;
  EXPECT_EQ(a.bucket_nodes, b.bucket_nodes) << context;
  EXPECT_EQ(a.props, b.props) << context;
  EXPECT_EQ(a.prop_offsets, b.prop_offsets) << context;
  auto fields = [](const matcher::EdgeGroup& group) {
    return std::tuple(group.src, group.tgt, group.label,
                      group.pair_representative, group.first, group.count);
  };
  ASSERT_EQ(got.groups.size(), want.groups.size()) << context;
  for (std::size_t i = 0; i < got.groups.size(); ++i) {
    EXPECT_EQ(fields(got.groups[i]), fields(want.groups[i]))
        << context << " group " << i;
  }
  EXPECT_EQ(got.grouped_edges, want.grouped_edges) << context;
  EXPECT_EQ(got.src_group_offsets, want.src_group_offsets) << context;
  EXPECT_EQ(got.src_groups, want.src_groups) << context;
  EXPECT_EQ(got.node_group_offsets, want.node_group_offsets) << context;
  EXPECT_EQ(got.node_groups, want.node_groups) << context;
  EXPECT_EQ(got.node_label_counts, want.node_label_counts) << context;
  EXPECT_EQ(got.edge_label_counts, want.edge_label_counts) << context;
  EXPECT_EQ(got.wl2, want.wl2) << context;
  EXPECT_EQ(got.colour_class_size, want.colour_class_size) << context;
  EXPECT_EQ(got.structural_digest(), want.structural_digest()) << context;
}

// The generalized graph is compared as generalize_pair leaves it, a copy
// of the first trial holding the kept symbols, and is never interned from
// its strings. That is sound only because interning the strings would
// give the very same graph.
TEST(TrialPath, GeneralizedGraphIsItsResolvedGraphInterned) {
  int checked = 0;
  for (const auto& [system, program] : kTrialCells) {
    RecordedCell cell(system, program);
    const std::optional<GeneralizeResult> bg =
        cell.background.generalize(cell.symbols);
    const std::optional<GeneralizeResult> fg =
        cell.foreground.generalize(cell.symbols);
    for (const std::optional<GeneralizeResult>* result : {&bg, &fg}) {
      const std::string context =
          std::string(system) + " " + program +
          (result == &bg ? " background" : " foreground");
      if (!result->has_value()) continue;  // no two similar trials
      ++checked;
      const matcher::InternedGraph reinterned((*result)->graph, cell.symbols);
      expect_same_interned((*result)->interned, reinterned, context);
    }
  }
  EXPECT_GE(checked, 14);
}

TEST(TrialPath, GeneralizingAStructureOnlyPairThrows) {
  RecordedCell cell("camflow", "close");
  const std::vector<const matcher::InternedGraph*> trials =
      cell.foreground.pointers();
  TrialClasses classes =
      choose_pair(classify(trials, cell.foreground.digests), trials);
  ASSERT_TRUE(classes.pair.has_value());
  EXPECT_THROW(generalize_chosen(classes, trials), std::logic_error);
  cell.foreground.intern_properties(classes.pair->first, cell.symbols);
  cell.foreground.intern_properties(classes.pair->second, cell.symbols);
  EXPECT_TRUE(generalize_chosen(classes, trials).has_value());
}

}  // namespace
}  // namespace provmark::core
