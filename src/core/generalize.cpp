#include "core/generalize.h"

#include <algorithm>

#include "matcher/interned.h"

namespace provmark::core {

void SimilarityClasses::add(
    const std::vector<const matcher::InternedGraph*>& trials,
    const std::vector<std::uint64_t>& digests) {
  // Greedy first-fit inside the trial's digest bucket. The exact matcher
  // runs only there: unequal digests prove dissimilarity.
  for (; classified_ < trials.size(); ++classified_) {
    const std::size_t index = classified_;
    std::vector<std::vector<std::size_t>>& bucket = buckets_[digests[index]];
    auto fit = std::find_if(
        bucket.begin(), bucket.end(),
        [&](const std::vector<std::size_t>& cls) {
          ++comparisons_;
          return matcher::similar(*trials[cls.front()], *trials[index]);
        });
    if (fit != bucket.end()) {
      fit->push_back(index);
    } else {
      bucket.push_back({index});
    }
  }
}

std::vector<std::vector<std::size_t>> SimilarityClasses::sorted() const {
  std::vector<std::vector<std::size_t>> classes;
  for (const auto& [digest, bucket] : buckets_) {
    classes.insert(classes.end(), bucket.begin(), bucket.end());
  }
  // Stable: tied classes keep digest-bucket order on any library.
  std::stable_sort(
      classes.begin(), classes.end(),
      [](const auto& a, const auto& b) { return a.size() > b.size(); });
  return classes;
}

std::optional<matcher::InternedGraph> generalize_pair(
    const matcher::InternedGraph& a, const matcher::InternedGraph& b,
    matcher::Stats* stats) {
  matcher::SearchOptions search;
  search.cost_model = matcher::CostModel::Symmetric;
  std::optional<matcher::Matching> matching =
      matcher::best_isomorphism(a, b, search, stats);
  if (!matching.has_value()) return std::nullopt;

  // Keep exactly the properties equal under the optimal matching; values
  // that differ (timestamps, serials, pids) are transient and dropped.
  // Both graphs share one symbol table, so equal symbols are equal
  // strings. Each element's kept pairs stay sorted, compacted in place.
  matcher::InternedGraph out = a;
  graph::CompactGraph& g = out.g;
  const std::uint32_t n = g.node_count();
  std::uint32_t kept = 0;
  std::uint32_t begin = g.prop_offsets[0];
  for (std::uint32_t k = 0; k < n + g.edge_count(); ++k) {
    const std::uint32_t end = g.prop_offsets[k + 1];
    graph::CompactProps other =
        k < n ? b.g.node_props(matching->node_index[k])
              : b.g.edge_props(matching->edge_index[k - n]);
    for (std::uint32_t i = begin; i < end; ++i) {
      if (graph::find_prop(other, g.props[i].first) == g.props[i].second) {
        g.props[kept++] = g.props[i];
      }
    }
    begin = end;
    g.prop_offsets[k + 1] = kept;
  }
  g.props.resize(kept);
  return out;
}

TrialClasses choose_pair(
    const SimilarityClasses& similarity,
    const std::vector<const matcher::InternedGraph*>& trials) {
  const std::vector<std::vector<std::size_t>> classes = similarity.sorted();
  TrialClasses out;
  out.classes = classes.size();
  // Discard singleton classes: failed runs (§3.4). Among the surviving
  // classes, choose the smallest representative graph.
  auto size_of = [&](const std::vector<std::size_t>& cls) {
    const graph::CompactGraph& g = trials[cls.front()]->g;
    return g.node_count() + g.edge_count();
  };
  const std::vector<std::size_t>* chosen = nullptr;
  for (const std::vector<std::size_t>& cls : classes) {
    if (cls.size() < 2) {
      ++out.discarded;
    } else if (chosen == nullptr || size_of(cls) < size_of(*chosen)) {
      chosen = &cls;
    }
  }
  if (chosen != nullptr) out.pair.emplace((*chosen)[0], (*chosen)[1]);
  return out;
}

std::optional<GeneralizeResult> generalize_chosen(
    const TrialClasses& classes,
    const std::vector<const matcher::InternedGraph*>& trials) {
  if (!classes.pair.has_value()) return std::nullopt;
  const matcher::InternedGraph& a = *trials[classes.pair->first];
  const matcher::InternedGraph& b = *trials[classes.pair->second];
  matcher::Stats stats;
  std::optional<matcher::InternedGraph> generalized =
      generalize_pair(a, b, &stats);
  if (!generalized.has_value()) return std::nullopt;  // unreachable in theory

  graph::PropertyGraph graph = graph::resolve_graph(generalized->g);
  const auto transient =
      static_cast<int>(a.g.props.size() - generalized->g.props.size());
  return GeneralizeResult{std::move(*generalized), std::move(graph),
                          classes.classes, classes.discarded, transient,
                          stats};
}

std::optional<GeneralizeResult> generalize_trials(
    const std::vector<const matcher::InternedGraph*>& trials,
    const std::vector<std::uint64_t>& digests, const GeneralizeOptions&,
    matcher::SimilarityMemo*, runtime::ThreadPool*) {
  SimilarityClasses classes;
  classes.add(trials, digests);
  return generalize_chosen(choose_pair(classes, trials), trials);
}

}  // namespace provmark::core
