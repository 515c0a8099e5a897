#include "core/generalize.h"

#include <algorithm>
#include <span>

#include "matcher/interned.h"
#include "matcher/memo.h"
#include "runtime/thread_pool.h"

namespace provmark::core {

std::vector<std::vector<std::size_t>> similarity_classes(
    const std::vector<const matcher::InternedGraph*>& trials,
    const std::vector<std::uint64_t>& digests,
    matcher::SimilarityMemo* memo, runtime::ThreadPool* pool) {
  // Bucket by structural digest first (equal digests are necessary for
  // similarity), then confirm with the exact matcher inside each bucket.
  // The trial indices sorted by (digest, index) list the buckets in
  // digest order — one fixed order however they are later scheduled —
  // each bucket a run of ascending indices.
  std::vector<std::size_t> by_digest(trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) by_digest[i] = i;
  std::sort(by_digest.begin(), by_digest.end(),
            [&digests](std::size_t a, std::size_t b) {
              return digests[a] != digests[b] ? digests[a] < digests[b]
                                              : a < b;
            });
  std::vector<std::span<const std::size_t>> bucket_list;
  bucket_list.reserve(by_digest.size());
  for (std::size_t first = 0; first < by_digest.size();) {
    std::size_t last = first + 1;
    while (last < by_digest.size() &&
           digests[by_digest[last]] == digests[by_digest[first]]) {
      ++last;
    }
    bucket_list.emplace_back(by_digest.data() + first, last - first);
    first = last;
  }

  // Buckets are independent: no similar() call ever crosses a digest
  // boundary, so they fan out over the pool. Within a bucket the greedy
  // first-fit classification is order-dependent and stays sequential;
  // per-bucket results land in index-addressed slots, so the final class
  // list is identical at any thread count.
  std::vector<std::vector<std::vector<std::size_t>>> per_bucket(
      bucket_list.size());
  auto classify_bucket = [&](std::size_t b) {
    std::vector<std::vector<std::size_t>>& sub = per_bucket[b];
    for (std::size_t index : bucket_list[b]) {
      bool placed = false;
      for (std::vector<std::size_t>& cls : sub) {
        std::size_t rep = cls.front();
        bool is_similar =
            memo != nullptr
                ? memo->similar(digests[rep], digests[index], *trials[rep],
                                *trials[index])
                : matcher::similar(*trials[rep], *trials[index]);
        if (is_similar) {
          cls.push_back(index);
          placed = true;
          break;
        }
      }
      if (!placed) sub.push_back({index});
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(bucket_list.size(), classify_bucket);
  } else {
    for (std::size_t b = 0; b < bucket_list.size(); ++b) classify_bucket(b);
  }

  std::vector<std::vector<std::size_t>> classes;
  for (std::vector<std::vector<std::size_t>>& sub : per_bucket) {
    for (std::vector<std::size_t>& cls : sub) classes.push_back(std::move(cls));
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

TrialClasses classify_trials(
    const std::vector<const matcher::InternedGraph*>& trials,
    const std::vector<std::uint64_t>& digests, matcher::SimilarityMemo* memo,
    runtime::ThreadPool* pool) {
  std::vector<std::vector<std::size_t>> classes =
      similarity_classes(trials, digests, memo, pool);
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
    const std::vector<std::uint64_t>& digests,
    const GeneralizeOptions&, matcher::SimilarityMemo* memo,
    runtime::ThreadPool* pool) {
  return generalize_chosen(classify_trials(trials, digests, memo, pool),
                           trials);
}

}  // namespace provmark::core
