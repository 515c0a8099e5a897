// SimilarityMemo under concurrent callers. The pipeline classifies its
// digest buckets in parallel on the runtime pool and every bucket asks
// one shared memo, so the memo's duplicate-entry guard and counters are
// checked here from many threads at once (the CI TSan job runs this
// binary).
#include "matcher/memo.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "graph/algorithms.h"
#include "matcher/interned.h"
#include "runtime/thread_pool.h"
#include "test_graphs.h"

namespace provmark::matcher {
namespace {

using graph::PropertyGraph;
using test_graphs::provenance_graph;
using test_graphs::transient_copy;

TEST(MemoConcurrency, EachPairStoredExactlyOnce) {
  // Hammer one memo with the same pairs from many threads; the
  // duplicate-insert guard must keep one entry per distinct pair and
  // the counters must stay consistent (no double-counted verdicts when
  // the totals are merged into BenchmarkResult).
  graph::SymbolTable symbols;
  PropertyGraph a = provenance_graph(3, 3, 1);
  PropertyGraph b = transient_copy(a, 2);
  PropertyGraph c = provenance_graph(4, 3, 3);
  InternedGraph ia(a, symbols), ib(b, symbols), ic(c, symbols);
  std::uint64_t da = graph::structural_digest(a);
  std::uint64_t db = graph::structural_digest(b);
  std::uint64_t dc = graph::structural_digest(c);

  SimilarityMemo memo;
  runtime::ThreadPool pool(8);
  const std::size_t kCalls = 64;
  pool.parallel_for(kCalls, [&](std::size_t i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(memo.similar(da, db, ia, ib));
    } else {
      EXPECT_FALSE(memo.similar(da, dc, ia, ic));
    }
  });
  // (ia,ib) is the only equal-digest pair ever solved; (ia,ic) is a
  // digest-mismatch short-circuit and stores nothing.
  EXPECT_EQ(memo.entries(), 1u);
  EXPECT_EQ(memo.lookups(), kCalls);
  // Everything but the (<= thread count) racing initial solves of
  // (ia,ib) is answered from cache or short-circuit.
  EXPECT_GE(memo.hits() + 9, kCalls);
}

}  // namespace
}  // namespace provmark::matcher
