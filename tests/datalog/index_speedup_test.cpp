// The one timing floor the test suite enforces: on the transitive
// closure of a 16-process provenance spine (65 facts, 749 derived
// tuples), the interned, indexed engine must run at least 2x faster than
// the seed-era legacy evaluator. It measured 12-13x (about 6.6 ms
// against 0.5 ms, best of 5) in a Release build on a 4-core Intel Xeon
// VM, so the floor leaves room for slow or loaded machines and catches
// only a gross regression: the engine losing most of its lead over the
// string-tuple, full-scan evaluator.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>

#include "datalog/engine.h"
#include "datalog/legacy_engine.h"
#include "workloads.h"

namespace provmark::datalog {
namespace {

/// Load, saturate and read back every output relation and query of `w`
/// on a cold engine; returns the best wall clock over `reps` runs and
/// the last run's relation contents.
template <typename EngineT>
double best_seconds(const Workload& w, int reps,
                    std::map<std::string, std::set<Tuple>>* relations) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    EngineT engine;
    const auto start = std::chrono::steady_clock::now();
    engine.load_program(w.program);
    for (const std::string& name : w.relations) {
      (*relations)[name] = engine.relation(name);
    }
    for (const std::string& query : w.queries) engine.query(query);
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  }
  return best;
}

TEST(IndexSpeedup, IndexedEngineAtLeastTwiceLegacyOnClosure16) {
  const Workload w = closure_workload(16);
  std::map<std::string, std::set<Tuple>> legacy_out, indexed_out;
  const double legacy_s = best_seconds<legacy::Engine>(w, 5, &legacy_out);
  const double indexed_s = best_seconds<Engine>(w, 5, &indexed_out);
  ASSERT_EQ(indexed_out, legacy_out);
  ASSERT_EQ(indexed_out.at("path").size(), 749u);
  EXPECT_GE(legacy_s, 2.0 * indexed_s)
      << "legacy " << legacy_s * 1e3 << " ms, indexed " << indexed_s * 1e3
      << " ms";
}

}  // namespace
}  // namespace provmark::datalog
