#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"

namespace provmark::runtime {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    pool.parallel_for(hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPool, ClampsThreadCountToOne) {
  ThreadPool pool(-3);
  EXPECT_EQ(pool.thread_count(), 1);
  int runs = 0;
  pool.parallel_for(5, [&](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 5);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelMapPreservesItemOrder) {
  ThreadPool pool(4);
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  std::vector<int> doubled = pool.parallel_map<int>(
      items, [](int item, std::size_t) { return item * 2; });
  ASSERT_EQ(doubled.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(doubled[i], static_cast<int>(i) * 2);
  }
}

TEST(ThreadPool, ResultsIdenticalAcrossThreadCounts) {
  // The determinism contract: per-task values derived from (seed, index)
  // are bit-identical however the indices are scheduled.
  auto run = [](int threads) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> out(64);
    pool.parallel_for(out.size(), [&](std::size_t i) {
      out[i] = util::Rng(task_seed(42, i)).next_u64();
    });
    return out;
  };
  std::vector<std::uint64_t> serial = run(1);
  EXPECT_EQ(run(4), serial);
  EXPECT_EQ(run(8), serial);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, FirstExceptionIsRethrown) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(32,
                                 [&](std::size_t i) {
                                   if (i == 7) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool survives a failed loop and stays usable.
  std::atomic<int> runs{0};
  pool.parallel_for(16, [&](std::size_t) { runs.fetch_add(1); });
  EXPECT_EQ(runs.load(), 16);
}

TEST(ThreadPool, TaskSeedDecorrelatesNeighbours) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seeds.insert(task_seed(1, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);
  EXPECT_NE(task_seed(1, 0), task_seed(2, 0));
}

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(default_thread_count(), 1);
  EXPECT_GE(default_pool().thread_count(), 1);
}

TEST(ThreadPool, EnvironmentCountsOnlyAsAPositiveDecimalInteger) {
  const char* saved = std::getenv("PROVMARK_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  ::unsetenv("PROVMARK_THREADS");
  const int fallback = default_thread_count();
  // A count the hardware default never is, so a fallback shows.
  const int chosen = fallback + 3;
  const std::string digits = std::to_string(chosen);
  ::setenv("PROVMARK_THREADS", digits.c_str(), 1);
  EXPECT_EQ(default_thread_count(), chosen);
  for (const std::string& ignored : std::vector<std::string>{
           digits + "x", " " + digits, "+" + digits, "0", "-2", "abc", ""}) {
    ::setenv("PROVMARK_THREADS", ignored.c_str(), 1);
    EXPECT_EQ(default_thread_count(), fallback) << "'" << ignored << "'";
  }
  if (saved != nullptr) {
    ::setenv("PROVMARK_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("PROVMARK_THREADS");
  }
}

}  // namespace
}  // namespace provmark::runtime
