// Deterministic parallel-execution runtime for the pipeline.
//
// The four-stage pipeline runs every trial of every program variant
// independently (§3.2 makes CamFlow/SPADE runs trial-heavy by design),
// and the figure/table reproductions sweep independent (benchmark,
// system) pairs. This module provides the shared execution substrate:
// a fixed-size thread pool — deliberately work-stealing-free, so the
// scheduling model stays simple enough to reason about determinism —
// plus `parallel_for`/`parallel_map` helpers that write results into
// index-addressed slots.
//
// Determinism contract: tasks receive their index and must derive any
// randomness from a seed and that index — never from scheduling order,
// thread identity, or shared mutable state. `task_seed` is the stock
// derivation for new parallel code; the pipeline keeps its pre-runtime
// per-trial formula (util::Rng fork in core/pipeline.cpp) so recorded
// outputs stay byte-stable across the serial-to-parallel change. Under
// the contract every parallel_for produces bit-identical results at
// any thread count, which `tests/core/parallel_determinism_test.cpp`
// enforces for the whole pipeline.
//
// Nesting: parallel_for called from inside one of the *same* pool's
// workers runs the loop inline on that worker (no new tasks are
// queued). Outer parallelism — e.g. the CLI sweeping (benchmark,
// system) pairs — therefore composes with the trial-level parallelism
// inside run_benchmark without deadlocking or oversubscribing. A loop
// on a *different* pool fans out normally onto that pool's workers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace provmark::runtime {

class ThreadPool {
 public:
  /// A pool with `threads` workers; values < 1 clamp to 1. A 1-thread
  /// pool spawns no workers at all: every parallel_for runs inline, so a
  /// run with PROVMARK_THREADS=1 is a genuinely serial program.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return threads_; }

  /// Run fn(0), fn(1), ..., fn(n-1), distributing indices over the pool
  /// workers plus the calling thread. Blocks until all calls return.
  /// Indices are claimed from a shared atomic counter (no work stealing,
  /// no per-thread queues); callers must not depend on claim order.
  /// The first exception thrown by any task is rethrown here after all
  /// workers have drained.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn);

  /// parallel_for over `items`, collecting fn(item, index) into a vector
  /// in item order (index-addressed slots: scheduling never reorders
  /// results).
  template <typename T, typename Item, typename Fn>
  std::vector<T> parallel_map(const std::vector<Item>& items, Fn&& fn) {
    std::vector<T> out(items.size());
    parallel_for(items.size(), [&](std::size_t i) {
      out[i] = fn(items[i], i);
    });
    return out;
  }

 private:
  struct Impl;
  Impl* impl_;
  int threads_;
};

/// The number of threads a default-constructed runtime uses: the
/// PROVMARK_THREADS environment variable when it is a positive decimal
/// integer (digits only; anything else is ignored), else
/// std::thread::hardware_concurrency().
int default_thread_count();

/// Process-wide shared pool, lazily constructed with
/// default_thread_count() workers. All pipeline entry points fall back
/// to this pool when the caller does not supply one.
ThreadPool& default_pool();

/// An independent per-task RNG seed: mixes `base_seed` and `task_index`
/// through SplitMix64 so sibling tasks get decorrelated streams that
/// depend only on (seed, index) — never on which thread ran the task.
std::uint64_t task_seed(std::uint64_t base_seed, std::uint64_t task_index);

}  // namespace provmark::runtime
