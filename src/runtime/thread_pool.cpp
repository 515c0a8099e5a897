#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "util/strings.h"

namespace provmark::runtime {

namespace {

/// The pool (Impl address) this thread is a worker of; nullptr on
/// non-worker threads. parallel_for consults it to run nested loops on
/// the *same* pool inline instead of re-entering the queue; loops on a
/// different pool still fan out normally — that pool's workers are
/// idle and make progress independently, so there is no deadlock and
/// no silent loss of its parallelism.
thread_local const void* t_worker_of = nullptr;

}  // namespace

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable work_available;
  std::deque<std::function<void()>> queue;
  std::vector<std::thread> workers;
  bool stopping = false;

  void worker_loop() {
    t_worker_of = this;  // for the thread's whole lifetime
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_available.wait(lock,
                            [&] { return stopping || !queue.empty(); });
        if (queue.empty()) return;  // stopping and drained
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }
};

ThreadPool::ThreadPool(int threads)
    : impl_(new Impl), threads_(threads < 1 ? 1 : threads) {
  for (int i = 1; i < threads_; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->work_available.notify_all();
  for (std::thread& worker : impl_->workers) worker.join();
  delete impl_;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Serial pool, tiny loop, or a nested call from one of this pool's
  // own workers: run inline. Workers must never block waiting on queue
  // capacity they are themselves responsible for draining.
  if (threads_ == 1 || n == 1 || t_worker_of == impl_) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // One shared claim counter; each participant (pool workers plus the
  // calling thread) pulls the next unclaimed index until none remain.
  // The whole loop state — including a copy of fn — lives in one
  // shared_ptr: queued drain closures may be popped after parallel_for
  // has returned (the claim counter is exhausted, so they do no work),
  // and must not reference the caller's dead stack frame.
  struct State {
    std::function<void(std::size_t)> fn;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
    std::mutex done_mutex;
    std::condition_variable all_done;
  };
  auto state = std::make_shared<State>();
  state->fn = fn;
  state->n = n;

  auto drain = [state] {
    for (;;) {
      std::size_t i = state->next.fetch_add(1);
      if (i >= state->n) return;
      if (!state->failed.load()) {
        try {
          state->fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state->error_mutex);
          if (!state->error) state->error = std::current_exception();
          state->failed.store(true);
        }
      }
      if (state->done.fetch_add(1) + 1 == state->n) {
        std::lock_guard<std::mutex> lock(state->done_mutex);
        state->all_done.notify_all();
      }
    }
  };

  std::size_t helpers =
      std::min<std::size_t>(static_cast<std::size_t>(threads_ - 1), n - 1);
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (std::size_t i = 0; i < helpers; ++i) impl_->queue.push_back(drain);
  }
  impl_->work_available.notify_all();

  drain();  // the caller participates

  {
    std::unique_lock<std::mutex> lock(state->done_mutex);
    state->all_done.wait(lock, [&] { return state->done.load() == n; });
  }
  if (state->error) std::rethrow_exception(state->error);
}

int default_thread_count() {
  if (const char* env = std::getenv("PROVMARK_THREADS")) {
    const std::optional<int> parsed = util::parse_number<int>(env);
    if (parsed && *parsed > 0) return *parsed;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool& default_pool() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

std::uint64_t task_seed(std::uint64_t base_seed, std::uint64_t task_index) {
  // Two SplitMix64 finalization rounds over (seed, index): adjacent
  // indices land in unrelated regions of the stream.
  std::uint64_t z = base_seed + 0x9E3779B97F4A7C15ULL * (task_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace provmark::runtime
