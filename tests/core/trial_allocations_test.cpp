// The heap allocations of one recorded trial, counted by a replaced
// operator new.
//
// A trial's kernel tables, events and recorder scratch draw from the
// trial's region, so executing a program and recording its trace
// allocate from the heap only for the region (its object and its further
// chunks), the returned document and a few bounded pieces of bookkeeping.
// This binary, and no other, replaces the global operator new with one
// that counts the calls a thread makes while its counting flag is set,
// and asserts two things:
//   * one trial's execute_program + record allocates at most 16 times;
//   * a trial of gen5x64 allocates no more often than one of gen5x8,
//     beyond the region's extra chunks — allocation does not grow with
//     the number of events.
// The exact counts depend on the standard library; the bounds do not
// pin them, so the CI's libstdc++ passes as long as nothing allocates
// per event.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <string>

#include "bench_suite/executor.h"
#include "bench_suite/program.h"
#include "core/pipeline.h"
#include "systems/recorder.h"

namespace {

thread_local bool t_counting = false;
thread_local std::size_t t_count = 0;
thread_local std::size_t t_bytes = 0;

void* counted(std::size_t size, std::size_t align) {
  if (t_counting) {
    ++t_count;
    t_bytes += size;
  }
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted(size, 0); }
void* operator new[](std::size_t size) { return counted(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted(size, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted(size, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace provmark {
namespace {

struct Allocations {
  std::size_t count = 0;
  std::size_t bytes = 0;
};

/// The heap allocations of execute_program + record for one trial of
/// `program` on `system` (foreground, round-0 trial 0 of seed 45). The
/// recorder and its audit rules are made outside the count, and the same
/// trial runs once uncounted first: the function-local statics a first
/// trial initializes (the audit rule set, OPUS's wrapped functions) are
/// heap allocations of the process, not of a trial.
Allocations trial_allocations(const bench_suite::BenchmarkProgram& program,
                              const std::string& system) {
  const std::unique_ptr<systems::Recorder> recorder =
      systems::make_recorder(system);
  const std::set<std::string> rules = recorder->extra_audit_rules();
  const std::uint64_t seed = core::trial_seed(45, program.name, true, 0);
  auto trial = [&] {
    bench_suite::ExecutionResult run = bench_suite::execute_program(
        program, true, seed, rules, recorder->layer());
    return recorder->record(run.trace, systems::TrialContext{seed});
  };
  const std::string warm = trial();
  t_count = 0;
  t_bytes = 0;
  t_counting = true;
  const std::string document = trial();
  t_counting = false;
  EXPECT_EQ(document, warm) << program.name << " on " << system;
  return {t_count, t_bytes};
}

const char* const kSystems[] = {"spade",   "opus",  "camflow",
                                "audit",   "ebpf",  "spade-camflow"};

TEST(TrialAllocations, OneTrialAllocatesAtMostSixteenTimes) {
  std::size_t worst = 0;
  for (const bench_suite::BenchmarkProgram& program :
       bench_suite::table_benchmarks()) {
    for (const char* system : kSystems) {
      const Allocations a = trial_allocations(program, system);
      EXPECT_LE(a.count, 16u) << program.name << " on " << system;
      worst = std::max(worst, a.count);
    }
  }
  for (const char* name : {"gen5x8", "gen5x64"}) {
    for (const char* system : kSystems) {
      const Allocations a =
          trial_allocations(bench_suite::benchmark_by_name(name), system);
      EXPECT_LE(a.count, 16u) << name << " on " << system;
      worst = std::max(worst, a.count);
    }
  }
  std::printf("most allocations in one trial: %zu\n", worst);
}

TEST(TrialAllocations, AllocationDoesNotGrowWithTheEvents) {
  const bench_suite::BenchmarkProgram small =
      bench_suite::benchmark_by_name("gen5x8");
  const bench_suite::BenchmarkProgram large =
      bench_suite::benchmark_by_name("gen5x64");
  for (const char* system : {"camflow", "audit", "opus"}) {
    const Allocations a = trial_allocations(small, system);
    const Allocations b = trial_allocations(large, system);
    // Each further region chunk is 1.5 times the one before, so the
    // region grows by a factor of bytes(b) / bytes(a) in this many more
    // chunks at most.
    const double growth =
        static_cast<double>(b.bytes) /
        static_cast<double>(std::max<std::size_t>(1, a.bytes));
    const std::size_t chunk_steps = static_cast<std::size_t>(
        std::ceil(std::log(std::max(1.0, growth)) / std::log(1.5)));
    std::printf("%s: gen5x8 %zu allocations (%zu bytes), gen5x64 %zu (%zu "
                "bytes), %zu chunk steps\n",
                system, a.count, a.bytes, b.count, b.bytes, chunk_steps);
    EXPECT_LE(b.count, a.count + chunk_steps) << system;
  }
}

}  // namespace
}  // namespace provmark
