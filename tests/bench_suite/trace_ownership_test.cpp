// A trial's trace owns its region, so every way a caller holds, moves or
// drops an ExecutionResult must leave the events valid and the document
// unchanged. Each case records the same trials as a trace held in scope
// from execute_program to record(), on all six recorders: a result
// move-assigned into a default-constructed one (provbench's traced loop),
// record() on a temporary's trace, a trace moved twice, and two live
// traces of one trial compared event for event. Run under ASan, a use of
// a freed region fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_suite/executor.h"
#include "bench_suite/program.h"
#include "core/pipeline.h"
#include "systems/recorder.h"

namespace provmark::bench_suite {
namespace {

const char* const kSystems[] = {"spade", "opus",  "camflow",
                                "audit", "ebpf", "spade-camflow"};

struct Trial {
  BenchmarkProgram program;
  bool foreground;
  std::uint64_t seed;
};

std::vector<Trial> trials() {
  std::vector<Trial> out;
  for (const char* name : {"open", "rename", "vfork", "gen3x16"}) {
    for (bool foreground : {false, true}) {
      BenchmarkProgram program = benchmark_by_name(name);
      const std::uint64_t seed =
          core::trial_seed(45, program.name, foreground, 1);
      out.push_back({std::move(program), foreground, seed});
    }
  }
  return out;
}

/// The document of `trial` on `recorder`, recorded from a trace held in
/// scope from execution to recording.
std::string reference(systems::Recorder& recorder, const Trial& trial) {
  const ExecutionResult run =
      execute_program(trial.program, trial.foreground, trial.seed,
                      recorder.extra_audit_rules(), recorder.layer());
  return recorder.record(run.trace, systems::TrialContext{trial.seed});
}

TEST(TraceOwnership, MoveAssignedIntoADefaultConstructedResult) {
  for (const char* system : kSystems) {
    const std::unique_ptr<systems::Recorder> recorder =
        systems::make_recorder(system);
    for (const Trial& trial : trials()) {
      ExecutionResult run;
      run = execute_program(trial.program, trial.foreground, trial.seed,
                            recorder->extra_audit_rules(), recorder->layer());
      EXPECT_EQ(recorder->record(run.trace,
                                 systems::TrialContext{trial.seed}),
                reference(*recorder, trial))
          << trial.program.name << " on " << system;
    }
  }
}

TEST(TraceOwnership, RecordedFromATemporary) {
  for (const char* system : kSystems) {
    const std::unique_ptr<systems::Recorder> recorder =
        systems::make_recorder(system);
    for (const Trial& trial : trials()) {
      const std::string document = recorder->record(
          execute_program(trial.program, trial.foreground, trial.seed,
                          recorder->extra_audit_rules(), recorder->layer())
              .trace,
          systems::TrialContext{trial.seed});
      EXPECT_EQ(document, reference(*recorder, trial))
          << trial.program.name << " on " << system;
    }
  }
}

TEST(TraceOwnership, MovedTwiceThenRecorded) {
  for (const char* system : kSystems) {
    const std::unique_ptr<systems::Recorder> recorder =
        systems::make_recorder(system);
    for (const Trial& trial : trials()) {
      os::EventTrace held;
      {
        ExecutionResult run =
            execute_program(trial.program, trial.foreground, trial.seed,
                            recorder->extra_audit_rules(), recorder->layer());
        os::EventTrace first(std::move(run.trace));
        held = std::move(first);
      }
      EXPECT_EQ(recorder->record(held, systems::TrialContext{trial.seed}),
                reference(*recorder, trial))
          << trial.program.name << " on " << system;
    }
  }
}

TEST(TraceOwnership, TwoLiveTracesOfOneTrialAreEqual) {
  for (const Trial& trial : trials()) {
    const ExecutionResult a =
        execute_program(trial.program, trial.foreground, trial.seed);
    const ExecutionResult b =
        execute_program(trial.program, trial.foreground, trial.seed);
    ASSERT_NE(&a.trace.region(), &b.trace.region());
    ASSERT_FALSE(a.trace.libc.empty());
    EXPECT_TRUE(a.trace.libc == b.trace.libc) << trial.program.name;
    EXPECT_TRUE(a.trace.audit == b.trace.audit) << trial.program.name;
    EXPECT_TRUE(a.trace.lsm == b.trace.lsm) << trial.program.name;
  }
}

}  // namespace
}  // namespace provmark::bench_suite
