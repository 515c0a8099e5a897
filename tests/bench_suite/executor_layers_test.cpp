// A trial that builds one observation layer sees exactly what a trial of
// all layers sees on that layer.
//
// The pipeline asks the kernel for the one layer its recorder reads
// (systems::Recorder::layer()). A layer left out still takes its clock
// draws, sequence numbers and audit serials, so the built layer must be
// event for event — `seq`, `serial` and the `time` fields included — the
// same as in the full trace. This runs every table and failure program,
// the nondeterministic and scale programs and gen1..5x16, over three run
// seeds and trial indices beyond round 0 (retries reach those), with and
// without the extra audit rules auditd installs.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "bench_suite/executor.h"
#include "bench_suite/program.h"
#include "core/pipeline.h"
#include "systems/recorder.h"

namespace provmark::bench_suite {
namespace {

std::vector<BenchmarkProgram> programs() {
  std::vector<BenchmarkProgram> out = table_benchmarks();
  for (BenchmarkProgram& p : failure_benchmarks()) out.push_back(p);
  out.push_back(nondeterministic_benchmark(3));
  out.push_back(scale_benchmark(2));
  out.push_back(failed_rename_benchmark());
  for (int g = 1; g <= 5; ++g) {
    out.push_back(benchmark_by_name("gen" + std::to_string(g) + "x16"));
  }
  return out;
}

template <typename Event>
void expect_same_events(const std::pmr::vector<Event>& full,
                        const std::pmr::vector<Event>& one,
                        const std::string& where) {
  ASSERT_EQ(full.size(), one.size()) << where;
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_TRUE(full[i] == one[i]) << where << " event " << i;
  }
}

TEST(ExecutorLayers, OneLayerTraceIsThatLayerOfTheFullTrace) {
  const std::set<std::string> auditd_rules =
      systems::make_recorder("audit")->extra_audit_rules();
  const std::set<std::string> no_rules;
  const std::vector<BenchmarkProgram> all = programs();
  ASSERT_GE(all.size(), 60u);
  std::size_t libc = 0, audit = 0, lsm = 0;
  for (const BenchmarkProgram& program : all) {
    for (std::uint64_t run_seed : {42u, 45u, 7u}) {
      for (bool foreground : {false, true}) {
        for (int index : {0, 5, 37}) {
          for (const std::set<std::string>* rules :
               {&no_rules, &auditd_rules}) {
            const std::uint64_t seed =
                core::trial_seed(run_seed, program.name, foreground, index);
            const std::string where =
                program.name + " seed " + std::to_string(run_seed) +
                (foreground ? " fg" : " bg") + " trial " +
                std::to_string(index) +
                (rules == &no_rules ? "" : " +auditd rules");
            const ExecutionResult full =
                execute_program(program, foreground, seed, *rules);
            const ExecutionResult l = execute_program(
                program, foreground, seed, *rules, os::Layer::Libc);
            const ExecutionResult a = execute_program(
                program, foreground, seed, *rules, os::Layer::Audit);
            const ExecutionResult s = execute_program(
                program, foreground, seed, *rules, os::Layer::Lsm);
            expect_same_events(full.trace.libc, l.trace.libc, where + " libc");
            expect_same_events(full.trace.audit, a.trace.audit,
                               where + " audit");
            expect_same_events(full.trace.lsm, s.trace.lsm, where + " lsm");
            for (const ExecutionResult* one : {&l, &a, &s}) {
              EXPECT_EQ(one->behaviour_ok, full.behaviour_ok) << where;
              EXPECT_EQ(one->failure_reason, full.failure_reason) << where;
            }
            EXPECT_TRUE(l.trace.audit.empty() && l.trace.lsm.empty())
                << where;
            EXPECT_TRUE(a.trace.libc.empty() && a.trace.lsm.empty())
                << where;
            EXPECT_TRUE(s.trace.libc.empty() && s.trace.audit.empty())
                << where;
            libc += full.trace.libc.size();
            audit += full.trace.audit.size();
            lsm += full.trace.lsm.size();
          }
        }
      }
    }
  }
  // Every layer was exercised, not compared empty against empty.
  EXPECT_GT(libc, 10000u);
  EXPECT_GT(audit, 10000u);
  EXPECT_GT(lsm, 10000u);
}

TEST(ExecutorLayers, DeferredVforkRecordsKeepTheirSeqWhenAuditIsOff) {
  // The vforked parent's audit record is deferred until the child exits
  // and takes a second seq number then; with the audit layer off the
  // placeholder must still take it, or every later libc and LSM event
  // shifts.
  const BenchmarkProgram& program = benchmark_by_name("vfork");
  const ExecutionResult full = execute_program(program, true, 11);
  const ExecutionResult lsm =
      execute_program(program, true, 11, {}, os::Layer::Lsm);
  ASSERT_FALSE(full.trace.lsm.empty());
  EXPECT_TRUE(full.trace.lsm == lsm.trace.lsm);
  bool deferred = false;
  for (std::size_t i = 1; i < full.trace.audit.size(); ++i) {
    deferred |= full.trace.audit[i].syscall == "vfork" &&
                full.trace.audit[i].serial < full.trace.audit[i - 1].serial;
  }
  EXPECT_TRUE(deferred) << "the vfork record is flushed after the child's";
}

}  // namespace
}  // namespace provmark::bench_suite
