#include "bench_suite/program.h"

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <vector>

#include "bench_suite/executor.h"
#include "expected_table1.h"

namespace provmark::bench_suite {
namespace {

/// The 54 Table 1 names: the paper's 44, then the 10 extension rows.
std::vector<const char*> table1_names() {
  std::vector<const char*> names(std::begin(provmark_bench::kTable1PaperNames),
                                 std::end(provmark_bench::kTable1PaperNames));
  names.insert(names.end(), std::begin(provmark_bench::kTable1ExtensionNames),
               std::end(provmark_bench::kTable1ExtensionNames));
  return names;
}

TEST(Programs, RegistryCoversTable1) {
  EXPECT_EQ(std::size(provmark_bench::kTable1PaperNames), 44u);
  EXPECT_EQ(std::size(provmark_bench::kTable1ExtensionNames), 10u);
  std::multiset<std::string> registered, expected;
  for (const BenchmarkProgram& p : table_benchmarks()) {
    registered.insert(p.name);
  }
  for (const char* name : table1_names()) expected.insert(name);
  EXPECT_EQ(registered, expected);
}

TEST(Programs, EveryProgramHasExactlyOneTargetRegionOrMore) {
  for (const BenchmarkProgram& p : table_benchmarks()) {
    int targets = 0;
    for (const Op& op : p.ops) {
      if (op.target) ++targets;
    }
    EXPECT_GE(targets, 1) << p.name;
  }
}

TEST(Programs, GroupsMatchTable1Families) {
  for (const BenchmarkProgram& p : table_benchmarks()) {
    switch (p.group) {
      case 1: EXPECT_EQ(p.family, "Files") << p.name; break;
      case 2: EXPECT_EQ(p.family, "Processes") << p.name; break;
      case 3: EXPECT_EQ(p.family, "Permissions") << p.name; break;
      case 4: EXPECT_EQ(p.family, "Pipes") << p.name; break;
      case 5: EXPECT_EQ(p.family, "Network") << p.name; break;
      case 6: EXPECT_EQ(p.family, "Memory") << p.name; break;
      default: FAIL() << p.name << " has group " << p.group;
    }
  }
}

TEST(Programs, BenchmarkByName) {
  EXPECT_EQ(benchmark_by_name("rename").name, "rename");
  EXPECT_THROW(benchmark_by_name("nope"), std::out_of_range);
}

TEST(Programs, ScaleBenchmarkGrowsLinearly) {
  BenchmarkProgram s1 = scale_benchmark(1);
  BenchmarkProgram s4 = scale_benchmark(4);
  EXPECT_EQ(s1.ops.size(), 2u);
  EXPECT_EQ(s4.ops.size(), 8u);
  for (const Op& op : s4.ops) EXPECT_TRUE(op.target);
}

TEST(Programs, OpcodeNamesMatchSyscallNames) {
  EXPECT_STREQ(opcode_name(OpCode::Open), "open");
  EXPECT_STREQ(opcode_name(OpCode::SetResUid), "setresuid");
  EXPECT_STREQ(opcode_name(OpCode::VFork), "vfork");
  EXPECT_STREQ(opcode_name(OpCode::Tee), "tee");
}

// The paper's per-benchmark check: the target behaviour is performed
// successfully (or fails when the benchmark is a failure case). Running
// every registered benchmark in both variants is the strongest form.
class BehaviourTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(BehaviourTest, ForegroundBehaviourSucceeds) {
  const BenchmarkProgram& program = benchmark_by_name(GetParam());
  ExecutionResult run = execute_program(program, /*include_target=*/true, 1);
  EXPECT_TRUE(run.behaviour_ok) << run.failure_reason;
  EXPECT_FALSE(run.trace.libc.empty());
}

TEST_P(BehaviourTest, BackgroundVariantAlsoExecutes) {
  const BenchmarkProgram& program = benchmark_by_name(GetParam());
  ExecutionResult run = execute_program(program, /*include_target=*/false,
                                        1);
  EXPECT_TRUE(run.behaviour_ok) << run.failure_reason;
}

TEST_P(BehaviourTest, ForegroundTraceContainsBackgroundPrefix) {
  // Monotonicity at the event level: the background libc stream is a
  // prefix-ordered subsequence of the foreground stream (by function
  // name), which underpins the comparison stage's assumption.
  const BenchmarkProgram& program = benchmark_by_name(GetParam());
  auto bg = execute_program(program, false, 2).trace;
  auto fg = execute_program(program, true, 2).trace;
  std::size_t i = 0;
  for (const os::LibcEvent& e : fg.libc) {
    if (i < bg.libc.size() && bg.libc[i].function == e.function) ++i;
  }
  EXPECT_EQ(i, bg.libc.size()) << "background not a subsequence";
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BehaviourTest,
                         ::testing::ValuesIn(table1_names()));

TEST(FailureBenchmarks, FailedRenameFailsAsExpected) {
  BenchmarkProgram program = failed_rename_benchmark();
  ExecutionResult run = execute_program(program, true, 3);
  EXPECT_TRUE(run.behaviour_ok) << run.failure_reason;
  // The rename must actually have failed (ret -1 at the libc layer).
  bool saw_failed_rename = false;
  for (const os::LibcEvent& e : run.trace.libc) {
    if (e.function == "rename" && e.ret == -1) saw_failed_rename = true;
  }
  EXPECT_TRUE(saw_failed_rename);
}

TEST(FailureBenchmarks, BehaviourCheckCatchesUnexpectedFailure) {
  // A program whose op fails although it should succeed must be flagged.
  BenchmarkProgram p;
  p.name = "broken";
  Op open;
  open.code = OpCode::Open;
  open.path = "/no/such/path";
  open.flags = 0;
  open.target = true;
  p.ops.push_back(open);
  ExecutionResult run = execute_program(p, true, 4);
  EXPECT_FALSE(run.behaviour_ok);
  EXPECT_NE(run.failure_reason.find("open"), std::string::npos);
}

}  // namespace
}  // namespace provmark::bench_suite
