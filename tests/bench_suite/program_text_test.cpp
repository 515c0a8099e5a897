#include "bench_suite/program_text.h"

#include <gtest/gtest.h>

#include "bench_suite/executor.h"
#include "os/kernel.h"

namespace provmark::bench_suite {
namespace {

TEST(ProgramText, ParsesTheCloseBenchmark) {
  // The paper's close.c example in the textual format.
  BenchmarkProgram p = parse_program(
      "# close.c\n"
      "name close\n"
      "group 1 Files\n"
      "stage file test.txt mode=644\n"
      "op open path=test.txt flags=rw out=fd\n"
      "target close var=fd\n");
  EXPECT_EQ(p.name, "close");
  EXPECT_EQ(p.group, 1);
  EXPECT_EQ(p.family, "Files");
  ASSERT_EQ(p.staging.size(), 1u);
  EXPECT_EQ(p.staging[0].mode, 0644);
  ASSERT_EQ(p.ops.size(), 2u);
  EXPECT_EQ(p.ops[0].code, OpCode::Open);
  EXPECT_EQ(p.ops[0].flags, os::kO_RDWR);
  EXPECT_FALSE(p.ops[0].target);
  EXPECT_EQ(p.ops[1].code, OpCode::Close);
  EXPECT_TRUE(p.ops[1].target);
  EXPECT_EQ(p.ops[1].var, "fd");
}

TEST(ProgramText, ParsedProgramExecutes) {
  BenchmarkProgram p = parse_program(
      "name textual\n"
      "stage file data.txt\n"
      "op open path=data.txt flags=rw out=fd\n"
      "target write var=fd a=64\n");
  ExecutionResult run = execute_program(p, true, 1);
  EXPECT_TRUE(run.behaviour_ok) << run.failure_reason;
  bool wrote = false;
  for (const os::LibcEvent& e : run.trace.libc) {
    if (e.function == "write" && e.ret == 64) wrote = true;
  }
  EXPECT_TRUE(wrote);
}

TEST(ProgramText, FailureAndMayFailMarkers) {
  BenchmarkProgram p = parse_program(
      "name markers\n"
      "creds 1000\n"
      "target! rename path=mine path2=/etc/passwd\n"
      "target? link path=a path2=b\n");
  ASSERT_EQ(p.ops.size(), 2u);
  EXPECT_TRUE(p.ops[0].expect_failure);
  EXPECT_FALSE(p.ops[0].may_fail);
  EXPECT_TRUE(p.ops[1].may_fail);
  ASSERT_TRUE(p.creds.has_value());
  EXPECT_EQ(p.creds->uid, 1000);
}

TEST(ProgramText, ShuffleTargetsFlag) {
  BenchmarkProgram p = parse_program(
      "name shuffled\nshuffle-targets\ntarget creat path=f0\n");
  EXPECT_TRUE(p.shuffle_targets);
}

TEST(ProgramText, OctalModes) {
  BenchmarkProgram p = parse_program(
      "name modes\ntarget chmod path=f mode=600\n");
  EXPECT_EQ(p.ops[0].mode, 0600);
}

TEST(ProgramText, StageKinds) {
  BenchmarkProgram p = parse_program(
      "name stages\n"
      "stage file a.txt mode=600 uid=1000\n"
      "stage fifo p0\n"
      "stage symlink s0 target=/etc/passwd\n"
      "stage remove junk\n"
      "target open path=a.txt flags=r out=fd\n");
  ASSERT_EQ(p.staging.size(), 4u);
  EXPECT_EQ(p.staging[0].uid, 1000);
  EXPECT_EQ(p.staging[1].kind, StageAction::Kind::Fifo);
  EXPECT_EQ(p.staging[2].target, "/etc/passwd");
  EXPECT_EQ(p.staging[3].kind, StageAction::Kind::Remove);
}

TEST(ProgramText, ErrorsCarryLineNumbers) {
  try {
    parse_program("name x\nop nonsense path=a\n");
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(parse_program("op open path=a\n"), std::invalid_argument);
  EXPECT_THROW(parse_program("name x\n"), std::invalid_argument);
  EXPECT_THROW(parse_program("name x\nstage what a\ntarget creat path=f\n"),
               std::invalid_argument);
  EXPECT_THROW(
      parse_program("name x\ntarget open path=a flags=zz out=fd\n"),
      std::invalid_argument);
}

TEST(ProgramText, NumbersAreReadWhole) {
  // util::parse_number's rules: no '+', nothing after the digits; a
  // signed value may carry '-'.
  EXPECT_NO_THROW(parse_program("name x\ncreds 5\ntarget creat path=f\n"));
  EXPECT_NO_THROW(parse_program("name x\ntarget creat path=f mode=600 a=-3\n"));
  for (const std::string line :
       {"creds +5", "creds 5x", "group 0x1", "target creat path=f mode=+600",
        "target creat path=f a=+3", "target creat path=f mode=9"}) {
    EXPECT_THROW(parse_program("name x\n" + line + "\ntarget creat path=g\n"),
                 std::invalid_argument)
        << line;
  }
}

TEST(ProgramText, FlagsUseTheShortNamesOfTheFlagTable) {
  BenchmarkProgram p = parse_program(
      "name flags\n"
      "target open path=a flags=trunc+w+creat out=fd\n");
  ASSERT_EQ(p.ops.size(), 1u);
  EXPECT_EQ(p.ops[0].flags, os::kO_WRONLY | os::kO_CREAT | os::kO_TRUNC);
  EXPECT_NE(format_program(p).find(" flags=w+creat+trunc"), std::string::npos);
  // Access mode 03 has no short name and prints as r; O_CLOEXEC has
  // none either and is left out.
  p.ops[0].flags = 03 | os::kO_CREAT | os::kO_CLOEXEC;
  EXPECT_NE(format_program(p).find(" flags=r+creat"), std::string::npos);
  // Long names are not program text.
  EXPECT_THROW(
      parse_program("name x\ntarget open path=a flags=O_RDWR out=fd\n"),
      std::invalid_argument);
}

TEST(ProgramText, RoundTripAllTableBenchmarks) {
  for (const BenchmarkProgram& original : table_benchmarks()) {
    BenchmarkProgram round = parse_program(format_program(original));
    EXPECT_EQ(round.name, original.name);
    EXPECT_EQ(round.group, original.group);
    ASSERT_EQ(round.ops.size(), original.ops.size()) << original.name;
    for (std::size_t i = 0; i < round.ops.size(); ++i) {
      EXPECT_EQ(round.ops[i].code, original.ops[i].code) << original.name;
      EXPECT_EQ(round.ops[i].target, original.ops[i].target);
      EXPECT_EQ(round.ops[i].path, original.ops[i].path);
      EXPECT_EQ(round.ops[i].var, original.ops[i].var);
      EXPECT_EQ(round.ops[i].a, original.ops[i].a);
      EXPECT_EQ(round.ops[i].mode, original.ops[i].mode);
    }
    EXPECT_EQ(round.staging.size(), original.staging.size());
  }
}

TEST(ProgramText, OpcodeFromName) {
  EXPECT_EQ(opcode_from_name("open"), OpCode::Open);
  EXPECT_EQ(opcode_from_name("setresgid"), OpCode::SetResGid);
  EXPECT_THROW(opcode_from_name("bogus"), std::invalid_argument);
}

TEST(ProgramText, OversizedInputRejectedBeforeParsing) {
  const std::string text = "name close\ntarget close var=fd\n";
  // At or under the limit parses; one byte over throws the typed error
  // carrying both the observed size and the limit.
  EXPECT_NO_THROW(parse_program(text, text.size()));
  try {
    parse_program(text, text.size() - 1);
    FAIL() << "expected util::InputSizeError";
  } catch (const util::InputSizeError& e) {
    EXPECT_EQ(e.size, text.size());
    EXPECT_EQ(e.limit, text.size() - 1);
  }
  // 0 disables the guard entirely.
  EXPECT_NO_THROW(parse_program(text, 0));
}

}  // namespace
}  // namespace provmark::bench_suite
