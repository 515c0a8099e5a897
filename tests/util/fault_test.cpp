// Fault injection (src/util/fault.h): the --fault-spec grammar of every
// kind, arming by (shard, attempt) coordinates, and each site's trigger
// point, fire-once state and log line. The end-to-end chaos gates are
// core_supervise_test (ForkModeChaos), core_shard_cli_test and the
// forked-daemon suites under tests/serve/ (standby_test, router_test,
// admission_test).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/fault.h"

namespace provmark::util::fault {
namespace {

// Every test leaves the process-global injector disarmed.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { disarm(); }
};
using FaultGrammar = FaultTest;
using FaultArming = FaultTest;
using FaultTriggers = FaultTest;

FaultRule parse_one(const std::string& text) {
  const FaultSpec spec = parse_fault_spec(text);
  EXPECT_EQ(spec.rules.size(), 1u) << text;
  return spec.rules.at(0);
}

void expect_rejected(const std::string& text) {
  EXPECT_THROW(parse_fault_spec(text), std::invalid_argument) << text;
}

struct ChildOutcome {
  int exit_code = -1;  ///< -1 when the child did not exit normally
  std::string err;     ///< everything the child wrote to stderr
};

/// Runs `body` in a forked child with stderr captured; a body that
/// returns exits 0.
ChildOutcome run_child(const std::function<void()>& body) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    ::dup2(fds[1], STDERR_FILENO);
    body();
    ::_exit(0);
  }
  ::close(fds[1]);
  ChildOutcome outcome;
  char buf[512];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof buf)) > 0) outcome.err.append(buf, n);
  ::close(fds[0]);
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  if (WIFEXITED(status)) outcome.exit_code = WEXITSTATUS(status);
  return outcome;
}

/// Marks a point the child reached on its captured stderr.
void mark(const char* text) {
  std::fprintf(stderr, "%s\n", text);
  std::fflush(stderr);
}

double seconds_for(const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ---------------------------------------------------------------------------
// Grammar

TEST_F(FaultGrammar, EveryKindParsesUnderItsName) {
  const std::vector<std::pair<std::string, FaultKind>> cases = {
      {"crash:shard=0", FaultKind::Crash},
      {"torn-write:shard=0,file=f", FaultKind::TornWrite},
      {"hang:shard=0", FaultKind::Hang},
      {"serve-crash:after-events=1", FaultKind::ServeCrash},
      {"slow-client:ms=1", FaultKind::SlowClient},
      {"repl-link-drop:after-records=1", FaultKind::ReplLinkDrop},
      {"replica-crash:after-records=1", FaultKind::ReplicaCrash},
      {"repl-partition:after-records=1", FaultKind::ReplPartition},
      {"cluster-member-crash:member=0", FaultKind::ClusterMemberCrash},
      {"member-hang:member=0", FaultKind::MemberHang},
      {"route-drop:after-requests=1", FaultKind::RouteDrop},
  };
  for (const auto& [text, kind] : cases) {
    const FaultRule rule = parse_one(text);
    EXPECT_EQ(rule.kind, kind) << text;
    EXPECT_EQ(text.substr(0, text.find(':')), kind_name(kind));
  }
}

TEST_F(FaultGrammar, ShardKindsDefaultToTheFirstAttempt) {
  const FaultRule crash = parse_one("crash:shard=1");
  EXPECT_EQ(crash.shard, 1);
  EXPECT_EQ(crash.attempt, 0);
  EXPECT_EQ(crash.after, 1);

  const FaultRule torn = parse_one("torn-write:shard=2,file=validation.txt");
  EXPECT_EQ(torn.shard, 2);
  EXPECT_EQ(torn.attempt, 0);
  EXPECT_EQ(torn.file, "validation.txt");
  EXPECT_EQ(torn.amount, 0.5);

  const FaultRule hang = parse_one("hang:shard=0");
  EXPECT_EQ(hang.shard, 0);
  EXPECT_EQ(hang.attempt, 0);
  EXPECT_EQ(hang.amount, 3600);
}

TEST_F(FaultGrammar, ShardKindsTakeEveryKeyOfTheirRow) {
  const FaultRule crash = parse_one("crash:shard=3,after-cell=4,attempt=2");
  EXPECT_EQ(crash.shard, 3);
  EXPECT_EQ(crash.after, 4);
  EXPECT_EQ(crash.attempt, 2);

  const FaultRule torn =
      parse_one("torn-write:shard=0,file=a.txt,keep=0.25,attempt=any");
  EXPECT_EQ(torn.amount, 0.25);
  EXPECT_EQ(torn.attempt, -1);
  EXPECT_EQ(parse_one("torn-write:shard=0,file=a,keep=0").amount, 0);

  const FaultRule hang = parse_one("hang:shard=1,seconds=2.5,attempt=1");
  EXPECT_EQ(hang.amount, 2.5);
  EXPECT_EQ(hang.attempt, 1);
  // seconds has no lower bound: a non-positive stall publishes at once.
  EXPECT_EQ(parse_one("hang:shard=0,seconds=-1").amount, -1);
}

TEST_F(FaultGrammar, ServeAndReplicationKindsTakeEveryKeyOfTheirRow) {
  EXPECT_EQ(parse_one("serve-crash:").after, 1);
  EXPECT_EQ(parse_one("serve-crash:after-events=5").after, 5);

  const FaultRule slow = parse_one("slow-client:");
  EXPECT_EQ(slow.amount, 50);
  EXPECT_EQ(slow.window, -1);
  const FaultRule slow2 = parse_one("slow-client:ms=12.5,events=3");
  EXPECT_EQ(slow2.amount, 12.5);
  EXPECT_EQ(slow2.window, 3);
  EXPECT_EQ(parse_one("slow-client:ms=0").amount, 0);

  EXPECT_EQ(parse_one("repl-link-drop:").after, 1);
  EXPECT_EQ(parse_one("repl-link-drop:after-records=5").after, 5);
  EXPECT_EQ(parse_one("replica-crash:after-records=2").after, 2);

  const FaultRule partition = parse_one("repl-partition:");
  EXPECT_EQ(partition.after, 1);
  EXPECT_EQ(partition.amount, 500);
  const FaultRule partition2 =
      parse_one("repl-partition:after-records=5,ms=300");
  EXPECT_EQ(partition2.after, 5);
  EXPECT_EQ(partition2.amount, 300);
}

TEST_F(FaultGrammar, MemberRulesParseAndTargetByMemberAndIncarnation) {
  const FaultSpec spec = parse_fault_spec(
      "cluster-member-crash:member=1,after-events=5;"
      "member-hang:member=2,after-events=3,attempt=any;"
      "route-drop:after-requests=7");
  ASSERT_EQ(spec.rules.size(), 3u);

  EXPECT_EQ(spec.rules[0].kind, FaultKind::ClusterMemberCrash);
  EXPECT_EQ(spec.rules[0].shard, 1);  // member id rides the shard slot
  EXPECT_EQ(spec.rules[0].after, 5);
  EXPECT_EQ(spec.rules[0].attempt, 0);  // incarnation 0 only, by default

  EXPECT_EQ(spec.rules[1].kind, FaultKind::MemberHang);
  EXPECT_EQ(spec.rules[1].shard, 2);
  EXPECT_EQ(spec.rules[1].attempt, -1);  // attempt=any

  EXPECT_EQ(spec.rules[2].kind, FaultKind::RouteDrop);
  EXPECT_EQ(spec.rules[2].after, 7);

  EXPECT_EQ(parse_one("member-hang:member=0").after, 1);
  EXPECT_EQ(parse_one("cluster-member-crash:member=4,attempt=2").attempt, 2);
  EXPECT_EQ(parse_one("route-drop:").after, 1);
}

TEST_F(FaultGrammar, SpecJoinsRulesAndTrimsWhitespace) {
  const FaultSpec spec =
      parse_fault_spec(" crash : shard = 1 , after-cell = 2 ;;"
                       "serve-crash:after-events=3;");
  ASSERT_EQ(spec.rules.size(), 2u);
  EXPECT_EQ(spec.rules[0].kind, FaultKind::Crash);
  EXPECT_EQ(spec.rules[0].shard, 1);
  EXPECT_EQ(spec.rules[0].after, 2);
  EXPECT_EQ(spec.rules[1].kind, FaultKind::ServeCrash);
  EXPECT_EQ(spec.rules[1].after, 3);
  // Empty parameters are skipped; a repeated key keeps its last value.
  EXPECT_EQ(parse_one("crash:shard=1,,after-cell=2,after-cell=5").after,
            5);
}

TEST_F(FaultGrammar, RejectsMalformedRules) {
  for (const char* text :
       {"", ";", "crash", "crash:shard", "bogus:shard=1", "crash:shard=x",
        "crash:shard=1.5", "crash:shard=", "slow-client:ms=fast",
        "crash:shard=1,=5"}) {
    expect_rejected(text);
  }
}

TEST_F(FaultGrammar, UnknownKindMessageListsEveryKind) {
  try {
    parse_fault_spec("bogus:shard=1");
    FAIL() << "unknown kind accepted";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("'bogus'"), std::string::npos) << message;
    for (int k = 0; k <= static_cast<int>(FaultKind::RouteDrop); ++k) {
      EXPECT_NE(message.find(kind_name(static_cast<FaultKind>(k))),
                std::string::npos)
          << message;
    }
  }
}

TEST_F(FaultGrammar, RequiredKeysAreEnforced) {
  for (const char* text :
       {"crash:after-cell=1", "crash:shard=-1", "torn-write:shard=0",
        "torn-write:shard=0,file=", "torn-write:file=a", "hang:seconds=1",
        "cluster-member-crash:after-events=5", "member-hang:after-events=2"}) {
    expect_rejected(text);
  }
}

TEST_F(FaultGrammar, KeysOutsideTheKindsRowAreRejected) {
  for (const char* text : {
           "crash:shard=0,after-events=1",
           "crash:shard=0,member=1",
           "crash:shard=0,file=a",
           "crash:shard=0,seconds=1",
           "torn-write:shard=0,file=a,after-cell=1",
           "hang:shard=0,keep=0.5",
           "serve-crash:shard=0",
           "serve-crash:attempt=1",
           "serve-crash:after-records=1",
           "slow-client:after-events=1",
           "slow-client:shard=0",
           "repl-link-drop:ms=5",
           "repl-link-drop:after-events=1",
           "replica-crash:shard=1",
           "replica-crash:ms=5",
           "repl-partition:events=1",
           "cluster-member-crash:shard=1",
           "member-hang:member=1,after-requests=3",
           "route-drop:member=1",
           "route-drop:after-requests=3,attempt=any",
           "route-drop:after-events=1",
       }) {
    expect_rejected(text);
  }
}

TEST_F(FaultGrammar, BoundsAreEnforced) {
  for (const char* text : {
           "crash:shard=0,after-cell=0",
           "serve-crash:after-events=0",
           "serve-crash:after-events=-1",
           "cluster-member-crash:member=0,after-events=0",
           "repl-link-drop:after-records=0",
           "replica-crash:after-records=0",
           "repl-partition:after-records=0",
           "route-drop:after-requests=0",
           "slow-client:events=0",
           "slow-client:ms=-1",
           "repl-partition:ms=0",
           "repl-partition:ms=-1",
           "torn-write:shard=0,file=a,keep=1",
           "torn-write:shard=0,file=a,keep=-0.1",
           "torn-write:shard=0,file=a,keep=1.5",
       }) {
    expect_rejected(text);
  }
}

TEST_F(FaultGrammar, MalformedNumbersAreRejected) {
  for (const char* text : {
           "crash:shard=1e10",
           "crash:shard=0x10",
           "crash:shard=0,after-cell=99999999999",
           "slow-client:ms=nan",
           "torn-write:shard=0,file=a,keep=nan",
           "repl-partition:after-records=1,ms=inf",
           "hang:shard=0,seconds=inf",
           // Integers are plain decimal: no exponent, fraction or sign.
           "crash:shard=1e1",
           "crash:shard=2.0",
           "crash:shard=+1",
           "slow-client:ms=0x1p3",
       }) {
    expect_rejected(text);
  }
}

TEST_F(FaultGrammar, GrammarListsEveryKindWithItsDefaults) {
  const std::string text = grammar("  ");
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    std::string line = text.substr(start, end - start);
    start = end + 1;
    ASSERT_EQ(line.rfind("  ", 0), 0u) << line;
    // Fill the required placeholders; every listed value must parse
    // back to the kind's defaults.
    for (const auto& [from, to] :
         std::vector<std::pair<std::string, std::string>>{
             {"=K", "=3"}, {"=NAME", "=f"}, {"=N", "=2"}}) {
      for (std::size_t at = line.find(from); at != std::string::npos;
           at = line.find(from, at)) {
        line.replace(at, from.size(), to);
      }
    }
    const FaultRule rule = parse_one(line);
    EXPECT_EQ(kind_name(rule.kind), line.substr(2, line.find(':') - 2));
    EXPECT_EQ(static_cast<int>(rule.kind), static_cast<int>(lines));
    EXPECT_EQ(rule.after, 1) << line;
    EXPECT_EQ(rule.attempt, 0) << line;
    ++lines;
  }
  EXPECT_EQ(lines, static_cast<std::size_t>(FaultKind::RouteDrop) + 1);
  EXPECT_NE(text.find("  torn-write:shard=K,file=NAME,keep=0.5,attempt=0\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("  slow-client:ms=50,events=N\n"), std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// Arming

TEST_F(FaultArming, ShardRulesArmOnlyAtTheirShardAndAttempt) {
  const FaultSpec first = parse_fault_spec("crash:shard=1,after-cell=1000");
  arm(first, 1, 0);
  EXPECT_TRUE(armed());
  arm(first, 0, 0);
  EXPECT_FALSE(armed());
  arm(first, 1, 1);  // a retry runs fault-free
  EXPECT_FALSE(armed());
  arm(first, -1, -1);
  EXPECT_FALSE(armed());

  const FaultSpec second = parse_fault_spec("hang:shard=1,attempt=2");
  arm(second, 1, 2);
  EXPECT_TRUE(armed());
  arm(second, 1, 0);
  EXPECT_FALSE(armed());

  const FaultSpec any =
      parse_fault_spec("torn-write:shard=1,file=a,attempt=any");
  arm(any, 1, 5);
  EXPECT_TRUE(armed());
  arm(any, 2, 5);
  EXPECT_FALSE(armed());
}

TEST_F(FaultArming, ProcessRulesArmAtEveryCoordinate) {
  const FaultSpec spec = parse_fault_spec(
      "serve-crash:after-events=1000;slow-client:ms=0;"
      "repl-link-drop:after-records=1000;replica-crash:after-records=1000;"
      "repl-partition:after-records=1000;route-drop:after-requests=1000");
  for (const auto& [shard, attempt] :
       std::vector<std::pair<int, int>>{{-1, -1}, {0, 0}, {3, 7}}) {
    arm(spec, shard, attempt);
    EXPECT_TRUE(armed()) << shard << "," << attempt;
  }
  disarm();
  EXPECT_FALSE(armed());
}

TEST_F(FaultArming, ArmingSelectsByProcessCoordinates) {
  const FaultSpec spec = parse_fault_spec(
      "cluster-member-crash:member=1,after-events=5;"
      "route-drop:after-requests=100000");

  // The router arms with (-1, -1): member rules stay dormant there,
  // router rules arm. (after-requests is huge so nothing fires here.)
  arm(spec, -1, -1);
  EXPECT_TRUE(armed());
  EXPECT_EQ(fired_count(FaultKind::ClusterMemberCrash), 0);

  // Member 0 incarnation 0: the member=1 rule must not arm — hammering
  // events through the site fires nothing.
  arm(spec, 0, 0);
  for (int i = 0; i < 10; ++i) hit(Site::EventAdmitted);
  EXPECT_EQ(fired_count(FaultKind::ClusterMemberCrash), 0);

  // Member 1 incarnation 1 (the restarted incarnation): default
  // attempt targeting is incarnation 0, so the crash rule stays
  // dormant — the member recovers fault-free.
  arm(spec, 1, 1);
  for (int i = 0; i < 10; ++i) hit(Site::EventAdmitted);
  EXPECT_EQ(fired_count(FaultKind::ClusterMemberCrash), 0);

  disarm();
  EXPECT_FALSE(armed());
}

TEST_F(FaultArming, ArmResetsCountersAndFireOnceState) {
  const FaultSpec spec = parse_fault_spec("route-drop:after-requests=2");
  arm(spec, -1, -1);
  EXPECT_FALSE(hit(Site::RequestForwarded).drop);
  EXPECT_TRUE(hit(Site::RequestForwarded).drop);
  EXPECT_EQ(fired_count(FaultKind::RouteDrop), 1);
  arm(spec, -1, -1);
  EXPECT_EQ(fired_count(FaultKind::RouteDrop), 0);
  EXPECT_FALSE(hit(Site::RequestForwarded).drop);
  EXPECT_TRUE(hit(Site::RequestForwarded).drop);
}

TEST_F(FaultArming, HitsAreNoOpsWhileDisarmed) {
  disarm();
  EXPECT_FALSE(hit(Site::RequestForwarded).drop);
  EXPECT_FALSE(hit(Site::RecordForwarded).drop);
  EXPECT_EQ(hit(Site::RecordForwarded).partition_ms, 0);
  std::string content = "abcd";
  EXPECT_FALSE(hit(Site::ArtifactWrite, "a", &content).fired);
  EXPECT_EQ(content, "abcd");
  EXPECT_EQ(fired_count(FaultKind::MemberHang), 0);
  EXPECT_EQ(fired_count(FaultKind::RouteDrop), 0);
}

// ---------------------------------------------------------------------------
// Triggers

TEST_F(FaultTriggers, CrashExitsAtItsCell) {
  const ChildOutcome child = run_child([] {
    arm(parse_fault_spec("crash:shard=1,after-cell=3"), 1, 0);
    hit(Site::CellDone);
    hit(Site::CellDone);
    mark("survived 2");
    hit(Site::CellDone);
    ::_exit(1);
  });
  EXPECT_EQ(child.exit_code, kCrashExitCode);
  const std::size_t survived = child.err.find("survived 2");
  ASSERT_NE(survived, std::string::npos) << child.err;
  EXPECT_NE(child.err.find("fault-injection: crash", survived),
            std::string::npos)
      << child.err;
}

TEST_F(FaultTriggers, ServeCrashExitsAtItsEvent) {
  const ChildOutcome child = run_child([] {
    arm(parse_fault_spec("serve-crash:after-events=3"), 0, 0);
    hit(Site::EventAdmitted);
    hit(Site::EventAdmitted);
    mark("survived 2");
    hit(Site::EventAdmitted);
    ::_exit(1);
  });
  EXPECT_EQ(child.exit_code, kCrashExitCode);
  const std::size_t survived = child.err.find("survived 2");
  ASSERT_NE(survived, std::string::npos) << child.err;
  EXPECT_NE(child.err.find("fault-injection: serve-crash", survived),
            std::string::npos)
      << child.err;
}

TEST_F(FaultTriggers, ClusterMemberCrashExitsAtItsEvent) {
  const ChildOutcome child = run_child([] {
    arm(parse_fault_spec("cluster-member-crash:member=1,after-events=2"), 1,
        0);
    hit(Site::EventAdmitted);
    mark("survived 1");
    hit(Site::EventAdmitted);
    ::_exit(1);
  });
  EXPECT_EQ(child.exit_code, kCrashExitCode);
  const std::size_t survived = child.err.find("survived 1");
  ASSERT_NE(survived, std::string::npos) << child.err;
  EXPECT_NE(child.err.find("fault-injection: cluster-member-crash", survived),
            std::string::npos)
      << child.err;
}

TEST_F(FaultTriggers, ReplicaCrashRuleExitsWithTheCrashCode) {
  const ChildOutcome child = run_child([] {
    arm(parse_fault_spec("replica-crash:after-records=2"), 0, 0);
    hit(Site::RecordJournaled);  // 1st: survives
    mark("survived 1");
    hit(Site::RecordJournaled);  // 2nd: _exit(70)
    ::_exit(1);                  // unreachable
  });
  EXPECT_EQ(child.exit_code, kCrashExitCode);
  const std::size_t survived = child.err.find("survived 1");
  ASSERT_NE(survived, std::string::npos) << child.err;
  EXPECT_NE(child.err.find("fault-injection: replica-crash", survived),
            std::string::npos)
      << child.err;
}

TEST_F(FaultTriggers, RulesAtOneEventFireInSpecOrder) {
  // The latch comes first in the spec, so it fires before the exit.
  const ChildOutcome child = run_child([] {
    arm(parse_fault_spec("member-hang:member=0,after-events=1;"
                         "cluster-member-crash:member=0,after-events=1"),
        0, 0);
    hit(Site::EventAdmitted);
    ::_exit(1);
  });
  EXPECT_EQ(child.exit_code, kCrashExitCode);
  const std::size_t hang = child.err.find("fault-injection: member-hang");
  ASSERT_NE(hang, std::string::npos) << child.err;
  EXPECT_NE(child.err.find("fault-injection: cluster-member-crash", hang),
            std::string::npos)
      << child.err;
}

TEST_F(FaultTriggers, MemberHangSuppressesHeartbeatsOnceFired) {
  arm(parse_fault_spec("member-hang:member=0,after-events=2"), 0, 0);
  EXPECT_EQ(fired_count(FaultKind::MemberHang), 0);
  hit(Site::EventAdmitted);  // event 1
  EXPECT_EQ(fired_count(FaultKind::MemberHang), 0);
  testing::internal::CaptureStderr();
  hit(Site::EventAdmitted);  // event 2: the hang latches
  EXPECT_NE(testing::internal::GetCapturedStderr().find(
                "fault-injection: member-hang"),
            std::string::npos);
  EXPECT_GT(fired_count(FaultKind::MemberHang), 0);
  EXPECT_EQ(fired_count(FaultKind::MemberHang), 1);
  // Latched for the life of the process (until disarm): the daemon
  // keeps serving but goes silent on the control channel.
  hit(Site::EventAdmitted);
  EXPECT_GT(fired_count(FaultKind::MemberHang), 0);
  EXPECT_EQ(fired_count(FaultKind::MemberHang), 1);
  disarm();
  EXPECT_EQ(fired_count(FaultKind::MemberHang), 0);
}

TEST_F(FaultTriggers, TornWriteTearsItsFileOnce) {
  arm(parse_fault_spec("torn-write:shard=0,file=a.txt,keep=0.25"), 0, 0);
  std::string other = "12345678";
  EXPECT_FALSE(hit(Site::ArtifactWrite, "b.txt", &other).fired);
  EXPECT_EQ(other, "12345678");
  std::string target = "12345678";
  EXPECT_TRUE(hit(Site::ArtifactWrite, "a.txt", &target).fired);
  EXPECT_EQ(target, "12");
  std::string again = "abcd";
  EXPECT_FALSE(hit(Site::ArtifactWrite, "a.txt", &again).fired);  // fire-once
  EXPECT_EQ(again, "abcd");
  EXPECT_EQ(fired_count(FaultKind::TornWrite), 1);
}

TEST_F(FaultTriggers, EveryFiredRuleLogsItsKindName) {
  arm(parse_fault_spec("torn-write:shard=0,file=a;hang:shard=0,seconds=0"),
      0, 0);
  std::string content = "1234";
  testing::internal::CaptureStderr();
  hit(Site::ArtifactWrite, "a", &content);
  hit(Site::Publish);
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("fault-injection: torn-write at artifact 1 (shard 0)"),
            std::string::npos)
      << log;
  EXPECT_NE(log.find("fault-injection: hang at publish 1 (shard 0)"),
            std::string::npos)
      << log;
}

TEST_F(FaultTriggers, TwoTornWriteRulesTearSuccessiveWrites) {
  arm(parse_fault_spec("torn-write:shard=0,file=a;"
                       "torn-write:shard=0,file=a,keep=0"),
      0, 0);
  std::string first = "1234";
  EXPECT_TRUE(hit(Site::ArtifactWrite, "a", &first).fired);
  EXPECT_EQ(first, "12");  // default keep=0.5, first rule in spec order
  std::string second = "1234";
  EXPECT_TRUE(hit(Site::ArtifactWrite, "a", &second).fired);
  EXPECT_EQ(second, "");
  EXPECT_EQ(fired_count(FaultKind::TornWrite), 2);
}

TEST_F(FaultTriggers, HangStallsTheFirstPublishOnly) {
  arm(parse_fault_spec("hang:shard=0,seconds=0.2"), 0, 0);
  EXPECT_GE(seconds_for([] { hit(Site::Publish); }), 0.2);
  EXPECT_EQ(fired_count(FaultKind::Hang), 1);
  EXPECT_LT(seconds_for([] { hit(Site::Publish); }), 0.2);  // fire-once
  EXPECT_EQ(fired_count(FaultKind::Hang), 1);

  // A zero-second hang still fires; it just publishes at once.
  arm(parse_fault_spec("hang:shard=0,seconds=0"), 0, 0);
  hit(Site::Publish);
  EXPECT_EQ(fired_count(FaultKind::Hang), 1);
}

TEST_F(FaultTriggers, SlowClientStallsTheFirstEventsApplies) {
  arm(parse_fault_spec("slow-client:ms=60,events=2"), 0, 0);
  EXPECT_GE(seconds_for([] { hit(Site::Apply); }), 0.06);
  EXPECT_GE(seconds_for([] { hit(Site::Apply); }), 0.06);
  EXPECT_LT(seconds_for([] { hit(Site::Apply); }), 0.06);
  // A throttle shapes every apply in its window but never counts as
  // fired.
  EXPECT_EQ(fired_count(FaultKind::SlowClient), 0);

  arm(parse_fault_spec("slow-client:ms=20"), 0, 0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_GE(seconds_for([] { hit(Site::Apply); }), 0.02);
  }
}

TEST_F(FaultTriggers, LinkDropRuleFiresAtTheConfiguredRecord) {
  arm(parse_fault_spec("repl-link-drop:after-records=2"), 0, 0);
  EXPECT_FALSE(hit(Site::RecordForwarded).drop);
  testing::internal::CaptureStderr();
  Effect second = hit(Site::RecordForwarded);
  EXPECT_NE(testing::internal::GetCapturedStderr().find(
                "fault-injection: repl-link-drop"),
            std::string::npos);
  EXPECT_TRUE(second.drop);
  EXPECT_EQ(second.partition_ms, 0);
  // Fire-once: the third forwarded record is clean.
  EXPECT_FALSE(hit(Site::RecordForwarded).drop);
  EXPECT_EQ(fired_count(FaultKind::ReplLinkDrop), 1);
}

TEST_F(FaultTriggers, PartitionRuleCarriesItsDuration) {
  arm(parse_fault_spec("repl-partition:after-records=1,ms=123"), 0, 0);
  testing::internal::CaptureStderr();
  Effect fault = hit(Site::RecordForwarded);
  EXPECT_NE(testing::internal::GetCapturedStderr().find(
                "fault-injection: repl-partition"),
            std::string::npos);
  EXPECT_FALSE(fault.drop);
  EXPECT_EQ(fault.partition_ms, 123);
  EXPECT_EQ(fired_count(FaultKind::ReplPartition), 1);
}

TEST_F(FaultTriggers, LinkRulesDueAtOneRecordFireInSpecOrder) {
  // One link fault per record: the first rule in spec order fires, the
  // other stays due and fires at the next record.
  arm(parse_fault_spec("repl-partition:after-records=1,ms=77;"
                       "repl-link-drop:after-records=1"),
      0, 0);
  Effect first = hit(Site::RecordForwarded);
  EXPECT_FALSE(first.drop);
  EXPECT_EQ(first.partition_ms, 77);
  Effect second = hit(Site::RecordForwarded);
  EXPECT_TRUE(second.drop);
  EXPECT_EQ(second.partition_ms, 0);
  Effect third = hit(Site::RecordForwarded);
  EXPECT_FALSE(third.drop);
  EXPECT_EQ(third.partition_ms, 0);
  EXPECT_EQ(fired_count(FaultKind::ReplPartition), 1);
  EXPECT_EQ(fired_count(FaultKind::ReplLinkDrop), 1);

  arm(parse_fault_spec("repl-link-drop:after-records=1;"
                       "repl-partition:after-records=1,ms=77"),
      0, 0);
  first = hit(Site::RecordForwarded);
  EXPECT_TRUE(first.drop);
  EXPECT_EQ(first.partition_ms, 0);
  second = hit(Site::RecordForwarded);
  EXPECT_FALSE(second.drop);
  EXPECT_EQ(second.partition_ms, 77);
}

TEST_F(FaultTriggers, RouteDropFiresOnceAtTheConfiguredRequest) {
  arm(parse_fault_spec("route-drop:after-requests=3"), -1, -1);
  EXPECT_FALSE(hit(Site::RequestForwarded).drop);  // request 1
  EXPECT_FALSE(hit(Site::RequestForwarded).drop);  // request 2
  testing::internal::CaptureStderr();
  EXPECT_TRUE(hit(Site::RequestForwarded).drop);  // request 3: fires
  EXPECT_NE(testing::internal::GetCapturedStderr().find(
                "fault-injection: route-drop"),
            std::string::npos);
  EXPECT_FALSE(hit(Site::RequestForwarded).drop);  // fire-once
  EXPECT_EQ(fired_count(FaultKind::RouteDrop), 1);
}

TEST_F(FaultTriggers, EachSiteCountsItsOwnHits) {
  arm(parse_fault_spec("serve-crash:after-events=100;"
                       "repl-link-drop:after-records=2;"
                       "route-drop:after-requests=2"),
      0, 0);
  for (int i = 0; i < 5; ++i) hit(Site::EventAdmitted);
  EXPECT_FALSE(hit(Site::RequestForwarded).drop);
  EXPECT_FALSE(hit(Site::RecordForwarded).drop);
  EXPECT_TRUE(hit(Site::RecordForwarded).drop);
  EXPECT_TRUE(hit(Site::RequestForwarded).drop);
  EXPECT_EQ(fired_count(FaultKind::ServeCrash), 0);
}

}  // namespace
}  // namespace provmark::util::fault
