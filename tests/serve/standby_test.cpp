// A forked primary daemon and a forked hot standby over AF_UNIX, fed
// through the real `run_feed` client. Every scenario waits on the
// primary's health keys (`repl_connected`, `repl_lag_events`) and
// never sleeps blind:
//
//   * async and sync acks: 200 facts over four sessions all ack, and
//     the standby catches up to zero lag;
//   * repl-link-drop: the primary severs the link after its 3rd
//     forwarded record; the standby reconnects and resyncs;
//   * repl-partition: the link is black-holed for 400 ms after its 2nd
//     forwarded record; the standby's missed-heartbeat budget
//     reconnects it, and it answers the primary's digest;
//   * replica-crash: the standby dies after journaling its 4th record
//     without acking it; a restarted standby resyncs, and once the
//     primary is SIGKILLed the promoted standby answers every digest
//     exactly as a fresh service fed the primary's journal does.
//
// The plain SIGKILL-and-promote identity check is
// ReplicationDaemon.SigkillPrimaryPromoteStandbyServesIdentically in
// replication_test.cpp.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "harness.h"

namespace provmark::serve {
namespace {

using namespace harness;

class Standby : public ::testing::Test {
 protected:
  /// Fork the primary, then the standby, and wait until the standby's
  /// link is up. Each daemon arms its own fault spec.
  void start(const std::string& primary_fault = "",
             const std::string& standby_fault = "", bool sync = false) {
    DaemonOptions primary = daemon_options(dir_.path / "pj", p_sock_);
    primary.repl_sync = sync;
    primary_.emplace(fork_daemon(primary, primary_fault, p_log_));
    ASSERT_TRUE(wait_until([&] { return daemon_ready(p_sock_); }, 10000));
    start_standby(standby_fault);
    ASSERT_TRUE(wait_until(
        [&] { return stat(stats_of(p_sock_), "repl_connected") == 1; },
        10000));
  }

  void start_standby(const std::string& fault = "") {
    DaemonOptions standby = daemon_options(dir_.path / "rj", r_sock_);
    standby.replica_of = p_sock_;
    standby_.emplace(fork_daemon(standby, fault, dir_.path / "standby.log"));
  }

  /// 200 facts round-robin over four sessions through the primary.
  void feed_facts_and_catch_up() {
    std::vector<std::string> lines;
    for (int i = 0; i < 200; ++i) {
      lines.push_back(format_request(event_request(
          "s" + std::to_string(i % 4), EventKind::Fact,
          "edge(n" + std::to_string(i) + ",n" + std::to_string(i + 1) +
              ").")));
    }
    std::string acks;
    EXPECT_EQ(feed_lines(p_sock_, lines, &acks), 0) << acks;
    EXPECT_TRUE(wait_until([&] { return caught_up(p_sock_); }, 30000));
  }

  TempDir dir_{::testing::UnitTest::GetInstance()->current_test_info()->name()};
  const std::string p_sock_ = (dir_.path / "p.sock").string();
  const std::string r_sock_ = (dir_.path / "r.sock").string();
  const fs::path p_log_ = dir_.path / "primary.log";
  std::optional<Child> primary_;
  std::optional<Child> standby_;
};

TEST_F(Standby, AsyncAcksEveryEventAndTheStandbyCatchesUp) {
  ASSERT_NO_FATAL_FAILURE(start());
  feed_facts_and_catch_up();
}

TEST_F(Standby, SyncAcksEveryEventOnceTheStandbyHoldsIt) {
  ASSERT_NO_FATAL_FAILURE(start("", "", /*sync=*/true));
  feed_facts_and_catch_up();
}

TEST_F(Standby, LinkDropReconnectsAndResyncsToZeroLag) {
  ASSERT_NO_FATAL_FAILURE(start("repl-link-drop:after-records=3"));
  for (int i = 0; i < 6; ++i) {
    const std::string line = feed_one(
        p_sock_, "event s fact normal edge(d" + std::to_string(i) + ",x).");
    EXPECT_EQ(line, "ok " + std::to_string(i + 1));
  }
  EXPECT_TRUE(wait_until([&] { return caught_up(p_sock_); }, 30000));
  EXPECT_TRUE(log_contains(p_log_, "fault-injection: repl-link-drop"));
}

TEST_F(Standby, PartitionHealsToZeroLagAndTheStandbyAnswersTheSameDigest) {
  ASSERT_NO_FATAL_FAILURE(
      start("repl-partition:after-records=2,ms=400"));
  for (int i = 1; i <= 10; ++i) {
    const std::string line =
        feed_one(p_sock_, "event alice fact normal edge(p" +
                              std::to_string(i) + ",q" + std::to_string(i) +
                              ").");
    EXPECT_EQ(line, "ok " + std::to_string(i));
  }
  EXPECT_TRUE(wait_until([&] { return caught_up(p_sock_); }, 30000));
  EXPECT_TRUE(log_contains(p_log_, "fault-injection: repl-partition"));

  // Both sides apply on their own workers: compare once both are idle.
  ASSERT_TRUE(wait_until(
      [&] { return drained(p_sock_) && drained(r_sock_); }, 10000));
  const std::string digest = feed_one(p_sock_, "digest alice 10000");
  ASSERT_EQ(digest.rfind("result ", 0), 0u) << digest;
  EXPECT_EQ(feed_one(r_sock_, "digest alice 10000"), digest);
}

TEST_F(Standby, ReplicaCrashRestartResyncsAndFailoverStaysIdentical) {
  ASSERT_NO_FATAL_FAILURE(start("", "replica-crash:after-records=4"));
  for (const auto& [kind, payload] : make_stream(7)) {
    feed_one(p_sock_, format_request(event_request("s", kind, payload)));
  }
  const int status = standby_->wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), util::fault::kCrashExitCode);

  start_standby();
  EXPECT_TRUE(wait_until([&] { return caught_up(p_sock_); }, 30000));
  primary_->kill();
  ASSERT_EQ(feed_one(r_sock_, "promote"), "result promoted");
  ASSERT_TRUE(wait_until([&] { return drained(r_sock_); }, 10000));

  TempDir ref_dir("standby_ref");
  Service reference(test_options(ref_dir.path));
  ASSERT_TRUE(replay_journal(reference, dir_.path / "pj", "s"));
  reference.pump();
  expect_digests_match(reference, {"s"}, r_sock_);
}

}  // namespace
}  // namespace provmark::serve
