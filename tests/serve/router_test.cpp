// A forked `run_cluster` router over three forked member daemons, fed
// through the real `run_feed` client with restart-window retries:
//
//   * routing: generator-seeded sessions, at least one per member, all
//     ack; every member is forwarded at least its hash share, and every
//     session's digest through the router equals one unsharded service
//     fed the same streams;
//   * member kill: after most of every stream is in, each member in
//     turn is SIGKILLed and the rest of the sessions it owns is fed into
//     its restart window. Every event still acks, the down window is
//     answered `busy` (never dropped), every member restarts and
//     replays its journals, every fed fact is in its session's dump,
//     and digests match both the stream-fed reference and one rebuilt
//     from the members' journals;
//   * chaos: cluster-member-crash, member-hang and route-drop armed at
//     once. Each fires, the cluster heals, and digests match the
//     journal-rebuilt reference. That reference and not the stream is
//     the identity here: a member that dies between journal fsync and
//     ack gets the event re-sent (delivery is at-least-once), and a
//     re-sent run lands a second result graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"

namespace provmark::serve {
namespace {

using namespace harness;

constexpr int kMembers = 3;

/// Retries that ride out any member restart window in these tests.
FeedOptions retrying() {
  FeedOptions options;
  options.retries = 60;
  options.backoff_base_ms = 5;
  options.backoff_cap_ms = 100;
  return options;
}

/// At least `minimum` session ids, and at least one owned by every
/// member (member_for is a fixed hash, so the list is deterministic).
std::vector<std::string> make_sessions(int minimum) {
  std::vector<std::string> sessions;
  std::vector<int> owned(kMembers, 0);
  for (int i = 0; static_cast<int>(sessions.size()) < minimum ||
                  *std::min_element(owned.begin(), owned.end()) == 0;
       ++i) {
    const std::string session = "session-" + std::to_string(i);
    ++owned[static_cast<std::size_t>(member_for(session, kMembers))];
    sessions.push_back(session);
  }
  return sessions;
}

class Router : public ::testing::Test {
 protected:
  void start(const std::string& fault_spec = "") {
    ClusterOptions options = cluster_options(root_, socket_, kMembers);
    options.fault_spec = fault_spec;
    router_.emplace(fork_cluster(options, log_));
    ASSERT_TRUE(wait_until([&] { return members_up() == kMembers; }, 30000));
    sessions_ = make_sessions(9);
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      streams_[sessions_[i]] = make_stream(i + 1);
    }
  }

  std::int64_t members_up() {
    return stat(stats_of(socket_, retrying()), "members_up");
  }

  /// Feed events [from, to) of each of `sessions`' streams through the
  /// router, session-major.
  int feed(const std::vector<std::string>& sessions, std::size_t from = 0,
           std::size_t to = 5) {
    std::vector<std::string> lines;
    for (const std::string& session : sessions) {
      const Stream& stream = streams_[session];
      for (std::size_t i = from; i < to && i < stream.size(); ++i) {
        lines.push_back(format_request(
            event_request(session, stream[i].first, stream[i].second)));
      }
    }
    std::string responses;
    return feed_lines(socket_, lines, &responses, retrying());
  }

  /// Every member idle, asked on its own socket (the router answers
  /// `stats` itself).
  bool members_drained() {
    for (int m = 0; m < kMembers; ++m) {
      if (!drained(member_socket_path(root_, m), retrying())) return false;
    }
    return true;
  }

  /// Routed digests equal one unsharded service fed the same streams.
  void expect_stream_reference() {
    TempDir ref_dir("router_stream_ref");
    Service reference(test_options(ref_dir.path));
    for (const std::string& session : sessions_) {
      for (const auto& [kind, payload] : streams_[session]) {
        ASSERT_EQ(reference.submit(event_request(session, kind, payload))
                      .status,
                  Status::Ok);
      }
    }
    reference.pump();
    expect_digests_match(reference, sessions_, socket_, retrying());
  }

  /// Routed digests equal one unsharded service fed every member's
  /// journal (each session lives in exactly one member root).
  void expect_journal_reference() {
    TempDir ref_dir("router_journal_ref");
    Service reference(test_options(ref_dir.path));
    std::vector<std::string> sessions;
    for (int m = 0; m < kMembers; ++m) {
      const fs::path root = member_root(root_, m);
      for (const std::string& session : list_sessions(root)) {
        sessions.push_back(session);
        ASSERT_TRUE(replay_journal(reference, root, session)) << session;
      }
    }
    reference.pump();
    std::sort(sessions.begin(), sessions.end());
    std::vector<std::string> fed = sessions_;
    std::sort(fed.begin(), fed.end());
    EXPECT_EQ(sessions, fed);
    expect_digests_match(reference, sessions, socket_, retrying());
  }

  /// The pid of member `m`'s live incarnation, from the router's log.
  pid_t member_pid(int m) {
    std::ifstream in(log_);
    std::string line;
    pid_t pid = -1;
    while (std::getline(in, line)) {
      int member = -1;
      int incarnation = -1;
      int spawned = -1;
      if (std::sscanf(line.c_str(),
                      "cluster: member %d incarnation %d spawned (pid %d)",
                      &member, &incarnation, &spawned) == 3 &&
          member == m) {
        pid = static_cast<pid_t>(spawned);
      }
    }
    return pid;
  }

  TempDir dir_{::testing::UnitTest::GetInstance()->current_test_info()->name()};
  const fs::path root_ = dir_.path / "cluster";
  const std::string socket_ = (dir_.path / "front.sock").string();
  const fs::path log_ = dir_.path / "cluster.log";
  std::optional<Child> router_;
  std::vector<std::string> sessions_;
  std::map<std::string, Stream> streams_;
};

TEST_F(Router, EveryMemberGetsItsShareAndDigestsMatchOneDaemon) {
  ASSERT_NO_FATAL_FAILURE(start());
  ASSERT_EQ(feed(sessions_), 0);

  std::vector<int> owned(kMembers, 0);
  for (const std::string& session : sessions_) {
    ++owned[static_cast<std::size_t>(member_for(session, kMembers))];
  }
  const auto stats = stats_of(socket_, retrying());
  for (int m = 0; m < kMembers; ++m) {
    EXPECT_GE(stat(stats, "member" + std::to_string(m) + "_routed"),
              5 * owned[static_cast<std::size_t>(m)])
        << "member " << m;
  }

  ASSERT_TRUE(wait_until([&] { return members_drained(); }, 30000));
  expect_stream_reference();
}

TEST_F(Router, SigkilledMembersLoseNoAckedEvent) {
  ASSERT_NO_FATAL_FAILURE(start());
  // Every session's facts, rule and run land first, so each restart
  // has a journal to replay; the last event rides the restart window.
  ASSERT_EQ(feed(sessions_, 0, 4), 0);
  for (int victim = 0; victim < kMembers; ++victim) {
    SCOPED_TRACE("member " + std::to_string(victim));
    const pid_t pid = member_pid(victim);
    ASSERT_GT(pid, 0);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);  // the router reaps it
    std::vector<std::string> owned;
    for (const std::string& session : sessions_) {
      if (member_for(session, kMembers) == victim) owned.push_back(session);
    }
    EXPECT_EQ(feed(owned, 4, 5), 0);
    ASSERT_TRUE(wait_until([&] { return members_up() == kMembers; }, 30000));
    EXPECT_TRUE(log_contains(log_, "member " + std::to_string(victim) +
                                       " incarnation 1 spawned"));
  }

  const auto stats = stats_of(socket_, retrying());
  EXPECT_EQ(stat(stats, "members_up"), kMembers);
  EXPECT_GE(stat(stats, "member_restarts"), kMembers);
  EXPECT_GT(stat(stats, "busy_member_down"), 0);

  ASSERT_TRUE(wait_until([&] { return members_drained(); }, 30000));
  for (const std::string& session : sessions_) {
    const std::string line =
        feed_one(socket_, "dump " + session + " 5000", retrying());
    ASSERT_EQ(line.rfind("result ", 0), 0u) << line;
    const std::string dump = util::unescape_field(line.substr(7));
    for (const auto& [kind, payload] : streams_[session]) {
      if (kind != EventKind::Fact) continue;
      // A fed "edge(a1,b1)." dumps as "edge(a1,b1)".
      EXPECT_NE(dump.find(payload.substr(0, payload.size() - 1)),
                std::string::npos)
          << session << " lost " << payload;
    }
  }
  expect_stream_reference();
  expect_journal_reference();
}

TEST_F(Router, MemberCrashHangAndRouteDropAllFireAndHeal) {
  // Member 1 exits after its 4th admitted event (its restart runs
  // fault-free), member 2 stops heartbeating after its 3rd and must be
  // killed at the router's deadline, and the router drops one member
  // link on its 12th forwarded request.
  ASSERT_NO_FATAL_FAILURE(start(
      "cluster-member-crash:member=1,after-events=4;"
      "member-hang:member=2,after-events=3;"
      "route-drop:after-requests=12"));
  EXPECT_EQ(feed(sessions_), 0);

  // The hung member is killed only at its heartbeat deadline, possibly
  // after the last ack: wait for both restarts.
  ASSERT_TRUE(wait_until(
      [&] {
        const auto stats = stats_of(socket_, retrying());
        return stat(stats, "hung_kills") >= 1 &&
               stat(stats, "member_restarts") >= 2 &&
               stat(stats, "members_up") == kMembers;
      },
      30000));
  EXPECT_GE(stat(stats_of(socket_, retrying()), "route_drops"), 1);
  EXPECT_TRUE(log_contains(log_, "fault-injection: cluster-member-crash"));
  EXPECT_TRUE(log_contains(log_, "fault-injection: member-hang"));
  EXPECT_TRUE(log_contains(log_, "missed its heartbeat deadline"));
  EXPECT_TRUE(log_contains(log_, "fault-injection: route-drop"));

  ASSERT_TRUE(wait_until([&] { return members_drained(); }, 30000));
  expect_journal_reference();
}

}  // namespace
}  // namespace provmark::serve
