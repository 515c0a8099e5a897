// DaemonSupervisor state-machine tests (src/core/supervise.h): the
// long-lived-daemon generalization of the sweep supervisor, driven
// here by a scripted host with a virtual clock so every deadline and
// backoff decision is checked exactly — no sleeps, no real processes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/supervise.h"

namespace provmark::core {
namespace {

/// Scripted DaemonHost: spawns hand out sequential tokens, kills and
/// notes are recorded, time is a plain member the test advances.
class ScriptedHost : public DaemonHost {
 public:
  std::int64_t now = 0;
  std::uint64_t next_token = 100;
  bool fail_spawns = false;

  struct Spawn {
    int member;
    int incarnation;
    std::uint64_t token;
  };
  std::vector<Spawn> spawns;
  std::vector<std::uint64_t> kills;
  std::vector<std::string> notes;

  std::uint64_t spawn_member(int member, int incarnation) override {
    if (fail_spawns) return 0;
    const std::uint64_t token = next_token++;
    spawns.push_back(Spawn{member, incarnation, token});
    return token;
  }
  void kill_member(std::uint64_t token) override { kills.push_back(token); }
  std::int64_t now_ms() override { return now; }
  void note(const std::string& message) override {
    notes.push_back(message);
  }
};

DaemonPolicy test_policy() {
  DaemonPolicy policy;
  policy.seed = 7;
  policy.backoff_base_ms = 100;
  policy.backoff_cap_ms = 5'000;
  policy.heartbeat_deadline_ms = 1'000;
  policy.start_deadline_ms = 3'000;
  return policy;
}

TEST(DaemonSupervisor, StartSpawnsEveryMemberAndHeartbeatsBringThemUp) {
  ScriptedHost host;
  DaemonSupervisor supervisor(3, host, test_policy());
  supervisor.start();

  ASSERT_EQ(host.spawns.size(), 3u);
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(host.spawns[static_cast<std::size_t>(m)].member, m);
    EXPECT_EQ(host.spawns[static_cast<std::size_t>(m)].incarnation, 0);
    EXPECT_EQ(supervisor.state(m), MemberState::Starting);
    EXPECT_EQ(supervisor.member_of(supervisor.token(m)), m);
  }
  EXPECT_EQ(supervisor.members_up(), 0);

  for (int m = 0; m < 3; ++m) supervisor.heartbeat(m);
  EXPECT_EQ(supervisor.members_up(), 3);
  EXPECT_EQ(supervisor.total_restarts(), 0);
  EXPECT_EQ(supervisor.hung_kills(), 0);
}

TEST(DaemonSupervisor, DeathSchedulesTheExactSeededBackoff) {
  ScriptedHost host;
  const DaemonPolicy policy = test_policy();
  DaemonSupervisor supervisor(2, host, policy);
  supervisor.start();
  supervisor.heartbeat(0);
  supervisor.heartbeat(1);

  // Member 1's process dies (SIGKILL). The restart delay must be the
  // sweep supervisor's envelope, keyed by (member, streak) — not a
  // private reimplementation.
  supervisor.member_exited(supervisor.token(1), /*signaled=*/true, 9);
  EXPECT_EQ(supervisor.state(1), MemberState::Backoff);
  EXPECT_EQ(supervisor.token(1), 0u);

  const std::int64_t delay = backoff_ms(policy.seed, 1, 1,
                                       policy.backoff_base_ms,
                                       policy.backoff_cap_ms);

  // One tick early: nothing respawns.
  host.now = delay - 1;
  supervisor.tick();
  EXPECT_EQ(host.spawns.size(), 2u);
  EXPECT_EQ(supervisor.next_deadline_ms(10'000), 1);

  // At the deadline: incarnation 1 spawns and must prove itself again.
  host.now = delay;
  supervisor.tick();
  ASSERT_EQ(host.spawns.size(), 3u);
  EXPECT_EQ(host.spawns[2].member, 1);
  EXPECT_EQ(host.spawns[2].incarnation, 1);
  EXPECT_EQ(supervisor.state(1), MemberState::Starting);
  EXPECT_EQ(supervisor.incarnation(1), 1);
  EXPECT_EQ(supervisor.total_restarts(), 1);
  // Member 0 was untouched throughout.
  EXPECT_EQ(supervisor.state(0), MemberState::Up);
}

TEST(DaemonSupervisor, HeartbeatSilencePastTheDeadlineKills) {
  ScriptedHost host;
  DaemonSupervisor supervisor(1, host, test_policy());
  supervisor.start();
  supervisor.heartbeat(0);

  // Beats keep arriving: the deadline keeps sliding, no kill.
  for (int t = 0; t < 5; ++t) {
    host.now += 500;
    supervisor.heartbeat(0);
    supervisor.tick();
  }
  EXPECT_TRUE(host.kills.empty());

  // Then silence: 1000 ms after the last beat the member is declared
  // hung, killed, and the corpse (delivered later) schedules a restart.
  const std::uint64_t token = supervisor.token(0);
  host.now += 1'000;
  supervisor.tick();
  ASSERT_EQ(host.kills.size(), 1u);
  EXPECT_EQ(host.kills[0], token);
  EXPECT_EQ(supervisor.state(0), MemberState::Stopping);
  EXPECT_EQ(supervisor.hung_kills(), 1);

  supervisor.member_exited(token, /*signaled=*/true, 9);
  EXPECT_EQ(supervisor.state(0), MemberState::Backoff);
}

TEST(DaemonSupervisor, OverdueStartIsAlsoAHungKill) {
  ScriptedHost host;
  DaemonSupervisor supervisor(1, host, test_policy());
  supervisor.start();
  // No heartbeat ever arrives (replay wedged before the bind).
  host.now = 3'000;
  supervisor.tick();
  ASSERT_EQ(host.kills.size(), 1u);
  EXPECT_EQ(supervisor.state(0), MemberState::Stopping);
  EXPECT_EQ(supervisor.hung_kills(), 1);
}

TEST(DaemonSupervisor, ReachingUpResetsTheFailureStreak) {
  ScriptedHost host;
  DaemonPolicy policy = test_policy();
  policy.max_restarts = 2;
  DaemonSupervisor supervisor(1, host, policy);
  supervisor.start();

  // Two consecutive dead-on-arrival incarnations burn the streak to 2.
  for (int round = 0; round < 2; ++round) {
    supervisor.member_exited(supervisor.token(0), false, 1);
    host.now += 100'000;
    supervisor.tick();
    ASSERT_EQ(supervisor.state(0), MemberState::Starting);
  }
  // The third incarnation comes up: the streak resets, so the next
  // death starts a fresh budget instead of tripping max_restarts.
  supervisor.heartbeat(0);
  EXPECT_EQ(supervisor.state(0), MemberState::Up);

  supervisor.member_exited(supervisor.token(0), true, 9);
  EXPECT_EQ(supervisor.state(0), MemberState::Backoff);
  host.now += 100'000;
  supervisor.tick();
  EXPECT_EQ(supervisor.state(0), MemberState::Starting);
}

TEST(DaemonSupervisor, ExhaustedRestartBudgetMarksTheMemberFailed) {
  ScriptedHost host;
  DaemonPolicy policy = test_policy();
  policy.max_restarts = 1;
  DaemonSupervisor supervisor(1, host, policy);
  supervisor.start();

  supervisor.member_exited(supervisor.token(0), false, 70);  // streak 1
  host.now += 100'000;
  supervisor.tick();
  ASSERT_EQ(supervisor.state(0), MemberState::Starting);
  supervisor.member_exited(supervisor.token(0), false, 70);  // streak 2 > 1

  EXPECT_EQ(supervisor.state(0), MemberState::Failed);
  EXPECT_EQ(supervisor.members_up(), 0);
  // Failed is terminal: time passing spawns nothing new.
  host.now += 1'000'000;
  supervisor.tick();
  EXPECT_EQ(host.spawns.size(), 2u);
}

TEST(DaemonSupervisor, FailedSpawnCountsAsAnInstantDeath) {
  ScriptedHost host;
  host.fail_spawns = true;
  DaemonSupervisor supervisor(1, host, test_policy());
  supervisor.start();
  EXPECT_EQ(supervisor.state(0), MemberState::Backoff);
  EXPECT_EQ(supervisor.token(0), 0u);

  // The host recovers; the rescheduled launch succeeds.
  host.fail_spawns = false;
  host.now += 100'000;
  supervisor.tick();
  EXPECT_EQ(supervisor.state(0), MemberState::Starting);
  EXPECT_EQ(supervisor.incarnation(0), 1);
}

TEST(DaemonSupervisor, StaleCorpsesAndStrayHeartbeatsAreIgnored) {
  ScriptedHost host;
  DaemonSupervisor supervisor(1, host, test_policy());
  supervisor.start();
  const std::uint64_t old_token = supervisor.token(0);
  supervisor.member_exited(old_token, true, 9);
  host.now += 100'000;
  supervisor.tick();
  ASSERT_EQ(supervisor.state(0), MemberState::Starting);

  // The old incarnation's token resolves to no member now; a second
  // report of the same corpse must not touch the new incarnation.
  EXPECT_EQ(supervisor.member_of(old_token), -1);
  supervisor.member_exited(old_token, true, 9);
  EXPECT_EQ(supervisor.state(0), MemberState::Starting);

  // A buffered heartbeat byte from the corpse (same member id) brings
  // the *new* incarnation up — that is correct and harmless: the pipe
  // it arrived on belongs to the new incarnation's control channel.
  supervisor.heartbeat(0);
  EXPECT_EQ(supervisor.state(0), MemberState::Up);
}

TEST(DaemonSupervisor, NextDeadlineTracksTheSoonestTimer) {
  ScriptedHost host;
  const DaemonPolicy policy = test_policy();
  DaemonSupervisor supervisor(2, host, policy);
  supervisor.start();
  // Both Starting: the poll timeout is the start deadline.
  EXPECT_EQ(supervisor.next_deadline_ms(60'000), policy.start_deadline_ms);
  // Capped when the caller's budget is smaller.
  EXPECT_EQ(supervisor.next_deadline_ms(200), 200);

  supervisor.heartbeat(0);
  supervisor.heartbeat(1);
  EXPECT_EQ(supervisor.next_deadline_ms(60'000),
            policy.heartbeat_deadline_ms);
}

}  // namespace
}  // namespace provmark::core
