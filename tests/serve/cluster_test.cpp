// Cluster routing unit tests (src/serve/cluster.h): session-to-member
// hashing, the member path layout and router stats text. The cluster
// fault kinds are covered in tests/util/fault_test.cpp. The end-to-end
// router — SIGKILL recovery, busy windows, digest identity — is
// tests/serve/router_test.cpp, over real forked processes.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "serve/cluster.h"

namespace provmark::serve {
namespace {

TEST(ClusterRouting, MemberForIsDeterministicAndInRange) {
  const std::vector<std::string> sessions = {
      "alice", "bob", "carol", "session-0", "session-1", "s", "",
      "a-very-long-session-identifier-with-structure-00042"};
  for (int members : {1, 2, 3, 5, 8}) {
    for (const std::string& session : sessions) {
      const int m = member_for(session, members);
      EXPECT_GE(m, 0);
      EXPECT_LT(m, members);
      // Stable across calls — the fairness gate and the unsharded
      // reference reconstruction both re-derive this mapping.
      EXPECT_EQ(m, member_for(session, members));
    }
  }
  // Everything lands on member 0 when there is only one member.
  for (const std::string& session : sessions) {
    EXPECT_EQ(member_for(session, 1), 0);
  }
}

TEST(ClusterRouting, MemberForSpreadsSessionsAcrossMembers) {
  // 64 generator-style session ids over 3 members: every member owns
  // some sessions and no member owns almost all of them. The hash is
  // fixed (util::stable_hash), so this is a deterministic check, not a
  // statistical one.
  const int members = 3;
  std::map<int, int> owned;
  for (int i = 0; i < 64; ++i) {
    ++owned[member_for("session-" + std::to_string(i), members)];
  }
  ASSERT_EQ(owned.size(), static_cast<std::size_t>(members));
  for (const auto& [member, count] : owned) {
    EXPECT_GE(count, 8) << "member " << member << " owns too few";
    EXPECT_LE(count, 40) << "member " << member << " owns too many";
  }
}

TEST(ClusterRouting, MemberPathsFollowTheDocumentedLayout) {
  const std::filesystem::path root = "/tmp/cluster-root";
  EXPECT_EQ(member_root(root, 0), root / "member-0");
  EXPECT_EQ(member_root(root, 2), root / "member-2");
  EXPECT_EQ(member_socket_path(root, 0), (root / "member-0.sock").string());
  EXPECT_EQ(member_socket_path(root, 11),
            (root / "member-11.sock").string());
}

TEST(ClusterRouting, RouterStatsRendersValuesAndMemberRows) {
  RouterStats stats;
  stats.cluster_members = 2;
  stats.members_up = 1;
  stats.member_restarts = 3;
  stats.routed_events = 40;
  stats.busy_member_down = 7;
  stats.members.resize(2);
  stats.members[0].state = "up";
  stats.members[0].routed = 25;
  stats.members[1].state = "backoff";
  stats.members[1].routed = 15;

  const std::string text = stats.to_text();
  EXPECT_NE(text.find("cluster_role=router\n"), std::string::npos);
  EXPECT_NE(text.find("cluster_members=2\n"), std::string::npos);
  EXPECT_NE(text.find("members_up=1\n"), std::string::npos);
  EXPECT_NE(text.find("member_restarts=3\n"), std::string::npos);
  EXPECT_NE(text.find("routed_events=40\n"), std::string::npos);
  EXPECT_NE(text.find("busy_member_down=7\n"), std::string::npos);
  EXPECT_NE(text.find("member0_state=up\n"), std::string::npos);
  EXPECT_NE(text.find("member0_routed=25\n"), std::string::npos);
  EXPECT_NE(text.find("member1_state=backoff\n"), std::string::npos);
  EXPECT_NE(text.find("member1_routed=15\n"), std::string::npos);
}

}  // namespace
}  // namespace provmark::serve
