// Health-key contract tests: the `stats` response body is a published
// monitoring interface — docs/serve.md documents the keys, the
// forked-daemon tests and external health pollers read them by name and
// rely on their order. Each daemon role has a golden key list here; renaming,
// dropping or reordering a key is a breaking change and must fail this
// test (and then be made deliberately, updating docs + scripts).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"
#include "serve/cluster.h"
#include "serve/replicate.h"
#include "serve/service.h"

namespace provmark::serve {
namespace {

namespace fs = std::filesystem;

using harness::TempDir;

/// The keys of `text`, one per `key=value` line, in order.
std::vector<std::string> keys_of(const std::string& text) {
  std::vector<std::string> keys;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      ADD_FAILURE() << "not key=value: " << line;
      continue;
    }
    keys.push_back(line.substr(0, eq));
  }
  return keys;
}

const std::vector<std::string> kServiceKeys = {
    "sessions",     "quarantined_sessions",
    "pending",      "admitted",
    "applied",      "shed_low",
    "shed_normal",  "busy",
    "rejected_quarantined", "rejected_oversized",
    "checkpoints",  "replayed_events",
    "torn_bytes_truncated"};

TEST(StatsContract, ServiceCoreKeys) {
  const std::vector<std::string> keys = keys_of(ServiceStats{}.to_text());
  EXPECT_EQ(keys, kServiceKeys);
}

TEST(StatsContract, PrimaryRole) {
  // A standalone primary (and every cluster member) reports the core
  // service keys followed by the primary replication block.
  TempDir tmp("primary");
  ServiceOptions options;
  options.root = tmp.path;
  options.workers = 0;
  Service service(options);
  PrimaryReplicator primary(service, ReplicationConfig{});

  const std::vector<std::string> keys =
      keys_of(service.stats().to_text() + primary.stats_text());

  std::vector<std::string> expected = kServiceKeys;
  const std::vector<std::string> repl = {
      "repl_role",           "repl_mode",
      "repl_connected",      "repl_lag_events",
      "repl_forwarded_records", "repl_quarantined_streams",
      "last_heartbeat_ms"};
  expected.insert(expected.end(), repl.begin(), repl.end());
  EXPECT_EQ(keys, expected);
}

TEST(StatsContract, StandbyRole) {
  TempDir tmp("standby");
  ServiceOptions options;
  options.root = tmp.path;
  options.workers = 0;
  Service service(options);
  ReplicaReplicator replica(service, ReplicationConfig{});

  const std::vector<std::string> keys =
      keys_of(service.stats().to_text() + replica.stats_text());

  std::vector<std::string> expected = kServiceKeys;
  const std::vector<std::string> repl = {
      "repl_role",         "repl_mode",
      "repl_connected",    "repl_replicated_records",
      "repl_quarantined_streams", "repl_missed_heartbeats",
      "last_heartbeat_ms"};
  expected.insert(expected.end(), repl.begin(), repl.end());
  EXPECT_EQ(keys, expected);
}

TEST(StatsContract, ClusterMemberRole) {
  // A cluster member is a primary plus the trailing cluster_member
  // line run_daemon appends (DaemonOptions::cluster_member >= 0).
  TempDir tmp("member");
  ServiceOptions options;
  options.root = tmp.path;
  options.workers = 0;
  Service service(options);
  PrimaryReplicator primary(service, ReplicationConfig{});

  const std::vector<std::string> keys = keys_of(
      service.stats().to_text() + primary.stats_text() + "cluster_member=2\n");
  ASSERT_FALSE(keys.empty());
  EXPECT_EQ(keys.back(), "cluster_member");
  EXPECT_EQ(keys.size(), kServiceKeys.size() + 7 + 1);
}

TEST(StatsContract, RouterRole) {
  RouterStats stats;
  stats.cluster_members = 2;
  stats.members.resize(2);

  const std::vector<std::string> keys = keys_of(stats.to_text());

  const std::vector<std::string> expected = {
      "cluster_role",      "cluster_members",
      "members_up",        "member_restarts",
      "hung_kills",        "routed_events",
      "routed_queries",    "proxied_responses",
      "busy_member_down",  "busy_window_full",
      "route_drops",       "heartbeats_seen",
      "member0_state",     "member0_routed",
      "member1_state",     "member1_routed"};
  EXPECT_EQ(keys, expected);
}

}  // namespace
}  // namespace provmark::serve
