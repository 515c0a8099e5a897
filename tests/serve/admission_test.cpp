// Admission never waits on apply work, checked against a forked daemon
// whose apply worker stalls one second per event (`slow-client`
// fault). While the first stall is still running, every event the
// client sends must already have its answer: high/normal events ack,
// and once the backlog crosses the watermark low-priority events shed
// (`feed` exits 3). The stall hides nothing: the quiet session's first
// fact lands as soon as its apply finishes.
//
// The gate counts applies instead of timing acks. If admission waited
// for applies, most of the eight acked events would have applied by the
// time the last answer arrived. A correct daemon could only fail it by
// taking longer than two stalls (2 s) to answer 32 requests.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness.h"

namespace provmark::serve {
namespace {

using namespace harness;

TEST(ServeAdmission, StalledAppliesDelayNoAckAndLowPriorityShedsFirst) {
  TempDir dir("admission");
  const std::string socket = (dir.path / "d.sock").string();
  DaemonOptions options = daemon_options(dir.path / "root", socket);
  options.service.global_queue_cap = 16;
  options.service.session_queue_cap = 16;
  Child daemon =
      fork_daemon(options, "slow-client:ms=1000", dir.path / "daemon.log");
  ASSERT_TRUE(daemon.running());
  ASSERT_TRUE(wait_until([&] { return daemon_ready(socket); }, 10000));

  // Eight events queue behind the stalled worker; all ack.
  std::vector<std::string> quiet = {"event quiet fact high edge(q1,q2)."};
  for (int i = 2; i <= 8; ++i) {
    quiet.push_back("event quiet fact normal edge(q" + std::to_string(i) +
                    ",q" + std::to_string(i + 1) + ").");
  }
  std::string acks;
  ASSERT_EQ(feed_lines(socket, quiet, &acks), 0) << acks;
  std::istringstream ack_lines(acks);
  std::string line;
  for (int seq = 1; seq <= 8; ++seq) {
    ASSERT_TRUE(std::getline(ack_lines, line));
    EXPECT_EQ(line, "ok " + std::to_string(seq));
  }

  // A low-priority burst at a backlog of cap/2 or more is shed.
  std::vector<std::string> noisy;
  for (int i = 1; i <= 24; ++i) {
    noisy.push_back("event noisy fact low x" + std::to_string(i) + "(a).");
  }
  std::string answers;
  EXPECT_EQ(feed_lines(socket, noisy, &answers), 3);
  std::istringstream answer_lines(answers);
  int shed = 0;
  while (std::getline(answer_lines, line)) {
    if (line == "shed") {
      ++shed;
    } else {
      EXPECT_EQ(line.rfind("ok ", 0), 0u) << line;
    }
  }
  EXPECT_GE(shed, 1);

  const auto stats = stats_of(socket);
  EXPECT_LE(stat(stats, "applied"), 1);
  EXPECT_EQ(stat(stats, "shed_low"), shed);
  EXPECT_EQ(stat(stats, "admitted"), 8 + 24 - shed);

  // The quiet session's first fact survives the overload.
  EXPECT_TRUE(wait_until(
      [&] {
        return feed_one(socket, "dump quiet 10000").find("edge(q1,q2)") !=
               std::string::npos;
      },
      10000));

  // SIGKILL: a graceful drain would sit out every stalled apply.
  daemon.kill();
}

}  // namespace
}  // namespace provmark::serve
