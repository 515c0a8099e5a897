// The multi-process sharded sweep through the real `provmark_cli`
// binary: fork/exec shard workers, supervised retries and `merge`.
//
//   * `--shards 2` produces byte-identical files to the single-process
//     sweep;
//   * `--shards 3` with shard 1's worker crashing after its first cell
//     and shard 0 publishing a torn validation.txt still converges to
//     the single-process bytes;
//   * a torn shard handed straight to `merge` is a retryable failure,
//     exit 3 (exit 1 means a structural mismatch).
//
// CLI surface checks ride along: the removed `--matcher-order` is an
// unknown flag, every malformed flag or value exits 2 naming the flag,
// `gen` prints a program, and docs/cli.md's grammar block is exactly
// `provmark_cli --help`.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#ifndef PROVMARK_CLI
#error "PROVMARK_CLI must name the provmark_cli executable"
#endif

namespace provmark::core {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

class ShardCli : public ::testing::Test {
 protected:
  void SetUp() override {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Run `provmark_cli args...` with stdout and stderr in `log_`;
  /// returns its exit code (128 + signal when killed). A nonzero
  /// `alarm_s` kills the child (SIGALRM) after that many seconds.
  int cli(const std::vector<std::string>& args, unsigned alarm_s = 0) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      if (alarm_s > 0) ::alarm(alarm_s);
      const int fd =
          ::open(log_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      std::vector<char*> argv = {const_cast<char*>(PROVMARK_CLI)};
      for (const std::string& arg : args) {
        argv.push_back(const_cast<char*>(arg.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(PROVMARK_CLI, argv.data());
      ::_exit(127);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  }

  /// `batch spade rg <out>` with deterministic timings and `flags`.
  int sweep(const std::string& out, std::vector<std::string> flags = {}) {
    flags.insert(flags.begin(), "--deterministic-timings");
    for (const char* arg : {"batch", "spade", "rg"}) flags.push_back(arg);
    flags.push_back((dir_ / out).string());
    return cli(flags);
  }

  /// Relative path -> bytes of every file under `out`, leaving out the
  /// shard-* work directories (diff -r -x 'shard-*').
  std::map<std::string, std::string> tree(const std::string& out) {
    std::map<std::string, std::string> files;
    const fs::path root = dir_ / out;
    for (auto it = fs::recursive_directory_iterator(root);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->path().filename().string().rfind("shard-", 0) == 0) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file()) {
        files[it->path().lexically_relative(root).string()] =
            slurp(it->path());
      }
    }
    return files;
  }

  void expect_same_tree(const std::string& expected,
                        const std::string& actual) {
    const auto want = tree(expected);
    const auto got = tree(actual);
    EXPECT_GT(want.size(), 1u);
    for (const auto& [name, bytes] : want) {
      const auto it = got.find(name);
      if (it == got.end()) {
        ADD_FAILURE() << actual << " lacks " << name;
      } else {
        EXPECT_TRUE(it->second == bytes) << actual << "/" << name << " differs";
      }
    }
    for (const auto& [name, bytes] : got) {
      EXPECT_TRUE(want.count(name)) << actual << " has extra " << name;
    }
  }

  const fs::path dir_ = fs::temp_directory_path() /
                        ("provmark_shard_cli_" + std::to_string(::getpid()));
  const fs::path log_ = dir_ / "cli.log";
};

TEST_F(ShardCli, TwoShardSweepIsByteIdenticalToOneProcess) {
  ASSERT_EQ(sweep("single"), 0) << slurp(log_);
  ASSERT_EQ(sweep("sharded", {"--shards", "2"}), 0) << slurp(log_);
  expect_same_tree("single", "sharded");
}

TEST_F(ShardCli, CrashedWorkerAndTornArtifactConvergeByteIdentical) {
  ASSERT_EQ(sweep("single"), 0) << slurp(log_);
  ASSERT_EQ(sweep("chaos", {"--shards", "3", "--fault-spec",
                            "crash:shard=1,after-cell=1;"
                            "torn-write:shard=0,file=validation.txt"}),
            0)
      << slurp(log_);
  const std::string log = slurp(log_);
  EXPECT_NE(log.find("shard 1 attempt 0 failed (exit code 70)"),
            std::string::npos)
      << log;
  EXPECT_NE(log.find("shard 0/3: published by attempt 1"), std::string::npos)
      << log;
  expect_same_tree("single", "chaos");
}

TEST_F(ShardCli, TornShardHandedToMergeIsRetryable) {
  ASSERT_EQ(sweep("torn", {"--shards", "2", "--shard-id", "0", "--fault-spec",
                           "torn-write:shard=0,file=validation.txt"}),
            0)
      << slurp(log_);
  ASSERT_EQ(sweep("torn", {"--shards", "2", "--shard-id", "1"}), 0)
      << slurp(log_);
  EXPECT_EQ(cli({"merge", (dir_ / "merged").string(),
                 (dir_ / "torn" / "shard-0").string(),
                 (dir_ / "torn" / "shard-1").string()}),
            3)
      << slurp(log_);
  EXPECT_NE(slurp(log_).find("retryable: re-run shard 0"), std::string::npos);
}

TEST_F(ShardCli, RetiredMatcherFlagsAreUnknown) {
  // The matcher has one search order and one thread; both of its old
  // flags are unknown flags now.
  const std::pair<std::string, std::string> retired[] = {
      {"--matcher-order", "wl"}, {"--matcher-threads", "4"}};
  for (const auto& [flag, value] : retired) {
    SCOPED_TRACE(flag);
    fs::remove(log_);
    EXPECT_EQ(cli({flag, value, "run", "spade", "open"}), 2) << slurp(log_);
    EXPECT_NE(slurp(log_).find("provmark: " + flag + ": "), std::string::npos)
        << slurp(log_);
  }
}

TEST_F(ShardCli, MalformedFlagsExitTwoNamingTheFlag) {
  const std::string s = (dir_ / "s").string();
  const std::string j = (dir_ / "j").string();
  const struct {
    std::vector<std::string> args;
    std::string flag;
  } rows[] = {
      {{"--threads", "abc", "gen", "--scale", "1"}, "--threads"},
      {{"--threads", "257", "gen", "--scale", "1"}, "--threads"},
      {{"--seed", "12abc", "gen", "--scale", "1"}, "--seed"},
      {{"--max-input-bytes", "-5", "gen", "--scale", "1"},
       "--max-input-bytes"},
      {{"--shards", "0", "gen", "--scale", "1"}, "--shards"},
      {{"gen", "--hostile", "7"}, "--hostile"},
      {{"gen", "--scale", "x"}, "--scale"},
      {{"cluster", s, j, "--members", "0"}, "--members"},
      {{"serve", s, j, "--serve-workers", "-1"}, "--serve-workers"},
      {{"serve", s, j, "--queue-cap"}, "--queue-cap"},
      {{"feed", s, "--feed-retries", "x"}, "--feed-retries"},
  };
  for (const auto& row : rows) {
    std::string command;
    for (const std::string& arg : row.args) command += " " + arg;
    SCOPED_TRACE(command);
    fs::remove(log_);
    // A row that wrongly starts a daemon is killed by the alarm instead
    // of hanging the suite.
    EXPECT_EQ(cli(row.args, 30), 2) << slurp(log_);
    EXPECT_NE(slurp(log_).find("provmark: " + row.flag + ": "),
              std::string::npos)
        << slurp(log_);
  }
}

TEST_F(ShardCli, ScaleNameNeedsAPositiveDecimalCount) {
  // scale<K> runs the scalability program only for K a decimal integer
  // >= 1; any other scale-prefixed name is an unknown benchmark, like
  // every other unknown name (std::stoi ran scale3x as scale3, scale-1
  // and scale0 as empty targets, and died on scale99999999999).
  ASSERT_EQ(cli({"run", "spade", "scale2"}), 0) << slurp(log_);
  for (const char* name :
       {"scale3x", "scale-1", "scale0", "scale+1", "scale 1",
        "scale99999999999", "scale"}) {
    SCOPED_TRACE(name);
    fs::remove(log_);
    EXPECT_EQ(cli({"run", "spade", name}, 30), 1) << slurp(log_);
    EXPECT_NE(slurp(log_).find(std::string("error: no benchmark named ") +
                               name),
              std::string::npos)
        << slurp(log_);
  }
}

TEST_F(ShardCli, DocsGrammarIsTheHelpText) {
  const std::string doc = slurp(fs::path(__FILE__).parent_path() / ".." /
                                ".." / "docs" / "cli.md");
  const std::string open = "## Grammar\n\n```\n";
  const std::size_t begin = doc.find(open);
  ASSERT_NE(begin, std::string::npos) << "docs/cli.md has no Grammar block";
  const std::size_t end = doc.find("```\n", begin + open.size());
  ASSERT_NE(end, std::string::npos);
  ASSERT_EQ(cli({"--help"}), 0) << slurp(log_);
  EXPECT_EQ(doc.substr(begin + open.size(), end - begin - open.size()),
            slurp(log_))
      << "regenerate the Grammar block of docs/cli.md from "
         "`provmark_cli --help`";
}

TEST_F(ShardCli, GenPrintsAProgram) {
  ASSERT_EQ(cli({"gen", "--seed", "1", "--scale", "8"}), 0) << slurp(log_);
  EXPECT_FALSE(slurp(log_).empty());
}

}  // namespace
}  // namespace provmark::core
