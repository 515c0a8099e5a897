// The worker supervision engine, driven by a scripted host with a
// virtual clock: retry-until-success, quarantine after the attempt
// budget, straggler re-dispatch winner identity, and backoff
// determinism. Those tests use no real processes and no real sleeps —
// every millisecond is simulated, so they are exact and instant. Two
// tests at the end fork real workers: signal forwarding on shutdown, and
// a sharded sweep under crash, torn-write and hang faults at once.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/shard.h"
#include "core/supervise.h"
#include "runtime/thread_pool.h"
#include "util/fault.h"

namespace provmark::core {
namespace {

/// What the scripted host makes one (task, attempt) do.
struct Script {
  enum Kind {
    CleanPublish,  ///< run, publish, exit 0
    CleanSilent,   ///< run, exit 0 without publishing
    Exit,          ///< run, exit `code`
    Signal,        ///< run, die to external signal `code`
    Hang,          ///< never terminate on its own (dies only to kill)
    NoSpawn,       ///< spawn() itself fails
  };
  Kind kind = CleanPublish;
  std::int64_t duration_ms = 100;
  int code = 0;
};

/// Deterministic WorkerHost: a virtual clock and an event queue. Time
/// advances only inside wait_any, exactly as far as the supervisor's
/// timeout (or the next death) allows.
class FakeHost : public WorkerHost {
 public:
  void script(int task, int attempt, Script s) {
    scripts_[{task, attempt}] = s;
  }

  std::uint64_t spawn(int task, int attempt) override {
    Script s;  // default: publish after 100ms
    auto it = scripts_.find({task, attempt});
    if (it != scripts_.end()) s = it->second;
    spawns.push_back({task, attempt, now_});
    if (s.kind == Script::NoSpawn) return 0;
    const std::uint64_t token = next_token_++;
    live_[token] = {task, s};
    if (s.kind != Script::Hang) {
      Pending death;
      death.at_ms = now_ + s.duration_ms;
      death.token = token;
      death.event.token = token;
      death.event.signaled = s.kind == Script::Signal;
      death.event.exit_code = s.kind == Script::Exit ? s.code : 0;
      death.event.signal = s.kind == Script::Signal ? s.code : 0;
      death.publishes = s.kind == Script::CleanPublish;
      queue_.push_back(death);
    }
    return token;
  }

  bool wait_any(std::int64_t timeout_ms, WorkerEvent* event) override {
    auto next = std::min_element(
        queue_.begin(), queue_.end(), [](const Pending& a, const Pending& b) {
          return a.at_ms != b.at_ms ? a.at_ms < b.at_ms
                                    : a.token < b.token;
        });
    if (next == queue_.end() || next->at_ms > now_ + timeout_ms) {
      now_ += timeout_ms;
      return false;
    }
    now_ = std::max(now_, next->at_ms);
    const Pending death = *next;
    queue_.erase(next);
    if (death.publishes) published_.insert(live_[death.token].task);
    live_.erase(death.token);
    *event = death.event;
    return true;
  }

  bool published(int task) override { return published_.count(task) > 0; }

  void kill_worker(std::uint64_t token) override {
    kills.push_back(token);
    auto it = live_.find(token);
    if (it == live_.end()) return;
    // Replace whatever the worker would have done with an immediate
    // SIGKILL death.
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                                [&](const Pending& p) {
                                  return p.token == token;
                                }),
                 queue_.end());
    Pending death;
    death.at_ms = now_;
    death.token = token;
    death.event.token = token;
    death.event.signaled = true;
    death.event.signal = 9;
    queue_.push_back(death);
  }

  std::int64_t now_ms() override { return now_; }

  void quarantine(int task, int attempt,
                  const std::string& diagnostic) override {
    quarantines.push_back({task, attempt, diagnostic});
  }

  struct SpawnLog {
    int task;
    int attempt;
    std::int64_t at_ms;
  };
  struct QuarantineLog {
    int task;
    int attempt;
    std::string diagnostic;
  };
  std::vector<SpawnLog> spawns;
  std::vector<std::uint64_t> kills;
  std::vector<QuarantineLog> quarantines;

 private:
  struct Pending {
    std::int64_t at_ms = 0;
    std::uint64_t token = 0;
    WorkerEvent event;
    bool publishes = false;
  };
  struct Live {
    int task = 0;
    Script script;
  };
  std::int64_t now_ = 0;
  std::uint64_t next_token_ = 1;
  std::map<std::pair<int, int>, Script> scripts_;
  std::map<std::uint64_t, Live> live_;
  std::vector<Pending> queue_;
  std::set<int> published_;
};

SuperviseOptions fast_options() {
  SuperviseOptions options;
  options.retries = 2;
  options.seed = 42;
  options.backoff_base_ms = 100;
  options.backoff_cap_ms = 5000;
  options.straggler_min_ms = 400;
  options.straggler_factor = 3.0;
  options.poll_ms = 10;
  return options;
}

TEST(Supervise, AllHealthyWorkersPublishFirstTry) {
  FakeHost host;
  SuperviseReport report = supervise(3, host, fast_options());
  EXPECT_TRUE(report.all_published);
  ASSERT_EQ(report.tasks.size(), 3u);
  for (const TaskOutcome& t : report.tasks) {
    EXPECT_TRUE(t.published);
    EXPECT_EQ(t.launches, 1);
    EXPECT_EQ(t.winning_attempt, 0);
    EXPECT_FALSE(t.quarantined);
  }
  ASSERT_EQ(report.history.size(), 3u);
  for (const AttemptRecord& a : report.history) {
    EXPECT_EQ(a.fate, WorkerFate::Published);
  }
  EXPECT_TRUE(host.quarantines.empty());
}

TEST(Supervise, RetryUntilSuccessWithDeterministicBackoff) {
  const SuperviseOptions options = fast_options();
  FakeHost host;
  // Task 1 crashes twice (exit 70), then publishes; tasks 0/2 healthy.
  host.script(1, 0, {Script::Exit, 50, 70});
  host.script(1, 1, {Script::Exit, 50, 70});
  host.script(1, 2, {Script::CleanPublish, 50, 0});

  SuperviseReport report = supervise(3, host, options);
  EXPECT_TRUE(report.all_published);
  EXPECT_EQ(report.tasks[1].launches, 3);
  EXPECT_EQ(report.tasks[1].winning_attempt, 2);
  EXPECT_FALSE(report.tasks[1].quarantined);

  // The relaunch times are exactly death + seeded backoff, exponential
  // between attempts.
  std::vector<FakeHost::SpawnLog> task1;
  for (const auto& s : host.spawns) {
    if (s.task == 1) task1.push_back(s);
  }
  ASSERT_EQ(task1.size(), 3u);
  const std::int64_t first_delay = backoff_ms(
      options.seed, 1, 1, options.backoff_base_ms, options.backoff_cap_ms);
  const std::int64_t second_delay = backoff_ms(
      options.seed, 1, 2, options.backoff_base_ms, options.backoff_cap_ms);
  EXPECT_EQ(task1[1].at_ms, task1[0].at_ms + 50 + first_delay);
  EXPECT_EQ(task1[2].at_ms, task1[1].at_ms + 50 + second_delay);
  EXPECT_GT(second_delay, first_delay);

  // Fate sequence for task 1: Failed, Failed, Published.
  std::vector<WorkerFate> fates;
  for (const AttemptRecord& a : report.history) {
    if (a.task == 1) fates.push_back(a.fate);
  }
  EXPECT_EQ(fates, (std::vector<WorkerFate>{WorkerFate::Failed,
                                            WorkerFate::Failed,
                                            WorkerFate::Published}));
}

TEST(Supervise, QuarantineAfterBudgetExhaustion) {
  FakeHost host;
  // Task 0 fails every attempt, in three different ways.
  host.script(0, 0, {Script::Exit, 50, 70});
  host.script(0, 1, {Script::Signal, 50, 11});
  host.script(0, 2, {Script::CleanSilent, 50, 0});

  SuperviseReport report = supervise(2, host, fast_options());
  EXPECT_FALSE(report.all_published);
  EXPECT_FALSE(report.tasks[0].published);
  EXPECT_TRUE(report.tasks[0].quarantined);
  EXPECT_EQ(report.tasks[0].launches, 3);
  EXPECT_TRUE(report.tasks[1].published);

  ASSERT_EQ(host.quarantines.size(), 1u);
  EXPECT_EQ(host.quarantines[0].task, 0);
  EXPECT_EQ(host.quarantines[0].attempt, 2);
  EXPECT_NE(host.quarantines[0].diagnostic.find("all 3 attempts"),
            std::string::npos);
  EXPECT_NE(
      host.quarantines[0].diagnostic.find("without publishing"),
      std::string::npos)
      << "diagnostic should carry the *last* failure: "
      << host.quarantines[0].diagnostic;

  std::vector<WorkerFate> fates;
  for (const AttemptRecord& a : report.history) {
    if (a.task == 0) fates.push_back(a.fate);
  }
  EXPECT_EQ(fates,
            (std::vector<WorkerFate>{WorkerFate::Failed,
                                     WorkerFate::Signaled,
                                     WorkerFate::ExitedUnpublished}));
}

TEST(Supervise, StragglerRedispatchFirstPublishWins) {
  FakeHost host;
  // Tasks 1/2 publish in 100ms; task 0's first attempt hangs forever.
  // Once the majority has published, the supervisor must notice the
  // straggler, dispatch a duplicate attempt, and credit the publish to
  // that duplicate while the hung original is killed as superseded.
  host.script(0, 0, {Script::Hang, 0, 0});
  host.script(0, 1, {Script::CleanPublish, 100, 0});

  SuperviseReport report = supervise(3, host, fast_options());
  EXPECT_TRUE(report.all_published);
  EXPECT_EQ(report.tasks[0].launches, 2);
  EXPECT_EQ(report.tasks[0].winning_attempt, 1);
  EXPECT_FALSE(report.tasks[0].quarantined);
  EXPECT_FALSE(host.kills.empty());

  std::map<int, WorkerFate> task0;
  for (const AttemptRecord& a : report.history) {
    if (a.task == 0) task0[a.attempt] = a.fate;
  }
  EXPECT_EQ(task0[0], WorkerFate::Superseded);
  EXPECT_EQ(task0[1], WorkerFate::Published);

  // The duplicate launched only after the straggler deadline — derived
  // from the published-median (100ms), floored by straggler_min_ms.
  std::int64_t redispatch_at = -1;
  for (const auto& s : host.spawns) {
    if (s.task == 0 && s.attempt == 1) redispatch_at = s.at_ms;
  }
  ASSERT_GE(redispatch_at, fast_options().straggler_min_ms);
}

TEST(Supervise, EveryAttemptHangsThenQuarantine) {
  SuperviseOptions options = fast_options();
  options.retries = 1;
  FakeHost host;
  host.script(0, 0, {Script::Hang, 0, 0});
  host.script(0, 1, {Script::Hang, 0, 0});

  SuperviseReport report = supervise(3, host, options);
  EXPECT_FALSE(report.all_published);
  EXPECT_TRUE(report.tasks[0].quarantined);
  EXPECT_EQ(report.tasks[0].launches, 2);
  EXPECT_TRUE(report.tasks[1].published);
  EXPECT_TRUE(report.tasks[2].published);
  EXPECT_NE(report.tasks[0].diagnostic.find("hung"), std::string::npos);
  // Both hung attempts were killed by the supervisor, not leaked.
  EXPECT_EQ(host.kills.size(), 2u);
}

TEST(Supervise, SpawnFailureIsRetried) {
  FakeHost host;
  host.script(0, 0, {Script::NoSpawn, 0, 0});

  SuperviseReport report = supervise(1, host, fast_options());
  EXPECT_TRUE(report.all_published);
  EXPECT_EQ(report.tasks[0].launches, 2);
  EXPECT_EQ(report.tasks[0].winning_attempt, 1);
  ASSERT_EQ(report.history.size(), 2u);
  EXPECT_EQ(report.history[0].fate, WorkerFate::SpawnFailed);
  EXPECT_EQ(report.history[1].fate, WorkerFate::Published);
}

TEST(Supervise, BackoffIsDeterministicJitteredAndMonotone) {
  const SuperviseOptions options = fast_options();
  for (int task = 0; task < 4; ++task) {
    std::int64_t previous = 0;
    for (int attempt = 1; attempt <= 12; ++attempt) {
      const std::int64_t delay =
          backoff_ms(options.seed, task, attempt, options.backoff_base_ms,
                     options.backoff_cap_ms);
      // Same (seed, task, attempt) → same delay, always.
      EXPECT_EQ(delay,
                backoff_ms(options.seed, task, attempt,
                           options.backoff_base_ms, options.backoff_cap_ms));
      // Jitter stays inside the documented envelope, capped.
      const double nominal =
          static_cast<double>(options.backoff_base_ms) *
          static_cast<double>(1LL << (attempt - 1));
      EXPECT_GE(delay, std::min<std::int64_t>(
                           options.backoff_cap_ms,
                           static_cast<std::int64_t>(0.75 * nominal)));
      EXPECT_LE(delay,
                std::min<std::int64_t>(
                    options.backoff_cap_ms,
                    static_cast<std::int64_t>(1.25 * nominal) + 1));
      // Monotone non-decreasing across attempts.
      EXPECT_GE(delay, previous) << "task " << task << " attempt "
                                 << attempt;
      previous = delay;
    }
  }
  // Different seeds and tasks decorrelate the jitter: not all equal.
  std::set<std::int64_t> distinct;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    distinct.insert(backoff_ms(seed, 0, 1, options.backoff_base_ms,
                               options.backoff_cap_ms));
  }
  EXPECT_GT(distinct.size(), 1u);
}

TEST(ProcessWorkerHostSignals, SigtermForwardsToLiveWorkersThenDies) {
  // Real processes: an "orchestrator" child installs signal forwarding,
  // spawns a long-sleeping worker grandchild, and is then SIGTERM'd.
  // The worker must die with it (no orphaned shard processes) and the
  // orchestrator must exit *by* SIGTERM, not with a made-up code.
  namespace fs = std::filesystem;
  const fs::path pid_file =
      fs::temp_directory_path() /
      ("provmark_supervise_fwd_" + std::to_string(::getpid()));
  fs::remove(pid_file);

  const pid_t orchestrator = ::fork();
  ASSERT_GE(orchestrator, 0);
  if (orchestrator == 0) {
    ProcessWorkerHost host = ProcessWorkerHost::fork_mode(
        [](int, int) {
          ::sleep(60);  // a worker mid-cell, oblivious to the shutdown
          return 0;
        },
        [](int) { return false; });
    host.install_signal_forwarding(/*grace_ms=*/5'000);
    const std::uint64_t token = host.spawn(0, 0);
    if (token == 0) ::_exit(9);
    {
      std::ofstream out(pid_file);
      out << token << "\n";
    }
    WorkerEvent event;
    while (true) host.wait_any(100, &event);  // forwarding fires in here
  }

  // Wait for the worker grandchild's pid to be published.
  pid_t worker = 0;
  for (int i = 0; i < 200 && worker == 0; ++i) {
    std::ifstream in(pid_file);
    if (!(in >> worker)) {
      worker = 0;
      ::usleep(50'000);
    }
  }
  ASSERT_GT(worker, 0) << "orchestrator never spawned its worker";

  ASSERT_EQ(::kill(orchestrator, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(orchestrator, &status, 0), orchestrator);
  EXPECT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGTERM);

  // The worker was reparented to init if leaked; poll until ESRCH.
  bool worker_dead = false;
  for (int i = 0; i < 200 && !worker_dead; ++i) {
    if (::kill(worker, 0) != 0 && errno == ESRCH) {
      worker_dead = true;
    } else {
      ::usleep(50'000);
    }
  }
  if (!worker_dead) ::kill(worker, SIGKILL);  // don't leak it past the test
  EXPECT_TRUE(worker_dead) << "worker outlived the orchestrator";
  fs::remove(pid_file);
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(ForkModeChaos, CrashTornWriteAndHangConvergeByteIdentical) {
  // A real 3-shard sweep on forked workers under all three shard faults
  // at once: shard 1's worker exits 70 after its first cell, shard 0
  // publishes a torn validation.txt, and shard 2 stalls before publish
  // until a straggler re-dispatch supersedes it. Every shard must end up
  // published after more than one launch, and the merged files must
  // equal the fault-free single-process sweep byte for byte.
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() /
                        ("provmark_fork_chaos_" + std::to_string(::getpid()));
  fs::remove_all(root);
  const std::string sweep_dir = (root / "sweep").string();
  const std::string spec_text =
      "crash:shard=1,after-cell=1;"
      "torn-write:shard=0,file=validation.txt;"
      "hang:shard=2,seconds=60";
  const std::vector<std::string> benchmarks = {"open", "rename", "fork",
                                               "unlink", "chmod", "pipe"};
  ShardPlan plan = plan_batch({"spade"}, benchmarks, 3, 42, "rg", true);
  auto run_cells = [](const std::vector<BatchCell>& cells) {
    runtime::ThreadPool pool(1);  // no worker threads: fork stays safe
    CellRunOptions options;
    options.pool = &pool;
    options.deterministic_timings = true;
    return run_batch_cells(cells, options);
  };

  auto host = ProcessWorkerHost::fork_mode(
      [&](int shard, int attempt) -> int {
        util::fault::disarm();
        util::fault::arm(util::fault::parse_fault_spec(spec_text), shard,
                         attempt);
        const ShardSpec spec = plan.shard(shard);
        write_shard_dir(sweep_dir, spec, run_cells(spec.cells));
        return 0;
      },
      [&](int shard) {
        return shard_complete(shard_dir_path(sweep_dir, shard),
                              plan.shard(shard));
      });
  SuperviseOptions options;
  options.backoff_base_ms = 50;
  options.backoff_cap_ms = 500;
  options.straggler_min_ms = 500;
  options.poll_ms = 10;
  SuperviseReport report = supervise(3, host, options);
  ASSERT_TRUE(report.all_published);
  std::vector<std::string> shard_dirs;
  for (int k = 0; k < 3; ++k) {
    EXPECT_GT(report.tasks[static_cast<std::size_t>(k)].launches, 1)
        << "the fault in shard " << k << " never fired";
    shard_dirs.push_back(shard_dir_path(sweep_dir, k));
  }
  std::string result_type;
  write_batch_outputs((root / "merged").string(),
                      read_shard_results(shard_dirs, &result_type),
                      result_type);

  // The baseline runs after every fork, in the same threadless parent.
  write_batch_outputs((root / "single").string(), run_cells(plan.cells),
                      "rg");
  std::size_t compared = 0;
  for (const auto& entry : fs::directory_iterator(root / "single")) {
    EXPECT_EQ(slurp(root / "merged" / entry.path().filename()),
              slurp(entry.path()))
        << entry.path().filename();
    ++compared;
  }
  EXPECT_GT(compared, 2u);
  fs::remove_all(root);
}

}  // namespace
}  // namespace provmark::core
