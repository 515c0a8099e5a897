#include "core/supervise.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <thread>

#include "util/rng.h"
#include "util/strings.h"

namespace provmark::core {

namespace {

/// Why the supervisor killed a still-running attempt, decided before
/// the corpse arrives through wait_any.
enum class KillMark { None, Superseded, Hung };

struct RunningAttempt {
  int task = 0;
  int attempt = 0;
  std::int64_t start_ms = 0;
  KillMark mark = KillMark::None;
};

struct TaskState {
  bool done = false;
  bool quarantined = false;
  int launches = 0;
  int winning_attempt = -1;
  std::int64_t retry_at_ms = -1;  ///< scheduled next launch, -1 = none
  std::string last_failure;
  std::string diagnostic;  ///< final quarantine message, when any
};

std::int64_t median_ms(std::vector<std::int64_t> durations) {
  std::sort(durations.begin(), durations.end());
  return durations[durations.size() / 2];
}

/// The signal a forwarding handler recorded, or 0. The handler only
/// writes this flag (async-signal-safe); wait_any does the actual
/// forwarding from normal context, where touching live_ is legal.
volatile sig_atomic_t g_pending_forward_signal = 0;

void on_forward_signal(int sig) { g_pending_forward_signal = sig; }

}  // namespace

const char* fate_name(WorkerFate fate) {
  switch (fate) {
    case WorkerFate::Published:
      return "published";
    case WorkerFate::ExitedUnpublished:
      return "exited-unpublished";
    case WorkerFate::Failed:
      return "failed";
    case WorkerFate::Signaled:
      return "signaled";
    case WorkerFate::Hung:
      return "hung";
    case WorkerFate::Superseded:
      return "superseded";
    case WorkerFate::SpawnFailed:
      return "spawn-failed";
  }
  return "unknown";
}

std::int64_t backoff_ms(std::uint64_t seed, int task, int attempt,
                        std::int64_t base_ms, std::int64_t cap_ms) {
  if (attempt < 1) attempt = 1;
  util::Rng rng(seed ^
                util::stable_hash(util::format("supervise-backoff-%d-%d",
                                               task, attempt)));
  const double jitter =
      0.75 + 0.5 * (static_cast<double>(rng.next_u64() >> 11) *
                    (1.0 / 9007199254740992.0));
  const double raw = static_cast<double>(base_ms) *
                     std::ldexp(1.0, std::min(attempt, 48) - 1) * jitter;
  const double capped = std::min(raw, static_cast<double>(cap_ms));
  return static_cast<std::int64_t>(std::llround(capped));
}

SuperviseReport supervise(int task_count, WorkerHost& host,
                          const SuperviseOptions& options) {
  const int max_launches = 1 + std::max(0, options.retries);
  std::vector<TaskState> tasks(static_cast<std::size_t>(task_count));
  std::map<std::uint64_t, RunningAttempt> running;
  std::vector<std::int64_t> published_durations;
  SuperviseReport report;
  report.history.reserve(static_cast<std::size_t>(task_count));

  auto settled = [&](const TaskState& t) {
    return t.done || t.quarantined;
  };
  auto record = [&](int task, int attempt, WorkerFate fate,
                    std::int64_t start_ms, std::int64_t end_ms) {
    report.history.push_back(
        AttemptRecord{task, attempt, fate, start_ms, end_ms});
  };

  // A task with no live attempt and no scheduled retry either gets one
  // more launch or is quarantined with its accumulated diagnostic.
  auto after_failure = [&](int task) {
    TaskState& t = tasks[static_cast<std::size_t>(task)];
    if (settled(t)) return;
    bool has_running = false;
    for (const auto& [token, run] : running) {
      if (run.task == task) has_running = true;
    }
    if (t.launches < max_launches) {
      if (t.retry_at_ms < 0) {
        const std::int64_t delay =
            backoff_ms(options.seed, task, t.launches,
                       options.backoff_base_ms, options.backoff_cap_ms);
        t.retry_at_ms = host.now_ms() + delay;
        host.note(util::format(
            "shard %d attempt %d failed (%s); retrying in %lld ms", task,
            t.launches - 1, t.last_failure.c_str(),
            static_cast<long long>(delay)));
      }
      return;
    }
    if (has_running || t.retry_at_ms >= 0) return;  // a verdict is pending
    t.quarantined = true;
    const std::string diagnostic = util::format(
        "shard %d failed all %d attempts; last failure: %s", task,
        t.launches, t.last_failure.c_str());
    host.note(diagnostic);
    host.quarantine(task, t.launches - 1, diagnostic);
    tasks[static_cast<std::size_t>(task)].diagnostic = diagnostic;
  };

  auto launch = [&](int task) {
    TaskState& t = tasks[static_cast<std::size_t>(task)];
    t.retry_at_ms = -1;
    const int attempt = t.launches++;
    const std::int64_t start = host.now_ms();
    const std::uint64_t token = host.spawn(task, attempt);
    if (token == 0) {
      record(task, attempt, WorkerFate::SpawnFailed, start, start);
      t.last_failure = "spawn failed";
      after_failure(task);
      return;
    }
    running[token] = RunningAttempt{task, attempt, start, KillMark::None};
  };

  for (int task = 0; task < task_count; ++task) launch(task);

  while (true) {
    bool all_settled = true;
    for (const TaskState& t : tasks) all_settled &= settled(t);
    if (all_settled) break;

    std::int64_t now = host.now_ms();

    // Fire due retries.
    for (int task = 0; task < task_count; ++task) {
      TaskState& t = tasks[static_cast<std::size_t>(task)];
      if (!settled(t) && t.retry_at_ms >= 0 && t.retry_at_ms <= now) {
        launch(task);
      }
    }

    // Straggler scan: only meaningful once a majority of tasks have
    // published — before that there is no trustworthy notion of how
    // long a shard "should" take.
    if (2 * static_cast<int>(published_durations.size()) >= task_count &&
        !published_durations.empty()) {
      const std::int64_t deadline = std::max(
          options.straggler_min_ms,
          static_cast<std::int64_t>(options.straggler_factor *
                                    static_cast<double>(
                                        median_ms(published_durations))));
      for (int task = 0; task < task_count; ++task) {
        TaskState& t = tasks[static_cast<std::size_t>(task)];
        if (settled(t) || t.retry_at_ms >= 0) continue;
        bool any_fresh = false;
        std::vector<std::uint64_t> overdue;
        for (auto& [token, run] : running) {
          if (run.task != task) continue;
          if (now - run.start_ms >= deadline) {
            overdue.push_back(token);
          } else {
            any_fresh = true;
          }
        }
        if (overdue.empty() || any_fresh) continue;
        if (t.launches < max_launches) {
          host.note(util::format(
              "shard %d attempt %d is a straggler (> %lld ms); "
              "dispatching a duplicate attempt",
              task, running[overdue.front()].attempt,
              static_cast<long long>(deadline)));
          launch(task);
        } else {
          // No budget for a duplicate: the overdue attempts *are* the
          // verdict. Kill them; their reaped corpses drive quarantine.
          for (std::uint64_t token : overdue) {
            if (running[token].mark != KillMark::None) continue;
            running[token].mark = KillMark::Hung;
            host.kill_worker(token);
          }
        }
      }
    }

    // Sleep until the next retry timer or the poll tick, whichever is
    // sooner, unless a worker dies first.
    std::int64_t timeout = options.poll_ms;
    for (const TaskState& t : tasks) {
      if (!settled(t) && t.retry_at_ms >= 0) {
        timeout = std::max<std::int64_t>(
            1, std::min(timeout, t.retry_at_ms - now));
      }
    }
    WorkerEvent event;
    if (!host.wait_any(timeout, &event)) continue;

    auto it = running.find(event.token);
    if (it == running.end()) continue;  // not one of ours
    const RunningAttempt run = it->second;
    running.erase(it);
    now = host.now_ms();
    TaskState& t = tasks[static_cast<std::size_t>(run.task)];

    if (t.done) {
      record(run.task, run.attempt, WorkerFate::Superseded, run.start_ms,
             now);
      continue;
    }
    if (run.mark == KillMark::Hung) {
      record(run.task, run.attempt, WorkerFate::Hung, run.start_ms, now);
      t.last_failure = "hung past the straggler deadline";
      after_failure(run.task);
      continue;
    }
    if (event.signaled) {
      record(run.task, run.attempt, WorkerFate::Signaled, run.start_ms,
             now);
      t.last_failure = util::format("killed by signal %d", event.signal);
      after_failure(run.task);
      continue;
    }
    if (event.exit_code == 0 && host.published(run.task)) {
      record(run.task, run.attempt, WorkerFate::Published, run.start_ms,
             now);
      t.done = true;
      t.winning_attempt = run.attempt;
      t.retry_at_ms = -1;
      published_durations.push_back(now - run.start_ms);
      // Losers of the publish race are redundant work — reap them.
      for (auto& [token, other] : running) {
        if (other.task == run.task && other.mark == KillMark::None) {
          other.mark = KillMark::Superseded;
          host.kill_worker(token);
        }
      }
      continue;
    }
    if (event.exit_code == 0) {
      record(run.task, run.attempt, WorkerFate::ExitedUnpublished,
             run.start_ms, now);
      t.last_failure = "exited cleanly without publishing its artifacts";
    } else {
      record(run.task, run.attempt, WorkerFate::Failed, run.start_ms, now);
      t.last_failure = util::format("exit code %d", event.exit_code);
    }
    after_failure(run.task);
  }

  // Every task is settled, but the last publish may have just killed a
  // superseded loser: reap those corpses so no zombie outlives the
  // sweep and every spawned attempt gets a history record.
  while (!running.empty()) {
    WorkerEvent event;
    if (!host.wait_any(options.poll_ms, &event)) continue;
    auto it = running.find(event.token);
    if (it == running.end()) continue;
    const RunningAttempt run = it->second;
    running.erase(it);
    record(run.task, run.attempt,
           run.mark == KillMark::Hung ? WorkerFate::Hung
                                      : WorkerFate::Superseded,
           run.start_ms, host.now_ms());
  }

  report.all_published = true;
  report.tasks.reserve(static_cast<std::size_t>(task_count));
  for (int task = 0; task < task_count; ++task) {
    const TaskState& t = tasks[static_cast<std::size_t>(task)];
    report.all_published &= t.done;
    report.tasks.push_back(TaskOutcome{task, t.done, t.launches,
                                       t.winning_attempt, t.quarantined,
                                       t.diagnostic});
  }
  return report;
}

// -- DaemonSupervisor --------------------------------------------------------

const char* member_state_name(MemberState state) {
  switch (state) {
    case MemberState::Starting:
      return "starting";
    case MemberState::Up:
      return "up";
    case MemberState::Stopping:
      return "stopping";
    case MemberState::Backoff:
      return "backoff";
    case MemberState::Failed:
      return "failed";
  }
  return "unknown";
}

DaemonSupervisor::DaemonSupervisor(int member_count, DaemonHost& host,
                                   DaemonPolicy policy)
    : host_(host), policy_(policy),
      members_(static_cast<std::size_t>(member_count)) {}

void DaemonSupervisor::launch(int member) {
  Member& m = members_[static_cast<std::size_t>(member)];
  const int incarnation = ++m.incarnation;
  if (incarnation > 0) ++total_restarts_;
  const std::uint64_t token = host_.spawn_member(member, incarnation);
  if (token == 0) {
    m.state = MemberState::Backoff;  // instant death; reschedule
    m.token = 0;
    schedule_restart(member, "spawn failed");
    return;
  }
  m.state = MemberState::Starting;
  m.token = token;
  m.deadline_ms = host_.now_ms() + policy_.start_deadline_ms;
  host_.note(util::format("member %d incarnation %d starting", member,
                          incarnation));
}

void DaemonSupervisor::schedule_restart(int member, const std::string& why) {
  Member& m = members_[static_cast<std::size_t>(member)];
  ++m.streak;
  if (policy_.max_restarts >= 0 && m.streak > policy_.max_restarts) {
    m.state = MemberState::Failed;
    m.token = 0;
    host_.note(util::format(
        "member %d failed %d consecutive incarnations (%s); giving up",
        member, m.streak, why.c_str()));
    return;
  }
  const std::int64_t delay =
      backoff_ms(policy_.seed, member, m.streak, policy_.backoff_base_ms,
                 policy_.backoff_cap_ms);
  m.state = MemberState::Backoff;
  m.token = 0;
  m.restart_at_ms = host_.now_ms() + delay;
  host_.note(util::format("member %d down (%s); restarting in %lld ms",
                          member, why.c_str(),
                          static_cast<long long>(delay)));
}

void DaemonSupervisor::start() {
  for (int member = 0; member < static_cast<int>(members_.size()); ++member) {
    launch(member);
  }
}

void DaemonSupervisor::heartbeat(int member) {
  Member& m = members_[static_cast<std::size_t>(member)];
  if (m.state == MemberState::Starting) {
    m.state = MemberState::Up;
    m.streak = 0;  // the incarnation proved itself live
    host_.note(util::format("member %d up (incarnation %d)", member,
                            m.incarnation));
  }
  if (m.state == MemberState::Up) {
    m.deadline_ms = host_.now_ms() + policy_.heartbeat_deadline_ms;
  }
}

void DaemonSupervisor::member_exited(std::uint64_t token, bool signaled,
                                     int code) {
  const int member = member_of(token);
  if (member < 0) return;  // a corpse from a superseded incarnation
  const std::string why =
      signaled ? util::format("killed by signal %d", code)
               : util::format("exit code %d", code);
  schedule_restart(member, why);
}

void DaemonSupervisor::tick() {
  const std::int64_t now = host_.now_ms();
  for (int member = 0; member < static_cast<int>(members_.size()); ++member) {
    Member& m = members_[static_cast<std::size_t>(member)];
    switch (m.state) {
      case MemberState::Starting:
      case MemberState::Up:
        if (now >= m.deadline_ms) {
          ++hung_kills_;
          host_.note(util::format(
              "member %d missed its %s deadline; killing", member,
              m.state == MemberState::Up ? "heartbeat" : "start"));
          m.state = MemberState::Stopping;
          host_.kill_member(m.token);
        }
        break;
      case MemberState::Backoff:
        if (now >= m.restart_at_ms) launch(member);
        break;
      case MemberState::Stopping:
      case MemberState::Failed:
        break;
    }
  }
}

MemberState DaemonSupervisor::state(int member) const {
  return members_[static_cast<std::size_t>(member)].state;
}

int DaemonSupervisor::incarnation(int member) const {
  return members_[static_cast<std::size_t>(member)].incarnation;
}

std::uint64_t DaemonSupervisor::token(int member) const {
  return members_[static_cast<std::size_t>(member)].token;
}

int DaemonSupervisor::member_of(std::uint64_t token) const {
  if (token == 0) return -1;
  for (int member = 0; member < static_cast<int>(members_.size()); ++member) {
    if (members_[static_cast<std::size_t>(member)].token == token) {
      return member;
    }
  }
  return -1;
}

int DaemonSupervisor::members_up() const {
  int up = 0;
  for (const Member& m : members_) up += m.state == MemberState::Up;
  return up;
}

std::int64_t DaemonSupervisor::next_deadline_ms(std::int64_t cap) const {
  std::int64_t next = cap;
  const std::int64_t now =
      const_cast<DaemonHost&>(host_).now_ms();
  for (const Member& m : members_) {
    std::int64_t at = -1;
    if (m.state == MemberState::Starting || m.state == MemberState::Up) {
      at = m.deadline_ms;
    } else if (m.state == MemberState::Backoff) {
      at = m.restart_at_ms;
    }
    if (at >= 0) next = std::min(next, at - now);
  }
  return std::max<std::int64_t>(1, next);
}

// -- ProcessWorkerHost -------------------------------------------------------

ProcessWorkerHost ProcessWorkerHost::exec_mode(ArgvFn argv_for,
                                               PublishedFn published) {
  ProcessWorkerHost host;
  host.argv_for_ = std::move(argv_for);
  host.published_ = std::move(published);
  return host;
}

ProcessWorkerHost ProcessWorkerHost::fork_mode(ChildMainFn child_main,
                                               PublishedFn published) {
  ProcessWorkerHost host;
  host.child_main_ = std::move(child_main);
  host.published_ = std::move(published);
  return host;
}

std::uint64_t ProcessWorkerHost::spawn(int task, int attempt) {
  forward_pending_signal();  // don't launch into a dying sweep
  if (argv_for_) {
    // Materialize argv (and the log path) before fork: between fork and
    // exec the child may only call async-signal-safe functions.
    std::vector<std::string> args = argv_for_(task, attempt);
    const std::string log_path =
        log_path_ ? log_path_(task, attempt) : std::string();
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) return 0;
    if (pid == 0) {
      if (!log_path.empty()) {
        int fd =
            ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
          ::dup2(fd, 1);
          ::dup2(fd, 2);
          ::close(fd);
        }
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    live_[static_cast<std::uint64_t>(pid)] = task;
    return static_cast<std::uint64_t>(pid);
  }
  const pid_t pid = ::fork();
  if (pid < 0) return 0;
  if (pid == 0) {
    // The worker must die to a forwarded SIGTERM/SIGINT, not inherit
    // the orchestrator's record-and-continue handler. (Exec mode gets
    // this for free: execv resets caught signals to default.)
    ::signal(SIGTERM, SIG_DFL);
    ::signal(SIGINT, SIG_DFL);
    int code = 1;
    try {
      code = child_main_(task, attempt);
    } catch (...) {
      code = 1;
    }
    ::_exit(code);
  }
  live_[static_cast<std::uint64_t>(pid)] = task;
  return static_cast<std::uint64_t>(pid);
}

void ProcessWorkerHost::install_signal_forwarding(std::int64_t grace_ms) {
  forward_signals_ = true;
  forward_grace_ms_ = grace_ms;
  g_pending_forward_signal = 0;
  struct sigaction action{};
  action.sa_handler = on_forward_signal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

void ProcessWorkerHost::forward_pending_signal() {
  if (!forward_signals_ || g_pending_forward_signal == 0) return;
  const int sig = static_cast<int>(g_pending_forward_signal);
  for (const auto& [token, task] : live_) {
    ::kill(static_cast<pid_t>(token), sig);
  }
  // Reap within the grace window; anything still alive after it gets
  // SIGKILL (a worker wedged enough to ignore SIGTERM is exactly the
  // case hygiene exists for). Leftover staging directories are swept
  // by remove_orphaned_staging on the next orchestrator start.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(forward_grace_ms_);
  bool killed = false;
  while (!live_.empty()) {
    int status = 0;
    pid_t pid;
    do {
      pid = ::waitpid(-1, &status, WNOHANG);
    } while (pid < 0 && errno == EINTR);
    if (pid > 0) {
      live_.erase(static_cast<std::uint64_t>(pid));
      continue;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      if (killed) break;  // even SIGKILL did not reap: give up
      for (const auto& [token, task] : live_) {
        ::kill(static_cast<pid_t>(token), SIGKILL);
      }
      killed = true;
      continue;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Die the way the caller asked us to: default disposition, same
  // signal — wait-status observers (scripts, CI) see a signal death,
  // not a made-up exit code.
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

bool ProcessWorkerHost::wait_any(std::int64_t timeout_ms,
                                 WorkerEvent* event) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    forward_pending_signal();
    if (!live_.empty()) {
      int status = 0;
      pid_t pid;
      // EINTR retry: a signal delivered to the supervisor must not
      // masquerade as a worker verdict.
      do {
        pid = ::waitpid(-1, &status, WNOHANG);
      } while (pid < 0 && errno == EINTR);
      if (pid > 0) {
        const auto it = live_.find(static_cast<std::uint64_t>(pid));
        if (it != live_.end()) {
          live_.erase(it);
          event->token = static_cast<std::uint64_t>(pid);
          event->signaled = WIFSIGNALED(status);
          event->exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 0;
          event->signal = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
          return true;
        }
        continue;  // an unrelated child; keep draining
      }
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

bool ProcessWorkerHost::published(int task) {
  return published_ && published_(task);
}

void ProcessWorkerHost::kill_worker(std::uint64_t token) {
  ::kill(static_cast<pid_t>(token), SIGKILL);
}

std::int64_t ProcessWorkerHost::now_ms() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void ProcessWorkerHost::quarantine(int task, int attempt,
                                   const std::string& diagnostic) {
  if (quarantine_) quarantine_(task, attempt, diagnostic);
}

void ProcessWorkerHost::note(const std::string& message) {
  if (note_) note_(message);
}

}  // namespace provmark::core
