// Worker supervision for sharded sweeps: retry, backoff, quarantine,
// straggler re-dispatch.
//
// The `--shards N` parent used to fork N workers, wait for each once,
// and abort the sweep on the first bad exit. This module replaces that
// with a supervisor that treats worker failure as routine (the default
// condition in any multi-process sweep — see docs/robustness.md):
//
//   - every worker's fate is classified (published / exited without
//     publishing / nonzero exit / signaled / hung / superseded /
//     spawn failed),
//   - failed shards are retried up to a budget with seeded exponential
//     backoff (deterministic per (seed, shard, attempt) — two runs of
//     the same sweep schedule identical retries),
//   - a shard that exhausts its budget is quarantined: its artifact
//     directory is moved aside as `shard-K.failed.<attempt>` with a
//     diagnostic, and the sweep reports the failure instead of hanging,
//   - once at least half the shards have completed, attempts running
//     past max(straggler_min, factor × median completed duration) are
//     treated as stragglers and a duplicate attempt is dispatched;
//     whichever attempt publishes first wins (the atomic directory
//     rename in write_shard_dir makes the duplicate benign), and the
//     loser is killed and recorded as superseded.
//
// The engine is pure event-loop logic over an abstract WorkerHost, so
// tests drive it with a scripted host and a virtual clock — no real
// processes, no real sleeps — while the CLI and the ForkModeChaos case
// of core_supervise_test plug in ProcessWorkerHost (fork/exec or
// fork-only) for real workers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace provmark::core {

/// What ultimately happened to one spawned worker attempt.
enum class WorkerFate {
  Published,          ///< exited clean and its task's artifact is published
  ExitedUnpublished,  ///< exited clean but published nothing (counts failed)
  Failed,             ///< nonzero exit code
  Signaled,           ///< killed by an external signal
  Hung,               ///< exceeded the straggler deadline with no budget
                      ///< left; killed by the supervisor
  Superseded,         ///< a duplicate attempt won the publish race first
  SpawnFailed,        ///< fork/exec failed; no process ran
};

const char* fate_name(WorkerFate fate);

/// A worker termination observed by WorkerHost::wait_any.
struct WorkerEvent {
  std::uint64_t token = 0;  ///< the handle spawn() returned
  bool signaled = false;
  int exit_code = 0;  ///< valid when !signaled
  int signal = 0;     ///< valid when signaled
};

/// The supervisor's window onto the outside world. ProcessWorkerHost
/// implements it with fork/waitpid/kill over real shard workers; tests
/// implement it with a script and a virtual clock.
class WorkerHost {
 public:
  virtual ~WorkerHost() = default;

  /// Launch attempt `attempt` (0-based) of `task`. Returns an opaque
  /// nonzero token identifying the worker, or 0 when the launch itself
  /// failed (treated as a failed attempt, retried with backoff).
  virtual std::uint64_t spawn(int task, int attempt) = 0;

  /// Block up to `timeout_ms` for any live worker to terminate; fill
  /// `*event` and return true, or return false on timeout (the host
  /// must still let at least `timeout_ms` of clock elapse when it has
  /// nothing to report — the supervisor's backoff timers depend on it).
  virtual bool wait_any(std::int64_t timeout_ms, WorkerEvent* event) = 0;

  /// True when `task`'s artifact is durably published (e.g.
  /// shard_complete on its directory). Consulted when a worker exits
  /// clean, to distinguish Published from ExitedUnpublished.
  virtual bool published(int task) = 0;

  /// Forcibly terminate a worker (straggler loser or hung attempt).
  /// The death still arrives through wait_any.
  virtual void kill_worker(std::uint64_t token) = 0;

  /// Monotonic milliseconds. All supervisor arithmetic (backoff
  /// deadlines, straggler medians) uses this clock only.
  virtual std::int64_t now_ms() = 0;

  /// `task` exhausted its attempt budget: move any partial artifacts
  /// aside (shard-K.failed.<attempt>) and record `diagnostic`.
  virtual void quarantine(int task, int attempt,
                          const std::string& diagnostic) = 0;

  /// Progress/diagnostic line for humans; hosts may print or discard.
  virtual void note(const std::string&) {}
};

struct SuperviseOptions {
  /// Total launches allowed per task: 1 first try + `retries` more
  /// (shared between failure retries and straggler re-dispatches).
  int retries = 2;
  std::uint64_t seed = 42;  ///< sweeps pass their run seed
  std::int64_t backoff_base_ms = 250;
  std::int64_t backoff_cap_ms = 10'000;
  /// Straggler deadline = max(straggler_min_ms, straggler_factor ×
  /// median published-attempt duration); armed only once at least half
  /// the tasks have published.
  std::int64_t straggler_min_ms = 2'000;
  double straggler_factor = 3.0;
  /// wait_any timeout while idle (bounds timer latency).
  std::int64_t poll_ms = 50;
};

/// Deterministic retry delay before attempt `attempt` (1-based: the
/// first retry) of `task`: base_ms × 2^(attempt-1) × jitter, jitter ∈
/// [0.75, 1.25] drawn from Rng(seed ⊕ hash(task, attempt)), clamped to
/// cap_ms. Monotone non-decreasing in `attempt` (2 × 0.75 ≥ 1.25, so
/// doubling always dominates the jitter).
std::int64_t backoff_ms(std::uint64_t seed, int task, int attempt,
                        std::int64_t base_ms, std::int64_t cap_ms);

/// One spawned attempt, chronologically recorded.
struct AttemptRecord {
  int task = 0;
  int attempt = 0;  ///< 0-based launch index for this task
  WorkerFate fate = WorkerFate::Failed;
  std::int64_t start_ms = 0;
  std::int64_t end_ms = 0;
};

struct TaskOutcome {
  int task = 0;
  bool published = false;
  int launches = 0;          ///< total attempts spawned
  int winning_attempt = -1;  ///< attempt index that published, or -1
  bool quarantined = false;
  std::string diagnostic;  ///< why the task failed, when it did
};

struct SuperviseReport {
  bool all_published = false;
  std::vector<TaskOutcome> tasks;      ///< indexed by task id
  std::vector<AttemptRecord> history;  ///< every attempt, in reap order
};

/// Supervise tasks 0..task_count-1 to completion: launch, classify,
/// retry with backoff, quarantine on budget exhaustion, re-dispatch
/// stragglers. Returns when every task is published or quarantined.
SuperviseReport supervise(int task_count, WorkerHost& host,
                          const SuperviseOptions& options);

// -- long-lived daemon supervision -------------------------------------------
//
// supervise() above drives run-to-completion workers: an attempt ends
// by publishing or dying, and "done" is a terminal state. A daemon
// fleet (the serve cluster router's members) inverts that: members are
// *supposed* to run forever, liveness is proven by heartbeats over a
// control channel, and the supervisor's job is to notice silence or
// death and restart the member with the same seeded backoff envelope —
// there is no terminal success, only the current incarnation.
//
// DaemonSupervisor is the same pure-event-loop idea as supervise():
// the owner (the cluster router's poll loop, or a scripted test with a
// virtual clock) feeds it heartbeats, reaped exits and clock ticks; it
// decides kills, restart schedules and per-member state. All process
// mechanics stay in the host.

/// Lifecycle of one supervised daemon member.
enum class MemberState {
  Starting,  ///< spawned; journal replay in progress, no heartbeat yet
  Up,        ///< heartbeats flowing within the deadline
  Stopping,  ///< killed by the supervisor (hang / overdue start);
             ///< awaiting the corpse through member_exited
  Backoff,   ///< dead; next incarnation scheduled at restart_at
  Failed,    ///< consecutive-failure budget exhausted (max_restarts >= 0)
};

const char* member_state_name(MemberState state);

/// The daemon supervisor's window onto the outside world.
class DaemonHost {
 public:
  virtual ~DaemonHost() = default;

  /// Launch incarnation `incarnation` (0-based) of `member`. Returns an
  /// opaque nonzero token, or 0 when the launch itself failed (treated
  /// as an instant death, rescheduled with backoff).
  virtual std::uint64_t spawn_member(int member, int incarnation) = 0;

  /// Forcibly terminate a member (hung past its heartbeat deadline or
  /// overdue starting). The death still arrives via member_exited.
  virtual void kill_member(std::uint64_t token) = 0;

  /// Monotonic milliseconds; all deadlines use this clock only.
  virtual std::int64_t now_ms() = 0;

  /// Progress/diagnostic line for humans; hosts may print or discard.
  virtual void note(const std::string&) {}
};

struct DaemonPolicy {
  std::uint64_t seed = 42;
  std::int64_t backoff_base_ms = 250;
  std::int64_t backoff_cap_ms = 10'000;
  /// Up: a member silent this long is declared hung and killed.
  std::int64_t heartbeat_deadline_ms = 2'000;
  /// Starting: budget for bind + journal replay before the first
  /// heartbeat; exceeded means killed and rescheduled.
  std::int64_t start_deadline_ms = 30'000;
  /// Consecutive failed incarnations (death before reaching Up resets
  /// nothing; reaching Up resets the streak) before the member is
  /// marked Failed. -1 = restart forever.
  int max_restarts = -1;
};

/// Pure state machine over DaemonHost. Not thread-safe; the owner's
/// event loop is the only caller.
class DaemonSupervisor {
 public:
  DaemonSupervisor(int member_count, DaemonHost& host, DaemonPolicy policy);

  /// Spawn incarnation 0 of every member.
  void start();

  /// A liveness heartbeat arrived from `member` (control channel).
  /// Starting -> Up (and the failure streak resets); Up refreshes the
  /// deadline; ignored in other states (a corpse's buffered bytes).
  void heartbeat(int member);

  /// The host reaped a member process. Schedules the next incarnation
  /// with backoff_ms(seed, member, streak), or marks Failed once the
  /// consecutive-failure budget is spent.
  void member_exited(std::uint64_t token, bool signaled, int code);

  /// Drive deadlines: kill hung/overdue members, launch due restarts.
  /// Call once per event-loop iteration.
  void tick();

  MemberState state(int member) const;
  /// 0-based spawn count - 1 for the member's current/last incarnation.
  int incarnation(int member) const;
  /// The host token of the live incarnation (0 when none).
  std::uint64_t token(int member) const;
  /// Which member owns a live token, or -1.
  int member_of(std::uint64_t token) const;
  int members_up() const;
  std::int64_t total_restarts() const { return total_restarts_; }
  std::int64_t hung_kills() const { return hung_kills_; }
  /// Milliseconds until the next internal deadline (restart timer or
  /// heartbeat/start deadline), clamped to [1, cap]; poll-loop timeout.
  std::int64_t next_deadline_ms(std::int64_t cap) const;

 private:
  struct Member {
    MemberState state = MemberState::Backoff;
    std::uint64_t token = 0;
    int incarnation = -1;
    int streak = 0;  ///< consecutive incarnations dead before Up
    std::int64_t deadline_ms = 0;    ///< Starting/Up: liveness deadline
    std::int64_t restart_at_ms = 0;  ///< Backoff: next spawn time
  };

  void launch(int member);
  void schedule_restart(int member, const std::string& why);

  DaemonHost& host_;
  DaemonPolicy policy_;
  std::vector<Member> members_;
  std::int64_t total_restarts_ = 0;
  std::int64_t hung_kills_ = 0;
};

// -- real-process host -------------------------------------------------------

/// WorkerHost over real child processes. Two launch modes:
///   - exec mode: `argv_for(task, attempt)` names a command line; the
///     child fork+execs it (the CLI re-invokes itself per shard). The
///     argv is materialized before fork, so the child only calls
///     async-signal-safe functions.
///   - fork-only mode: `child_main(task, attempt)` runs in the forked
///     child and its return value becomes the exit code (ForkModeChaos
///     in core_supervise_test runs shard cells in-process; the parent
///     must hold no live thread pools when spawning).
class ProcessWorkerHost : public WorkerHost {
 public:
  using ArgvFn = std::function<std::vector<std::string>(int, int)>;
  using ChildMainFn = std::function<int(int, int)>;
  using PublishedFn = std::function<bool(int)>;
  using QuarantineFn =
      std::function<void(int, int, const std::string&)>;
  using NoteFn = std::function<void(const std::string&)>;
  using LogPathFn = std::function<std::string(int, int)>;

  static ProcessWorkerHost exec_mode(ArgvFn argv_for,
                                     PublishedFn published);
  static ProcessWorkerHost fork_mode(ChildMainFn child_main,
                                     PublishedFn published);

  /// Default quarantine renames nothing; the CLI installs one that
  /// moves the shard directory aside and writes a diagnostic file.
  void set_quarantine(QuarantineFn fn) { quarantine_ = std::move(fn); }
  void set_note(NoteFn fn) { note_ = std::move(fn); }
  /// Exec mode only: redirect each worker's stdout+stderr to
  /// `fn(task, attempt)` (path materialized before fork).
  void set_log_path(LogPathFn fn) { log_path_ = std::move(fn); }

  /// Shutdown hygiene: install SIGTERM/SIGINT handlers that make the
  /// next wait_any forward the signal to every live worker, reap them
  /// (SIGKILL after `grace_ms` for any that linger), then re-raise the
  /// signal with its default disposition — so killing the orchestrator
  /// kills the whole sweep instead of orphaning in-flight shard
  /// workers. Handlers stay installed for the host's lifetime; only
  /// one host per process may install them.
  void install_signal_forwarding(std::int64_t grace_ms = 2'000);

  std::uint64_t spawn(int task, int attempt) override;
  bool wait_any(std::int64_t timeout_ms, WorkerEvent* event) override;
  bool published(int task) override;
  void kill_worker(std::uint64_t token) override;
  std::int64_t now_ms() override;
  void quarantine(int task, int attempt,
                  const std::string& diagnostic) override;
  void note(const std::string& message) override;

 private:
  ProcessWorkerHost() = default;

  ArgvFn argv_for_;
  ChildMainFn child_main_;
  PublishedFn published_;
  QuarantineFn quarantine_;
  /// Forward a pending SIGTERM/SIGINT (recorded by the handler) to
  /// every live worker, reap, and re-raise. No-op when none is pending.
  void forward_pending_signal();

  NoteFn note_;
  LogPathFn log_path_;
  std::map<std::uint64_t, int> live_;  ///< token (pid) → task
  bool forward_signals_ = false;
  std::int64_t forward_grace_ms_ = 2'000;
};

}  // namespace provmark::core
