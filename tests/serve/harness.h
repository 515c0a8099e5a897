// Shared fixtures for the serve test suites: temporary directories,
// generator-seeded event streams, in-process reference services, and
// forked `run_daemon` / `run_cluster` processes driven through the real
// `run_feed` client.
//
// Fork discipline: the helpers that fork expect a threadless parent.
// Reference services built here run workers = 0 (every apply happens on
// pump(), on the calling thread) and must be destroyed before the next
// fork. Directories carry the test process's pid, so suites running in
// parallel under `ctest -j` never share a socket or journal path.
#pragma once

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_suite/generator.h"
#include "bench_suite/program_text.h"
#include "serve/cluster.h"
#include "serve/daemon.h"
#include "serve/journal.h"
#include "serve/service.h"
#include "serve/socket_util.h"
#include "util/fault.h"

namespace provmark::serve::harness {

namespace fs = std::filesystem;

/// A fresh directory under the system temp dir, named by `tag` and the
/// process id, removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("provmark_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

// -- in-process services ------------------------------------------------------

/// Options for an in-process service: no worker threads, every record
/// kept replayable (no periodic checkpoints), two trials per run event.
inline ServiceOptions test_options(const fs::path& root) {
  ServiceOptions options;
  options.root = root;
  options.workers = 0;
  options.checkpoint_every = 0;
  options.pipeline.trials = 2;
  return options;
}

inline Request event_request(const std::string& session, EventKind kind,
                             const std::string& payload,
                             Priority priority = Priority::Normal) {
  Request request;
  request.is_event = true;
  request.event = kind;
  request.session = session;
  request.priority = priority;
  request.payload = payload;
  return request;
}

inline std::string digest_of(Service& service, const std::string& session) {
  Request request;
  request.is_event = false;
  request.query = QueryKind::Digest;
  request.session = session;
  Response response = service.submit(request);
  EXPECT_EQ(response.status, Status::Result) << response.body;
  return response.body;
}

using Stream = std::vector<std::pair<EventKind, std::string>>;

/// One generator-seeded session stream over the recorder `seed`
/// selects: two facts, a recursive rule, a pipeline run, and a post-run
/// fact (so replay and replication must get the run's asserted facts
/// right and keep appending after them).
inline Stream make_stream(std::uint64_t seed) {
  static const char* const kRecorders[] = {
      "spade", "opus", "camflow", "spade-camflow", "audit", "ebpf"};
  bench_suite::GeneratorOptions gen;
  gen.seed = seed;
  gen.scale = 3;
  gen.depth = 1;
  gen.fan_out = 1;
  const std::string program =
      bench_suite::format_program(bench_suite::generate_program(gen));
  const std::string s = std::to_string(seed);
  return {
      {EventKind::Fact, "edge(a" + s + ",b" + s + ")."},
      {EventKind::Fact, "edge(b" + s + ",c" + s + ")."},
      {EventKind::Rule,
       "path(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y), edge(Y,Z)."},
      {EventKind::Run, std::string(kRecorders[seed % 6]) + "\n" + program},
      {EventKind::Fact, "edge(c" + s + ",a" + s + ")."},
  };
}

/// Submit every record journaled for `session` under `root` to
/// `service`. True when each was acked under its journaled seq.
inline bool replay_journal(Service& service, const fs::path& root,
                           const std::string& session) {
  Journal journal(root, session, 0);
  bool ok = true;
  for (const JournalRecord& record : journal.recover().records) {
    const Response response = service.submit(
        event_request(session, record.kind, record.payload, record.priority));
    ok = ok && response.status == Status::Ok && response.seq == record.seq;
  }
  return ok;
}

// -- forked daemons and routers -----------------------------------------------

/// A forked child process. One that is still running when its owner
/// goes out of scope (a failed assertion, say) is terminated and
/// reaped, so no test leaks a daemon.
class Child {
 public:
  explicit Child(pid_t pid) : pid_(pid) {}
  Child(Child&& other) noexcept : pid_(std::exchange(other.pid_, -1)) {}
  Child& operator=(Child&&) = delete;
  ~Child() { terminate(); }

  bool running() const { return pid_ > 0; }

  /// SIGTERM, then the exit code (128 + signal when killed) if the
  /// child ends within `budget_ms`; otherwise SIGKILL and -1.
  int terminate(int budget_ms = 5000) {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    bool timed_out = false;
    const int status = wait(budget_ms, &timed_out);
    if (timed_out) return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  }

  /// SIGKILL and reap; returns the wait status.
  int kill() {
    if (pid_ > 0) ::kill(pid_, SIGKILL);
    return wait();
  }

  /// Reap the child once it exits; returns the wait status. A child
  /// still running after `budget_ms` is SIGKILLed first.
  int wait(int budget_ms = 10000, bool* timed_out = nullptr) {
    int status = 0;
    if (pid_ <= 0) return status;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(budget_ms);
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        if (timed_out) *timed_out = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    pid_ = -1;
    return status;
  }

 private:
  pid_t pid_;
};

/// Fork a child that sends stdout and stderr to `log` (when set) and
/// exits with `body()`.
inline Child fork_child(const std::function<int()>& body,
                        const fs::path& log = {}) {
  const pid_t pid = ::fork();
  if (pid != 0) return Child(pid);
  if (!log.empty()) {
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
  }
  int code = 1;
  try {
    code = body();
  } catch (...) {
  }
  ::_exit(code);
}

/// A daemon journaling into `root` and listening on `socket`: one apply
/// worker, fully replayable journals, a 50 ms standby heartbeat.
inline DaemonOptions daemon_options(const fs::path& root,
                                    const std::string& socket) {
  DaemonOptions options;
  options.service.root = root;
  options.service.workers = 1;
  options.service.checkpoint_every = 0;
  options.service.pipeline.trials = 2;
  options.socket_path = socket;
  options.heartbeat_ms = 50;
  return options;
}

/// Fork `run_daemon(options)` with `fault_spec` armed in the child, as
/// `provmark --fault-spec ... serve` arms it.
inline Child fork_daemon(const DaemonOptions& options,
                         const std::string& fault_spec = "",
                         const fs::path& log = {}) {
  return fork_child(
      [&] {
        if (!fault_spec.empty()) {
          util::fault::arm(util::fault::parse_fault_spec(fault_spec), 0, 0);
        }
        return run_daemon(options);
      },
      log);
}

/// A router on `socket` over `members` daemons under `root`, with
/// heartbeats and restart backoff short enough for a test.
inline ClusterOptions cluster_options(const fs::path& root,
                                      const std::string& socket,
                                      int members = 3) {
  ClusterOptions options;
  options.socket_path = socket;
  options.root = root;
  options.members = members;
  options.heartbeat_ms = 50;
  options.backoff_base_ms = 50;
  options.backoff_cap_ms = 500;
  options.service.workers = 1;
  options.service.checkpoint_every = 0;
  options.service.pipeline.trials = 2;
  return options;
}

/// Fork `run_cluster(options)`. Its fault spec arms router-side rules
/// here, as the CLI does; member rules re-arm inside each member.
/// Members inherit the router's `log`.
inline Child fork_cluster(const ClusterOptions& options,
                          const fs::path& log = {}) {
  return fork_child(
      [&] {
        if (!options.fault_spec.empty()) {
          util::fault::arm(util::fault::parse_fault_spec(options.fault_spec),
                           -1, -1);
        }
        return run_cluster(options);
      },
      log);
}

inline bool log_contains(const fs::path& log, const std::string& needle) {
  std::ifstream in(log);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str().find(needle) != std::string::npos;
}

// -- the client side ----------------------------------------------------------

/// Feed request `lines` to `socket`; returns run_feed's exit code and
/// appends the response lines to `*responses` when given.
inline int feed_lines(const std::string& socket,
                      const std::vector<std::string>& lines,
                      std::string* responses = nullptr,
                      const FeedOptions& options = {}) {
  std::ostringstream requests;
  for (const std::string& line : lines) requests << line << "\n";
  std::istringstream in(requests.str());
  std::ostringstream out;
  const int rc = run_feed(socket, in, out, options);
  if (responses) *responses += out.str();
  return rc;
}

/// Feed one request line; the response line, or "" when `socket` is
/// unreachable. Probes with a bare connect first so polling a daemon
/// that is not up yet stays quiet.
inline std::string feed_one(const std::string& socket,
                            const std::string& request,
                            const FeedOptions& options = {}) {
  if (options.retries == 0) {
    const int fd = connect_unix(socket);
    if (fd < 0) return "";
    ::close(fd);
  }
  std::string line;
  if (feed_lines(socket, {request}, &line, options) == 1) return "";
  if (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

inline bool wait_until(const std::function<bool()>& predicate,
                       int budget_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

inline bool daemon_ready(const std::string& socket) {
  return feed_one(socket, "ping") == "result pong";
}

/// The `stats` body behind `socket` as key -> value; empty when the
/// socket is unreachable or the answer is not a result.
inline std::map<std::string, std::string> stats_of(
    const std::string& socket, const FeedOptions& options = {}) {
  std::map<std::string, std::string> out;
  const std::string line = feed_one(socket, "stats", options);
  if (line.empty()) return out;
  try {
    const Response response = parse_response(line);
    if (response.status != Status::Result) return out;
    std::istringstream body(response.body);
    std::string kv;
    while (std::getline(body, kv)) {
      const std::size_t eq = kv.find('=');
      if (eq != std::string::npos) out[kv.substr(0, eq)] = kv.substr(eq + 1);
    }
  } catch (const std::exception&) {
  }
  return out;
}

/// One numeric stats value; -1 when absent or not a number.
inline std::int64_t stat(const std::map<std::string, std::string>& stats,
                         const std::string& key) {
  const auto it = stats.find(key);
  if (it == stats.end()) return -1;
  try {
    return std::stoll(it->second);
  } catch (const std::exception&) {
    return -1;
  }
}

/// A primary whose standby is connected and has acked every record.
inline bool caught_up(const std::string& primary_socket) {
  const auto stats = stats_of(primary_socket);
  return stat(stats, "repl_connected") == 1 &&
         stat(stats, "repl_lag_events") == 0;
}

/// A daemon with no queued or in-flight applies. Queries wait for a
/// session's apply lock, not for its queue, so identity checks wait
/// for this first.
inline bool drained(const std::string& socket,
                    const FeedOptions& options = {}) {
  return stat(stats_of(socket, options), "pending") == 0;
}

/// `socket` answers every session's digest exactly as `reference`
/// does.
inline void expect_digests_match(Service& reference,
                                 const std::vector<std::string>& sessions,
                                 const std::string& socket,
                                 const FeedOptions& options = {}) {
  for (const std::string& session : sessions) {
    EXPECT_EQ(feed_one(socket, "digest " + session + " 5000", options),
              "result " + digest_of(reference, session))
        << "session " << session;
  }
}

}  // namespace provmark::serve::harness
