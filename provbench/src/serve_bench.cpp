#include "serve_bench.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_suite/program.h"
#include "bench_suite/program_text.h"
#include "serve/cluster.h"
#include "serve/daemon.h"
#include "serve/journal.h"
#include "serve/service.h"
#include "serve/session.h"
#include "serve/socket_util.h"
#include "trace.h"
#include "util/rng.h"

namespace provbench {

using namespace provmark;
namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kServiceSeed = 42;
constexpr int kApplyWorkers = 2;
/// The stream is invalid when its generator sends this late at p99.
constexpr double kMaxLateP99Ms = 25.0;
/// Length of the open-loop stream inside a traced run.
constexpr double kTracedStreamSeconds = 3.0;
/// Requests each ladder rung replays, and their spacing.
constexpr std::size_t kLadderRequests = 1500;
constexpr std::chrono::microseconds kLadderInterval{500};

/// Recorders of the stream's `run` events (Table-1 programs).
const char* const kRunSystems[] = {"ebpf", "spade", "audit"};

const char* const kReachRule =
    "reach(X,Y) :- edge(X,Y).\nreach(X,Z) :- reach(X,Y), edge(Y,Z).";

serve::Request event(const std::string& session, serve::EventKind kind,
                     std::string payload) {
  serve::Request r;
  r.is_event = true;
  r.event = kind;
  r.session = session;
  r.priority = serve::Priority::Normal;
  r.payload = std::move(payload);
  return r;
}

// -- processes ----------------------------------------------------------------

/// Fork a child running `body` with stdout/stderr sent to `log`; the
/// caller must have no threads of its own at this point.
pid_t spawn(const std::function<int()>& body, const fs::path& log) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid != 0) return pid;
  const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    ::dup2(fd, 1);
    ::dup2(fd, 2);
    ::close(fd);
  }
  int code = 1;
  try {
    code = body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "provbench child: %s\n", e.what());
  }
  std::fflush(nullptr);
  ::_exit(code);
}

void stop(pid_t pid, int sig) {
  if (pid <= 0) return;
  ::kill(pid, sig);
  int status = 0;
  ::waitpid(pid, &status, 0);
}

serve::ServiceOptions service_options(const fs::path& root, int workers) {
  serve::ServiceOptions options;
  options.root = root;
  options.workers = workers;
  options.seed = kServiceSeed;
  return options;
}

struct DaemonSpec {
  fs::path root;
  std::string socket;
  std::string replica_of;
  bool sync = false;
};

pid_t spawn_daemon(const DaemonSpec& spec, const fs::path& log) {
  return spawn(
      [&spec] {
        serve::DaemonOptions options;
        options.service = service_options(spec.root, kApplyWorkers);
        options.socket_path = spec.socket;
        options.replica_of = spec.replica_of;
        options.repl_sync = spec.sync;
        options.heartbeat_ms = 50;
        return serve::run_daemon(options);
      },
      log);
}

pid_t spawn_cluster(const fs::path& root, const std::string& socket,
                    const fs::path& log) {
  return spawn(
      [&] {
        serve::ClusterOptions options;
        options.socket_path = socket;
        options.root = root;
        options.members = 1;
        options.service = service_options(root, kApplyWorkers);
        return serve::run_cluster(options);
      },
      log);
}

// -- a blocking line client ---------------------------------------------------

class LineClient {
 public:
  explicit LineClient(int fd) : fd_(fd) {}
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  static std::unique_ptr<LineClient> connect(const std::string& socket) {
    const int fd = serve::connect_unix(socket);
    if (fd < 0) return nullptr;
    timeval timeout{30, 0};  // a wedged peer fails the run, not hangs it
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    return std::make_unique<LineClient>(fd);
  }

  bool send(const std::string& line) {
    std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool receive(std::string& line) {
    while (!serve::next_line(buffer_, line)) {
      char chunk[8192];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    return true;
  }

  /// One closed-loop request; "" when the connection failed.
  std::string call(const std::string& line) {
    std::string response;
    if (!send(line) || !receive(response)) return "";
    return response;
  }

 private:
  int fd_;
  std::string buffer_;
};

std::string call_once(const std::string& socket, const std::string& line) {
  std::unique_ptr<LineClient> client = LineClient::connect(socket);
  return client ? client->call(line) : "";
}

bool wait_for(const std::function<bool()>& ready, double budget_s) {
  const auto start = Clock::now();
  while (seconds_between(start, Clock::now()) < budget_s) {
    if (ready()) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return false;
}

std::map<std::string, std::uint64_t> stats_of(const std::string& socket) {
  std::map<std::string, std::uint64_t> out;
  const std::string line = call_once(socket, "stats");
  if (line.empty()) return out;
  serve::Response response = serve::parse_response(line);
  std::istringstream body(response.body);
  std::string kv;
  while (std::getline(body, kv)) {
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos) continue;
    try {
      out[kv.substr(0, eq)] = std::stoull(kv.substr(eq + 1));
    } catch (const std::exception&) {
      // non-numeric health keys (states, roles) are not needed here
    }
  }
  return out;
}

bool is_success(serve::Status status) {
  return status == serve::Status::Ok || status == serve::Status::Result;
}

// -- /proc counters of the daemon --------------------------------------------

struct ProcCounters {
  double write_syscalls = 0;
  double bytes_written = 0;
  double cpu_s = 0;
};

ProcCounters read_proc(pid_t pid) {
  ProcCounters c;
  std::ifstream io("/proc/" + std::to_string(pid) + "/io");
  std::string key;
  double value = 0;
  while (io >> key >> value) {
    if (key == "syscw:") c.write_syscalls = value;
    if (key == "wchar:") c.bytes_written = value;
  }
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close != std::string::npos) {
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    // Fields 3.. follow the command name; utime and stime are 14 and 15.
    double utime = 0, stime = 0;
    for (int index = 3; fields >> field && index <= 15; ++index) {
      if (index == 14) utime = std::stod(field);
      if (index == 15) stime = std::stod(field);
    }
    c.cpu_s = (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  return c;
}

// -- the open-loop stream -----------------------------------------------------

struct StreamOutcome {
  std::vector<double> latency_ms;  ///< from due time; -1 = no answer
  std::vector<serve::Status> status;
  std::vector<double> late_ms;     ///< send time minus due time
};

/// Send `requests` on their schedule from this thread, one reader thread
/// per connection matching in-order answers to requests.
StreamOutcome open_loop(const std::string& socket,
                        const std::vector<StreamRequest>& requests) {
  struct Connection {
    std::unique_ptr<LineClient> client;
    std::mutex mutex;
    std::deque<std::pair<std::size_t, Clock::time_point>> in_flight;
    std::size_t expected = 0;
  };
  StreamOutcome out;
  out.latency_ms.assign(requests.size(), -1);
  out.status.assign(requests.size(), serve::Status::Error);
  out.late_ms.assign(requests.size(), 0);
  std::vector<Connection> connections(kStreamConnections);
  for (Connection& c : connections) {
    c.client = LineClient::connect(socket);
    if (!c.client) throw std::runtime_error("cannot connect to " + socket);
  }
  for (const StreamRequest& r : requests) ++connections[r.connection].expected;

  std::vector<std::thread> readers;
  for (Connection& c : connections) {
    readers.emplace_back([&c, &out] {
      std::string line;
      for (std::size_t got = 0; got < c.expected; ++got) {
        if (!c.client->receive(line)) return;
        const auto now = Clock::now();
        std::pair<std::size_t, Clock::time_point> sent;
        {
          std::lock_guard<std::mutex> lock(c.mutex);
          sent = c.in_flight.front();
          c.in_flight.pop_front();
        }
        out.latency_ms[sent.first] = seconds_between(sent.second, now) * 1e3;
        try {
          out.status[sent.first] = serve::parse_response(line).status;
        } catch (const std::exception&) {
          out.status[sent.first] = serve::Status::Error;
        }
      }
    });
  }

  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(requests[i].due_s));
    // Sleep, then spin the last stretch: timer wake-ups on a VM run late
    // by ~70 us at the median, which would otherwise land in every
    // latency sample.
    std::this_thread::sleep_until(due - std::chrono::microseconds(200));
    while (Clock::now() < due) {
    }
    out.late_ms[i] = seconds_between(due, Clock::now()) * 1e3;
    Connection& c = connections[requests[i].connection];
    {
      std::lock_guard<std::mutex> lock(c.mutex);
      c.in_flight.emplace_back(i, due);
    }
    if (!c.client->send(requests[i].line)) break;
  }
  for (std::thread& t : readers) t.join();
  return out;
}

/// Final per-session digests of the reference: a fresh in-process
/// Service (workers=0) fed exactly the events the daemon acked.
std::map<std::string, std::string> reference_digests(
    const fs::path& root, const std::vector<StreamRequest>& requests,
    const std::vector<serve::Status>& status, std::uint64_t& failed) {
  serve::Service reference(service_options(root, 0));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!requests[i].request.is_event || status[i] != serve::Status::Ok) {
      continue;
    }
    if (reference.submit(requests[i].request).status != serve::Status::Ok) {
      ++failed;
    }
    reference.pump();
  }
  return reference.session_digests();
}

/// Sessions whose daemon digest differs from the reference.
std::uint64_t digest_mismatches(
    const std::string& socket,
    const std::map<std::string, std::string>& reference) {
  std::uint64_t bad = 0;
  std::unique_ptr<LineClient> client = LineClient::connect(socket);
  for (const auto& [session, digest] : reference) {
    std::string line = client ? client->call("digest " + session + " 5000")
                              : "";
    std::string got;
    try {
      serve::Response r = serve::parse_response(line);
      if (r.status == serve::Status::Result) got = r.body;
    } catch (const std::exception&) {
    }
    while (!got.empty() && got.back() == '\n') got.pop_back();
    if (got != digest) {
      if (++bad <= 3) {
        std::fprintf(stderr, "provbench: session %s digest %s != %s\n",
                     session.c_str(), got.c_str(), digest.c_str());
      }
    }
  }
  return bad;
}

/// Time from fork to the first `pong` of a daemon on a fresh root.
double cold_start_seconds(const DaemonSpec& spec, const fs::path& log,
                          pid_t& pid) {
  const auto start = Clock::now();
  pid = spawn_daemon(spec, log);
  if (!wait_for([&] { return call_once(spec.socket, "ping") == "result pong"; },
                30)) {
    throw std::runtime_error("daemon did not answer ping");
  }
  return seconds_between(start, Clock::now());
}

/// SIGKILL the daemon, restart it on the same journal root and time
/// until a new event is acked: journal scan, checkpoint restore and
/// tail replay.
double restart_seconds(const DaemonSpec& spec, const fs::path& log,
                       pid_t& pid) {
  stop(pid, SIGKILL);
  const std::string line = serve::format_request(
      event("restart-probe", serve::EventKind::Fact,
            "edge(p,q)."));
  const auto start = Clock::now();
  pid = spawn_daemon(spec, log);
  if (!wait_for([&] { return call_once(spec.socket, line).rfind("ok ", 0) == 0; },
                60)) {
    throw std::runtime_error("restarted daemon did not ack an event");
  }
  return seconds_between(start, Clock::now());
}

struct StreamReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool late = false;
  double ack_p50_ms = 0, ack_p99_ms = 0;
  double query_p50_ms = 0, query_p99_ms = 0;
  double late_p99_ms = 0, late_max_ms = 0;
  double restart_s = 0;
  std::map<std::string, std::uint64_t> stats;  ///< daemon after the stream
  ProcCounters proc;                           ///< daemon, over the stream
  std::uint64_t acks = 0, answered = 0;
};

/// Start a daemon, run the open-loop stream for `seconds`, check every
/// session digest against the reference, then SIGKILL and restart the
/// daemon on the same journal root and check the digests again.
StreamReport stream_run(std::uint64_t seed, double seconds,
                        const fs::path& dir) {
  StreamReport report;
  fs::create_directories(dir);
  const fs::path log = dir / "daemon.log";
  DaemonSpec spec{dir / "root", (dir / "d.sock").string(), "", false};
  pid_t pid = -1;
  cold_start_seconds(spec, log, pid);

  const std::vector<StreamRequest> requests = make_stream(
      seed, static_cast<std::size_t>(seconds * kOfferedRate));
  // Write back what set-up and earlier runs left dirty, so the stream's
  // fsyncs do not pay for it.
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::syncfs(dir_fd);
    ::close(dir_fd);
  }
  const ProcCounters before = read_proc(pid);
  StreamOutcome outcome = open_loop(spec.socket, requests);
  // Let the apply workers finish before reading digests and counters.
  wait_for([&] { return stats_of(spec.socket)["pending"] == 0; }, 60);
  const ProcCounters after = read_proc(pid);
  report.proc = {after.write_syscalls - before.write_syscalls,
                 after.bytes_written - before.bytes_written,
                 after.cpu_s - before.cpu_s};
  report.stats = stats_of(spec.socket);

  std::vector<double> acks, queries;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ++report.attempted;
    if (!is_success(outcome.status[i]) || outcome.latency_ms[i] < 0) {
      if (++report.failed <= 3) {
        std::fprintf(stderr, "provbench: request %zu answered %s\n", i,
                     serve::status_name(outcome.status[i]));
      }
      continue;
    }
    (requests[i].kind == RequestKind::Query ? queries : acks)
        .push_back(outcome.latency_ms[i]);
  }
  report.acks = acks.size();
  report.answered = acks.size() + queries.size();
  report.ack_p50_ms = percentile(acks, 0.50);
  report.ack_p99_ms = percentile(acks, 0.99);
  report.query_p50_ms = percentile(queries, 0.50);
  report.query_p99_ms = percentile(queries, 0.99);
  report.late_p99_ms = percentile(outcome.late_ms, 0.99);
  report.late_max_ms = percentile(outcome.late_ms, 1.0);
  report.late = report.late_p99_ms > kMaxLateP99Ms;

  const std::map<std::string, std::string> reference = reference_digests(
      dir / "reference", requests, outcome.status, report.failed);
  report.attempted += reference.size();
  report.failed += digest_mismatches(spec.socket, reference);

  report.restart_s = restart_seconds(spec, log, pid);
  report.attempted += 1 + reference.size();
  report.failed += digest_mismatches(spec.socket, reference);
  stop(pid, SIGTERM);
  return report;
}

void print_health(const char* what, const StreamReport& r) {
  auto stat = [&r](const char* key) {
    auto it = r.stats.find(key);
    return it == r.stats.end() ? 0ULL
                               : static_cast<unsigned long long>(it->second);
  };
  std::printf(
      "%s: offered %.0f/s, answered %llu, late p99 %.3f ms max %.3f ms%s; "
      "daemon busy=%llu shed=%llu checkpoints=%llu; ack p50 %.3f p99 %.3f "
      "ms, query p50 %.3f p99 %.3f ms\n",
      what, kOfferedRate, static_cast<unsigned long long>(r.answered),
      r.late_p99_ms, r.late_max_ms, r.late ? " (INVALID: generator late)" : "",
      stat("busy"), stat("shed_low") + stat("shed_normal"),
      stat("checkpoints"), r.ack_p50_ms, r.ack_p99_ms, r.query_p50_ms,
      r.query_p99_ms);
}

}  // namespace

std::vector<StreamRequest> make_stream(std::uint64_t seed, std::size_t count) {
  struct Slot {
    int generation = 0;
    int events = 0;
    int chains = 0;
  };
  Slot slots[kStreamSessions];
  util::Rng rng(util::Rng(seed).fork(0x5e12e).next_u64());
  const std::vector<bench_suite::BenchmarkProgram>& programs =
      bench_suite::table_benchmarks();
  std::vector<StreamRequest> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const int s = static_cast<int>(rng.next_below(kStreamSessions));
    Slot& slot = slots[s];
    if (slot.events == kEventsPerSession) slot = Slot{slot.generation + 1};
    const std::string session =
        "s" + std::to_string(s) + "-g" + std::to_string(slot.generation);
    StreamRequest r;
    r.due_s = static_cast<double>(i) / kOfferedRate;
    r.connection = s % kStreamConnections;
    // Mix: 90% fact writes, 8% reach queries over a recent chain, 2%
    // Table-1 runs; rules only open each session. A rule added to a
    // grown session re-saturates all of it (~10 ms at 512 events), and
    // 2% of them pushed the daemon into shedding at 2000/s.
    const std::uint64_t u = rng.next_below(100);
    if (slot.events == 0) {
      r.kind = RequestKind::Rule;  // every session opens with reach
      r.request = event(session, serve::EventKind::Rule, kReachRule);
    } else if (u < 90) {
      r.kind = RequestKind::Fact;
      const std::string c = "c" + std::to_string(slot.chains++) + "_";
      std::string facts;
      for (int j = 0; j + 1 < 16; ++j) {
        facts += "edge(" + c + std::to_string(j) + "," + c +
                 std::to_string(j + 1) + ").\n";
      }
      r.request = event(session, serve::EventKind::Fact, facts);
    } else if (u < 98) {
      r.kind = RequestKind::Query;
      const int recent = std::max(1, std::min(slot.chains, 4));
      const int chain = std::max(
          0, slot.chains - 1 - static_cast<int>(rng.next_below(recent)));
      r.request.session = session;
      r.request.query = serve::QueryKind::Query;
      r.request.deadline_ms = 1000;
      r.request.payload = "reach(c" + std::to_string(chain) + "_0,X)";
    } else {
      r.kind = RequestKind::Run;
      const char* system = kRunSystems[rng.next_below(3)];
      const bench_suite::BenchmarkProgram& program =
          programs[rng.next_below(programs.size())];
      r.request = event(session, serve::EventKind::Run,
                        std::string(system) + "\n" +
                            bench_suite::format_program(program));
    }
    if (r.kind != RequestKind::Query) ++slot.events;
    r.line = serve::format_request(r.request);
    out.push_back(std::move(r));
  }
  return out;
}

// -- traced serve -------------------------------------------------------------

namespace {

/// Replay `requests` closed-loop through `call`, one span and one
/// latency sample (microseconds) per request. Requests start at most
/// one per kLadderInterval so the apply workers keep up and no rung is
/// measured while refusing work.
std::vector<double> rung_latencies(
    const std::vector<StreamRequest>& requests, Tracer& tracer,
    const char* rung, RunResult& out,
    const std::function<serve::Status(const StreamRequest&)>& call) {
  std::vector<double> us;
  const auto begin = Clock::now();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::this_thread::sleep_until(begin + i * kLadderInterval);
    serve::Status status = serve::Status::Error;
    const auto start = Clock::now();
    {
      Tracer::Scope s(tracer, rung, i);
      status = call(requests[i]);
    }
    us.push_back(seconds_between(start, Clock::now()) * 1e6);
    ++out.attempted;
    if (!is_success(status)) {
      ++out.failed;
      std::fprintf(stderr, "provbench: rung %s request %zu answered %s\n",
                   rung, i, serve::status_name(status));
    }
  }
  return us;
}

/// A rung behind a socket: one connection, one line per request.
std::vector<double> socket_rung(const std::string& socket,
                                const std::vector<StreamRequest>& requests,
                                Tracer& tracer, const char* rung,
                                RunResult& out) {
  std::unique_ptr<LineClient> client = LineClient::connect(socket);
  if (!client) {
    throw std::runtime_error(std::string(rung) + ": cannot connect");
  }
  return rung_latencies(
      requests, tracer, rung, out, [&client](const StreamRequest& r) {
        const std::string line = client->call(r.line);
        try {
          return serve::parse_response(line).status;
        } catch (const std::exception&) {
          return serve::Status::Error;
        }
      });
}

serve::JournalRecord record_of(const serve::Request& request,
                               std::uint64_t seq) {
  serve::JournalRecord record;
  record.seq = seq;
  record.kind = request.event;
  record.priority = request.priority;
  record.payload = request.payload;
  return record;
}

/// Session layer directly: apply events and run queries on per-session
/// Session objects, as the apply workers do. One span per call.
std::vector<double> session_rung(const std::vector<StreamRequest>& requests,
                                 Tracer& tracer, const char* rung,
                                 RunResult& out) {
  std::map<std::string, std::unique_ptr<serve::Session>> sessions;
  std::map<std::string, std::uint64_t> seqs;
  std::vector<double> us;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const serve::Request& request = requests[i].request;
    auto& session = sessions[request.session];
    if (!session) {
      session = std::make_unique<serve::Session>(
          request.session, util::stable_hash(request.session),
          serve::SessionOptions{});
    }
    const auto start = Clock::now();
    {
      Tracer::Scope s(tracer, rung, i);
      if (request.is_event) {
        session->apply(record_of(request, ++seqs[request.session]));
      } else {
        session->query(request.payload);
      }
    }
    us.push_back(seconds_between(start, Clock::now()) * 1e6);
    ++out.attempted;
    if (session->quarantined()) {
      ++out.failed;
      std::fprintf(stderr, "provbench: session %s quarantined: %s\n",
                   request.session.c_str(),
                   session->quarantine_reason().c_str());
      session.reset();
    }
  }
  return us;
}

/// Isolated layer calls on one complete session (kEventsPerSession
/// events): Session::apply per kind, Session::query, Journal::append,
/// Journal::checkpoint and Session::restore at the workload's size.
void isolated_calls(const std::vector<StreamRequest>& stream,
                    const fs::path& dir, Tracer& tracer, RunResult& out) {
  const std::string session_id = "s0-g0";
  serve::Session session(session_id, 1, serve::SessionOptions{});
  serve::Journal journal(dir / "journal", session_id, 1);
  std::vector<serve::JournalRecord> records;
  std::uint64_t id = 0;
  for (const StreamRequest& r : stream) {
    if (r.request.session != session_id) continue;
    if (!r.request.is_event) {
      Tracer::Scope s(tracer, "session.query", id++);
      session.query(r.request.payload);
      continue;
    }
    records.push_back(record_of(r.request, records.size() + 1));
    const char* name = r.kind == RequestKind::Fact   ? "session.apply.fact"
                       : r.kind == RequestKind::Rule ? "session.apply.rule"
                                                     : "session.apply.run";
    {
      Tracer::Scope s(tracer, "journal.append", id);
      journal.append(records.back());
    }
    Tracer::Scope s(tracer, name, id++);
    session.apply(records.back());
  }
  out.attempted += records.size();
  if (session.quarantined() || records.size() != kEventsPerSession) {
    ++out.failed;
    std::fprintf(stderr, "provbench: isolated session: %zu events, %s\n",
                 records.size(), session.quarantine_reason().c_str());
  }
  const std::string& program = session.program_log();
  for (int i = 0; i < 5; ++i) {
    Tracer::Scope s(tracer, "journal.checkpoint", id++);
    journal.checkpoint(program, records.size());
  }
  for (int i = 0; i < 3; ++i) {
    serve::Session fresh(session_id, 1, serve::SessionOptions{});
    Tracer::Scope s(tracer, "session.restore", id++);
    fresh.restore(program, records.size());
  }
  out.metrics["journal.checkpoint_kb"] =
      static_cast<double>(program.size()) / 1024.0;

  // Protocol: format and parse every request line of the stream.
  for (int rep = 0; rep < 3; ++rep) {
    {
      Tracer::Scope s(tracer, "protocol.format", id++);
      for (const StreamRequest& r : stream) serve::format_request(r.request);
    }
    Tracer::Scope s(tracer, "protocol.parse", id++);
    for (const StreamRequest& r : stream) serve::parse_request(r.line);
  }
}

}  // namespace

void trace_serve(std::uint64_t seed, const fs::path& work_dir,
                 const fs::path& spans_path, RunResult& out) {
  Metrics& m = out.metrics;
  Tracer tracer(true);
  const fs::path log = work_dir / "daemon.log";

  // Long enough to hold one complete session for the isolated calls.
  const std::vector<StreamRequest> stream = make_stream(seed, 8000);
  isolated_calls(stream, work_dir / "isolated", tracer, out);
  const std::vector<StreamRequest> ladder(stream.begin(),
                                          stream.begin() + kLadderRequests);

  // The ladder: the same requests closed-loop through each rung.
  std::map<std::string, double> rung_us;
  rung_us["session"] = median(session_rung(ladder, tracer, "rung.session", out));
  {
    serve::Service service(service_options(work_dir / "rung-service",
                                           kApplyWorkers));
    rung_us["service"] = median(rung_latencies(
        ladder, tracer, "rung.service", out,
        [&service](const StreamRequest& r) {
          return service.submit(r.request).status;
        }));
  }  // workers joined before the next fork
  {
    DaemonSpec spec{work_dir / "rung-daemon",
                    (work_dir / "rd.sock").string(), "", false};
    pid_t pid = -1;
    cold_start_seconds(spec, log, pid);
    rung_us["daemon"] =
        median(socket_rung(spec.socket, ladder, tracer, "rung.daemon", out));
    stop(pid, SIGTERM);
  }
  {
    const fs::path root = work_dir / "rung-cluster";
    const std::string socket = (work_dir / "rc.sock").string();
    pid_t pid = spawn_cluster(root, socket, log);
    // The router answers `busy` until its link to the member is up; the
    // member itself answers a digest of an unknown session with
    // `bad-request`.
    if (!wait_for([&] {
          return call_once(socket, "digest cluster-probe 1000")
                     .rfind("bad-request", 0) == 0;
        }, 30)) {
      throw std::runtime_error("cluster member did not come up");
    }
    rung_us["cluster"] =
        median(socket_rung(socket, ladder, tracer, "rung.cluster", out));
    stop(pid, SIGTERM);
  }
  for (bool sync : {false, true}) {
    const std::string tag = sync ? "sync" : "async";
    DaemonSpec primary{work_dir / ("rung-primary-" + tag),
                       (work_dir / ("rp-" + tag + ".sock")).string(), "",
                       sync};
    DaemonSpec standby{work_dir / ("rung-standby-" + tag),
                       (work_dir / ("rs-" + tag + ".sock")).string(),
                       primary.socket, false};
    pid_t primary_pid = -1, standby_pid = -1;
    cold_start_seconds(primary, log, primary_pid);
    standby_pid = spawn_daemon(standby, log);
    if (!wait_for([&] {
          return stats_of(primary.socket)["repl_connected"] == 1;
        }, 30)) {
      throw std::runtime_error("standby did not connect");
    }
    rung_us[tag] = median(socket_rung(
        primary.socket, ladder, tracer,
        sync ? "rung.sync_standby" : "rung.async_standby", out));
    stop(standby_pid, SIGTERM);
    stop(primary_pid, SIGTERM);
  }
  m["service.submit_us"] = rung_us["service"];
  m["daemon.hop_us"] = rung_us["daemon"] - rung_us["service"];
  m["cluster.hop_us"] = rung_us["cluster"] - rung_us["daemon"];
  m["replicate.async_hop_us"] = rung_us["async"] - rung_us["daemon"];
  m["replicate.sync_hop_us"] = rung_us["sync"] - rung_us["daemon"];

  // A short open-loop stream for the daemon counters and latencies.
  StreamReport r = stream_run(seed, kTracedStreamSeconds, work_dir / "stream");
  print_health("traced stream", r);
  out.attempted += r.attempted;
  out.failed += r.failed;
  auto stat = [&r](const char* key) {
    return static_cast<double>(r.stats[key]);
  };
  const double acks = static_cast<double>(r.acks);
  m["daemon.write_syscalls_per_ack"] = r.proc.write_syscalls / acks;
  m["daemon.kb_written_per_ack"] = r.proc.bytes_written / 1024.0 / acks;
  m["daemon.cpu_us_per_op"] =
      r.proc.cpu_s * 1e6 / static_cast<double>(r.answered);
  m["service.busy"] = stat("busy");
  m["service.shed"] = stat("shed_low") + stat("shed_normal");
  m["service.checkpoints_per_kevent"] =
      stat("checkpoints") / (stat("admitted") / 1000.0);
  m["serve.ack_p50_ms"] = r.ack_p50_ms;
  m["serve.ack_p99_ms"] = r.ack_p99_ms;
  m["serve.query_p50_ms"] = r.query_p50_ms;
  m["serve.query_p99_ms"] = r.query_p99_ms;
  m["serve.restart_s"] = r.restart_s;
  m["serve.late_p99_ms"] = r.late_p99_ms;
  m["serve.late_max_ms"] = r.late_max_ms;

  const std::vector<Span> spans = tracer.spans();
  const std::string nesting = check_spans(spans);
  if (!nesting.empty()) {
    ++out.failed;
    std::fprintf(stderr, "provbench: serve spans: %s\n", nesting.c_str());
  }
  write_spans(spans_path, spans);
  std::map<std::string, LayerTime> layers = layer_times(spans);
  auto per_call = [&layers](const char* name) {
    const LayerTime& l = layers[name];
    return l.count == 0 ? 0.0 : l.self_us / static_cast<double>(l.count);
  };
  const double lines = static_cast<double>(stream.size());
  m["protocol.format_us"] = per_call("protocol.format") / lines;
  m["protocol.parse_us"] = per_call("protocol.parse") / lines;
  m["journal.append_us"] = per_call("journal.append");
  m["journal.checkpoint_us"] = per_call("journal.checkpoint");
  m["session.apply_fact_us"] = per_call("session.apply.fact");
  m["session.apply_rule_us"] = per_call("session.apply.rule");
  m["session.apply_run_us"] = per_call("session.apply.run");
  m["session.query_us"] = per_call("session.query");
  m["session.restore_us"] = per_call("session.restore");
  std::printf("traced serve: rung medians (us) session %.1f service %.1f "
              "daemon %.1f cluster %.1f async %.1f sync %.1f; restart "
              "%.3f s\n",
              rung_us["session"], rung_us["service"], rung_us["daemon"],
              rung_us["cluster"], rung_us["async"], rung_us["sync"],
              r.restart_s);
}

}  // namespace provbench
