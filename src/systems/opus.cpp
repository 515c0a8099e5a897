#include "systems/opus.h"

#include <map>
#include <memory_resource>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "formats/neo4j.h"
#include "systems/recorded_graph.h"
#include "util/rng.h"
#include "util/strings.h"

namespace provmark::systems {

namespace {

using os::LibcEvent;

/// The libc entry points OPUS wraps. Calls outside this set never reach
/// the OPUS backend at all (mknodat, clone, tee are the Table 2 cases).
const std::set<std::string_view>& wrapped_functions() {
  static const std::set<std::string_view> kWrapped = {
      "open",    "openat",   "creat",    "close",     "dup",
      "dup2",    "dup3",     "read",     "pread",     "write",
      "pwrite",  "link",     "linkat",   "symlink",   "symlinkat",
      "mknod",   "rename",   "renameat", "truncate",  "ftruncate",
      "unlink",  "unlinkat", "chmod",    "fchmod",    "fchmodat",
      "chown",   "fchown",   "fchownat", "setgid",    "setregid",
      "setuid",  "setreuid", "pipe",     "pipe2",     "fork",
      "vfork",   "execve",   "exit",     "kill"};
  return kWrapped;
}

/// Stable fake environment recorded onto every process node, as `env:`
/// properties. One entry is genuinely transient across sessions (the
/// audit session id), mirroring the volatile data generalization must
/// strip.
void add_environment(RecordedGraph& graph, int count, util::Rng& rng) {
  static const std::pair<const char*, const char*> kEnv[] = {
      {"env:PATH", "/usr/local/bin:/usr/bin:/bin"},
      {"env:HOME", "/home/user"},
      {"env:LANG", "en_US.UTF-8"},
      {"env:SHELL", "/bin/bash"},
      {"env:TERM", "xterm-256color"},
      {"env:USER", "user"},
      {"env:LOGNAME", "user"},
      {"env:PWD", "/home/user"},
      {"env:EDITOR", "vi"},
      {"env:PAGER", "less"},
      {"env:LC_ALL", "en_US.UTF-8"},
      {"env:TZ", "Europe/London"},
      {"env:HOSTNAME", "provmark-vm"},
      {"env:DISPLAY", ":0"},
      {"env:XDG_RUNTIME_DIR", "/run/user/1000"},
      {"env:SSH_TTY", "/dev/pts/0"},
      {"env:MAIL", "/var/mail/user"},
      {"env:HISTSIZE", "1000"},
      {"env:OLDPWD", "/home"},
      {"env:LS_COLORS", "di=34:ln=36"},
      {"env:JAVA_HOME", "/usr/lib/jvm/default"},
      {"env:CLASSPATH", "/opt/opus/backend.jar"},
      {"env:OPUS_MASTER_PORT", "10101"}};
  int available = static_cast<int>(std::size(kEnv));
  for (int i = 0; i < count && i < available; ++i) {
    graph.prop(kEnv[i].first, kEnv[i].second);
  }
  // XDG_SESSION_ID changes every login session: transient.
  graph.prop("env:XDG_SESSION_ID", graph.num(100 + rng.next_below(900)));
}

/// PVM graph builder over the libc stream.
class OpusBuilder {
 public:
  OpusBuilder(const OpusConfig& config, std::uint64_t seed,
              util::Region& region)
      : config_(config),
        rng_(seed),
        graph_(region),
        process_node_(graph_.memory()),
        global_node_(graph_.memory()),
        global_version_(graph_.memory()) {
    next_node_ = 1 + rng_.next_below(1000000);
  }

  graph::GraphView take(const os::EventTrace& trace) {
    for (const LibcEvent& event : trace.libc) {
      handle(event);
    }
    return graph_.take();
  }

 private:
  std::string_view fresh_id() { return graph_.num(next_node_++, "o"); }

  /// The process node, created lazily with the captured environment.
  std::uint32_t process_node(const LibcEvent& event) {
    auto it = process_node_.find(event.pid);
    if (it != process_node_.end()) return it->second;
    std::string_view id = fresh_id();
    graph_.prop("type", "Process");
    graph_.prop("pid", graph_.num(event.pid));  // transient across trials
    graph_.prop("thread_id", graph_.num(event.pid));
    add_environment(graph_, config_.env_var_count, rng_);
    std::uint32_t node = graph_.node(id, "Process");
    process_node_[event.pid] = node;
    return node;
  }

  /// Global (named-object) node chain per path; returns current version.
  std::uint32_t global_node(std::string_view path, bool new_version) {
    auto it = global_node_.find(path);
    if (it == global_node_.end() || new_version) {
      int version = ++global_version_[path];
      std::string_view id = fresh_id();
      std::uint32_t node = graph_.node(id, "Global",
                                       {{"type", "Global"},
                                        {"name", path},
                                        {"version", graph_.num(version)}});
      if (it != global_node_.end()) {
        graph_.edge(fresh_id(), node, it->second, "VERSION_OF");
        it->second = node;
      } else {
        global_node_.emplace(path, node);
      }
      return node;
    }
    return it->second;
  }

  /// A Local node: the process-side object (fd abstraction).
  std::uint32_t local_node(std::string_view role) {
    std::string_view id = fresh_id();
    return graph_.node(id, "Local", {{"type", "Local"}, {"role", role}});
  }

  /// An event node recording the syscall itself (PVM keeps the op chain).
  std::uint32_t syscall_event_node(const LibcEvent& event) {
    graph_.prop("type", "Event");
    graph_.prop("fn", event.function);
    graph_.prop("ret", graph_.num(event.ret));
    if (event.ret < 0) graph_.prop("errno", graph_.num(event.err));
    // transient
    graph_.prop("sys_time", graph_.num(event.seq * 131 + rng_.next_below(97)));
    return graph_.node(fresh_id(), "Event");
  }

  void link(std::uint32_t src, std::uint32_t tgt, std::string_view label) {
    graph_.edge(fresh_id(), src, tgt, label);
  }

  void handle(const LibcEvent& event) {
    if (!wrapped_functions().contains(event.function)) return;
    const std::string_view fn = event.function;

    if (fn == "read" || fn == "pread" || fn == "write" || fn == "pwrite") {
      if (!config_.record_io) return;  // default: no read/write recording
      std::uint32_t proc = process_node(event);
      std::uint32_t ev = syscall_event_node(event);
      link(ev, proc, "IO_EVENT");
      return;
    }
    if (fn == "fchmod" || fn == "fchown") {
      // From the PVM perspective these neither name an object nor change
      // fd state: treated as plain read/write activity, not recorded.
      return;
    }
    if (fn == "exit" || fn == "kill") {
      // No PVM representation for signals or termination details; in
      // particular a child created by an *unmonitored* call (clone) must
      // not materialize here just because its exit is wrapped.
      return;
    }

    if (fn == "open" || fn == "openat" || fn == "creat") {
      // Four new nodes (§4.1): the syscall event, the fd Local, and a
      // two-entry version chain for the named file.
      std::uint32_t proc = process_node(event);
      std::uint32_t ev = syscall_event_node(event);
      std::uint32_t local = local_node("fd");
      std::uint32_t global = global_node(full_path(event.args[0]), true);
      link(ev, proc, "PROC_OBJ");
      link(local, ev, "LOC_OBJ");
      link(local, global, "NAMED");
      return;
    }
    if (fn == "close") {
      std::uint32_t proc = process_node(event);
      std::uint32_t ev = syscall_event_node(event);
      link(ev, proc, "PROC_OBJ");
      return;
    }
    if (fn == "dup" || fn == "dup2" || fn == "dup3") {
      // Two added nodes, not directly connected to each other, both
      // reachable from the process node (§4.1).
      std::uint32_t proc = process_node(event);
      std::uint32_t ev = syscall_event_node(event);
      std::uint32_t local = local_node("dup-fd");
      link(ev, proc, "PROC_OBJ");
      link(local, proc, "LOC_OBJ");
      return;
    }
    if (fn == "link" || fn == "linkat" || fn == "symlink" ||
        fn == "symlinkat") {
      std::uint32_t proc = process_node(event);
      std::uint32_t ev = syscall_event_node(event);
      std::uint32_t old_global = global_node(full_path(event.args[0]), false);
      std::uint32_t new_global = global_node(full_path(event.args[1]), true);
      link(ev, proc, "PROC_OBJ");
      link(new_global, old_global, "NAMED");
      link(new_global, ev, "LOC_OBJ");
      return;
    }
    if (fn == "mknod") {
      std::uint32_t proc = process_node(event);
      std::uint32_t ev = syscall_event_node(event);
      std::uint32_t global = global_node(full_path(event.args[0]), true);
      link(ev, proc, "PROC_OBJ");
      link(global, ev, "LOC_OBJ");
      return;
    }
    if (fn == "rename" || fn == "renameat") {
      // Around a dozen nodes (§4.1): the event, fresh version chains for
      // both names, and binding Locals.
      std::uint32_t proc = process_node(event);
      std::uint32_t ev = syscall_event_node(event);
      const std::string_view old_path = full_path(event.args[0]);
      const std::string_view new_path = full_path(event.args[1]);
      global_node(old_path, false);
      std::uint32_t old_v2 = global_node(old_path, true);
      global_node(new_path, false);
      std::uint32_t new_v2 = global_node(new_path, true);
      std::uint32_t local_old = local_node("rename-src");
      std::uint32_t local_new = local_node("rename-dst");
      link(ev, proc, "PROC_OBJ");
      link(local_old, old_v2, "NAMED");
      link(local_new, new_v2, "NAMED");
      link(local_old, ev, "LOC_OBJ");
      link(local_new, ev, "LOC_OBJ");
      link(new_v2, old_v2, "DERIVED");
      return;
    }
    if (fn == "truncate" || fn == "chmod" || fn == "fchmodat" ||
        fn == "chown" || fn == "fchownat") {
      std::uint32_t proc = process_node(event);
      std::uint32_t ev = syscall_event_node(event);
      std::uint32_t global = global_node(full_path(event.args[0]), true);
      link(ev, proc, "PROC_OBJ");
      link(global, ev, "LOC_OBJ");
      return;
    }
    if (fn == "ftruncate") {
      std::uint32_t proc = process_node(event);
      std::uint32_t ev = syscall_event_node(event);
      link(ev, proc, "PROC_OBJ");
      return;
    }
    if (fn == "unlink" || fn == "unlinkat") {
      std::uint32_t proc = process_node(event);
      std::uint32_t ev = syscall_event_node(event);
      std::uint32_t global = global_node(full_path(event.args[0]), true);
      link(ev, proc, "PROC_OBJ");
      link(global, ev, "LOC_OBJ");
      return;
    }
    if (fn == "setgid" || fn == "setregid" || fn == "setuid" ||
        fn == "setreuid") {
      std::uint32_t proc = process_node(event);
      std::uint32_t ev = syscall_event_node(event);
      link(ev, proc, "PROC_OBJ");
      return;
    }
    if (fn == "pipe" || fn == "pipe2") {
      std::uint32_t proc = process_node(event);
      std::uint32_t ev = syscall_event_node(event);
      std::uint32_t read_local = local_node("pipe-read");
      std::uint32_t write_local = local_node("pipe-write");
      link(ev, proc, "PROC_OBJ");
      link(read_local, ev, "LOC_OBJ");
      link(write_local, ev, "LOC_OBJ");
      return;
    }
    if (fn == "fork" || fn == "vfork") {
      // Large graphs (§4.2): OPUS replicates the process state — a new
      // process node with its environment plus binding nodes.
      std::uint32_t proc = process_node(event);
      std::uint32_t ev = syscall_event_node(event);
      std::string_view child_id = fresh_id();
      graph_.prop("type", "Process");
      graph_.prop("pid", graph_.num(event.ret));
      add_environment(graph_, config_.env_var_count, rng_);
      std::uint32_t child = graph_.node(child_id, "Process");
      std::uint32_t binding = local_node("fork-binding");
      std::uint32_t cwd_local = local_node("cwd");
      link(ev, proc, "PROC_OBJ");
      link(child, ev, "PROC_OBJ");
      link(binding, child, "LOC_OBJ");
      link(cwd_local, child, "LOC_OBJ");
      return;
    }
    if (fn == "execve") {
      // Few nodes (§4.2): a new process version bound to the binary name.
      std::uint32_t proc = process_node(event);
      std::uint32_t ev = syscall_event_node(event);
      std::uint32_t global = global_node(event.args[0], false);
      link(ev, proc, "PROC_OBJ");
      link(ev, global, "NAMED");
      return;
    }
  }

  /// `path` made absolute; kept in the view when it had to be built.
  std::string_view full_path(std::string_view path) {
    if (!path.empty() && path.front() == '/') return path;
    return graph_.join({"/home/user/", path});
  }

  const OpusConfig& config_;
  util::Rng rng_;
  RecordedGraph graph_;
  std::uint64_t next_node_ = 1;
  std::pmr::map<os::Pid, std::uint32_t> process_node_;
  std::pmr::map<std::string_view, std::uint32_t> global_node_;
  std::pmr::map<std::string_view, int> global_version_;
};

}  // namespace

graph::PropertyGraph build_opus_graph(const os::EventTrace& trace,
                                      const OpusConfig& config,
                                      std::uint64_t seed) {
  return OpusBuilder(config, seed, trace.region()).take(trace).materialize();
}

std::string OpusRecorder::record(const os::EventTrace& trace,
                                 const TrialContext& trial) {
  util::Rng rng(trial.seed ^ util::stable_hash("opus"));
  // OPUS writes into Neo4j; ProvMark extracts via queries. Any two runs
  // are usually consistent (§3.2), so no structural noise is injected.
  return formats::to_neo4j_json(
      OpusBuilder(config_, rng.next_u64(), trace.region()).take(trace));
}

}  // namespace provmark::systems
