#include "systems/opus.h"

#include <set>

#include "formats/neo4j.h"
#include "util/rng.h"
#include "util/strings.h"

namespace provmark::systems {

namespace {

using graph::PropertyGraph;
using os::LibcEvent;

/// The libc entry points OPUS wraps. Calls outside this set never reach
/// the OPUS backend at all (mknodat, clone, tee are the Table 2 cases).
const std::set<std::string>& wrapped_functions() {
  static const std::set<std::string> kWrapped = {
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

/// Stable fake environment recorded onto every process node. One entry is
/// genuinely transient across sessions (the audit session id), mirroring
/// the volatile data generalization must strip.
std::vector<std::pair<std::string, std::string>> environment(
    int count, util::Rng& rng) {
  static const std::pair<const char*, const char*> kEnv[] = {
      {"PATH", "/usr/local/bin:/usr/bin:/bin"},
      {"HOME", "/home/user"},
      {"LANG", "en_US.UTF-8"},
      {"SHELL", "/bin/bash"},
      {"TERM", "xterm-256color"},
      {"USER", "user"},
      {"LOGNAME", "user"},
      {"PWD", "/home/user"},
      {"EDITOR", "vi"},
      {"PAGER", "less"},
      {"LC_ALL", "en_US.UTF-8"},
      {"TZ", "Europe/London"},
      {"HOSTNAME", "provmark-vm"},
      {"DISPLAY", ":0"},
      {"XDG_RUNTIME_DIR", "/run/user/1000"},
      {"SSH_TTY", "/dev/pts/0"},
      {"MAIL", "/var/mail/user"},
      {"HISTSIZE", "1000"},
      {"OLDPWD", "/home"},
      {"LS_COLORS", "di=34:ln=36"},
      {"JAVA_HOME", "/usr/lib/jvm/default"},
      {"CLASSPATH", "/opt/opus/backend.jar"},
      {"OPUS_MASTER_PORT", "10101"}};
  std::vector<std::pair<std::string, std::string>> env;
  int available = static_cast<int>(std::size(kEnv));
  for (int i = 0; i < count && i < available; ++i) {
    env.emplace_back(kEnv[i].first, kEnv[i].second);
  }
  // XDG_SESSION_ID changes every login session: transient.
  env.emplace_back("XDG_SESSION_ID",
                   std::to_string(100 + rng.next_below(900)));
  return env;
}

/// PVM graph builder over the libc stream.
class OpusBuilder {
 public:
  OpusBuilder(const OpusConfig& config, std::uint64_t seed)
      : config_(config), rng_(seed) {
    next_node_ = 1 + rng_.next_below(1000000);
  }

  PropertyGraph take(const os::EventTrace& trace) {
    for (const LibcEvent& event : trace.libc) {
      handle(event);
    }
    return std::move(graph_);
  }

 private:
  std::string fresh_id() {
    return std::string("o").append(std::to_string(next_node_++));
  }

  std::string event_props_id(const LibcEvent& event, graph::Properties* p) {
    (*p)["sys_time"] = std::to_string(event.seq * 131 +
                                      rng_.next_below(97));  // transient
    return fresh_id();
  }

  /// The process node, created lazily with the captured environment.
  std::string process_node(const LibcEvent& event) {
    auto it = process_node_.find(event.pid);
    if (it != process_node_.end()) return it->second;
    std::string id = fresh_id();
    graph::Properties props;
    props["type"] = "Process";
    props["pid"] = std::to_string(event.pid);  // transient across trials
    props["thread_id"] = std::to_string(event.pid);
    for (const auto& [k, v] : environment(config_.env_var_count, rng_)) {
      props["env:" + k] = v;
    }
    graph_.add_node(id, "Process", std::move(props));
    process_node_[event.pid] = id;
    return id;
  }

  /// Global (named-object) node chain per path; returns current version.
  std::string global_node(const std::string& path, bool new_version) {
    auto it = global_node_.find(path);
    if (it == global_node_.end() || new_version) {
      int version = ++global_version_[path];
      std::string id = fresh_id();
      graph_.add_node(id, "Global",
                      {{"type", "Global"},
                       {"name", path},
                       {"version", std::to_string(version)}});
      if (it != global_node_.end()) {
        graph_.add_edge(fresh_id(), id, it->second, "VERSION_OF", {});
      }
      global_node_[path] = id;
      return id;
    }
    return it->second;
  }

  /// A Local node: the process-side object (fd abstraction).
  std::string local_node(const LibcEvent& event, const std::string& role) {
    std::string id = fresh_id();
    graph::Properties props;
    props["type"] = "Local";
    props["role"] = role;
    (void)event;
    graph_.add_node(id, "Local", std::move(props));
    return id;
  }

  /// An event node recording the syscall itself (PVM keeps the op chain).
  std::string syscall_event_node(const LibcEvent& event) {
    graph::Properties props;
    props["type"] = "Event";
    props["fn"] = event.function;
    props["ret"] = std::to_string(event.ret);
    if (event.ret < 0) {
      props["errno"] = std::to_string(event.err);
    }
    std::string id = event_props_id(event, &props);
    graph_.add_node(id, "Event", std::move(props));
    return id;
  }

  void link(const std::string& src, const std::string& tgt,
            const std::string& label) {
    graph_.add_edge(fresh_id(), src, tgt, label, {});
  }

  void handle(const LibcEvent& event) {
    if (wrapped_functions().count(event.function) == 0) return;
    const std::string& fn = event.function;

    if (fn == "read" || fn == "pread" || fn == "write" || fn == "pwrite") {
      if (!config_.record_io) return;  // default: no read/write recording
      std::string proc = process_node(event);
      std::string ev = syscall_event_node(event);
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
      std::string proc = process_node(event);
      std::string ev = syscall_event_node(event);
      std::string local = local_node(event, "fd");
      std::string global = global_node(full_path(event.args[0]), true);
      link(ev, proc, "PROC_OBJ");
      link(local, ev, "LOC_OBJ");
      link(local, global, "NAMED");
      return;
    }
    if (fn == "close") {
      std::string proc = process_node(event);
      std::string ev = syscall_event_node(event);
      link(ev, proc, "PROC_OBJ");
      return;
    }
    if (fn == "dup" || fn == "dup2" || fn == "dup3") {
      // Two added nodes, not directly connected to each other, both
      // reachable from the process node (§4.1).
      std::string proc = process_node(event);
      std::string ev = syscall_event_node(event);
      std::string local = local_node(event, "dup-fd");
      link(ev, proc, "PROC_OBJ");
      link(local, proc, "LOC_OBJ");
      return;
    }
    if (fn == "link" || fn == "linkat" || fn == "symlink" ||
        fn == "symlinkat") {
      std::string proc = process_node(event);
      std::string ev = syscall_event_node(event);
      std::string old_global = global_node(full_path(event.args[0]), false);
      std::string new_global = global_node(full_path(event.args[1]), true);
      link(ev, proc, "PROC_OBJ");
      link(new_global, old_global, "NAMED");
      link(new_global, ev, "LOC_OBJ");
      return;
    }
    if (fn == "mknod") {
      std::string proc = process_node(event);
      std::string ev = syscall_event_node(event);
      std::string global = global_node(full_path(event.args[0]), true);
      link(ev, proc, "PROC_OBJ");
      link(global, ev, "LOC_OBJ");
      return;
    }
    if (fn == "rename" || fn == "renameat") {
      // Around a dozen nodes (§4.1): the event, fresh version chains for
      // both names, and binding Locals.
      std::string proc = process_node(event);
      std::string ev = syscall_event_node(event);
      std::string old_v1 = global_node(full_path(event.args[0]), false);
      std::string old_v2 = global_node(full_path(event.args[0]), true);
      std::string new_v1 = global_node(full_path(event.args[1]), false);
      std::string new_v2 = global_node(full_path(event.args[1]), true);
      std::string local_old = local_node(event, "rename-src");
      std::string local_new = local_node(event, "rename-dst");
      link(ev, proc, "PROC_OBJ");
      link(local_old, old_v2, "NAMED");
      link(local_new, new_v2, "NAMED");
      link(local_old, ev, "LOC_OBJ");
      link(local_new, ev, "LOC_OBJ");
      link(new_v2, old_v2, "DERIVED");
      (void)old_v1;
      (void)new_v1;
      return;
    }
    if (fn == "truncate" || fn == "chmod" || fn == "fchmodat" ||
        fn == "chown" || fn == "fchownat") {
      std::string proc = process_node(event);
      std::string ev = syscall_event_node(event);
      std::string global = global_node(full_path(event.args[0]), true);
      link(ev, proc, "PROC_OBJ");
      link(global, ev, "LOC_OBJ");
      return;
    }
    if (fn == "ftruncate") {
      std::string proc = process_node(event);
      std::string ev = syscall_event_node(event);
      link(ev, proc, "PROC_OBJ");
      return;
    }
    if (fn == "unlink" || fn == "unlinkat") {
      std::string proc = process_node(event);
      std::string ev = syscall_event_node(event);
      std::string global = global_node(full_path(event.args[0]), true);
      link(ev, proc, "PROC_OBJ");
      link(global, ev, "LOC_OBJ");
      return;
    }
    if (fn == "setgid" || fn == "setregid" || fn == "setuid" ||
        fn == "setreuid") {
      std::string proc = process_node(event);
      std::string ev = syscall_event_node(event);
      link(ev, proc, "PROC_OBJ");
      return;
    }
    if (fn == "pipe" || fn == "pipe2") {
      std::string proc = process_node(event);
      std::string ev = syscall_event_node(event);
      std::string read_local = local_node(event, "pipe-read");
      std::string write_local = local_node(event, "pipe-write");
      link(ev, proc, "PROC_OBJ");
      link(read_local, ev, "LOC_OBJ");
      link(write_local, ev, "LOC_OBJ");
      return;
    }
    if (fn == "fork" || fn == "vfork") {
      // Large graphs (§4.2): OPUS replicates the process state — a new
      // process node with its environment plus binding nodes.
      std::string proc = process_node(event);
      std::string ev = syscall_event_node(event);
      std::string child = fresh_id();
      graph::Properties props;
      props["type"] = "Process";
      props["pid"] = std::to_string(event.ret);
      for (const auto& [k, v] : environment(config_.env_var_count, rng_)) {
        props["env:" + k] = v;
      }
      graph_.add_node(child, "Process", std::move(props));
      std::string binding = local_node(event, "fork-binding");
      std::string cwd_local = local_node(event, "cwd");
      link(ev, proc, "PROC_OBJ");
      link(child, ev, "PROC_OBJ");
      link(binding, child, "LOC_OBJ");
      link(cwd_local, child, "LOC_OBJ");
      return;
    }
    if (fn == "execve") {
      // Few nodes (§4.2): a new process version bound to the binary name.
      std::string proc = process_node(event);
      std::string ev = syscall_event_node(event);
      std::string global = global_node(event.args[0], false);
      link(ev, proc, "PROC_OBJ");
      link(ev, global, "NAMED");
      return;
    }
  }

  std::string full_path(const std::string& path) const {
    if (!path.empty() && path.front() == '/') return path;
    return "/home/user/" + path;
  }

  const OpusConfig& config_;
  util::Rng rng_;
  PropertyGraph graph_;
  std::uint64_t next_node_ = 1;
  std::map<os::Pid, std::string> process_node_;
  std::map<std::string, std::string> global_node_;
  std::map<std::string, int> global_version_;
};

}  // namespace

graph::PropertyGraph build_opus_graph(const os::EventTrace& trace,
                                      const OpusConfig& config,
                                      std::uint64_t seed) {
  return OpusBuilder(config, seed).take(trace);
}

std::string OpusRecorder::record(const os::EventTrace& trace,
                                 const TrialContext& trial) {
  util::Rng rng(trial.seed ^ util::stable_hash("opus"));
  graph::PropertyGraph g = build_opus_graph(trace, config_, rng.next_u64());
  // OPUS writes into Neo4j; ProvMark extracts via queries. Any two runs
  // are usually consistent (§3.2), so no structural noise is injected.
  return formats::to_neo4j_json(g);
}

}  // namespace provmark::systems
