#include "systems/audit.h"

#include <charconv>
#include <utility>
#include <vector>

#include "formats/dot.h"
#include "os/kernel.h"
#include "util/rng.h"
#include "util/strings.h"

namespace provmark::systems {

namespace {

using graph::PropertyGraph;
using os::AuditEvent;

/// Re-encode the kernel's textual flags as the raw argument register a
/// real SYSCALL record would carry: "O_RDWR|O_CREAT" -> "0x42". Unknown
/// names are ignored (forward compatibility with kernels emitting flags
/// we do not tabulate).
std::string encode_flags(std::span<const os::FlagName> table,
                         const std::string& text) {
  long value = 0;
  for (const std::string& piece : util::split_nonempty(text, '|')) {
    const os::FlagName* flag = os::find_flag(table, &os::FlagName::name, piece);
    if (flag != nullptr) value |= flag->bits;
  }
  char buf[2 + 16] = {'0', 'x'};
  auto [end, ec] = std::to_chars(buf + 2, buf + sizeof buf,
                                 static_cast<unsigned long>(value), 16);
  return std::string(buf, end);
}

class AuditBuilder {
 public:
  AuditBuilder(const AuditConfig& config, std::uint64_t seed)
      : config_(config), rng_(seed) {
    // Audit serial numbers restart per boot; the vertex id base is minted
    // per session — transient, like every recorder's identifiers.
    next_id_ = 1 + rng_.next_below(1u << 20);
  }

  PropertyGraph take(const os::EventTrace& trace) {
    for (const AuditEvent& event : trace.audit) {
      handle(event);
    }
    return std::move(graph_);
  }

 private:
  std::string fresh_id() {
    return std::string("a").append(std::to_string(next_id_++));
  }

  std::string process_vertex(const AuditEvent& event) {
    auto it = process_vertex_.find(event.pid);
    if (it != process_vertex_.end()) return it->second;
    std::string id = fresh_id();
    graph::Properties props;
    props["type"] = "process";
    props["pid"] = std::to_string(event.pid);
    props["ppid"] = std::to_string(event.ppid);
    props["comm"] = event.comm;
    props["exe"] = event.exe;
    props["uid"] = std::to_string(event.creds.uid);
    props["gid"] = std::to_string(event.creds.gid);
    graph_.add_node(id, "process", std::move(props));
    process_vertex_[event.pid] = id;
    return id;
  }

  std::string path_vertex(const os::AuditPathRecord& record) {
    auto it = path_vertex_.find(record.name);
    if (it != path_vertex_.end()) return it->second;
    std::string id = fresh_id();
    graph_.add_node(id, "path",
                    {{"type", "path"},
                     {"name", record.name},
                     {"inode", std::to_string(record.inode)}});
    path_vertex_[record.name] = id;
    return id;
  }

  void handle(const AuditEvent& event) {
    std::string proc = process_vertex(event);
    // One vertex per SYSCALL record, carrying the decoded argument
    // vocabulary next to the raw register values.
    std::string record_id = fresh_id();
    graph::Properties props;
    props["type"] = "syscall";
    props["syscall"] = event.syscall;
    props["success"] = event.success ? "yes" : "no";
    props["exit"] = std::to_string(event.exit_code);
    props["serial"] = std::to_string(event.serial);  // transient
    for (const auto& [key, value] : event.fields) {
      if (key == "time") continue;  // transient; ids already carry noise
      if (key == "flags") {
        props["a1"] = encode_flags(os::kOpenFlagNames, value);
        if (config_.decode_arguments) props["flags"] = value;
        continue;
      }
      if (key == "prot") {
        props["a2"] = encode_flags(os::kProtNames, value);
        if (config_.decode_arguments) props["prot"] = value;
        continue;
      }
      props[key] = value;
    }
    graph_.add_node(record_id, "syscall", std::move(props));
    graph_.add_edge(fresh_id(), record_id, proc, "emitted",
                    {{"auid", std::to_string(event.creds.uid)}});
    for (const os::AuditPathRecord& path : event.paths) {
      graph_.add_edge(fresh_id(), record_id, path_vertex(path), "path",
                      {{"nametype", path.nametype}});
    }
    // Process-creating records additionally link to the child's process
    // vertex once its own records materialize it.
    if (event.syscall == "fork" || event.syscall == "vfork" ||
        event.syscall == "clone") {
      auto child = event.fields.find("child");
      if (child != event.fields.end()) {
        pending_child_[record_id] = child->second;
      }
    }
    resolve_pending();
  }

  void resolve_pending() {
    for (auto it = pending_child_.begin(); it != pending_child_.end();) {
      os::Pid pid = static_cast<os::Pid>(std::stol(it->second));
      auto proc = process_vertex_.find(pid);
      if (proc != process_vertex_.end()) {
        graph_.add_edge(fresh_id(), it->first, proc->second, "spawned", {});
        it = pending_child_.erase(it);
      } else {
        ++it;
      }
    }
  }

  const AuditConfig& config_;
  util::Rng rng_;
  PropertyGraph graph_;
  std::uint64_t next_id_ = 1;
  std::map<os::Pid, std::string> process_vertex_;
  std::map<std::string, std::string> path_vertex_;
  std::map<std::string, std::string> pending_child_;
};

}  // namespace

graph::PropertyGraph build_audit_graph(const os::EventTrace& trace,
                                       const AuditConfig& config,
                                       std::uint64_t seed) {
  return AuditBuilder(config, seed).take(trace);
}

std::set<std::string> AuditRecorder::extra_audit_rules() const {
  // Everything the SPADE default rule set skips: the socket family, node
  // creation, ownership changes, the setres* calls, and pipes.
  return {"socket",    "bind",     "connect",  "listen",    "accept",
          "sendto",    "recvfrom", "mknod",    "mknodat",   "chown",
          "fchown",    "fchownat", "setresuid", "setresgid", "pipe",
          "pipe2",     "tee"};
}

std::string AuditRecorder::record(const os::EventTrace& trace,
                                  const TrialContext& trial) {
  util::Rng rng(trial.seed ^ util::stable_hash("audit"));
  graph::PropertyGraph g = build_audit_graph(trace, config_, rng.next_u64());
  // auditd writes an append-only log flushed on stop: no truncation or
  // interference noise, which is why two trials suffice (default_trials).
  return formats::to_dot(g, "audit_provenance");
}

}  // namespace provmark::systems
