#include "systems/audit.h"

#include <charconv>
#include <map>
#include <string>
#include <string_view>

#include "formats/dot.h"
#include "os/kernel.h"
#include "systems/recorded_graph.h"
#include "util/rng.h"
#include "util/strings.h"

namespace provmark::systems {

namespace {

using os::AuditEvent;

class AuditBuilder {
 public:
  AuditBuilder(const AuditConfig& config, std::uint64_t seed,
               util::Region& region)
      : config_(config),
        rng_(seed),
        graph_(region),
        process_vertex_(graph_.memory()),
        path_vertex_(graph_.memory()),
        pending_child_(graph_.memory()) {
    // Audit serial numbers restart per boot; the vertex id base is minted
    // per session — transient, like every recorder's identifiers.
    next_id_ = 1 + rng_.next_below(1u << 20);
  }

  graph::GraphView take(const os::EventTrace& trace) {
    for (const AuditEvent& event : trace.audit) {
      handle(event);
    }
    return graph_.take();
  }

 private:
  std::string_view fresh_id() { return graph_.num(next_id_++, "a"); }

  /// Re-encode the kernel's textual flags as the raw argument register a
  /// real SYSCALL record would carry: "O_RDWR|O_CREAT" -> "0x42". Unknown
  /// names are ignored (forward compatibility with kernels emitting flags
  /// we do not tabulate), and so are empty ones.
  std::string_view encode_flags(std::span<const os::FlagName> table,
                                std::string_view text) {
    long value = 0;
    while (!text.empty()) {
      const std::size_t bar = text.find('|');
      const os::FlagName* flag = os::find_flag(
          table, &os::FlagName::name, util::trim(text.substr(0, bar)));
      if (flag != nullptr) value |= flag->bits;
      text = bar == std::string_view::npos ? "" : text.substr(bar + 1);
    }
    char buf[2 + 16] = {'0', 'x'};
    auto [end, ec] = std::to_chars(buf + 2, buf + sizeof buf,
                                   static_cast<unsigned long>(value), 16);
    return graph_.keep(std::string_view(buf, end - buf));
  }

  std::uint32_t process_vertex(const AuditEvent& event) {
    auto it = process_vertex_.find(event.pid);
    if (it != process_vertex_.end()) return it->second;
    std::string_view id = fresh_id();
    std::uint32_t node = graph_.node(id, "process",
                                     {{"type", "process"},
                                      {"pid", graph_.num(event.pid)},
                                      {"ppid", graph_.num(event.ppid)},
                                      {"comm", event.comm},
                                      {"exe", event.exe},
                                      {"uid", graph_.num(event.creds.uid)},
                                      {"gid", graph_.num(event.creds.gid)}});
    process_vertex_[event.pid] = node;
    return node;
  }

  std::uint32_t path_vertex(const os::AuditPathRecord& record) {
    auto it = path_vertex_.find(record.name);
    if (it != path_vertex_.end()) return it->second;
    std::string_view id = fresh_id();
    std::uint32_t node = graph_.node(id, "path",
                                     {{"type", "path"},
                                      {"name", record.name},
                                      {"inode", graph_.num(record.inode)}});
    path_vertex_.emplace(record.name, node);
    return node;
  }

  void handle(const AuditEvent& event) {
    std::uint32_t proc = process_vertex(event);
    // One vertex per SYSCALL record, carrying the decoded argument
    // vocabulary next to the raw register values.
    std::string_view record_id = fresh_id();
    graph_.prop("type", "syscall");
    graph_.prop("syscall", event.syscall);
    graph_.prop("success", event.success ? "yes" : "no");
    graph_.prop("exit", graph_.num(event.exit_code));
    graph_.prop("serial", graph_.num(event.serial));  // transient
    for (const auto& [key, value] : event.fields) {
      if (key == "time") continue;  // transient; ids already carry noise
      if (key == "flags") {
        graph_.prop("a1", encode_flags(os::kOpenFlagNames, value));
        if (config_.decode_arguments) graph_.prop("flags", value);
        continue;
      }
      if (key == "prot") {
        graph_.prop("a2", encode_flags(os::kProtNames, value));
        if (config_.decode_arguments) graph_.prop("prot", value);
        continue;
      }
      graph_.prop(key, value);
    }
    std::uint32_t record = graph_.node(record_id, "syscall");
    graph_.edge(fresh_id(), record, proc, "emitted",
                {{"auid", graph_.num(event.creds.uid)}});
    for (const os::AuditPathRecord& path : event.paths) {
      // The path vertex takes its id before the edge does.
      std::uint32_t target = path_vertex(path);
      graph_.edge(fresh_id(), record, target, "path",
                  {{"nametype", path.nametype}});
    }
    // Process-creating records additionally link to the child's process
    // vertex once its own records materialize it.
    if (event.syscall == "fork" || event.syscall == "vfork" ||
        event.syscall == "clone") {
      auto child = event.fields.find("child");
      if (child != event.fields.end()) {
        os::Pid pid = 0;
        std::from_chars(child->second.data(),
                        child->second.data() + child->second.size(), pid);
        pending_child_.emplace(record_id, PendingChild{record, pid});
      }
    }
    resolve_pending();
  }

  void resolve_pending() {
    for (auto it = pending_child_.begin(); it != pending_child_.end();) {
      auto proc = process_vertex_.find(it->second.pid);
      if (proc != process_vertex_.end()) {
        graph_.edge(fresh_id(), it->second.record, proc->second, "spawned");
        it = pending_child_.erase(it);
      } else {
        ++it;
      }
    }
  }

  struct PendingChild {
    std::uint32_t record = 0;  ///< the fork record's node
    os::Pid pid = 0;           ///< the child it names
  };

  const AuditConfig& config_;
  util::Rng rng_;
  RecordedGraph graph_;
  std::uint64_t next_id_ = 1;
  std::pmr::map<os::Pid, std::uint32_t> process_vertex_;
  std::pmr::map<std::string_view, std::uint32_t> path_vertex_;
  /// Keyed by the record's id: fork records are linked in id order.
  std::pmr::map<std::string_view, PendingChild> pending_child_;
};

}  // namespace

graph::PropertyGraph build_audit_graph(const os::EventTrace& trace,
                                       const AuditConfig& config,
                                       std::uint64_t seed) {
  return AuditBuilder(config, seed, trace.region()).take(trace).materialize();
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
  // auditd writes an append-only log flushed on stop: no truncation or
  // interference noise, which is why two trials suffice (default_trials).
  return formats::to_dot(
      AuditBuilder(config_, rng.next_u64(), trace.region()).take(trace),
      "audit_provenance");
}

}  // namespace provmark::systems
