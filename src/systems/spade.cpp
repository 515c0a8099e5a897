#include "systems/spade.h"

#include <map>
#include <memory_resource>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "formats/dot.h"
#include "formats/neo4j.h"
#include "systems/recorded_graph.h"
#include "util/rng.h"
#include "util/strings.h"

namespace provmark::systems {

namespace {

using os::AuditEvent;
using Prop = graph::GraphView::Prop;

/// Incremental OPM graph builder over the audit stream.
class SpadeBuilder {
 public:
  SpadeBuilder(const SpadeConfig& config, std::uint64_t seed,
               util::Region& region)
      : config_(config),
        rng_(seed),
        graph_(region),
        process_vertex_(graph_.memory()),
        process_creds_(graph_.memory()),
        artifact_vertex_(graph_.memory()),
        artifact_version_(graph_.memory()),
        last_artifact_(graph_.memory()) {
    // Vertex ids restart per SPADE session at a session-dependent base —
    // ids are transient, but the matcher never looks at ids anyway.
    next_vertex_ = 1 + rng_.next_below(100000);
  }

  graph::GraphView take(const os::EventTrace& trace) {
    for (const AuditEvent& event : trace.audit) {
      handle(event);
    }
    if (config_.io_runs_filter) apply_ioruns_filter();
    return graph_.take();
  }

 private:
  std::string_view fresh_id() { return graph_.num(next_vertex_++, "v"); }

  /// The event's `time` field, or `fallback`.
  static std::string_view time_or(const AuditEvent& event,
                                  std::string_view fallback) {
    auto it = event.fields.find("time");
    return it != event.fields.end() ? it->second : fallback;
  }

  /// Process vertex for a pid, created on first sight.
  std::uint32_t process_vertex(const AuditEvent& event) {
    auto it = process_vertex_.find(event.pid);
    if (it != process_vertex_.end()) {
      maybe_credential_update(event, it->second);
      return process_vertex_.at(event.pid);
    }
    std::string_view id = fresh_id();
    graph_.prop("type", "Process");
    graph_.prop("name", event.comm);
    graph_.prop("exe", event.exe);
    graph_.prop("pid", graph_.num(event.pid));
    graph_.prop("ppid", graph_.num(event.ppid));
    add_creds(event.creds);
    graph_.prop("start_time", time_or(event, "0"));  // transient
    std::uint32_t node = graph_.node(id, "Process");
    process_vertex_[event.pid] = node;
    process_creds_[event.pid] = event.creds;
    return node;
  }

  void add_creds(const os::Credentials& creds) {
    graph_.prop("uid", graph_.num(creds.uid));
    graph_.prop("euid", graph_.num(creds.euid));
    graph_.prop("gid", graph_.num(creds.gid));
    graph_.prop("egid", graph_.num(creds.egid));
  }

  /// A new Process vertex for `pid` seen with `creds` (a credential change,
  /// an explicit set*id call).
  std::uint32_t process_version(const AuditEvent& event) {
    std::string_view id = fresh_id();
    graph_.prop("type", "Process");
    graph_.prop("name", event.comm);
    graph_.prop("pid", graph_.num(event.pid));
    add_creds(event.creds);
    return graph_.node(id, "Process");
  }

  /// Bob's bug: with simplify disabled the credential-update path also
  /// flushes a vertex whose key includes an uninitialized field, which
  /// surfaces as a disconnected vertex with a random-valued property.
  void spurious_vertex(const AuditEvent& event) {
    std::string_view id = fresh_id();
    graph_.node(id, "Process",
                {{"type", "Process"},
                 {"pid", graph_.num(event.pid)},
                 {"version", graph_.num(rng_.next_below(1u << 30))}});
  }

  /// SPADE watches subject credentials on every record; a change (e.g.
  /// from a setresuid call it does not audit explicitly) materializes a
  /// new process vertex linked to the old one.
  void maybe_credential_update(const AuditEvent& event,
                               std::uint32_t old_vertex) {
    os::Credentials& known = process_creds_.at(event.pid);
    if (known == event.creds) return;
    std::uint32_t node = process_version(event);
    add_edge(node, old_vertex, "WasTriggeredBy", "update", event);
    if (!config_.simplify && !config_.fixed_setres_vertex_bug) {
      spurious_vertex(event);
    }
    process_vertex_[event.pid] = node;
    known = event.creds;
  }

  /// Artifact vertex for a path, deduplicated by (path, version epoch).
  /// `path` lives in the trace (or is a literal).
  std::uint32_t artifact_vertex(std::string_view path, std::uint64_t inode,
                                std::string_view subtype) {
    auto it = artifact_vertex_.find(path);
    if (it != artifact_vertex_.end()) return it->second;
    std::string_view id = fresh_id();
    graph_.prop("type", "Artifact");
    graph_.prop("subtype", subtype);
    graph_.prop("path", path);
    graph_.prop("inode", graph_.num(inode));
    if (config_.versioning) graph_.prop("version", "0");
    std::uint32_t node = graph_.node(id, "Artifact");
    artifact_vertex_[path] = node;
    return node;
  }

  /// Bump an artifact's version: new vertex + WasDerivedFrom chain.
  std::uint32_t version_bump(std::string_view path, std::uint64_t inode,
                             const AuditEvent& event) {
    std::uint32_t old_node = artifact_vertex(path, inode, "file");
    if (!config_.versioning) return old_node;
    int version = ++artifact_version_[path];
    std::string_view id = fresh_id();
    std::uint32_t node = graph_.node(id, "Artifact",
                                     {{"type", "Artifact"},
                                      {"subtype", "file"},
                                      {"path", path},
                                      {"inode", graph_.num(inode)},
                                      {"version", graph_.num(version)}});
    add_edge(node, old_node, "WasDerivedFrom", "version", event);
    artifact_vertex_[path] = node;
    return node;
  }

  /// An edge carrying `operation`, any properties appended before the
  /// call, and the record's transient event id and time.
  void add_edge(std::uint32_t src, std::uint32_t tgt, std::string_view label,
                std::string_view operation, const AuditEvent& event) {
    graph_.prop("operation", operation);
    graph_.prop("event_id", graph_.num(event.serial));  // transient
    if (auto time = event.fields.find("time"); time != event.fields.end()) {
      graph_.prop("time", time->second);  // transient
    }
    graph_.edge(graph_.num(next_vertex_++, "e"), src, tgt, label);
  }

  void handle(const AuditEvent& event) {
    const std::string_view call = event.syscall;
    if (call == "exit_group") {
      // Credential re-check only; no structure for normal termination.
      process_vertex(event);
      return;
    }
    if (call == "dup" || call == "dup2" || call == "dup3") {
      // fd table bookkeeping only: no graph structure (note SC).
      process_vertex(event);
      return;
    }
    if (call == "fork" || call == "clone" || call == "vfork") {
      handle_fork(event);
      return;
    }
    if (call == "execve") {
      handle_execve(event);
      return;
    }
    if (call == "setuid" || call == "setgid" || call == "setreuid" ||
        call == "setregid" || call == "setresuid" || call == "setresgid") {
      handle_setid(event);
      return;
    }
    std::uint32_t proc = process_vertex(event);
    if (call == "open" || call == "openat" || call == "creat") {
      if (event.paths.empty()) return;
      const os::AuditPathRecord& record = event.paths.front();
      std::uint32_t artifact =
          artifact_vertex(record.name, record.inode, "file");
      if (record.nametype == "CREATE") {
        add_edge(artifact, proc, "WasGeneratedBy", call, event);
      } else {
        add_edge(proc, artifact, "Used", call, event);
      }
      last_artifact_[event.pid] = artifact;
      return;
    }
    if (call == "close") {
      // SPADE emits a close edge against the artifact its fd table knows.
      // Our audit records carry no path for close, so the reporter uses
      // the most recently opened artifact of this process — the same
      // approximation the fd table provides.
      auto it = last_artifact_.find(event.pid);
      std::uint32_t artifact = it != last_artifact_.end()
                                   ? it->second
                                   : artifact_vertex("unknown", 0, "file");
      add_edge(proc, artifact, "Used", "close", event);
      return;
    }
    if (call == "read" || call == "pread" || call == "mmap") {
      if (event.paths.empty()) return;
      const os::AuditPathRecord& record = event.paths.front();
      std::uint32_t artifact =
          artifact_vertex(record.name, record.inode, "file");
      add_edge(proc, artifact, "Used", call, event);
      return;
    }
    if (call == "write" || call == "pwrite") {
      if (event.paths.empty()) return;
      const os::AuditPathRecord& record = event.paths.front();
      std::uint32_t artifact = version_bump(record.name, record.inode, event);
      add_edge(artifact, proc, "WasGeneratedBy", call, event);
      return;
    }
    if (call == "rename" || call == "renameat" || call == "link" ||
        call == "linkat") {
      if (event.paths.size() < 2) return;
      std::uint32_t old_artifact =
          artifact_vertex(event.paths[0].name, event.paths[0].inode, "file");
      std::uint32_t new_artifact =
          artifact_vertex(event.paths[1].name, event.paths[1].inode, "file");
      add_edge(new_artifact, old_artifact, "WasDerivedFrom", call, event);
      add_edge(proc, old_artifact, "Used", call, event);
      add_edge(new_artifact, proc, "WasGeneratedBy", call, event);
      return;
    }
    if (call == "symlink" || call == "symlinkat") {
      if (event.paths.empty()) return;
      std::uint32_t artifact =
          artifact_vertex(event.paths[0].name, event.paths[0].inode, "link");
      add_edge(artifact, proc, "WasGeneratedBy", call, event);
      return;
    }
    if (call == "truncate" || call == "ftruncate" || call == "chmod" ||
        call == "fchmod" || call == "fchmodat") {
      if (event.paths.empty()) return;
      const os::AuditPathRecord& record = event.paths.front();
      std::uint32_t artifact = version_bump(record.name, record.inode, event);
      if (auto mode = event.fields.find("mode"); mode != event.fields.end()) {
        graph_.prop("mode", mode->second);
      }
      add_edge(artifact, proc, "WasGeneratedBy", call, event);
      return;
    }
    if (call == "unlink" || call == "unlinkat") {
      if (event.paths.empty()) return;
      const os::AuditPathRecord& record = event.paths.front();
      std::uint32_t artifact =
          artifact_vertex(record.name, record.inode, "file");
      add_edge(proc, artifact, "Used", call, event);
      return;
    }
    // Anything else in the rule set contributes no structure.
  }

  void handle_fork(const AuditEvent& event) {
    std::uint32_t parent = process_vertex(event);
    os::Pid child_pid =
        static_cast<os::Pid>(event.exit_code);  // fork returns the child
    if (process_vertex_.count(child_pid) != 0) {
      // The child was already seen (its records preceded this one — the
      // vfork suspension artifact): SPADE treats that unit as complete
      // and skips the linking edge, leaving a disconnected child (DV).
      return;
    }
    std::string_view child_id = fresh_id();
    graph_.prop("type", "Process");
    graph_.prop("name", event.comm);
    graph_.prop("pid", graph_.num(child_pid));
    graph_.prop("ppid", graph_.num(event.pid));
    add_creds(event.creds);
    std::uint32_t child = graph_.node(child_id, "Process");
    process_vertex_[child_pid] = child;
    process_creds_[child_pid] = event.creds;
    add_edge(child, parent, "WasTriggeredBy", event.syscall, event);
  }

  void handle_execve(const AuditEvent& event) {
    // execve replaces the process image: new process vertex triggered by
    // the old one, plus a Used edge to the executed binary. Loader reads
    // (audited separately) attach to the new vertex — making the execve
    // benchmark graph large (§4.2).
    auto it = process_vertex_.find(event.pid);
    const bool had_vertex = it != process_vertex_.end();
    const std::uint32_t old_vertex = had_vertex ? it->second : 0;
    std::string_view id = fresh_id();
    graph_.prop("type", "Process");
    graph_.prop("name", event.comm);
    graph_.prop("exe", event.exe);
    graph_.prop("pid", graph_.num(event.pid));
    graph_.prop("ppid", graph_.num(event.ppid));
    add_creds(event.creds);
    graph_.prop("start_time", time_or(event, "0"));
    std::uint32_t node = graph_.node(id, "Process");
    process_vertex_[event.pid] = node;
    process_creds_[event.pid] = event.creds;
    if (had_vertex) {
      add_edge(node, old_vertex, "WasTriggeredBy", "execve", event);
    }
    if (!event.paths.empty()) {
      std::uint32_t binary = artifact_vertex(
          event.paths.front().name, event.paths.front().inode, "file");
      add_edge(node, binary, "Used", "load", event);
    }
  }

  void handle_setid(const AuditEvent& event) {
    // Explicitly audited credential calls: new process vertex with the
    // updated identity (Table 3 setuid structure).
    std::uint32_t old_vertex = process_vertex(event);
    std::uint32_t node = process_version(event);
    add_edge(node, old_vertex, "WasTriggeredBy", event.syscall, event);
    if (!config_.simplify && !config_.fixed_setres_vertex_bug &&
        (event.syscall == "setresuid" || event.syscall == "setresgid")) {
      spurious_vertex(event);
    }
    process_vertex_[event.pid] = node;
    process_creds_[event.pid] = event.creds;
  }

  /// The IORuns filter: coalesce consecutive identical read/write edges
  /// into one edge with a count. The benchmarked version looks for the
  /// property key "op" while the reporter emits "operation" — so nothing
  /// ever matches and the filter silently does nothing (Bob's second
  /// find).
  void apply_ioruns_filter() {
    const std::string_view key =
        config_.fixed_ioruns_property ? "operation" : "op";
    graph::GraphView& view = graph_.view();
    std::pmr::vector<graph::GraphView::EdgeRef>& edges = view.edges;
    // An edge's value of `key` (its last, as the writers take it).
    auto value_of = [&](const graph::GraphView::EdgeRef& e) {
      std::optional<std::string_view> value;
      for (const Prop& p : view.props_of(e)) {
        if (p.key == key) value = p.value;
      }
      return value;
    };
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::pmr::vector<char> doomed(edges.size(), 0, graph_.memory());
    std::size_t run_start = kNone;
    int run_length = 0;
    auto flush = [&](std::size_t next) {
      if (run_start != kNone && run_length > 1) {
        // The run's first edge takes a `count`: its properties move to
        // the end of the list, with the new one after them.
        graph::GraphView::EdgeRef& e = edges[run_start];
        const auto first = static_cast<std::uint32_t>(view.props.size());
        for (std::uint32_t i = 0; i < e.prop_count; ++i) {
          view.props.push_back(view.props[e.first_prop + i]);
        }
        view.props.push_back({"count", graph_.num(run_length)});
        e.first_prop = first;
        e.prop_count = static_cast<std::uint32_t>(view.props.size()) - first;
      }
      run_start = next;
      run_length = next != kNone ? 1 : 0;
    };
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const graph::GraphView::EdgeRef& e = edges[i];
      const std::optional<std::string_view> op = value_of(e);
      const bool is_io = op == "read" || op == "write" || op == "pread" ||
                         op == "pwrite";
      if (!is_io) {
        flush(kNone);
        continue;
      }
      const graph::GraphView::EdgeRef* start =
          run_start != kNone ? &edges[run_start] : nullptr;
      if (start != nullptr && start->src == e.src && start->tgt == e.tgt &&
          start->label == e.label && value_of(*start) == op) {
        ++run_length;
        doomed[i] = 1;
      } else {
        flush(i);
      }
    }
    flush(kNone);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (!doomed[i]) edges[kept++] = edges[i];
    }
    edges.resize(kept);
  }

  const SpadeConfig& config_;
  util::Rng rng_;
  RecordedGraph graph_;
  std::uint64_t next_vertex_ = 1;
  std::pmr::map<os::Pid, std::uint32_t> process_vertex_;
  std::pmr::map<os::Pid, os::Credentials> process_creds_;
  std::pmr::map<std::string_view, std::uint32_t> artifact_vertex_;
  std::pmr::map<std::string_view, int> artifact_version_;
  std::pmr::map<os::Pid, std::uint32_t> last_artifact_;
};

}  // namespace

graph::PropertyGraph build_spade_graph(const os::EventTrace& trace,
                                       const SpadeConfig& config,
                                       std::uint64_t seed) {
  return SpadeBuilder(config, seed, trace.region()).take(trace).materialize();
}

std::set<std::string> SpadeRecorder::extra_audit_rules() const {
  if (config_.simplify) return {};
  return {"setresuid", "setresgid"};
}

std::string SpadeRecorder::record(const os::EventTrace& trace,
                                  const TrialContext& trial) {
  util::Rng rng(trial.seed ^ util::stable_hash("spade"));
  const graph::GraphView view =
      SpadeBuilder(config_, rng.next_u64(), trace.region()).take(trace);
  if (config_.storage == SpadeStorage::Neo4j) {
    // The `spn` configuration: the graph lands in Neo4j; stopping the
    // recorder flushes the transaction, so no truncation applies.
    return formats::to_neo4j_json(view);
  }
  std::string dot = formats::to_dot(view, "spade_provenance");
  if (rng.chance(config_.truncation_probability)) {
    // Recording was stopped before SPADE finished flushing: the tail of
    // the DOT file is lost mid-write — the "garbled results leading to
    // mismatched graphs" of §3.2. The resulting document does not parse,
    // so ProvMark treats the trial as a failed run.
    std::size_t keep = dot.size() / 3 +
                       rng.next_below(std::max<std::size_t>(
                           1, dot.size() / 2));
    if (keep < dot.size()) return dot.substr(0, keep);
  }
  return dot;
}

}  // namespace provmark::systems
