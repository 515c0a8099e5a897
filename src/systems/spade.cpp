#include "systems/spade.h"

#include <vector>

#include "formats/dot.h"
#include "formats/neo4j.h"
#include "util/rng.h"
#include "util/strings.h"

namespace provmark::systems {

namespace {

using graph::PropertyGraph;
using os::AuditEvent;

/// Incremental OPM graph builder over the audit stream.
class SpadeBuilder {
 public:
  SpadeBuilder(const SpadeConfig& config, std::uint64_t seed)
      : config_(config), rng_(seed) {
    // Vertex ids restart per SPADE session at a session-dependent base —
    // ids are transient, but the matcher never looks at ids anyway.
    next_vertex_ = 1 + rng_.next_below(100000);
  }

  PropertyGraph take(const os::EventTrace& trace) {
    for (const AuditEvent& event : trace.audit) {
      handle(event);
    }
    if (config_.io_runs_filter) apply_ioruns_filter();
    return std::move(graph_);
  }

 private:
  std::string fresh_id() {
    return std::string("v").append(std::to_string(next_vertex_++));
  }

  /// Process vertex for a pid, created on first sight.
  std::string process_vertex(const AuditEvent& event) {
    auto it = process_vertex_.find(event.pid);
    if (it != process_vertex_.end()) {
      maybe_credential_update(event, it->second);
      return process_vertex_.at(event.pid);
    }
    std::string id = fresh_id();
    graph::Properties props;
    props["type"] = "Process";
    props["name"] = event.comm;
    props["exe"] = event.exe;
    props["pid"] = std::to_string(event.pid);
    props["ppid"] = std::to_string(event.ppid);
    fill_creds(props, event.creds);
    props["start_time"] = event.fields.count("time")
                              ? event.fields.at("time")
                              : "0";  // transient
    graph_.add_node(id, "Process", std::move(props));
    process_vertex_[event.pid] = id;
    process_creds_[event.pid] = event.creds;
    return id;
  }

  static void fill_creds(graph::Properties& props,
                         const os::Credentials& creds) {
    props["uid"] = std::to_string(creds.uid);
    props["euid"] = std::to_string(creds.euid);
    props["gid"] = std::to_string(creds.gid);
    props["egid"] = std::to_string(creds.egid);
  }

  /// SPADE watches subject credentials on every record; a change (e.g.
  /// from a setresuid call it does not audit explicitly) materializes a
  /// new process vertex linked to the old one.
  void maybe_credential_update(const AuditEvent& event,
                               const std::string& old_vertex) {
    os::Credentials& known = process_creds_.at(event.pid);
    if (known == event.creds) return;
    std::string id = fresh_id();
    graph::Properties props;
    props["type"] = "Process";
    props["name"] = event.comm;
    props["pid"] = std::to_string(event.pid);
    fill_creds(props, event.creds);
    graph_.add_node(id, "Process", std::move(props));
    add_edge(id, old_vertex, "WasTriggeredBy",
             {{"operation", "update"}}, event);
    if (!config_.simplify && !config_.fixed_setres_vertex_bug) {
      // Bob's bug: with simplify disabled the update path also flushes a
      // vertex whose key includes an uninitialized field, which surfaces
      // as a disconnected vertex with a random-valued property.
      std::string spurious = fresh_id();
      graph_.add_node(spurious, "Process",
                      {{"type", "Process"},
                       {"pid", std::to_string(event.pid)},
                       {"version",
                        std::to_string(rng_.next_below(1u << 30))}});
    }
    process_vertex_[event.pid] = id;
    known = event.creds;
  }

  /// Artifact vertex for a path, deduplicated by (path, version epoch).
  std::string artifact_vertex(const std::string& path, std::uint64_t inode,
                              const std::string& subtype) {
    auto it = artifact_vertex_.find(path);
    if (it != artifact_vertex_.end()) return it->second;
    std::string id = fresh_id();
    graph::Properties props;
    props["type"] = "Artifact";
    props["subtype"] = subtype;
    props["path"] = path;
    props["inode"] = std::to_string(inode);
    if (config_.versioning) props["version"] = "0";
    graph_.add_node(id, "Artifact", std::move(props));
    artifact_vertex_[path] = id;
    return id;
  }

  /// Bump an artifact's version: new vertex + WasDerivedFrom chain.
  std::string version_bump(const std::string& path, std::uint64_t inode,
                           const AuditEvent& event) {
    std::string old_id = artifact_vertex(path, inode, "file");
    if (!config_.versioning) return old_id;
    int version = ++artifact_version_[path];
    std::string id = fresh_id();
    graph_.add_node(id, "Artifact",
                    {{"type", "Artifact"},
                     {"subtype", "file"},
                     {"path", path},
                     {"inode", std::to_string(inode)},
                     {"version", std::to_string(version)}});
    add_edge(id, old_id, "WasDerivedFrom", {{"operation", "version"}},
             event);
    artifact_vertex_[path] = id;
    return id;
  }

  void add_edge(const std::string& src, const std::string& tgt,
                const std::string& label, graph::Properties props,
                const AuditEvent& event) {
    props["event_id"] = std::to_string(event.serial);  // transient
    if (event.fields.count("time")) {
      props["time"] = event.fields.at("time");  // transient
    }
    graph_.add_edge(std::string("e").append(std::to_string(next_vertex_++)),
                    src, tgt, label, std::move(props));
  }

  void handle(const AuditEvent& event) {
    const std::string& call = event.syscall;
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
    std::string proc = process_vertex(event);
    if (call == "open" || call == "openat" || call == "creat") {
      if (event.paths.empty()) return;
      const os::AuditPathRecord& record = event.paths.front();
      std::string artifact =
          artifact_vertex(record.name, record.inode, "file");
      if (record.nametype == "CREATE") {
        add_edge(artifact, proc, "WasGeneratedBy", {{"operation", call}},
                 event);
      } else {
        add_edge(proc, artifact, "Used", {{"operation", call}}, event);
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
      std::string artifact =
          it != last_artifact_.end()
              ? it->second
              : artifact_vertex("unknown", 0, "file");
      add_edge(proc, artifact, "Used", {{"operation", "close"}}, event);
      return;
    }
    if (call == "read" || call == "pread" || call == "mmap") {
      if (event.paths.empty()) return;
      const os::AuditPathRecord& record = event.paths.front();
      std::string artifact =
          artifact_vertex(record.name, record.inode, "file");
      add_edge(proc, artifact, "Used", {{"operation", call}}, event);
      return;
    }
    if (call == "write" || call == "pwrite") {
      if (event.paths.empty()) return;
      const os::AuditPathRecord& record = event.paths.front();
      std::string artifact = version_bump(record.name, record.inode, event);
      add_edge(artifact, proc, "WasGeneratedBy", {{"operation", call}},
               event);
      return;
    }
    if (call == "rename" || call == "renameat" || call == "link" ||
        call == "linkat") {
      if (event.paths.size() < 2) return;
      std::string old_artifact =
          artifact_vertex(event.paths[0].name, event.paths[0].inode, "file");
      std::string new_artifact =
          artifact_vertex(event.paths[1].name, event.paths[1].inode, "file");
      add_edge(new_artifact, old_artifact, "WasDerivedFrom",
               {{"operation", call}}, event);
      add_edge(proc, old_artifact, "Used", {{"operation", call}}, event);
      add_edge(new_artifact, proc, "WasGeneratedBy", {{"operation", call}},
               event);
      return;
    }
    if (call == "symlink" || call == "symlinkat") {
      if (event.paths.empty()) return;
      std::string artifact =
          artifact_vertex(event.paths[0].name, event.paths[0].inode, "link");
      add_edge(artifact, proc, "WasGeneratedBy", {{"operation", call}},
               event);
      return;
    }
    if (call == "truncate" || call == "ftruncate" || call == "chmod" ||
        call == "fchmod" || call == "fchmodat") {
      if (event.paths.empty()) return;
      const os::AuditPathRecord& record = event.paths.front();
      std::string artifact = version_bump(record.name, record.inode, event);
      graph::Properties props{{"operation", call}};
      if (event.fields.count("mode")) props["mode"] = event.fields.at("mode");
      add_edge(artifact, proc, "WasGeneratedBy", std::move(props), event);
      return;
    }
    if (call == "unlink" || call == "unlinkat") {
      if (event.paths.empty()) return;
      const os::AuditPathRecord& record = event.paths.front();
      std::string artifact =
          artifact_vertex(record.name, record.inode, "file");
      add_edge(proc, artifact, "Used", {{"operation", call}}, event);
      return;
    }
    // Anything else in the rule set contributes no structure.
  }

  void handle_fork(const AuditEvent& event) {
    std::string parent = process_vertex(event);
    os::Pid child_pid =
        static_cast<os::Pid>(event.exit_code);  // fork returns the child
    auto it = process_vertex_.find(child_pid);
    if (it != process_vertex_.end()) {
      // The child was already seen (its records preceded this one — the
      // vfork suspension artifact): SPADE treats that unit as complete
      // and skips the linking edge, leaving a disconnected child (DV).
      return;
    }
    std::string child_id = fresh_id();
    graph::Properties props;
    props["type"] = "Process";
    props["name"] = event.comm;
    props["pid"] = std::to_string(child_pid);
    props["ppid"] = std::to_string(event.pid);
    fill_creds(props, event.creds);
    graph_.add_node(child_id, "Process", std::move(props));
    process_vertex_[child_pid] = child_id;
    process_creds_[child_pid] = event.creds;
    add_edge(child_id, parent, "WasTriggeredBy",
             {{"operation", event.syscall}}, event);
  }

  void handle_execve(const AuditEvent& event) {
    // execve replaces the process image: new process vertex triggered by
    // the old one, plus a Used edge to the executed binary. Loader reads
    // (audited separately) attach to the new vertex — making the execve
    // benchmark graph large (§4.2).
    std::string old_vertex;
    auto it = process_vertex_.find(event.pid);
    if (it != process_vertex_.end()) old_vertex = it->second;
    std::string id = fresh_id();
    graph::Properties props;
    props["type"] = "Process";
    props["name"] = event.comm;
    props["exe"] = event.exe;
    props["pid"] = std::to_string(event.pid);
    props["ppid"] = std::to_string(event.ppid);
    fill_creds(props, event.creds);
    props["start_time"] =
        event.fields.count("time") ? event.fields.at("time") : "0";
    graph_.add_node(id, "Process", std::move(props));
    process_vertex_[event.pid] = id;
    process_creds_[event.pid] = event.creds;
    if (!old_vertex.empty()) {
      add_edge(id, old_vertex, "WasTriggeredBy", {{"operation", "execve"}},
               event);
    }
    if (!event.paths.empty()) {
      std::string binary = artifact_vertex(event.paths.front().name,
                                           event.paths.front().inode,
                                           "file");
      add_edge(id, binary, "Used", {{"operation", "load"}}, event);
    }
  }

  void handle_setid(const AuditEvent& event) {
    // Explicitly audited credential calls: new process vertex with the
    // updated identity (Table 3 setuid structure).
    std::string old_vertex = process_vertex(event);
    std::string id = fresh_id();
    graph::Properties props;
    props["type"] = "Process";
    props["name"] = event.comm;
    props["pid"] = std::to_string(event.pid);
    fill_creds(props, event.creds);
    graph_.add_node(id, "Process", std::move(props));
    add_edge(id, old_vertex, "WasTriggeredBy",
             {{"operation", event.syscall}}, event);
    if (!config_.simplify && !config_.fixed_setres_vertex_bug &&
        (event.syscall == "setresuid" || event.syscall == "setresgid")) {
      std::string spurious = fresh_id();
      graph_.add_node(spurious, "Process",
                      {{"type", "Process"},
                       {"pid", std::to_string(event.pid)},
                       {"version",
                        std::to_string(rng_.next_below(1u << 30))}});
    }
    process_vertex_[event.pid] = id;
    process_creds_[event.pid] = event.creds;
  }

  /// The IORuns filter: coalesce consecutive identical read/write edges
  /// into one edge with a count. The benchmarked version looks for the
  /// property key "op" while the reporter emits "operation" — so nothing
  /// ever matches and the filter silently does nothing (Bob's second
  /// find).
  void apply_ioruns_filter() {
    const std::string key =
        config_.fixed_ioruns_property ? "operation" : "op";
    std::vector<graph::Edge> edges = graph_.edges();
    std::vector<std::string> doomed;
    const graph::Edge* run_start = nullptr;
    int run_length = 0;
    auto flush = [&](const graph::Edge* next) {
      if (run_start != nullptr && run_length > 1) {
        graph_.set_property(run_start->id, "count",
                            std::to_string(run_length));
      }
      run_start = next;
      run_length = next != nullptr ? 1 : 0;
    };
    for (const graph::Edge& e : edges) {
      auto op = e.props.find(key);
      bool is_io = op != e.props.end() &&
                   (op->second == "read" || op->second == "write" ||
                    op->second == "pread" || op->second == "pwrite");
      if (!is_io) {
        flush(nullptr);
        continue;
      }
      if (run_start != nullptr && run_start->src == e.src &&
          run_start->tgt == e.tgt && run_start->label == e.label &&
          run_start->props.at(key) == op->second) {
        ++run_length;
        doomed.push_back(e.id);
      } else {
        flush(&e);
      }
    }
    flush(nullptr);
    for (const std::string& id : doomed) graph_.remove_edge(id);
  }

  const SpadeConfig& config_;
  util::Rng rng_;
  PropertyGraph graph_;
  std::uint64_t next_vertex_ = 1;
  std::map<os::Pid, std::string> process_vertex_;
  std::map<os::Pid, os::Credentials> process_creds_;
  std::map<std::string, std::string> artifact_vertex_;
  std::map<std::string, int> artifact_version_;
  std::map<os::Pid, std::string> last_artifact_;
};

}  // namespace

graph::PropertyGraph build_spade_graph(const os::EventTrace& trace,
                                       const SpadeConfig& config,
                                       std::uint64_t seed) {
  return SpadeBuilder(config, seed).take(trace);
}

std::set<std::string> SpadeRecorder::extra_audit_rules() const {
  if (config_.simplify) return {};
  return {"setresuid", "setresgid"};
}

std::string SpadeRecorder::record(const os::EventTrace& trace,
                                  const TrialContext& trial) {
  util::Rng rng(trial.seed ^ util::stable_hash("spade"));
  graph::PropertyGraph g =
      build_spade_graph(trace, config_, rng.next_u64());
  if (config_.storage == SpadeStorage::Neo4j) {
    // The `spn` configuration: the graph lands in Neo4j; stopping the
    // recorder flushes the transaction, so no truncation applies.
    return formats::to_neo4j_json(g);
  }
  std::string dot = formats::to_dot(g, "spade_provenance");
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
