#include "systems/spade_camflow.h"

#include <map>
#include <string>
#include <string_view>

#include "formats/dot.h"
#include "systems/recorded_graph.h"
#include "util/rng.h"
#include "util/strings.h"

namespace provmark::systems {

namespace {

using os::LsmEvent;

/// The event's `key` field, or `fallback`.
std::string_view field_or(const LsmEvent& event, std::string_view key,
                          std::string_view fallback) {
  auto it = event.fields.find(key);
  return it != event.fields.end() ? it->second : fallback;
}

/// Translates the LSM hook stream into SPADE's OPM vocabulary.
class SpadeCamflowBuilder {
 public:
  SpadeCamflowBuilder(const SpadeCamflowConfig& config, std::uint64_t seed,
                      util::Region& region)
      : config_(config),
        rng_(seed),
        graph_(region),
        process_vertex_(graph_.memory()),
        artifact_vertex_(graph_.memory()) {
    next_vertex_ = 1 + rng_.next_below(100000);
  }

  graph::GraphView take(const os::EventTrace& trace, bool interference) {
    for (const LsmEvent& event : trace.lsm) {
      handle(event);
    }
    if (interference) {
      // Whole-system capture: a daemon process writing its log.
      std::string_view daemon_id = fresh_id();
      std::uint32_t daemon = graph_.node(
          daemon_id, "Process",
          {{"type", "Process"},
           {"pid", graph_.num(300 + rng_.next_below(400))}});
      std::string_view log_id = fresh_id();
      std::uint32_t log = graph_.node(
          log_id, "Artifact",
          {{"type", "Artifact"}, {"inode", graph_.num(rng_.next_below(9000))}});
      graph_.edge(fresh_id(), log, daemon, "WasGeneratedBy",
                  {{"operation", "write"}});
    }
    return graph_.take();
  }

 private:
  std::string_view fresh_id() { return graph_.num(next_vertex_++, "cv"); }

  std::uint32_t process_vertex(const LsmEvent& event) {
    auto it = process_vertex_.find(event.pid);
    if (it != process_vertex_.end()) return it->second;
    std::string_view id = fresh_id();
    std::uint32_t node =
        graph_.node(id, "Process",
                    {{"type", "Process"},
                     {"pid", graph_.num(event.pid)},
                     {"uid", graph_.num(event.creds.uid)},
                     {"gid", graph_.num(event.creds.gid)},
                     {"source", "camflow"}});
    process_vertex_[event.pid] = node;
    return node;
  }

  std::uint32_t artifact_vertex(const os::LsmObject& object) {
    auto it = artifact_vertex_.find(object.id);
    if (it != artifact_vertex_.end()) return it->second;
    std::string_view id = fresh_id();
    graph_.prop("type", "Artifact");
    graph_.prop("subtype", object.kind);
    graph_.prop("inode", graph_.num(object.id));
    if (object.path.has_value()) graph_.prop("path", *object.path);
    std::uint32_t node = graph_.node(id, "Artifact");
    artifact_vertex_[object.id] = node;
    return node;
  }

  void edge(std::uint32_t src, std::uint32_t tgt, std::string_view label,
            std::string_view operation, const LsmEvent& event) {
    graph_.prop("operation", operation);
    if (auto time = event.fields.find("time"); time != event.fields.end()) {
      graph_.prop("time", time->second);  // transient
    }
    graph_.edge(fresh_id(), src, tgt, label);
  }

  void handle(const LsmEvent& event) {
    if (event.permission_denied && !config_.record_denied) return;
    const std::string_view hook = event.hook;
    // The reporter inherits CamFlow 0.4.5's serialization gaps.
    if (hook == "inode_symlink" || hook == "inode_mknod" ||
        hook == "task_kill" || hook == "task_free") {
      return;
    }
    if (hook == "task_alloc") {
      std::uint32_t parent = process_vertex(event);
      std::string_view child_id = fresh_id();
      std::uint32_t child =
          graph_.node(child_id, "Process",
                      {{"type", "Process"},
                       {"pid", graph_.num(event.object->id)},
                       {"source", "camflow"}});
      process_vertex_[static_cast<os::Pid>(event.object->id)] = child;
      edge(child, parent, "WasTriggeredBy", field_or(event, "call", "fork"),
           event);
      return;
    }
    std::uint32_t proc = process_vertex(event);
    if (hook == "file_open" || hook == "bprm_check" ||
        hook == "mmap_file") {
      edge(proc, artifact_vertex(*event.object), "Used",
           hook == "bprm_check" ? "exec" : "open", event);
      return;
    }
    if (hook == "file_permission") {
      if (field_or(event, "mask", "") == "MAY_WRITE") {
        edge(artifact_vertex(*event.object), proc, "WasGeneratedBy",
             "write", event);
      } else {
        edge(proc, artifact_vertex(*event.object), "Used", "read", event);
      }
      return;
    }
    if (hook == "inode_create") {
      edge(artifact_vertex(*event.object), proc, "WasGeneratedBy", "create",
           event);
      return;
    }
    if (hook == "inode_link" || hook == "inode_rename") {
      // OPM shape: new-name artifact derived from the object.
      std::uint32_t object = artifact_vertex(*event.object);
      std::string_view renamed_id = fresh_id();
      graph_.prop("type", "Artifact");
      graph_.prop("inode", graph_.num(event.object->id));
      if (event.object2.has_value() && event.object2->path.has_value()) {
        graph_.prop("path", *event.object2->path);
      }
      std::uint32_t renamed = graph_.node(renamed_id, "Artifact");
      const std::string_view operation =
          hook == "inode_link" ? "link" : "rename";
      edge(renamed, object, "WasDerivedFrom", operation, event);
      edge(renamed, proc, "WasGeneratedBy", operation, event);
      return;
    }
    if (hook == "inode_unlink") {
      edge(proc, artifact_vertex(*event.object), "Used", "unlink", event);
      return;
    }
    if (hook == "inode_setattr") {
      edge(artifact_vertex(*event.object), proc, "WasGeneratedBy",
           field_or(event, "attr", "setattr"), event);
      return;
    }
    if (hook == "cred_prepare") {
      std::string_view updated_id = fresh_id();
      std::uint32_t updated =
          graph_.node(updated_id, "Process",
                      {{"type", "Process"},
                       {"pid", graph_.num(event.pid)},
                       {"uid", graph_.num(event.creds.uid)},
                       {"gid", graph_.num(event.creds.gid)},
                       {"source", "camflow"}});
      edge(updated, proc, "WasTriggeredBy", field_or(event, "call", "setid"),
           event);
      process_vertex_[event.pid] = updated;
      return;
    }
    if (hook == "inode_free") {
      edge(proc, artifact_vertex(*event.object), "Used", "free", event);
      return;
    }
  }

  const SpadeCamflowConfig& config_;
  util::Rng rng_;
  RecordedGraph graph_;
  std::uint64_t next_vertex_ = 1;
  std::pmr::map<os::Pid, std::uint32_t> process_vertex_;
  std::pmr::map<std::uint64_t, std::uint32_t> artifact_vertex_;
};

}  // namespace

graph::PropertyGraph build_spade_camflow_graph(
    const os::EventTrace& trace, const SpadeCamflowConfig& config,
    std::uint64_t seed) {
  return SpadeCamflowBuilder(config, seed, trace.region())
      .take(trace, false)
      .materialize();
}

std::string SpadeCamflowRecorder::record(const os::EventTrace& trace,
                                         const TrialContext& trial) {
  util::Rng rng(trial.seed ^ util::stable_hash("spade-camflow"));
  bool interfere = rng.chance(config_.interference_probability);
  SpadeCamflowBuilder builder(config_, rng.next_u64(), trace.region());
  return formats::to_dot(builder.take(trace, interfere),
                         "spade_camflow_provenance");
}

}  // namespace provmark::systems
