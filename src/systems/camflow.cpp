#include "systems/camflow.h"

#include <map>
#include <memory_resource>
#include <optional>
#include <string>
#include <string_view>

#include "formats/prov_json.h"
#include "systems/recorded_graph.h"
#include "util/rng.h"
#include "util/strings.h"

namespace provmark::systems {

namespace {

using os::LsmEvent;

class CamflowBuilder {
 public:
  CamflowBuilder(const CamflowConfig& config, std::uint64_t seed,
                 util::Region& region)
      : config_(config),
        rng_(seed),
        graph_(region),
        task_node_(graph_.memory()),
        inode_node_(graph_.memory()),
        path_node_(graph_.memory()),
        memory_node_(graph_.memory()) {
    // cf:id values are per-boot counters: transient across trials.
    next_cf_id_ = 1 + rng_.next_below(1u << 20);
    boot_id_ = graph_.num(rng_.next_below(1u << 16));
  }

  graph::GraphView take(const os::EventTrace& trace,
                        bool interference = false) {
    for (const LsmEvent& event : trace.lsm) {
      handle(event);
    }
    if (interference) add_interference();
    return graph_.take();
  }

 private:
  void add_interference() {
    // Whole-system capture: a daemon writing its log lands in the window.
    std::string_view task_id = fresh_id("cf:task:");
    std::uint32_t task =
        graph_.node(task_id, "activity",
                    {{"prov:type", "task"},
                     {"cf:pid", graph_.num(300 + rng_.next_below(400))},
                     {"cf:boot_id", boot_id_}});
    std::string_view log_id = fresh_id("cf:inode:");
    std::uint32_t log =
        graph_.node(log_id, "entity",
                    {{"prov:type", "inode_file"},
                     {"cf:inode", graph_.num(rng_.next_below(9000))}});
    graph_.edge(fresh_id("cf:rel:"), log, task, "wasGeneratedBy",
                {{"prov:label", "write"}});
  }

  std::string_view fresh_id(std::string_view kind) {
    return graph_.num(next_cf_id_++, kind);
  }

  std::uint32_t task_node(const LsmEvent& event) {
    auto it = task_node_.find(event.pid);
    if (it != task_node_.end()) return it->second;
    std::string_view id = fresh_id("cf:task:");
    graph_.prop("prov:type", "task");
    graph_.prop("cf:pid", graph_.num(event.pid));  // transient
    graph_.prop("cf:boot_id", boot_id_);           // transient
    graph_.prop("cf:uid", graph_.num(event.creds.uid));
    graph_.prop("cf:gid", graph_.num(event.creds.gid));
    if (auto time = event.fields.find("time"); time != event.fields.end()) {
      graph_.prop("cf:date", time->second);  // transient
    }
    std::uint32_t node = graph_.node(id, "activity");
    task_node_[event.pid] = node;
    return node;
  }

  std::uint32_t inode_node(const os::LsmObject& object) {
    auto it = inode_node_.find(object.id);
    if (it != inode_node_.end()) return it->second;
    std::uint32_t node = new_inode_node(object);
    inode_node_[object.id] = node;
    return node;
  }

  std::uint32_t new_inode_node(const os::LsmObject& object) {
    std::string_view id = fresh_id("cf:inode:");
    return graph_.node(id, "entity",
                       {{"prov:type", inode_type(object.kind)},
                        {"cf:inode", graph_.num(object.id)}});
  }

  std::string_view inode_type(std::string_view kind) {
    return graph_.join({"inode_", kind});
  }

  /// Path entities hang off their inode via a `named` relation. `path`
  /// lives in the trace (or is a literal).
  std::uint32_t path_node(std::string_view path, std::uint32_t inode) {
    auto it = path_node_.find(path);
    if (it != path_node_.end()) return it->second;
    std::string_view id = fresh_id("cf:path:");
    std::uint32_t node = graph_.node(
        id, "entity", {{"prov:type", "path"}, {"cf:pathname", path}});
    graph_.edge(fresh_id("cf:rel:"), inode, node, "named");
    path_node_.emplace(path, node);
    return node;
  }

  void relate(std::uint32_t src, std::uint32_t tgt, std::string_view relation,
              std::string_view label) {
    if (!label.empty()) graph_.prop("prov:label", label);
    graph_.prop("cf:id", graph_.num(next_cf_id_++));  // transient
    graph_.edge(fresh_id("cf:rel:"), src, tgt, relation);
  }

  /// The event's `key` field, or `fallback`.
  static std::string_view field_or(const LsmEvent& event,
                                   std::string_view key,
                                   std::string_view fallback) {
    auto it = event.fields.find(key);
    return it != event.fields.end() ? it->second : fallback;
  }

  void handle(const LsmEvent& event) {
    if (event.permission_denied && !config_.record_denied) {
      // CamFlow can in principle monitor failed permission checks but the
      // baseline configuration does not serialize them (§3.1, Alice).
      return;
    }
    const std::string_view hook = event.hook;
    // Hooks that CamFlow 0.4.5 does not serialize.
    if (hook == "inode_symlink" || hook == "inode_mknod" ||
        hook == "task_kill") {
      return;
    }
    if (hook == "task_free") {
      // Task teardown updates internal refcounts; no graph structure for
      // a normal exit (exit benchmark: empty, note LP).
      return;
    }
    if (hook == "task_alloc") {
      std::uint32_t parent = task_node(event);
      std::string_view child_id = fresh_id("cf:task:");
      std::uint32_t child =
          graph_.node(child_id, "activity",
                      {{"prov:type", "task"},
                       {"cf:pid", graph_.num(event.object->id)},
                       {"cf:boot_id", boot_id_}});
      task_node_[static_cast<os::Pid>(event.object->id)] = child;
      relate(child, parent, "wasInformedBy", field_or(event, "call", "fork"));
      return;
    }
    std::uint32_t task = task_node(event);
    if (hook == "bprm_check") {
      std::uint32_t inode = inode_node(*event.object);
      if (event.object->path.has_value()) {
        path_node(*event.object->path, inode);
      }
      relate(task, inode, "used", "exec");
      return;
    }
    if (hook == "file_open") {
      std::uint32_t inode = inode_node(*event.object);
      if (event.object->path.has_value()) {
        path_node(*event.object->path, inode);
      }
      relate(task, inode, "used", "open");
      return;
    }
    if (hook == "file_permission") {
      std::uint32_t inode = inode_node(*event.object);
      if (field_or(event, "mask", "") == "MAY_WRITE") {
        relate(inode, task, "wasGeneratedBy", "write");
      } else {
        relate(task, inode, "used", "read");
      }
      return;
    }
    if (hook == "mmap_file") {
      std::uint32_t inode = inode_node(*event.object);
      std::uint32_t memory = memory_node(event);
      relate(memory, inode, "wasDerivedFrom", "mmap");
      return;
    }
    if (hook == "socket_create") {
      std::uint32_t inode = inode_node(*event.object);
      relate(inode, task, "wasGeneratedBy", "socket_create");
      return;
    }
    if (hook == "socket_bind") {
      std::uint32_t inode = inode_node(*event.object);
      relate(inode, task, "wasGeneratedBy", "bind");
      return;
    }
    if (hook == "socket_connect") {
      std::uint32_t inode = inode_node(*event.object);
      relate(task, inode, "used", "connect");
      return;
    }
    if (hook == "socket_listen") {
      std::uint32_t inode = inode_node(*event.object);
      relate(task, inode, "used", "listen");
      return;
    }
    if (hook == "socket_accept") {
      // object: the listening socket; object2: the accepted connection.
      std::uint32_t listening = inode_node(*event.object);
      std::uint32_t accepted = inode_node(*event.object2);
      relate(accepted, listening, "wasDerivedFrom", "accept");
      relate(accepted, task, "wasGeneratedBy", "accept");
      return;
    }
    if (hook == "socket_sendmsg") {
      std::uint32_t inode = inode_node(*event.object);
      relate(inode, task, "wasGeneratedBy", "send");
      return;
    }
    if (hook == "socket_recvmsg") {
      std::uint32_t inode = inode_node(*event.object);
      relate(task, inode, "used", "receive");
      return;
    }
    if (hook == "inode_create") {
      std::uint32_t inode = inode_node(*event.object);
      if (event.object->path.has_value()) {
        path_node(*event.object->path, inode);
      }
      relate(inode, task, "wasGeneratedBy", "create");
      return;
    }
    if (hook == "inode_link" || hook == "inode_rename") {
      // A new name for an existing inode (link), or a new path associated
      // with the file object whose old path does not reappear (rename,
      // §4.1).
      std::uint32_t inode = inode_node(*event.object);
      std::uint32_t new_path =
          path_node(event.object2->path.value_or("?"), inode);
      relate(new_path, task, "wasGeneratedBy",
             hook == "inode_link" ? "link" : "rename");
      return;
    }
    if (hook == "inode_unlink") {
      std::uint32_t inode = inode_node(*event.object);
      relate(task, inode, "wasInvalidatedBy", "unlink");
      return;
    }
    if (hook == "inode_setattr") {
      // Attribute change: new entity version derived from the old one.
      std::uint32_t inode = inode_node(*event.object);
      std::uint32_t next = new_inode_node(*event.object);
      relate(next, inode, "wasDerivedFrom", field_or(event, "attr", "setattr"));
      relate(next, task, "wasGeneratedBy", "setattr");
      inode_node_[event.object->id] = next;
      return;
    }
    if (hook == "cred_prepare") {
      // Credential change: new task version informed by the old one.
      std::string_view next_id = fresh_id("cf:task:");
      std::uint32_t next =
          graph_.node(next_id, "activity",
                      {{"prov:type", "task"},
                       {"cf:pid", graph_.num(event.pid)},
                       {"cf:boot_id", boot_id_},
                       {"cf:uid", graph_.num(event.creds.uid)},
                       {"cf:gid", graph_.num(event.creds.gid)}});
      relate(next, task, "wasInformedBy", field_or(event, "call", "setid"));
      task_node_[event.pid] = next;
      return;
    }
    if (hook == "inode_free") {
      std::uint32_t inode = inode_node(*event.object);
      relate(task, inode, "wasInvalidatedBy", "free");
      return;
    }
  }

  std::uint32_t memory_node(const LsmEvent& event) {
    auto it = memory_node_.find(event.pid);
    if (it != memory_node_.end()) return it->second;
    std::string_view id = fresh_id("cf:mem:");
    std::uint32_t node =
        graph_.node(id, "entity",
                    {{"prov:type", "process_memory"},
                     {"cf:pid", graph_.num(event.pid)}});
    memory_node_[event.pid] = node;
    return node;
  }

  const CamflowConfig& config_;
  util::Rng rng_;
  RecordedGraph graph_;
  std::uint64_t next_cf_id_ = 1;
  std::string_view boot_id_;
  std::pmr::map<os::Pid, std::uint32_t> task_node_;
  std::pmr::map<std::uint64_t, std::uint32_t> inode_node_;
  std::pmr::map<std::string_view, std::uint32_t> path_node_;
  std::pmr::map<os::Pid, std::uint32_t> memory_node_;
};

}  // namespace

graph::PropertyGraph build_camflow_graph(const os::EventTrace& trace,
                                         const CamflowConfig& config,
                                         std::uint64_t seed) {
  return CamflowBuilder(config, seed, trace.region())
      .take(trace)
      .materialize();
}

std::string CamflowRecorder::record(const os::EventTrace& trace,
                                    const TrialContext& trial) {
  util::Rng rng(trial.seed ^ util::stable_hash("camflow"));
  // Whole-system capture occasionally catches unrelated contemporaneous
  // activity in the filtered window; ProvMark's similarity classes discard
  // such runs (§3.4).
  bool interfere = rng.chance(config_.interference_probability);
  CamflowBuilder builder(config_, rng.next_u64(), trace.region());
  return formats::to_prov_json(builder.take(trace, interfere));
}

}  // namespace provmark::systems
