#include "systems/ebpf.h"

#include <map>
#include <string_view>

#include "formats/prov_json.h"
#include "systems/recorded_graph.h"
#include "util/rng.h"
#include "util/strings.h"

namespace provmark::systems {

namespace {

using os::LsmEvent;
using os::LsmObject;

class EbpfBuilder {
 public:
  EbpfBuilder(const EbpfConfig& config, std::uint64_t seed,
              util::Region& region)
      : config_(config),
        rng_(seed),
        graph_(region),
        task_node_(graph_.memory()),
        object_node_(graph_.memory()) {
    // Event ids mirror the ring-buffer sequence of one tracing session:
    // minted per trial, transient like every recorder's identifiers.
    next_id_ = 1 + rng_.next_below(1u << 20);
  }

  graph::GraphView take(const os::EventTrace& trace) {
    for (const LsmEvent& event : trace.lsm) {
      handle(event);
    }
    return graph_.take();
  }

 private:
  std::string_view fresh_id(std::string_view kind) {
    return graph_.num(next_id_++, kind);
  }

  std::uint32_t task_node(os::Pid pid, const os::Credentials& creds) {
    auto it = task_node_.find(pid);
    if (it != task_node_.end()) return it->second;
    std::string_view id = fresh_id("bpf:task:");
    std::uint32_t node = graph_.node(id, "activity",
                                     {{"prov:type", "task"},
                                      {"bpf:pid", graph_.num(pid)},
                                      {"bpf:uid", graph_.num(creds.uid)},
                                      {"bpf:gid", graph_.num(creds.gid)}});
    task_node_[pid] = node;
    return node;
  }

  std::uint32_t object_node(const LsmObject& object,
                            const os::Credentials& creds) {
    if (object.kind == "task") {
      return task_node(static_cast<os::Pid>(object.id), creds);
    }
    auto it = object_node_.find(object.id);
    if (it != object_node_.end()) return it->second;
    std::string_view id = fresh_id("bpf:obj:");
    graph_.prop("prov:type", object.kind);
    graph_.prop("bpf:ino", graph_.num(object.id));
    if (object.path.has_value()) graph_.prop("bpf:path", *object.path);
    std::uint32_t node = graph_.node(id, "entity");
    object_node_[object.id] = node;
    return node;
  }

  void handle(const LsmEvent& event) {
    if (event.permission_denied && !config_.record_denied) return;
    std::uint32_t task = task_node(event.pid, event.creds);
    // The firing's properties, numbered before an object node mints an
    // id, and laid down right before their edge.
    const std::string_view seq = graph_.num(next_id_);  // transient
    auto event_props = [&] {
      graph_.prop("prov:label", event.hook);
      graph_.prop("bpf:seq", seq);
      for (const auto& [key, value] : event.fields) {
        if (key == "time") continue;  // transient
        graph_.prop(graph_.join({"bpf:", key}), value);
      }
      if (event.permission_denied) graph_.prop("bpf:denied", "true");
    };
    if (!event.object.has_value()) {
      // Hook with no object in scope: self-edge on the task keeps the
      // firing visible (every attached hook produces exactly one event).
      event_props();
      graph_.edge(fresh_id("bpf:ev:"), task, task, event.hook);
      return;
    }
    std::uint32_t object = object_node(*event.object, event.creds);
    event_props();
    graph_.edge(fresh_id("bpf:ev:"), task, object, event.hook);
    if (event.object2.has_value()) {
      std::uint32_t other = object_node(*event.object2, event.creds);
      graph_.edge(fresh_id("bpf:ev:"), object, other, event.hook,
                  {{"prov:label", graph_.join({event.hook, ":object2"})}});
    }
  }

  const EbpfConfig& config_;
  util::Rng rng_;
  RecordedGraph graph_;
  std::uint64_t next_id_ = 1;
  std::pmr::map<os::Pid, std::uint32_t> task_node_;
  std::pmr::map<std::uint64_t, std::uint32_t> object_node_;
};

}  // namespace

graph::PropertyGraph build_ebpf_graph(const os::EventTrace& trace,
                                      const EbpfConfig& config,
                                      std::uint64_t seed) {
  return EbpfBuilder(config, seed, trace.region()).take(trace).materialize();
}

std::string EbpfRecorder::record(const os::EventTrace& trace,
                                 const TrialContext& trial) {
  util::Rng rng(trial.seed ^ util::stable_hash("ebpf"));
  return formats::to_prov_json(
      EbpfBuilder(config_, rng.next_u64(), trace.region()).take(trace));
}

}  // namespace provmark::systems
