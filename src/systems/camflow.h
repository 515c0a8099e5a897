// CamFlow simulator (version 0.4.5).
//
// Consumes the LSM hook stream (CamFlow generates provenance inside the
// kernel via LSM and NetFilter hooks) and builds a W3C PROV graph of
// activities (tasks), entities (inodes, paths, memory) and their
// relations, serialized as PROV-JSON.
//
// Modelled behaviours (each traceable to §4 / Table 2):
//  * Everything with an implemented hook is captured — including all of
//    the permission group (chown/fchown, setres*) that the other systems
//    miss.
//  * Version-0.4.5 gaps: inode_symlink, inode_mknod and pipe allocation
//    are not serialized; task_kill is not serialized.
//  * dup never reaches CamFlow at all (no LSM hook exists).
//  * inode_free records for close arrive only when the deferred free
//    flushes before recording stops — unreliable, so the close benchmark
//    generalizes to empty (note LP).
//  * Whole-system capture: unrelated contemporaneous activity occasionally
//    lands in the filtered window (`interference_probability`), which
//    ProvMark discards via similarity classes (§3.4).
//  * Baseline configuration does not serialize permission-denied events
//    (Alice's failed rename is invisible; set `record_denied`).
#pragma once

#include <string>

#include "graph/property_graph.h"
#include "systems/recorder.h"

namespace provmark::systems {

struct CamflowConfig {
  /// Serialize hook firings whose permission check failed.
  bool record_denied = false;
  /// Probability that unrelated whole-system activity contaminates a
  /// trial's filtered graph.
  double interference_probability = 0.15;
};

class CamflowRecorder final : public Recorder {
 public:
  explicit CamflowRecorder(CamflowConfig config = {}) : config_(config) {}

  std::string name() const override { return "camflow"; }
  std::string output_format() const override { return "prov-json"; }
  os::Layer layer() const override { return os::Layer::Lsm; }
  std::string record(const os::EventTrace& trace,
                     const TrialContext& trial) override;

  const CamflowConfig& config() const { return config_; }

 private:
  CamflowConfig config_;
};

/// The graph-building core, exposed for unit tests (no interference noise):
/// the view record() writes, materialized.
graph::PropertyGraph build_camflow_graph(const os::EventTrace& trace,
                                         const CamflowConfig& config,
                                         std::uint64_t seed);

}  // namespace provmark::systems
