// SPADE with the CamFlow reporter — the configuration the paper mentions
// ("CamFlow can also be used (instead of Linux Audit) to report provenance
// to SPADE", §2) but did not benchmark. Implemented here as an extension.
//
// Architecture: CamFlow's LSM hooks feed SPADE's CamFlow reporter, which
// translates kernel provenance into SPADE's OPM vocabulary (Process /
// Artifact vertices, Used / WasGeneratedBy / WasTriggeredBy edges) and
// stores it through SPADE's usual backends. The observable consequences,
// which the extension benchmark (`bench/ext_spade_camflow`) explores:
//
//  * Coverage follows the LSM layer, not the audit rules — chown, tee and
//    setres* become visible to "SPADE" while dup and pipe disappear.
//  * Failure filtering follows CamFlow (no denied-permission records in
//    the baseline), not auditd's success-only rules.
//  * Graph shapes are SPADE-like (no path entities; artifacts carry
//    paths as properties).
#pragma once

#include <string>

#include "graph/property_graph.h"
#include "systems/recorder.h"

namespace provmark::systems {

struct SpadeCamflowConfig {
  /// Serialize hook firings whose permission check failed.
  bool record_denied = false;
  /// Probability of whole-system interference in the window (inherited
  /// from CamFlow's capture model).
  double interference_probability = 0.15;
};

class SpadeCamflowRecorder final : public Recorder {
 public:
  explicit SpadeCamflowRecorder(SpadeCamflowConfig config = {})
      : config_(config) {}

  std::string name() const override { return "spade-camflow"; }
  std::string output_format() const override { return "graphviz-dot"; }
  os::Layer layer() const override { return os::Layer::Lsm; }
  std::string record(const os::EventTrace& trace,
                     const TrialContext& trial) override;

  const SpadeCamflowConfig& config() const { return config_; }

 private:
  SpadeCamflowConfig config_;
};

/// The graph-building core, exposed for unit tests (no interference noise):
/// the view record() writes, materialized.
graph::PropertyGraph build_spade_camflow_graph(
    const os::EventTrace& trace, const SpadeCamflowConfig& config,
    std::uint64_t seed);

}  // namespace provmark::systems
