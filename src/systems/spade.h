// SPADE simulator: the Audit Reporter of SPADEv2 (tag tc-e3).
//
// Consumes the audit-record stream (SPADE runs in user space and sees only
// what auditd forwards) and builds an OPM-style graph of Process and
// Artifact vertices connected by Used / WasGeneratedBy / WasTriggeredBy /
// WasDerivedFrom edges, serialized as Graphviz DOT.
//
// Modelled behaviours (each traceable to §4 of the paper):
//  * Only successful calls are visible (default audit rules).
//  * dup/dup2/dup3 update the reporter's fd table but create no structure
//    (Table 2 note SC).
//  * setresuid/setresgid are not explicitly monitored under `simplify`;
//    instead the reporter watches subject credentials on every record and
//    materializes an update edge when they change — so setresuid (a real
//    change) is non-empty while setresgid (a no-op change) is empty.
//  * vfork: the child's records precede the parent's vfork record, so the
//    child vertex already exists when the WasTriggeredBy edge would be
//    created and the reporter skips it — a disconnected child (note DV).
//  * Config `simplify=false` reproduces the random-property bug Bob found
//    (a spurious disconnected vertex in setres* handling); config
//    `io_runs_filter=true` reproduces the IORuns property-name bug (the
//    filter matches key "op" while edges carry "operation", so it does
//    nothing). Both have `fixed_*` switches.
//  * Stopping SPADE too early occasionally truncates the flushed graph
//    (§3.2); `truncation_probability` models this per trial.
#pragma once

#include <map>
#include <string>

#include "graph/property_graph.h"
#include "systems/recorder.h"

namespace provmark::systems {

/// SPADE storage backends (the paper's `spg` / `spn` tool choices).
enum class SpadeStorage { Graphviz, Neo4j };

struct SpadeConfig {
  /// Output storage: Graphviz DOT (`spg`, the paper's baseline) or a
  /// Neo4j export (`spn`).
  SpadeStorage storage = SpadeStorage::Graphviz;
  /// SPADE's `simplify` flag (default on): coalesce credential-change
  /// syscalls instead of auditing them explicitly.
  bool simplify = true;
  /// The IORuns filter: coalesce runs of identical read/write edges.
  bool io_runs_filter = false;
  /// Artifact versioning (off in the paper's baseline).
  bool versioning = false;
  /// Apply the upstream fix for the random-property bug found by Bob.
  bool fixed_setres_vertex_bug = false;
  /// Apply the upstream fix for the IORuns property-name mismatch.
  bool fixed_ioruns_property = false;
  /// Probability that stopping the recorder clips the tail of the output.
  double truncation_probability = 0.12;
};

class SpadeRecorder final : public Recorder {
 public:
  explicit SpadeRecorder(SpadeConfig config = {}) : config_(config) {}

  std::string name() const override { return "spade"; }
  std::string output_format() const override {
    return config_.storage == SpadeStorage::Graphviz ? "graphviz-dot"
                                                     : "neo4j-json";
  }
  os::Layer layer() const override { return os::Layer::Audit; }
  std::set<std::string> extra_audit_rules() const override;
  std::string record(const os::EventTrace& trace,
                     const TrialContext& trial) override;
  double recording_latency() const override {
    // The Neo4j backend pays a transaction commit on top of the shared
    // daemon start/stop + audit flush — the spn column of Figure 5.
    return calibrated_recording_latency(
        config_.storage == SpadeStorage::Neo4j ? "spn" : "spade");
  }

  const SpadeConfig& config() const { return config_; }

 private:
  SpadeConfig config_;
};

/// The graph-building core, exposed for unit tests (no truncation noise):
/// the view record() writes, materialized.
graph::PropertyGraph build_spade_graph(const os::EventTrace& trace,
                                       const SpadeConfig& config,
                                       std::uint64_t seed);

}  // namespace provmark::systems
