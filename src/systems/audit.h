// Linux-Audit-style simulated recorder: auditd + aureport as a provenance
// system in its own right, without SPADE's OPM reduction.
//
// Where SPADE consumes the audit stream and *interprets* it into Process /
// Artifact vertices, this recorder preserves the native record shape: one
// record vertex per SYSCALL event carrying the decoded argument vocabulary
// (O_RDONLY|O_CREAT|... flag strings plus the raw hex register values, the
// audit-helpers idiom), linked to its emitting process and to one vertex
// per PATH record. It also installs audit rules for the syscall families
// the SPADE defaults skip — socket calls, mknod*, chown*, setres*, pipes —
// so the Network and Permissions groups that are NR for SPADE are visible
// here.
#pragma once

#include "graph/property_graph.h"
#include "systems/recorder.h"

namespace provmark::systems {

struct AuditConfig {
  /// Decode flag/prot fields into their symbolic vocabulary on the record
  /// vertex (on: the aureport-style output; off: raw hex registers only).
  bool decode_arguments = true;
};

class AuditRecorder final : public Recorder {
 public:
  explicit AuditRecorder(AuditConfig config = {}) : config_(config) {}

  std::string name() const override { return "audit"; }
  std::string output_format() const override { return "graphviz-dot"; }
  os::Layer layer() const override { return os::Layer::Audit; }
  std::set<std::string> extra_audit_rules() const override;
  std::string record(const os::EventTrace& trace,
                     const TrialContext& trial) override;

  const AuditConfig& config() const { return config_; }

 private:
  AuditConfig config_;
};

/// The graph-building core, exposed for unit tests: the
/// view record() writes, materialized.
graph::PropertyGraph build_audit_graph(const os::EventTrace& trace,
                                       const AuditConfig& config,
                                       std::uint64_t seed);

}  // namespace provmark::systems
