// eBPF/LSM-style simulated recorder: BPF programs attached to LSM hooks
// (the bpf-lsm / KRSI design), streaming one event per hook firing into a
// ring buffer that user space serializes as PROV-JSON.
//
// Contrast with CamFlow, which also lives on the LSM but builds a curated
// whole-provenance model and skips hooks its version does not serialize:
// a BPF tracer is exhaustive and literal. It emits every hook it attaches
// to — including inode_symlink, inode_mknod, task_kill, and task_free,
// which CamFlow 0.4.5 drops — and it sees *denied* permission checks too,
// because the hook runs before the decision is enforced. No daemon
// start/stop races, so the output has no truncation or interference
// noise, and two trials suffice.
#pragma once

#include "graph/property_graph.h"
#include "systems/recorder.h"

namespace provmark::systems {

struct EbpfConfig {
  /// Emit events whose permission check was denied (a BPF LSM program
  /// observes the hook regardless of the eventual verdict).
  bool record_denied = true;
};

class EbpfRecorder final : public Recorder {
 public:
  explicit EbpfRecorder(EbpfConfig config = {}) : config_(config) {}

  std::string name() const override { return "ebpf"; }
  std::string output_format() const override { return "prov-json"; }
  os::Layer layer() const override { return os::Layer::Lsm; }
  std::string record(const os::EventTrace& trace,
                     const TrialContext& trial) override;

  const EbpfConfig& config() const { return config_; }

 private:
  EbpfConfig config_;
};

/// The graph-building core, exposed for unit tests: the
/// view record() writes, materialized.
graph::PropertyGraph build_ebpf_graph(const os::EventTrace& trace,
                                      const EbpfConfig& config,
                                      std::uint64_t seed);

}  // namespace provmark::systems
