// The recorder interface: a provenance capture system as a black box.
//
// ProvMark treats each capture system as: start it, run the monitored
// program, collect its native-format output (§3.2). Here a Recorder
// consumes the one layer of a trial's event trace that its real
// counterpart observes and produces the native-format document that
// counterpart would have written — SPADE: Graphviz DOT; OPUS: a Neo4j
// export; CamFlow: PROV-JSON. The shipped recorders build their graph as
// a graph::GraphView (systems/recorded_graph.h) and hand it straight to
// the formats/ writer; no PropertyGraph is built on the trial path.
//
// A trial's events and build scratch live in one region owned by its
// trace (util/region.h): a recorder builds its view and its dedupe maps
// there, and the writer's scratch comes from there too. The document is
// written straight into the heap string the recorder returns.
//
// Each trial gets a fresh TrialContext whose seed drives recorder-side
// transient values (minted node identifiers, serialization timestamps)
// and the structural instabilities the paper reports (SPADE output
// truncation when stopped too early, CamFlow whole-system interference).
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include "os/events.h"

namespace provmark::systems {

struct TrialContext {
  std::uint64_t seed = 1;
};

class Recorder {
 public:
  virtual ~Recorder() = default;

  /// Short system name: "spade", "opus", "camflow".
  virtual std::string name() const = 0;

  /// Native output format (matches formats::format_name()).
  virtual std::string output_format() const = 0;

  /// The one observation layer this recorder reads: libc for OPUS, audit
  /// for SPADE and auditd, LSM for CamFlow, SPADE-on-CamFlow and eBPF
  /// (Figure 2). The pipeline has the kernel build only that layer's
  /// events (bench_suite::execute_program).
  virtual os::Layer layer() const = 0;

  /// Audit rules this recorder installs beyond the kernel defaults (SPADE
  /// with simplify disabled adds setresuid/setresgid).
  virtual std::set<std::string> extra_audit_rules() const { return {}; }

  /// Consume one trial's event trace; return the native-format document.
  /// Only the trace's layer() events are read, so a trace of that layer
  /// alone gives the same document as a trace of all layers.
  ///
  /// Concurrency: the pipeline records independent trials in parallel on
  /// one Recorder instance, so implementations must be safe for
  /// concurrent record() calls — derive all transient values from
  /// `trial.seed` and keep per-trial state local to the call (the
  /// shipped recorders hold only immutable config between calls). The
  /// build scratch draws from the trace's region, so one trace is
  /// recorded by one thread at a time.
  virtual std::string record(const os::EventTrace& trace,
                             const TrialContext& trial) = 0;

  /// This recorder's calibrated per-trial recording latency in seconds
  /// (see calibrated_recording_latency below). The default keys the
  /// table by name(); recorders whose cost depends on configuration —
  /// SPADE's storage backend changes what each trial waits on — resolve
  /// it themselves. The pipeline consults this when
  /// PipelineOptions::simulated_recording_latency is negative.
  virtual double recording_latency() const;
};

/// Factory by system name, baseline configuration: "spade" (or "spg"),
/// "opus" ("opu"), "camflow" ("cam"), "spade-camflow", "audit" ("aud")
/// and "ebpf" ("bpf"), plus "spn" for SPADE with Neo4j storage. The
/// short names are the paper appendix's tool abbreviations. Throws
/// std::invalid_argument for unknown names.
std::unique_ptr<Recorder> make_recorder(const std::string& system);

/// Calibrated per-trial recording latency in seconds, keyed by system
/// name (Recorder::name() values; the CLI abbreviations spg/spn/opu/cam
/// are accepted too). The real recorders spend most of each trial
/// waiting — SPADE restarts its JVM daemon and flushes audit output per
/// trial, OPUS commits every trial into Neo4j, CamFlow drains relayfs
/// for the whole system — which is why recording dominates the paper's
/// Figures 5-7 absolute times. The table scales each system so that
/// (default_trials × 2 variants × latency) lands in the figures'
/// recording-time profile: OPUS slowest per trial but fewest trials,
/// CamFlow cheapest per trial but trial-heaviest, SPADE in between.
/// Unknown systems get a conservative 1s. Opted into via a negative
/// core::PipelineOptions::simulated_recording_latency; a positive scalar
/// there overrides this table.
double calibrated_recording_latency(const std::string& system);

}  // namespace provmark::systems
