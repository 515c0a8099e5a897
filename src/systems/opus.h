// OPUS simulator (version 0.1.0.26).
//
// Consumes the libc call stream (OPUS interposes on the dynamically
// linked C library) and builds a Provenance Versioning Model graph stored
// as a Neo4j export. Because interposition happens before the kernel,
// OPUS sees *attempted* calls — failed ones produce the same structure
// with a different return-value property (the Alice use case) — and
// fd-state operations like dup, but it is blind to anything that does not
// go through a wrapped libc entry point (clone, tee, mknodat) and, in its
// default configuration, deliberately records no read/write activity and
// nothing for fchmod/fchown (pure read/write from the PVM perspective).
//
// The process node carries the recorded environment variables, which is
// why OPUS graphs are markedly larger than SPADE's or CamFlow's and why
// its transformation stage dominates Figure 6.
#pragma once

#include <string>

#include "graph/property_graph.h"
#include "systems/recorder.h"

namespace provmark::systems {

struct OpusConfig {
  /// Record read/write libc calls (off by default, Table 2 group 1).
  bool record_io = false;
  /// Number of environment variables captured onto the process node.
  int env_var_count = 24;
};

class OpusRecorder final : public Recorder {
 public:
  explicit OpusRecorder(OpusConfig config = {}) : config_(config) {}

  std::string name() const override { return "opus"; }
  std::string output_format() const override { return "neo4j-json"; }
  os::Layer layer() const override { return os::Layer::Libc; }
  std::string record(const os::EventTrace& trace,
                     const TrialContext& trial) override;

  const OpusConfig& config() const { return config_; }

 private:
  OpusConfig config_;
};

/// The graph-building core, exposed for unit tests: the
/// view record() writes, materialized.
graph::PropertyGraph build_opus_graph(const os::EventTrace& trace,
                                      const OpusConfig& config,
                                      std::uint64_t seed);

}  // namespace provmark::systems
