// Executes a benchmark program against the simulated kernel, producing the
// per-layer event trace that the recorder simulators consume.
//
// A trial's events and build scratch live in one region owned by its
// trace (util/region.h): the kernel's tables, the executor's variables and
// staging paths, and the events all draw from it, and so does the
// recorder that later reads the trace. Moving an ExecutionResult moves
// the region with it; it is freed in one step when the trace goes.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "bench_suite/program.h"
#include "os/kernel.h"

namespace provmark::bench_suite {

/// Move-only, like its trace.
struct ExecutionResult {
  os::EventTrace trace;
  /// All non-expect_failure ops succeeded and all expect_failure ops
  /// failed (the paper's per-benchmark "tests to ensure that the target
  /// behavior was performed successfully").
  bool behaviour_ok = true;
  std::string failure_reason;
};

/// Run one trial. `include_target` selects the foreground (true) or
/// background (false) variant. `seed` drives all transient values for the
/// trial (pids, timestamps, audit serials, deferred-free timing).
/// `extra_audit_rules` are audit rules installed by the recorder under
/// test beyond the kernel defaults.
///
/// Only the events of `layers` are built; the trace's other layers stay
/// empty. Each built layer is event for event — seq, serial and time
/// fields included — what it is in the trace of all layers, so a
/// pipeline builds just the layer its recorder reads
/// (systems::Recorder::layer()).
ExecutionResult execute_program(
    const BenchmarkProgram& program, bool include_target, std::uint64_t seed,
    const std::set<std::string>& extra_audit_rules = {},
    os::Layers layers = os::Layers::all());

}  // namespace provmark::bench_suite
