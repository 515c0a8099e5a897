// Shared pieces of the provbench harness: the metric registry (the names
// BENCHMARK.json publishes), the collected-metrics map, summary
// statistics and the result line every run ends with.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace provbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run (`--trace 0`), in this order.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Printed by every traced run (`--trace 1`), in this order.
const std::vector<MetricSpec>& per_layer_metrics();

/// The registered workloads.
const std::vector<std::string>& workload_names();

/// Metric values collected by one run, keyed by registry name.
using Metrics = std::map<std::string, double>;

/// Outcome of one run: the operations it attempted, the ones that
/// failed (wrong output or refused request), and its metrics.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when the run itself is invalid (e.g. the open-loop generator
  /// fell behind its schedule), independent of per-operation failures.
  bool valid = true;
  Metrics metrics;
};

/// The result line: {"correct", "attempted", "failed", "metrics"} with
/// exactly the registry's metrics for the trace mode, each with its
/// unit. Throws std::logic_error when `result.metrics` does not hold
/// exactly those names — a run never prints a partial result.
std::string result_line(const RunResult& result, bool traced);

/// Nearest-rank percentile (q in [0,1]) of `values`; 0 for no samples.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Process CPU time (user + system) in seconds, all threads.
double process_cpu_seconds();

}  // namespace provbench
