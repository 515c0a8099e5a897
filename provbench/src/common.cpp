#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace provbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"cells_per_s", "1/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      // pipeline layers (stage entry points, round 0 of every cell)
      {"bench_suite.execute_us", "us"},
      {"systems.record_us", "us"},
      {"systems.native_kb", "KB"},
      {"transform.us", "us"},
      {"graph.digest_us", "us"},
      {"matcher.intern_us", "us"},
      {"formats.neo4j_round_us", "us"},
      {"generalize.us", "us"},
      {"generalize.steps", "count"},
      {"generalize.memo_hit_ratio", "ratio"},
      {"compare.us", "us"},
      {"compare.steps", "count"},
      {"pipeline.trials_per_cell", "count"},
      {"pipeline.useful_trial_ratio", "ratio"},
      {"pipeline.matcher_share", "ratio"},
      {"pipeline.cell_p50_ms", "ms"},
      {"pipeline.cell_p99_ms", "ms"},
      {"runtime.cpu_util", "ratio"},
      {"trace.overhead_pct", "%"},
      // serve layers (the rung ladder, isolated calls, the stream)
      {"protocol.parse_us", "us"},
      {"protocol.format_us", "us"},
      {"journal.append_us", "us"},
      {"journal.checkpoint_us", "us"},
      {"journal.checkpoint_kb", "KB"},
      {"service.checkpoints_per_kevent", "count"},
      {"session.apply_fact_us", "us"},
      {"session.apply_rule_us", "us"},
      {"session.apply_run_us", "us"},
      {"session.query_us", "us"},
      {"session.restore_us", "us"},
      {"service.submit_us", "us"},
      {"daemon.hop_us", "us"},
      {"daemon.write_syscalls_per_ack", "count"},
      {"daemon.kb_written_per_ack", "KB"},
      {"daemon.cpu_us_per_op", "us"},
      {"service.busy", "count"},
      {"service.shed", "count"},
      {"cluster.hop_us", "us"},
      {"replicate.async_hop_us", "us"},
      {"replicate.sync_hop_us", "us"},
      {"serve.ack_p50_ms", "ms"},
      {"serve.ack_p99_ms", "ms"},
      {"serve.query_p50_ms", "ms"},
      {"serve.query_p99_ms", "ms"},
      {"serve.restart_s", "s"},
      {"serve.late_p99_ms", "ms"},
      {"serve.late_max_ms", "ms"},
  };
  return specs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"table1_sweep",
                                                 "gen_matcher"};
  return names;
}

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) {
    throw std::logic_error("metric value is not finite");
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", value);
  return buf;
}

}  // namespace

std::string result_line(const RunResult& result, bool traced) {
  const std::vector<MetricSpec>& specs =
      traced ? per_layer_metrics() : end_to_end_metrics();
  if (result.metrics.size() != specs.size()) {
    throw std::logic_error("run collected " +
                           std::to_string(result.metrics.size()) +
                           " metrics, registry has " +
                           std::to_string(specs.size()));
  }
  std::string out = "{\"correct\": ";
  out += result.valid && result.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      throw std::logic_error(std::string("metric not collected: ") +
                             spec.name);
    }
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::string(spec.name) + "\": {\"value\": " +
           number(it->second) + ", \"unit\": \"" + spec.unit + "\"}";
  }
  out += "}}";
  return out;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

}  // namespace provbench
