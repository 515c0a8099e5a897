// Tests of the benchmark itself: workload generation is a pure function
// of the seed, the metric registry matches BENCHMARK.json, and traced
// spans nest with non-negative self times.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.h"
#include "pipeline_bench.h"
#include "serve_bench.h"
#include "trace.h"
#include "util/json.h"

using namespace provbench;

namespace {

std::string stream_bytes(const std::vector<StreamRequest>& stream) {
  std::string out;
  for (const StreamRequest& r : stream) {
    out += std::to_string(r.due_s) + " " + std::to_string(r.connection) +
           " " + r.line + "\n";
  }
  return out;
}

provmark::util::Json benchmark_json() {
  std::ifstream in(PROVBENCH_BENCHMARK_JSON);
  std::stringstream text;
  text << in.rdbuf();
  return provmark::util::Json::parse(text.str());
}

void expect_registry(const provmark::util::Json& list,
                     const std::vector<MetricSpec>& specs) {
  ASSERT_EQ(list.as_array().size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(list.as_array()[i].at("name").as_string(), specs[i].name);
    EXPECT_EQ(list.as_array()[i].at("unit").as_string(), specs[i].unit);
  }
}

}  // namespace

TEST(WorkloadGeneration, StreamIsAPureFunctionOfTheSeed) {
  const std::string a = stream_bytes(make_stream(7, 3000));
  EXPECT_EQ(a, stream_bytes(make_stream(7, 3000)));
  EXPECT_NE(a, stream_bytes(make_stream(8, 3000)));
  // A shorter stream is a prefix of a longer one of the same seed.
  const std::string prefix = stream_bytes(make_stream(7, 1000));
  EXPECT_EQ(a.compare(0, prefix.size(), prefix), 0);
}

TEST(WorkloadGeneration, StreamMixMatchesTheWorkloadDefinition) {
  const std::vector<StreamRequest> stream = make_stream(3, 20000);
  std::map<RequestKind, double> share;
  for (const StreamRequest& r : stream) share[r.kind] += 1.0 / stream.size();
  EXPECT_NEAR(share[RequestKind::Fact], 0.90, 0.02);
  EXPECT_NEAR(share[RequestKind::Query], 0.08, 0.02);
  EXPECT_NEAR(share[RequestKind::Run], 0.02, 0.01);
  for (const StreamRequest& r : stream) {
    EXPECT_LT(r.connection, kStreamConnections);
  }
}

TEST(WorkloadGeneration, CellListsAreFixedAndSeedsMapIntoThePool) {
  EXPECT_EQ(workload_cells("table1_sweep").size(), 324u);
  EXPECT_EQ(workload_cells("gen_matcher").size(), 60u);
  std::vector<std::string> keys_a, keys_b;
  for (const Cell& c : workload_cells("gen_matcher")) keys_a.push_back(c.key());
  for (const Cell& c : workload_cells("gen_matcher")) keys_b.push_back(c.key());
  EXPECT_EQ(keys_a, keys_b);
  EXPECT_EQ(pipeline_seed(42), 42u);
  const std::vector<std::uint64_t>& pool = pipeline_seed_pool();
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    EXPECT_NE(std::find(pool.begin(), pool.end(), pipeline_seed(seed)),
              pool.end());
    EXPECT_EQ(pipeline_seed(seed), pipeline_seed(seed));
  }
}

TEST(MetricRegistry, MatchesBenchmarkJson) {
  const provmark::util::Json json = benchmark_json();
  expect_registry(json.at("end_to_end"), end_to_end_metrics());
  expect_registry(json.at("per_layer"), per_layer_metrics());
  const auto& workloads = json.at("workloads").as_array();
  ASSERT_EQ(workloads.size(), workload_names().size());
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    EXPECT_EQ(workloads[i].at("name").as_string(), workload_names()[i]);
  }
}

TEST(MetricRegistry, ResultLinePrintsExactlyTheRegistry) {
  RunResult result;
  result.attempted = 3;
  for (const MetricSpec& spec : end_to_end_metrics()) {
    result.metrics[spec.name] = 1.5;
  }
  const provmark::util::Json line =
      provmark::util::Json::parse(result_line(result, false));
  EXPECT_TRUE(line.at("correct").as_bool());
  const auto& metrics = line.at("metrics").as_object();
  ASSERT_EQ(metrics.size(), end_to_end_metrics().size());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    EXPECT_EQ(metrics[i].first, end_to_end_metrics()[i].name);
  }
  // A run that misses a metric never prints a partial result.
  result.metrics.erase("setup_s");
  EXPECT_THROW(result_line(result, false), std::logic_error);
  EXPECT_THROW(result_line(result, true), std::logic_error);
}

TEST(Spans, NestAcrossThreadsWithNonNegativeSelfTime) {
  Tracer tracer(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < 50; ++i) {
        Tracer::Scope outer(tracer, "outer", t);
        Tracer::Scope middle(tracer, "middle", t);
        { Tracer::Scope inner(tracer, "inner", t); }
        { Tracer::Scope inner(tracer, "inner", t); }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u * 50u * 4u);
  EXPECT_EQ(check_spans(spans), "");
  for (double self : self_times_us(spans)) EXPECT_GE(self, 0);
  std::map<std::string, LayerTime> layers = layer_times(spans);
  EXPECT_EQ(layers["inner"].count, 400u);
  EXPECT_LE(layers["outer"].self_us, layers["outer"].total_us);
}

TEST(Spans, ViolationsAreReported) {
  std::vector<Span> spans(2);
  spans[0] = {"parent", 100, 200, -1, 0};
  spans[1] = {"child", 150, 250, 0, 0};  // ends after its parent
  EXPECT_NE(check_spans(spans), "");
  spans[1] = {"child", 150, 140, 0, 0};  // ends before it starts
  EXPECT_NE(check_spans(spans), "");
  Tracer disabled(false);
  { Tracer::Scope s(disabled, "ignored", 0); }
  EXPECT_TRUE(disabled.spans().empty());
}

TEST(Spans, TracedPipelineCellsNestAndMatchRunBenchmark) {
  const std::vector<Cell> cells = {{"spade", "creat"}, {"opus", "open"},
                                   {"audit", "gen1x12"}};
  const ExpectedDigests expected =
      load_expected(std::filesystem::path(PROVBENCH_BENCHMARK_JSON)
                        .parent_path() /
                    "provbench" / "expected" / "pipeline_digests.tsv");
  RunResult out;
  const std::filesystem::path spans = "selftest-spans/pipeline.tsv";
  trace_pipeline(cells, 42, 0.05, expected, spans, out);
  EXPECT_EQ(out.failed, 0u);  // includes the span nesting check
  EXPECT_GT(out.attempted, cells.size());
  EXPECT_TRUE(std::filesystem::exists(spans));
  EXPECT_GT(out.metrics["transform.us"], 0);
  EXPECT_GT(out.metrics["generalize.us"], 0);
  std::filesystem::remove_all("selftest-spans");
}
