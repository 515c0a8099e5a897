// provbench: the repository benchmark (see provbench/README.md).
//
//   provbench --workload <table1_sweep|gen_matcher>
//             --seed N --seconds S --trace <0|1>
//             --data-dir <provbench dir> --out-dir <scratch dir>
//   provbench --write-expected <file>
//
// The last line of standard output is the result object. Exit codes:
// 0 result printed, 1 error, 2 usage, 3 a cell ran past its cap.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "pipeline_bench.h"
#include "serve_bench.h"

namespace fs = std::filesystem;
using namespace provbench;

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "provbench: %s\nusage: provbench --workload W --seed N "
               "--seconds S --trace 0|1 --data-dir DIR --out-dir DIR\n"
               "       provbench --write-expected FILE\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, data_dir, out_dir, write_path;
  std::uint64_t seed = 42;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") workload = value;
      else if (arg == "--seed") seed = std::stoull(value);
      else if (arg == "--seconds") seconds = std::stod(value);
      else if (arg == "--trace") trace = std::stoi(value);
      else if (arg == "--data-dir") data_dir = value;
      else if (arg == "--out-dir") out_dir = value;
      else if (arg == "--write-expected") write_path = value;
      else return usage(("unknown flag " + arg).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }

  try {
    if (!write_path.empty()) {
      write_expected(write_path);
      return 0;
    }
    const std::vector<std::string>& names = workload_names();
    if (std::find(names.begin(), names.end(), workload) == names.end()) {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
    if (data_dir.empty() || out_dir.empty() || seconds <= 0 ||
        (trace != 0 && trace != 1)) {
      return usage("--data-dir, --out-dir, --seconds > 0 and --trace 0|1 "
                   "are required");
    }
    const ExpectedDigests expected =
        load_expected(fs::path(data_dir) / "expected" / "pipeline_digests.tsv");
    const std::string tag = workload + "-seed" + std::to_string(seed);
    // Short: the serve layers bind AF_UNIX sockets below it.
    const fs::path work = fs::path(out_dir) / ("w" + std::to_string(::getpid()));
    fs::remove_all(work);
    fs::create_directories(work);

    RunResult result;
    if (trace == 0) {
      result = run_pipeline(workload, seed, seconds, expected);
    } else {
      // One traced run attributes every layer: the pipeline stages on the
      // workload's cells, then the serve layers on the seed's request
      // stream.
      const fs::path spans = fs::path(out_dir) / "spans";
      trace_pipeline(workload_cells(workload), seed, seconds * 0.4, expected,
                     spans / (tag + "-pipeline.tsv"), result);
      trace_serve(seed, work, spans / (tag + "-serve.tsv"), result);
    }
    if (result.failed == 0 && result.valid) {
      fs::remove_all(work);
    } else {
      std::fprintf(stderr, "provbench: kept %s for inspection\n",
                   work.c_str());
    }
    std::printf("%s\n", result_line(result, trace == 1).c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "provbench: %s\n", e.what());
    return 1;
  }
}
