// Reproduces paper Table 1: the benchmarked syscall families. Lists the
// registered benchmark programs by group and checks that their names are
// exactly the paper's 44 calls in its four families plus this suite's
// 10 extension rows (expected_table1.h); exits 1 on any missing, extra
// or duplicate name.
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_suite/program.h"
#include "expected_table1.h"

using namespace provmark;

int main() {
  std::map<int, std::pair<std::string, std::vector<std::string>>> groups;
  std::multiset<std::string> registered;
  for (const bench_suite::BenchmarkProgram& p :
       bench_suite::table_benchmarks()) {
    groups[p.group].first = p.family;
    groups[p.group].second.push_back(p.name);
    registered.insert(p.name);
  }
  std::printf("Table 1: benchmarked syscalls\n\n");
  for (const auto& [group, entry] : groups) {
    std::printf("%d  %-12s ", group, entry.first.c_str());
    for (std::size_t i = 0; i < entry.second.size(); ++i) {
      std::printf("%s%s", i == 0 ? "" : ", ", entry.second[i].c_str());
    }
    std::printf("\n");
  }

  std::multiset<std::string> expected;
  for (const char* name : provmark_bench::kTable1PaperNames) {
    expected.insert(name);
  }
  const std::size_t paper = expected.size();
  for (const char* name : provmark_bench::kTable1ExtensionNames) {
    expected.insert(name);
  }
  std::printf("\ntotal benchmarks: %zu (paper: %zu calls across 22 "
              "bracket-collapsed families, e.g. dup[2,3]; extension: %zu)\n",
              registered.size(), paper, expected.size() - paper);
  if (registered == expected) return 0;
  for (const std::string& name : expected) {
    if (registered.count(name) != 1) {
      std::fprintf(stderr, "expected once, registered %zu times: %s\n",
                   registered.count(name), name.c_str());
    }
  }
  for (const std::string& name : registered) {
    if (expected.count(name) == 0) {
      std::fprintf(stderr, "not a Table 1 row: %s\n", name.c_str());
    }
  }
  return 1;
}
