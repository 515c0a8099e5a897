// The Linux-Audit-style recorder: native record shape (one vertex per
// SYSCALL record), the decoded/raw argument vocabulary, the extra rules
// that surface what SPADE's defaults skip, and seed-driven transients.
#include "systems/audit.h"

#include <gtest/gtest.h>

#include "bench_suite/executor.h"
#include "bench_suite/program.h"
#include "formats/detect.h"
#include "formats/dot.h"

namespace provmark::systems {
namespace {

os::EventTrace trace_for(const std::string& benchmark, bool foreground,
                         std::uint64_t seed = 1,
                         const std::set<std::string>& extra_rules = {}) {
  return bench_suite::execute_program(
             bench_suite::benchmark_by_name(benchmark), foreground, seed,
             extra_rules)
      .trace;
}

const graph::Node* find_syscall_node(const graph::PropertyGraph& g,
                                     const std::string& syscall) {
  for (const graph::Node& n : g.nodes()) {
    auto it = n.props.find("syscall");
    if (it != n.props.end() && it->second == syscall) return &n;
  }
  return nullptr;
}

TEST(Audit, OutputIsDotAndParses) {
  AuditRecorder recorder;
  std::string out = recorder.record(trace_for("open", true), {1});
  EXPECT_EQ(formats::detect_format(out), formats::Format::Dot);
  EXPECT_GT(formats::from_dot(out).node_count(), 0u);
}

TEST(Audit, OneVertexPerSyscallRecord) {
  os::EventTrace trace = trace_for("open", true);
  graph::PropertyGraph g = build_audit_graph(trace, {}, 1);
  std::size_t record_nodes = 0;
  for (const graph::Node& n : g.nodes()) {
    if (n.label == "syscall") ++record_nodes;
  }
  EXPECT_EQ(record_nodes, trace.audit.size());
  // Every record vertex links to its emitting process.
  for (const graph::Node& n : g.nodes()) {
    if (n.label != "syscall") continue;
    bool emitted = false;
    for (const graph::Edge& e : g.edges()) {
      if (e.src == n.id && e.label == "emitted") emitted = true;
    }
    EXPECT_TRUE(emitted) << n.id;
  }
}

TEST(Audit, FlagVocabularyDecodedNextToRawRegister) {
  graph::PropertyGraph g = build_audit_graph(trace_for("open", true), {}, 1);
  const graph::Node* open_record = find_syscall_node(g, "open");
  ASSERT_NE(open_record, nullptr);
  // The benchmark opens O_RDONLY (0): raw a1 register plus the decoded
  // vocabulary string, the audit-helpers idiom.
  ASSERT_TRUE(open_record->props.count("a1"));
  ASSERT_TRUE(open_record->props.count("flags"));
  EXPECT_EQ(open_record->props.at("a1"), "0x0");

  // A creat-flavoured open carries the composite vocabulary.
  graph::PropertyGraph cg =
      build_audit_graph(trace_for("creat", true), {}, 1);
  const graph::Node* creat_record = find_syscall_node(cg, "creat");
  ASSERT_NE(creat_record, nullptr);
  EXPECT_NE(creat_record->props.at("flags").find("O_CREAT"),
            std::string::npos);
  // O_WRONLY|O_CREAT|O_TRUNC = 01 | 0100 | 01000 = 0x241.
  EXPECT_EQ(creat_record->props.at("a1"), "0x241");
}

TEST(Audit, UnknownFlagNamesAddNoBits) {
  os::EventTrace trace = trace_for("creat", true);
  for (os::AuditEvent& e : trace.audit) {
    if (e.syscall != "creat") continue;
    e.fields.set("flags", "O_RDWR|O_BOGUS|O_CREAT");
    e.fields.set("prot", "PROT_NONE|PROT_EXEC");
  }
  graph::PropertyGraph g = build_audit_graph(trace, {}, 1);
  const graph::Node* record = find_syscall_node(g, "creat");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->props.at("a1"), "0x42");  // 02 | 0100
  EXPECT_EQ(record->props.at("a2"), "0x4");
}

TEST(Audit, DecodeArgumentsOffKeepsRawRegistersOnly) {
  AuditConfig config;
  config.decode_arguments = false;
  graph::PropertyGraph g =
      build_audit_graph(trace_for("creat", true), config, 1);
  const graph::Node* record = find_syscall_node(g, "creat");
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(record->props.count("a1"));
  EXPECT_FALSE(record->props.count("flags"));
}

TEST(Audit, ExtraRulesSurfaceTheSocketFamily) {
  AuditRecorder recorder;
  std::set<std::string> rules = recorder.extra_audit_rules();
  for (const char* rule : {"socket", "bind", "connect", "accept", "pipe",
                           "mknod", "chown", "setresuid"}) {
    EXPECT_EQ(rules.count(rule), 1u) << rule;
  }

  // Without the rules the socket benchmark's audit stream has no socket
  // record; with them it does — the cell SPADE leaves NR becomes
  // visible to this recorder.
  graph::PropertyGraph without =
      build_audit_graph(trace_for("socket", true), {}, 1);
  EXPECT_EQ(find_syscall_node(without, "socket"), nullptr);
  graph::PropertyGraph with =
      build_audit_graph(trace_for("socket", true, 1, rules), {}, 1);
  EXPECT_NE(find_syscall_node(with, "socket"), nullptr);
}

TEST(Audit, MmapRecordCarriesProtVocabulary) {
  // The loader also mmaps (PROT_READ|PROT_EXEC), so select the
  // benchmark's own read-write mapping.
  graph::PropertyGraph g = build_audit_graph(trace_for("mmap", true), {}, 1);
  const graph::Node* record = nullptr;
  for (const graph::Node& n : g.nodes()) {
    auto sys = n.props.find("syscall");
    auto prot = n.props.find("prot");
    if (sys != n.props.end() && sys->second == "mmap" &&
        prot != n.props.end() && prot->second == "PROT_READ|PROT_WRITE") {
      record = &n;
    }
  }
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->props.at("a2"), "0x3");
  // The mapped file shows up as a PATH record vertex.
  bool path_edge = false;
  for (const graph::Edge& e : g.edges()) {
    if (e.src == record->id && e.label == "path") path_edge = true;
  }
  EXPECT_TRUE(path_edge);
}

TEST(Audit, ForkRecordLinksToChildProcessVertex) {
  graph::PropertyGraph g = build_audit_graph(trace_for("fork", true), {}, 1);
  const graph::Node* record = find_syscall_node(g, "fork");
  ASSERT_NE(record, nullptr);
  bool spawned = false;
  for (const graph::Edge& e : g.edges()) {
    if (e.src == record->id && e.label == "spawned") spawned = true;
  }
  EXPECT_TRUE(spawned);
}

TEST(Audit, SeedMintsTransientIdsStructureStable) {
  os::EventTrace trace = trace_for("open", true);
  graph::PropertyGraph a = build_audit_graph(trace, {}, 1);
  graph::PropertyGraph a_again = build_audit_graph(trace, {}, 1);
  EXPECT_TRUE(a == a_again);
  graph::PropertyGraph b = build_audit_graph(trace, {}, 2);
  EXPECT_EQ(a.node_count(), b.node_count());
  EXPECT_EQ(a.edge_count(), b.edge_count());
  EXPECT_FALSE(a == b) << "vertex ids must be seed-minted transients";
}

}  // namespace
}  // namespace provmark::systems
