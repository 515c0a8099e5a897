// The one-pass readers (from_prov_json, from_neo4j_json, from_dot)
// against the tree-based reference readers in reference_formats.h. On
// every input a reader must throw exactly when its reference throws and
// otherwise return an equal graph (ids, labels, properties and insertion
// order). Inputs: every recorder document, every byte prefix of a sample
// of them (a truncated flush is what SPADE writes when stopped early),
// and documents built to hit the formats' corner cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "formats/detect.h"
#include "formats/dot.h"
#include "formats/neo4j.h"
#include "formats/prov_json.h"
#include "reference_formats.h"
#include "runtime/thread_pool.h"

namespace provmark::formats {
namespace {

using Reader = std::function<graph::PropertyGraph(std::string_view)>;

struct ReaderPair {
  const char* name;
  Reader reader;
  Reader reference;
};

const ReaderPair kProvJson{"from_prov_json", from_prov_json,
                           reference::from_prov_json};
const ReaderPair kNeo4j{"from_neo4j_json", from_neo4j_json,
                        reference::from_neo4j_json};
const ReaderPair kDot{"from_dot", from_dot, reference::from_dot};

/// "" when `pair.reader` agrees with its reference on `text`, else what
/// differs.
std::string disagreement(const ReaderPair& pair, std::string_view text) {
  std::optional<graph::PropertyGraph> expected, actual;
  std::string expected_error, actual_error;
  try {
    expected = pair.reference(text);
  } catch (const std::exception& e) {
    expected_error = e.what();
  }
  try {
    actual = pair.reader(text);
  } catch (const std::exception& e) {
    actual_error = e.what();
  }
  if (expected.has_value() != actual.has_value()) {
    return std::string(pair.name) + (actual ? " accepted" : " rejected") +
           " what the reference " + (expected ? "accepted" : "rejected") +
           " (" + expected_error + actual_error + ")";
  }
  if (expected && !(*expected == *actual)) {
    return std::string(pair.name) + " read a different graph";
  }
  return "";
}

std::vector<const ReaderPair*> readers_for(std::string_view text) {
  if (detect_format(text) == Format::Dot) return {&kDot};
  return {&kProvJson, &kNeo4j};
}

TEST(ReaderDifferential, EveryRecorderDocument) {
  for (const reference::RecorderDocument& doc :
       reference::recorder_documents()) {
    for (const ReaderPair* pair : readers_for(doc.text)) {
      EXPECT_EQ(disagreement(*pair, doc.text), "")
          << doc.system << " " << doc.program
          << (doc.foreground ? " fg" : " bg");
    }
  }
}

TEST(ReaderDifferential, EveryBytePrefixOfASample) {
  const std::vector<reference::RecorderDocument> docs =
      reference::recorder_documents();
  // The sample: each recorder's first document (docs come recorder by
  // recorder). The prefixes are checked in chunks on the pool.
  struct Chunk {
    const reference::RecorderDocument* doc;
    const ReaderPair* pair;
    std::size_t begin, end;
  };
  constexpr std::size_t kChunk = 128;
  std::vector<Chunk> chunks;
  for (std::size_t system = 0; system < 6; ++system) {
    const reference::RecorderDocument& doc = docs[system * docs.size() / 6];
    for (const ReaderPair* pair : readers_for(doc.text)) {
      for (std::size_t n = 0; n <= doc.text.size(); n += kChunk) {
        chunks.push_back({&doc, pair, n,
                          std::min(n + kChunk, doc.text.size() + 1)});
      }
    }
  }
  const std::vector<std::string> found =
      runtime::default_pool().parallel_map<std::string>(
          chunks, [](const Chunk& chunk, std::size_t) -> std::string {
            const std::string_view text = chunk.doc->text;
            for (std::size_t n = chunk.begin; n < chunk.end; ++n) {
              std::string diff =
                  disagreement(*chunk.pair, text.substr(0, n));
              if (!diff.empty()) {
                return chunk.doc->system + " " + chunk.doc->program +
                       " prefix " + std::to_string(n) + " of " +
                       std::to_string(text.size()) + ": " + diff;
              }
            }
            return "";
          });
  std::size_t prefixes = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    prefixes += chunks[i].end - chunks[i].begin;
    EXPECT_EQ(found[i], "");
  }
  EXPECT_GT(prefixes, 20000u);
}

void expect_agreement(const ReaderPair& pair,
                      const std::vector<std::string>& docs) {
  for (const std::string& text : docs) {
    EXPECT_EQ(disagreement(pair, text), "") << text;
  }
}

TEST(ReaderDifferential, ProvJsonCornerCases) {
  expect_agreement(kProvJson, {
      // Relations before the nodes they link; non-string attributes keep
      // their compact JSON text; escapes decode.
      R"({"used": {"r": {"prov:activity": "a", "prov:entity": "e",
           "w": 1.50, "o": {"x": [1, true, null]}}},
          "activity": {"a": {}},
          "entity": {"e": {"n": -0, "s": "é😀\"\\\/",
                           "b": false, "z": null}}})",
      // Duplicate attribute: the last value wins for a property, the
      // first occurrence names an endpoint (here not a string).
      R"({"entity": {"e": {"k": "1", "k": "2"}}, "activity": {"a": {}},
          "used": {"r": {"prov:entity": "e", "prov:activity": 5,
                         "prov:activity": "a"}}})",
      R"({"entity": {"e": {}}, "activity": {"a": {}},
          "used": {"r": {"prov:entity": "e", "prov:activity": "a",
                         "prov:entity": 7, "k": "v"}}})",
      // prefix is skipped whatever its value.
      R"({"prefix": {"cf": "http://example.org/"}, "entity": {"e": {}}})",
      R"({"prefix": 3, "entity": {"e": {}}})",
      R"({"prefix": [1, {"a": "b"}], "agent": {"g": {"t": "x"}}})",
      // Sections and records of the wrong type.
      R"({"entity": []})",
      R"({"entity": {"e": "x"}})",
      R"({"used": []})",
      R"({"used": {"r": 3}})",
      R"({"used": {"r": {"prov:activity": "a"}}})",
      R"({"entity": {"e": {}}, "used": {"r": {"prov:activity": "a",
                                              "prov:entity": "e"}}})",
      // Duplicate ids, repeated sections, an edge named like a node.
      R"({"entity": {"x": {}}, "activity": {"x": {}}})",
      R"({"entity": {"a": {}}, "entity": {"b": {}}})",
      R"({"entity": {"e": {}}, "custom": {"e": {"prov:from": "e",
                                                "prov:to": "e"}}})",
      R"({"entity": {"e": {}}, "custom": {"r": {"prov:from": "e",
                                                "prov:to": "e"}},
          "custom": {"s": {"prov:to": "e", "prov:from": "e", "q": []}}})",
      // Whole documents of other shapes.
      "[]", "\"x\"", "3", "{}", " \n{ }\t", "{} x", "{\"entity\": {}} {}",
      "", "{", R"({"entity": {"e": {"k": "\u12"}}})",
      R"({"entity": {"e": {"k": "\ud800"}}})",
      R"({"entity": {"e": {"k": 01}}})",
      R"({"entity": {"e": {"k": 1e}}})",
      R"({"entity": {"e": {"k": tru}}})",
  });
}

TEST(ReaderDifferential, Neo4jCornerCases) {
  expect_agreement(kNeo4j, {
      // Relationships before nodes; extra top-level keys; extra labels.
      R"({"relationships": [{"id": "r", "start": "a", "end": "b",
                             "type": "T", "properties": {"w": 1}}],
          "meta": {"v": [1, 2]},
          "nodes": [{"id": "a", "labels": ["L", 3]},
                    {"id": "b", "labels": []}]})",
      // Labels that are not an array name no label; a missing or
      // non-string first label fails.
      R"({"nodes": [{"id": "a", "labels": "L"}]})",
      R"({"nodes": [{"id": "a", "labels": null}]})",
      R"({"nodes": [{"id": "a"}]})",
      R"({"nodes": [{"id": "a", "labels": [3]}]})",
      R"({"nodes": [{"id": 1, "labels": []}]})",
      // Duplicate fields: the first counts.
      R"({"nodes": [{"id": "a", "id": 2, "labels": ["A"], "labels": 4,
                     "properties": 5, "properties": {"k": "v"}}]})",
      R"({"nodes": [{"id": "a", "labels": [], "properties": {"k": "1",
                                                             "k": "2"}}]})",
      R"({"nodes": [{"id": 2, "id": "a", "labels": []}]})",
      // Fields of the other record kind are ignored.
      R"({"nodes": [{"id": "a", "labels": [], "type": 5, "start": []}],
          "relationships": [{"id": "r", "start": "a", "end": "a",
                             "type": "T", "labels": [5]}]})",
      R"({"nodes": [{"id": "a", "labels": []}],
          "relationships": [{"id": "r", "start": "a", "end": "a"}]})",
      R"({"nodes": [{"id": "a", "labels": []}],
          "relationships": [{"id": "r", "start": "a", "end": "z",
                             "type": "T"}]})",
      // The first nodes / relationships key counts.
      R"({"nodes": [{"id": "a", "labels": []}], "nodes": 3})",
      R"({"nodes": 3, "nodes": []})",
      R"({"nodes": [], "relationships": [], "relationships": 1})",
      R"({"nodes": [], "relationships": null})",
      R"({"nodes": null})",
      R"({"relationships": []})",
      R"({"nodes": [3]})",
      R"({"nodes": [], "relationships": [[]]})",
      R"({"nodes": [{"id": "a", "labels": []}, {"id": "a", "labels": []}]})",
      "[]", "{}", "{\"nodes\": []}", "{\"nodes\": []} 1", "",
  });
}

TEST(ReaderDifferential, DotCornerCases) {
  expect_agreement(kDot, {
      "digraph g {\n  // comment\n  a -> b;\n  b [label=\"B\" k=\"v\"];\n}\n",
      "digraph g { \"a\\\"q\" [label=\"x\\\\\", shape=box, t=\"1\"]; }",
      "digraph g { a [label=\"A\"]; a [k=\"v\"]; a -> a [label=\"self\"]; }",
      "digraph g { a -> b [label=\"l\", label=\"m\", k=v]; }",
      "digraph { }",
      "digraph g { a -> ; }",
      "digraph g { \"unterminated }",
      "digraph g { \"a\\",
      "digraph g { a [k=\"v\"] }",
      "digraph g { } trailing",
      "graph g { }",
  });
}

}  // namespace
}  // namespace provmark::formats
