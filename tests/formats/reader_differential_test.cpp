// The one-pass readers (from_prov_json, from_neo4j_json, from_dot)
// against the tree-based reference readers in reference_formats.h. On
// every input a reader must throw exactly when its reference throws
// (from_dot with the same message) and otherwise return an equal graph
// (ids, labels, properties and insertion order). Inputs: every recorder document, every byte prefix of a sample
// of them (a truncated flush is what SPADE writes when stopped early),
// and documents built to hit the formats' corner cases.
//
// The reference readers parse through util::Json, so they share
// util::JsonReader with the readers under test and cannot see a fault in
// its tokenizer, and a reader's error message is its own. So every
// prefix and every corner case is also pinned by what the readers make
// of it (outcome.h: the view, or the error with its offset, for
// Json::parse, prov_json_view, neo4j_json_view and dot_view), as a digest
// recorded from the readers themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "formats/detect.h"
#include "formats/dot.h"
#include "formats/neo4j.h"
#include "formats/prov_json.h"
#include "outcome.h"
#include "reference_formats.h"
#include "runtime/thread_pool.h"

namespace provmark::formats {
namespace {

using reference::disagreement;
using reference::kDot;
using reference::kNeo4j;
using reference::kProvJson;
using reference::ReaderPair;

std::vector<const ReaderPair*> readers_for(std::string_view text) {
  return reference::readers_for(detect_format(text));
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

TEST(ReaderOracle, EveryBytePrefixOfASampleReadsAsPinned) {
  // The sample of EveryBytePrefixOfASample. Each chunk of prefixes is
  // digested on the pool; the chunk digests are digested in order.
  const std::vector<reference::RecorderDocument> docs =
      reference::recorder_documents();
  struct Chunk {
    std::string_view text;
    std::size_t begin, end;
  };
  constexpr std::size_t kChunk = 128;
  std::vector<Chunk> chunks;
  std::size_t bytes = 0;
  for (std::size_t system = 0; system < 6; ++system) {
    const std::string& text = docs[system * docs.size() / 6].text;
    bytes += text.size();
    for (std::size_t n = 0; n <= text.size(); n += kChunk) {
      chunks.push_back({text, n, std::min(n + kChunk, text.size() + 1)});
    }
  }
  const std::vector<std::string> digests =
      runtime::default_pool().parallel_map<std::string>(
          chunks, [](const Chunk& chunk, std::size_t) {
            outcome::Digest digest;
            for (std::size_t n = chunk.begin; n < chunk.end; ++n) {
              digest.add(outcome::of_every_reader(chunk.text.substr(0, n)));
            }
            return digest.hex();
          });
  outcome::Digest all;
  for (const std::string& digest : digests) all.add(digest);
  EXPECT_EQ(bytes, 21516u);
  EXPECT_EQ(all.hex(), "68b63a9f60210932");
}

/// A corner-case document and the digest of its outcome on every reader
/// (outcome::of_every_reader).
struct Corner {
  std::string text;
  std::string outcome;
};

/// `pair.reader` agrees with its reference on each document, and every
/// reader's outcome on it is the pinned one.
void expect_agreement(const ReaderPair& pair,
                      const std::vector<Corner>& docs) {
  for (const Corner& doc : docs) {
    EXPECT_EQ(disagreement(pair, doc.text), "") << doc.text;
    const std::string outcome = outcome::of_every_reader(doc.text);
    outcome::Digest digest;
    digest.add(outcome);
    EXPECT_EQ(digest.hex(), doc.outcome) << doc.text << "\n" << outcome;
  }
}

TEST(ReaderDifferential, ProvJsonCornerCases) {
  expect_agreement(kProvJson, {
      // Relations before the nodes they link; non-string attributes keep
      // their compact JSON text; escapes decode.
      {R"({"used": {"r": {"prov:activity": "a", "prov:entity": "e",
           "w": 1.50, "o": {"x": [1, true, null]}}},
          "activity": {"a": {}},
          "entity": {"e": {"n": -0, "s": "é😀\"\\\/",
                           "b": false, "z": null}}})", "8032701965bf8794"},
      // Duplicate attribute: the last value wins for a property, the
      // first occurrence names an endpoint (here not a string).
      {R"({"entity": {"e": {"k": "1", "k": "2"}}, "activity": {"a": {}},
          "used": {"r": {"prov:entity": "e", "prov:activity": 5,
                         "prov:activity": "a"}}})", "e5eb2af8cb90f044"},
      {R"({"entity": {"e": {}}, "activity": {"a": {}},
          "used": {"r": {"prov:entity": "e", "prov:activity": "a",
                         "prov:entity": 7, "k": "v"}}})", "6f8dd4c05e445725"},
      // prefix is skipped whatever its value.
      {R"({"prefix": {"cf": "http://example.org/"}, "entity": {"e": {}}})",
       "372e7e0bb27d1636"},
      {R"({"prefix": 3, "entity": {"e": {}}})", "5c3cb2a404372e8c"},
      {R"({"prefix": [1, {"a": "b"}], "agent": {"g": {"t": "x"}}})",
       "7df078523426da28"},
      // Sections and records of the wrong type.
      {R"({"entity": []})", "3524e06e5474b782"},
      {R"({"entity": {"e": "x"}})", "f6dbc6995d5cab95"},
      {R"({"used": []})", "545b9e3d7b82c8cc"},
      {R"({"used": {"r": 3}})", "1d8e4e4968ff0605"},
      {R"({"used": {"r": {"prov:activity": "a"}}})", "e9fc9d19668a0271"},
      {R"({"entity": {"e": {}}, "used": {"r": {"prov:activity": "a",
                                              "prov:entity": "e"}}})",
       "bdb5c972c065245d"},
      // Duplicate ids, repeated sections, an edge named like a node.
      {R"({"entity": {"x": {}}, "activity": {"x": {}}})", "8e15d2a5c2ff16f0"},
      {R"({"entity": {"a": {}}, "entity": {"b": {}}})", "1afc1055f4646c0b"},
      {R"({"entity": {"e": {}}, "custom": {"e": {"prov:from": "e",
                                                "prov:to": "e"}}})",
       "3ba62d3e5b69bfa3"},
      {R"({"entity": {"e": {}}, "custom": {"r": {"prov:from": "e",
                                                "prov:to": "e"}},
          "custom": {"s": {"prov:to": "e", "prov:from": "e", "q": []}}})",
       "8573f85fd83dd2dd"},
      // Whole documents of other shapes.
      {"[]", "b94d34953191c97b"},
      {"\"x\"", "c616c33c59e3323b"},
      {"3", "95dfd250241690bb"},
      {"{}", "b1d5b98d16cf3384"},
      {" \n{ }\t", "bc9a60406e16c252"},
      {"{} x", "5114636d26b39f10"},
      {"{\"entity\": {}} {}", "da50a9328832ec56"},
      {"", "e1ea74354bbfad78"},
      {"{", "75a65d9c772ec321"},
      {R"({"entity": {"e": {"k": "\u12"}}})", "0b3e498e44c03404"},
      {R"({"entity": {"e": {"k": "\ud800"}}})", "346d791342304aa5"},
      {R"({"entity": {"e": {"k": 01}}})", "1d3e595a9b2ea356"},
      {R"({"entity": {"e": {"k": 1e}}})", "1d3e595a9b2ea356"},
      {R"({"entity": {"e": {"k": tru}}})", "7d68e5b5f04d09b3"},
      // Numbers outside RFC 8259's grammar (`01` above too) fail with
      // "invalid number" at the literal; numbers inside it read.
      {R"({"entity": {"e": {"k": 00}}})", "1d3e595a9b2ea356"},
      {R"({"entity": {"e": {"k": -01}}})", "1d3e595a9b2ea356"},
      {R"({"entity": {"e": {"k": 1.}}})", "1d3e595a9b2ea356"},
      {R"({"entity": {"e": {"k": .5}}})", "1d3e595a9b2ea356"},
      {R"({"entity": {"e": {"k": -.5}}})", "1d3e595a9b2ea356"},
      {R"({"entity": {"e": {"k": 1.e5}}})", "1d3e595a9b2ea356"},
      {R"({"entity": {"e": {"k": [0, -0, 0.5, -1.25e-3, 1E+2, 1e05, 10]}}})",
       "d76514ca05749f8b"},
      {R"({"entity": {"e": {"k": 1e400}}})", "1d3e595a9b2ea356"},
      {R"({"entity": {"e": {"k": +1}}})", "1d3e595a9b2ea356"},
      {R"({"entity": {"e": {"k": 1-2}}})", "1d3e595a9b2ea356"},
      {R"({"entity": {"e": {"k": -}}})", "1d3e595a9b2ea356"},
      // Every escape, each at the start and end of a string; a raw
      // control character; whitespace of each kind between tokens.
      {"{\"entity\":{\"\\\"e\\\\\":{\"\\b\\f\\n\\r\\t\\/\":"
       "\"\\u0000x\\u001F\\u007f\\uABCD\\ud83d\\ude00\"}}}",
       "1ac8c211c64ec87a"},
      {"{\"entity\": {\"e\": {\"k\": \"a\x01" "b\"}}}", "6baa13a00ec9eb86"},
      {"{\"entity\": {\"e\": {\"k\": \"a\x7f\xc3\xa9\xff\"}}}",
       "90d544e67e1e8ca2"},
      {"\t{\r\n\"entity\" :\t{ \"e\"\n:{}\r}\n}\r\n", "71e642f9f24d3a0a"},
      {R"({"entity": {"e": {"k": "\x"}}})", "5e79a235053e483b"},
      {R"({"entity": {"e": {"k": "\uD800\u0041"}}})", "22e75d2c73f8baa1"},
      {R"({"entity": {"e": {"k": "\uDBFF\uDFFF"}}})", "491b81a19f91c46a"},
      {R"({"entity": {"e": {"": "", "k": "\\"}}})", "c1354b8a92c1a45d"},
      {R"({"entity": {"e": {"k": )" + std::string(42, '[') +
           std::string(42, ']') + "}}}",
       "bd715a5bfb013b1d"},
      {R"({"entity": {"e": {"k": [1 2]}}})", "c668a76746ca52a3"},
      {R"({"entity": {"e": {"k": [1,]}}})", "ae3d321317cfd3ab"},
      {R"({"entity": {"e": {"k" "v"}}})", "7c31da2f1f04f81d"},
      {R"({"entity": {"e": {"k": "v",}}})", "7c8ca2f6afdbb354"},
      {R"({"entity": {"e": {,}}})", "d877610bd5f44dea"},
      {R"({"entity": {"e": {"k": nul}}})", "7d68e5b5f04d09b3"},
      {R"({"entity": {"e": {"k": falsey}}})", "e80b6063636448f5"},
  });
}

TEST(ReaderDifferential, Neo4jCornerCases) {
  expect_agreement(kNeo4j, {
      // Relationships before nodes; extra top-level keys; extra labels.
      {R"({"relationships": [{"id": "r", "start": "a", "end": "b",
                             "type": "T", "properties": {"w": 1}}],
          "meta": {"v": [1, 2]},
          "nodes": [{"id": "a", "labels": ["L", 3]},
                    {"id": "b", "labels": []}]})", "5cfed126a1d5a925"},
      // Labels that are not an array name no label; a missing or
      // non-string first label fails.
      {R"({"nodes": [{"id": "a", "labels": "L"}]})", "1fca4c08a644efd0"},
      {R"({"nodes": [{"id": "a", "labels": null}]})", "2131655a581fea49"},
      {R"({"nodes": [{"id": "a"}]})", "bfb1d6bb2f2963be"},
      {R"({"nodes": [{"id": "a", "labels": [3]}]})", "f9433c2d237d7e6a"},
      {R"({"nodes": [{"id": 1, "labels": []}]})", "96c499ba73c7094c"},
      // Duplicate fields: the first counts.
      {R"({"nodes": [{"id": "a", "id": 2, "labels": ["A"], "labels": 4,
                     "properties": 5, "properties": {"k": "v"}}]})",
       "57e92ac8572a3dea"},
      {R"({"nodes": [{"id": "a", "labels": [], "properties": {"k": "1",
                                                             "k": "2"}}]})",
       "2e695b68f304a636"},
      {R"({"nodes": [{"id": 2, "id": "a", "labels": []}]})",
       "7a8f62899af63436"},
      // Fields of the other record kind are ignored.
      {R"({"nodes": [{"id": "a", "labels": [], "type": 5, "start": []}],
          "relationships": [{"id": "r", "start": "a", "end": "a",
                             "type": "T", "labels": [5]}]})",
       "d23d5d5f21d6cf5d"},
      {R"({"nodes": [{"id": "a", "labels": []}],
          "relationships": [{"id": "r", "start": "a", "end": "a"}]})",
       "b1a156b07f47ba97"},
      {R"({"nodes": [{"id": "a", "labels": []}],
          "relationships": [{"id": "r", "start": "a", "end": "z",
                             "type": "T"}]})", "92d53b05fefaf620"},
      // The first nodes / relationships key counts.
      {R"({"nodes": [{"id": "a", "labels": []}], "nodes": 3})",
       "04573f30b8a262ad"},
      {R"({"nodes": 3, "nodes": []})", "8115ad9f387a0681"},
      {R"({"nodes": [], "relationships": [], "relationships": 1})",
       "2c20a6ba0932359c"},
      {R"({"nodes": [], "relationships": null})", "d9d4ae974d05aea6"},
      {R"({"nodes": null})", "e98a86cf15178e46"},
      {R"({"relationships": []})", "8508c36a5399b43e"},
      {R"({"nodes": [3]})", "b71b4f26b3157079"},
      {R"({"nodes": [], "relationships": [[]]})", "fd2959616f831ffd"},
      {R"({"nodes": [{"id": "a", "labels": []}, {"id": "a", "labels": []}]})",
       "bfcd20facdf8f201"},
      {"[]", "b94d34953191c97b"},
      {"{}", "b1d5b98d16cf3384"},
      {"{\"nodes\": []}", "e6748ef43c99c7a1"},
      {"{\"nodes\": []} 1", "5f4008a073843d99"},
      {"", "e1ea74354bbfad78"},
  });
}

TEST(ReaderDifferential, DotCornerCases) {
  expect_agreement(kDot, {
      {"digraph g {\n  // comment\n  a -> b;\n  b [label=\"B\" k=\"v\"];\n}\n",
       "2b42301212b2f00a"},
      {"digraph g { \"a\\\"q\" [label=\"x\\\\\", shape=box, t=\"1\"]; }",
       "c107eb0ae2bb9457"},
      {"digraph g { a [label=\"A\"]; a [k=\"v\"]; a -> a [label=\"self\"]; }",
       "b0a4f59535303af9"},
      {"digraph g { a -> b [label=\"l\", label=\"m\", k=v]; }",
       "2379bc7aa954df8f"},
      {"digraph { }", "64f713966e149b1b"},
      {"digraph g { a -> ; }", "675c2189fcc6dd7e"},
      {"digraph g { \"unterminated }", "bacb110c6bcb1d0e"},
      {"digraph g { \"a\\", "53fdf6ddbf312f63"},
      {"digraph g { a [k=\"v\"] }", "373ed233e9414632"},
      {"digraph g { } trailing", "fc97cd8aabd2e7df"},
      {"graph g { }", "2f318569f14e5d3a"},
      // Names and quotes at the ends of the document and of each other.
      {"digraph g{a->b;\"c\"->\"\";}", "9d28642e32670ff3"},
      {"digraph g { \"\\\"\" -> \"x\\\\\" [\"k y\"=\"\\\"\", "
       "a.b:c_9=\"\"]; }",
       "7baa949b86468ab7"},
      {"digraph g { a [k=\"v\"]; // trailing comment", "a4dfb47597e21a49"},
      {"digraph g { a; } // comment at the end", "d247c779a1a87413"},
      {"digraph g { a-b; }", "5e84aaaded52d0d6"},
      {"digraph g { a - > b; }", "ddea7775edafe26b"},
      {"digraph g { a -> b [k=\"v\" x=\"y\";]; }", "416d3d830db4adda"},
      {"digraph g { a -> b [=\"v\"]; }", "5e001294bac4948c"},
      {"digraph g { \xc3\xa9 -> b; }", "b704dc489cd831b7"},
      {"digraphg { a; }", "d247c779a1a87413"},
      {"digraph g { a [label=\"x\nline\ttab\"]; }", "90e24cfa346eeafe"},
      {"digraph g { a [k=\"v\"", "ea274d987a29e981"},
      {"digraph g { a -> b -> c; }", "e4231983731703c8"},
      {"digraph g { a [label=\"A\"]; b; a [label=\"B\", shape=box]; }",
       "73d814d9b136ae3c"},
      {"digraph g {\r\n\ta\t->\tb\r\n}", "373ed233e9414632"},
  });
}

}  // namespace
}  // namespace provmark::formats
