// The writers (to_prov_json, to_neo4j_json, to_dot and Json::dump) on
// strings at every boundary their output code has: keys, values, ids
// and labels of length 0 and 1 and around each power of two up to 64 KiB
// (any fixed buffer or growth step the writers use falls among them),
// every byte 0x00-0x1f and 0x7f, `"` and `\` as the first and the last
// byte, multi-byte and invalid UTF-8, and Json values nested deeper than
// any fixed-size container stack. The expected output is pinned as a
// digest of the bytes the writers produced before they were rewritten
// for speed, so it does not depend on the reference writers, which
// render through Json::dump themselves. A failure prints the first
// output that differs from the reference writers, when one does.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "formats/dot.h"
#include "formats/neo4j.h"
#include "formats/prov_json.h"
#include "outcome.h"
#include "reference_formats.h"
#include "util/json.h"

namespace provmark::formats {
namespace {

using util::Json;

/// The strings every writer is fed.
std::vector<std::string> boundary_strings() {
  std::vector<std::string> out = {"", "a", "\"", "\\", "\"\\", "\\\""};
  for (std::size_t n : {2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
                        127, 128, 129, 255, 256, 257, 511, 512, 513, 1023,
                        1024, 1025, 4095, 4096, 4097, 65535, 65536, 65537}) {
    out.push_back(std::string(n, 'a'));
    out.push_back('"' + std::string(n - 1, 'b'));
    out.push_back(std::string(n - 1, 'c') + '\\');
    out.push_back(std::string(n, '"'));
    out.push_back(std::string(n, '\x01'));
  }
  for (int c = 0; c < 0x20; ++c) {
    out.push_back(std::string(1, static_cast<char>(c)));
    out.push_back("x" + std::string(1, static_cast<char>(c)) + "y");
  }
  out.push_back("\x7f");
  out.push_back("a\x7f" "b");
  for (const char* utf8 : {"\xc3\xa9", "\xe6\x97\xa5\xe6\x9c\xac",
                           "\xf0\x9f\x98\x80", "\xff\xfe", "\xc3",
                           "k\xc3\xa9y-\"q\"\\"}) {
    out.push_back(utf8);
  }
  return out;
}

/// One graph per string: nodes of each PROV kind and of none, an edge of
/// a known relation and one labelled by the string, the string as id,
/// label, property key and value.
graph::PropertyGraph graph_of(const std::string& s, std::size_t i) {
  const std::string tag = std::to_string(i);
  graph::PropertyGraph g;
  g.add_node("n" + tag + s, "entity", {{s, s}, {"type", s}});
  g.add_node("m" + tag, "activity", {{"k", s}});
  g.add_node(s + "o" + tag, s, {{s + "2", ""}});
  g.add_node("p" + tag, "agent");
  g.add_edge("e" + tag + s, "m" + tag, "n" + tag + s, "used", {{s, s}});
  g.add_edge("f" + tag, s + "o" + tag, "p" + tag, s, {{"prov:to", s}});
  return g;
}

/// Nested `depth` levels, arrays and objects alternating, with scalars
/// of each kind along the way.
Json nested(int depth, const std::string& s) {
  Json inner = depth % 2 == 0 ? Json::array() : Json::object();
  if (depth == 0) return inner;
  Json child = nested(depth - 1, s);
  if (inner.is_array()) {
    inner.push_back(Json(s));
    inner.push_back(std::move(child));
    inner.push_back(Json(depth));
  } else {
    inner.set(s, std::move(child));
    inner.set("n", Json::number_with_text(0.5, "5e-1"));
    inner.set("b", Json(depth % 3 == 0));
    inner.set("z", Json(nullptr));
  }
  return inner;
}

TEST(WriterBoundary, OutputIsPinned) {
  const std::vector<std::string> strings = boundary_strings();
  outcome::Digest digest;
  std::string first_difference;
  auto add = [&](const std::string& what, const std::string& out,
                 const std::string& reference) {
    digest.add(out);
    if (first_difference.empty() && out != reference) first_difference = what;
  };
  Json keys = Json::object();
  Json values = Json::array();
  for (std::size_t i = 0; i < strings.size(); ++i) {
    const std::string& s = strings[i];
    const std::string what = "string " + std::to_string(i);
    const graph::PropertyGraph g = graph_of(s, i);
    add(what + " prov-json", to_prov_json(g), reference::to_prov_json(g));
    add(what + " neo4j", to_neo4j_json(g), reference::to_neo4j_json(g));
    add(what + " dot", to_dot(g), reference::to_dot(g));
    add(what + " dot name", to_dot(g, "g" + std::to_string(s.size())),
        reference::to_dot(g, "g" + std::to_string(s.size())));
    keys.set(s, Json(s));
    values.push_back(Json(s));
    const Json member = Json(Json::Object{{s, Json(s)}});
    digest.add(member.dump());
    digest.add(member.dump(2));
  }
  EXPECT_EQ(first_difference, "");
  digest.add(keys.dump());
  digest.add(keys.dump(2));
  digest.add(values.dump());
  digest.add(values.dump(4));
  for (int depth : {1, 2, 63, 64, 65, 200, 1000}) {
    const Json deep = nested(depth, "k\"" + std::to_string(depth));
    digest.add(deep.dump());
    digest.add(deep.dump(2));
    EXPECT_EQ(Json::parse(deep.dump(2)), deep) << depth;
  }
  EXPECT_EQ(strings.size(), 238u);
  EXPECT_EQ(digest.hex(), "63716f92d2f57822");
}

}  // namespace
}  // namespace provmark::formats
