#include "formats/dot.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstring>
#include <memory_resource>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/strings.h"

namespace provmark::formats {

namespace {

/// An unquoted name's characters: ASCII letters and digits (what
/// std::isalnum accepts in the C locale), '_', '.' and ':'.
constexpr std::array<bool, 256> kNameChar = [] {
  std::array<bool, 256> table{};
  for (int c = 0; c < 256; ++c) {
    table[c] = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9') || c == '_' || c == '.' || c == ':';
  }
  return table;
}();

bool is_name_char(char c) { return kNameChar[static_cast<unsigned char>(c)]; }

/// Whether `s` reads back as one unquoted name.
bool is_bare_name(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!is_name_char(c)) return false;
  }
  return true;
}

/// What DotReader::skip_space() does with a byte: skip it, look for a
/// `//` comment, or stop.
enum class Space : unsigned char { kNone, kBlank, kSlash };
constexpr std::array<Space, 256> kSpace = [] {
  std::array<Space, 256> table{};
  for (unsigned char c : {' ', '\n', '\t', '\r'}) table[c] = Space::kBlank;
  table['/'] = Space::kSlash;
  return table;
}();

/// `s` copied to `at`.
char* put(char* at, std::string_view s) {
  std::memcpy(at, s.data(), s.size());
  return at + s.size();
}

/// For eight bytes from `p` on, the high bit of each `"` and `\`.
std::uint64_t quotes_and_backslashes(const char* p) {
  const std::uint64_t word = util::load_word(p);
  return util::bytes_equal(word, '"') | util::bytes_equal(word, '\\');
}

/// Copies from `p` to `at` up to the first `"` or `\`, or to `end`,
/// eight bytes at a time while eight remain; advances both.
void copy_plain(const char*& p, const char* end, char*& at) {
  for (; end - p >= 8; p += 8, at += 8) {
    std::memcpy(at, p, 8);
    if (const std::uint64_t hit = quotes_and_backslashes(p); hit != 0) {
      const int plain = std::countr_zero(hit) / 8;
      p += plain;
      at += plain;
      return;
    }
  }
  for (; p != end && *p != '"' && *p != '\\'; ++p) *at++ = *p;
}

/// `s` with a backslash before each `"` and `\`, written at `at`, which
/// has room for 2 * s.size() bytes.
char* put_escaped(char* at, std::string_view s) {
  const char* p = s.data();
  const char* const end = p + s.size();
  while (true) {
    copy_plain(p, end, at);
    if (p == end) return at;
    *at++ = '\\';
    *at++ = *p++;
  }
}

/// The value of `key` in key-ordered properties, or nullptr.
const std::string_view* find_prop(std::span<const graph::GraphView::Prop> props,
                                  std::string_view key) {
  auto it = std::lower_bound(
      props.begin(), props.end(), key,
      [](const graph::GraphView::Prop& p, std::string_view k) {
        return p.key < k;
      });
  return it != props.end() && it->key == key ? &it->value : nullptr;
}

/// Shape per element type, echoing the paper's figure conventions.
std::string_view shape_for(std::string_view label,
                           std::span<const graph::GraphView::Prop> props) {
  const std::string_view* type_prop = find_prop(props, "type");
  std::string_view type = type_prop != nullptr ? *type_prop : label;
  if (type == "Process" || type == "Activity" || type == "activity" ||
      type == "task") {
    return "box";
  }
  if (type == "Agent" || type == "agent") return "octagon";
  if (type == "dummy") return "ellipse";
  return "ellipse";
}

/// The most put_attributes() writes for `props`.
std::size_t attributes_room(std::span<const graph::GraphView::Prop> props) {
  std::size_t bytes = 0;
  for (const auto& [k, v] : props) bytes += 2 * (k.size() + v.size()) + 7;
  return bytes;
}

/// `, key="value"` for each property. A key is written bare when the
/// reader takes it back as a bare name, and quoted otherwise.
char* put_attributes(char* at, std::span<const graph::GraphView::Prop> props) {
  for (const auto& [k, v] : props) {
    at = put(at, ", ");
    if (is_bare_name(k)) {
      at = put(at, k);
    } else {
      *at++ = '"';
      at = put_escaped(at, k);
      *at++ = '"';
    }
    at = put(at, "=\"");
    at = put_escaped(at, v);
    *at++ = '"';
  }
  return at;
}

/// Reads the DOT subset into a GraphView over the document, walking a
/// raw cursor. Whitespace, comments, expect() and the name and quote
/// scans are inline; an escaped string's decoding and building an error
/// are out of line.
class DotReader {
 public:
  /// The view and the reader's scratch draw from `memory`.
  DotReader(std::string_view text, std::pmr::memory_resource* memory)
      : text_(text),
        at_(text.data()),
        end_(text.data() + text.size()),
        memory_(memory),
        unescaped_(memory) {}

  graph::GraphView read() {
    graph::GraphView view(memory_);
    view.reserve_for(text_.size());
    graph::GraphViewBuilder builder(view);
    expect_keyword("digraph");
    name(view.arena);  // graph name, discarded
    expect('{');
    // Node statements may declare a node more than once: its label is the
    // last declaration's, its properties every declaration's attributes
    // in document order (the last value of a key wins). They are gathered
    // here and laid out per node at the end.
    std::pmr::vector<std::pair<std::uint32_t, graph::GraphView::Prop>>
        node_attrs(memory_);
    std::pmr::vector<graph::GraphView::Prop> attrs(memory_);
    while (true) {
      skip_space();
      if (peek() == '}') {
        ++at_;
        break;
      }
      std::string_view first = name(view.arena);
      skip_space();
      if (end_ - at_ >= 2 && at_[0] == '-' && at_[1] == '>') {
        at_ += 2;
        std::string_view second = name(view.arena);
        const auto first_prop = static_cast<std::uint32_t>(view.props.size());
        std::string_view label = attributes(view.arena, view.props, false);
        expect(';');
        std::uint32_t src = ensure_node(builder, first);
        std::uint32_t tgt = ensure_node(builder, second);
        builder.add_edge(edge_id(view), src, tgt, label, first_prop,
                         static_cast<std::uint32_t>(view.props.size()) -
                             first_prop);
      } else {
        attrs.clear();
        std::string_view label = attributes(view.arena, attrs, true);
        expect(';');
        std::uint32_t node = builder.find_node(first);
        if (node == graph::GraphViewBuilder::kNoNode) {
          node = builder.add_node(first, label, 0, 0);
        } else {
          view.nodes[node].label = label;
        }
        for (const graph::GraphView::Prop& attr : attrs) {
          node_attrs.emplace_back(node, attr);
        }
      }
    }
    skip_space();
    if (at_ != end_) fail("trailing content after digraph");
    lay_out_node_props(view, node_attrs);
    return view;
  }

 private:
  std::uint32_t ensure_node(graph::GraphViewBuilder& builder,
                            std::string_view id) {
    std::uint32_t node = builder.find_node(id);
    return node != graph::GraphViewBuilder::kNoNode
               ? node
               : builder.add_node(id, "", 0, 0);
  }

  /// DOT edges have no ids; edge k is named "dot_e<k>", kept in the
  /// view's arena.
  static std::string_view edge_id(graph::GraphView& view) {
    char name[32] = "dot_e";
    const auto [end, ec] =
        std::to_chars(name + 5, name + sizeof name, view.edges.size());
    return view.arena.keep({name, static_cast<std::size_t>(end - name)});
  }

  static void lay_out_node_props(
      graph::GraphView& view,
      const std::pmr::vector<std::pair<std::uint32_t, graph::GraphView::Prop>>&
          node_attrs) {
    // Counting sort by node keeps each node's attributes in document
    // order.
    for (const auto& [node, attr] : node_attrs) ++view.nodes[node].prop_count;
    auto at = static_cast<std::uint32_t>(view.props.size());
    for (graph::GraphView::NodeRef& node : view.nodes) {
      node.first_prop = at;
      at += node.prop_count;
      node.prop_count = 0;
    }
    view.props.resize(at);
    for (const auto& [node, attr] : node_attrs) {
      graph::GraphView::NodeRef& ref = view.nodes[node];
      view.props[ref.first_prop + ref.prop_count++] = attr;
    }
  }

  [[noreturn]] void fail(const char* message) const;
  [[noreturn]] void fail_expected(char c) const;

  void skip_space() {
    while (at_ != end_) {
      const Space kind = kSpace[static_cast<unsigned char>(*at_)];
      if (kind == Space::kBlank) {
        ++at_;
      } else if (kind == Space::kNone || !skip_comment()) {
        return;
      }
    }
  }

  /// Skips the `//` comment at the cursor up to its line break, or
  /// returns false when the `/` starts none.
  bool skip_comment() {
    if (end_ - at_ < 2 || at_[1] != '/') return false;
    const void* newline =
        std::memchr(at_, '\n', static_cast<std::size_t>(end_ - at_));
    at_ = newline != nullptr ? static_cast<const char*>(newline) : end_;
    return true;
  }

  char peek() {
    skip_space();
    if (at_ == end_) fail("unexpected end of input");
    return *at_;
  }

  void expect(char c) {
    if (peek() != c) fail_expected(c);
    ++at_;
  }

  void expect_keyword(std::string_view kw) {
    skip_space();
    if (std::string_view(at_, static_cast<std::size_t>(end_ - at_))
            .substr(0, kw.size()) != kw) {
      fail(("expected keyword " + std::string(kw)).c_str());
    }
    at_ += kw.size();
  }

  std::string_view name(util::StringArena& arena) {
    skip_space();
    if (at_ != end_ && *at_ == '"') return quoted(arena);
    const char* start = at_;
    while (at_ != end_ && is_name_char(*at_)) ++at_;
    if (at_ == start) fail("expected a name");
    return {start, static_cast<std::size_t>(at_ - start)};
  }

  /// The next quote or backslash at or after `from`, or end_.
  const char* quote_or_escape(const char* from) const {
    for (; end_ - from >= 8; from += 8) {
      if (const std::uint64_t hit = quotes_and_backslashes(from); hit != 0) {
        return from + std::countr_zero(hit) / 8;
      }
    }
    while (from != end_ && *from != '"' && *from != '\\') ++from;
    return from;
  }

  /// A quoted string: a view of the document unless it holds an escape,
  /// in which case the unescaped text goes in `arena`.
  std::string_view quoted(util::StringArena& arena) {
    ++at_;  // the opening quote, which name() has seen
    const char* end = quote_or_escape(at_);
    if (end != end_ && *end == '"') {
      const std::string_view plain(at_, static_cast<std::size_t>(end - at_));
      at_ = end + 1;
      return plain;
    }
    return unescaped(arena);
  }

  /// quoted() of a string holding an escape, or unterminated, from just
  /// after its opening quote.
  std::string_view unescaped(util::StringArena& arena);

  /// An optional `[key=value, ...]` list. Appends every attribute but
  /// `label` (and, on a node, `shape`, which only styles it) to `out`,
  /// and returns the last `label` value, or "" when there is none.
  std::string_view attributes(util::StringArena& arena,
                              std::pmr::vector<graph::GraphView::Prop>& out,
                              bool node) {
    std::string_view label;
    skip_space();
    if (at_ == end_ || *at_ != '[') return label;
    ++at_;
    while (true) {
      skip_space();
      if (peek() == ']') {
        ++at_;
        return label;
      }
      std::string_view key = name(arena);
      skip_space();
      expect('=');
      std::string_view value = name(arena);
      if (key == "label") {
        label = value;
      } else if (!(node && key == "shape")) {
        out.push_back({key, value});
      }
      skip_space();
      if (at_ != end_ && *at_ == ',') ++at_;
    }
  }

  std::string_view text_;
  const char* at_;
  const char* end_;
  std::pmr::memory_resource* memory_;
  std::pmr::string unescaped_;  ///< unescaped()'s buffer, reused
};

void DotReader::fail(const char* message) const {
  throw std::runtime_error("dot parse error at offset " +
                           std::to_string(at_ - text_.data()) + ": " +
                           message);
}

void DotReader::fail_expected(char c) const {
  fail((std::string("expected '") + c + "'").c_str());
}

std::string_view DotReader::unescaped(util::StringArena& arena) {
  std::pmr::string& out = unescaped_;
  out.clear();
  while (true) {
    // Copy the run up to the next quote or backslash in one append.
    const char* end = quote_or_escape(at_);
    if (end == end_) {
      at_ = end_;
      fail("unterminated string");
    }
    out.append(at_, end);
    at_ = end + 1;
    if (*end == '"') return arena.keep(out);
    if (at_ == end_) fail("bad escape");
    out += *at_++;
  }
}

}  // namespace

std::string to_dot(const graph::GraphView& view,
                   std::string_view graph_name) {
  // Each line is written whole, after one capacity check for its longest
  // possible form, straight into the returned string, which starts sized
  // for the view's strings plus each line's and attribute's fixed text.
  util::StringWriter out(view.text_size(32, 24, 7) + graph_name.size() + 16);
  out.append("digraph ");
  out.append(graph_name);
  out.append(" {\n");
  std::pmr::vector<graph::GraphView::Prop> scratch(view.resource());
  for (const graph::GraphView::NodeRef& n : view.nodes) {
    const std::span<const graph::GraphView::Prop> props =
        view.ordered_props(n, scratch);
    char* at = out.room(2 * (n.id.size() + n.label.size()) + 40 +
                        attributes_room(props));
    at = put(at, "  \"");
    at = put_escaped(at, n.id);
    at = put(at, "\" [label=\"");
    at = put_escaped(at, n.label);
    at = put(at, "\", shape=");
    at = put(at, shape_for(n.label, props));
    at = put_attributes(at, props);
    out.advance_to(put(at, "];\n"));
  }
  for (const graph::GraphView::EdgeRef& e : view.edges) {
    const std::string_view src = view.nodes[e.src].id;
    const std::string_view tgt = view.nodes[e.tgt].id;
    const std::span<const graph::GraphView::Prop> props =
        view.ordered_props(e, scratch);
    char* at = out.room(2 * (src.size() + tgt.size() + e.label.size()) + 32 +
                        attributes_room(props));
    at = put(at, "  \"");
    at = put_escaped(at, src);
    at = put(at, "\" -> \"");
    at = put_escaped(at, tgt);
    at = put(at, "\" [label=\"");
    at = put_escaped(at, e.label);
    *at++ = '"';
    at = put_attributes(at, props);
    out.advance_to(put(at, "];\n"));
  }
  out.append("}\n");
  return out.take();
}

std::string to_dot(const graph::PropertyGraph& g,
                   std::string_view graph_name) {
  return to_dot(graph::view_of(g), graph_name);
}

graph::GraphView dot_view(std::string_view text,
                          std::pmr::memory_resource* memory) {
  return DotReader(text, memory).read();
}

graph::PropertyGraph from_dot(std::string_view text) {
  return dot_view(text).materialize();
}

}  // namespace provmark::formats
