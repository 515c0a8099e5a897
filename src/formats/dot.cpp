#include "formats/dot.h"

#include <memory_resource>

#include <algorithm>
#include <charconv>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/strings.h"

namespace provmark::formats {

namespace {

void append_dot_escaped(std::pmr::string& out, std::string_view s) {
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '"' && s[i] != '\\') continue;
    out.append(s.data() + run, i - run);
    out += '\\';
    run = i;
  }
  out.append(s.data() + run, s.size() - run);
}

/// An unquoted name's characters: ASCII letters and digits (what
/// std::isalnum accepts in the C locale), '_', '.' and ':'.
bool is_name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == ':';
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

/// `, key="value"` for each property. A key is written bare when the
/// reader takes it back as a bare name, and quoted otherwise.
void append_attributes(std::pmr::string& out,
                       std::span<const graph::GraphView::Prop> props) {
  for (const auto& [k, v] : props) {
    out += ", ";
    if (!k.empty() && std::all_of(k.begin(), k.end(), is_name_char)) {
      out += k;
    } else {
      out += '"';
      append_dot_escaped(out, k);
      out += '"';
    }
    out += "=\"";
    append_dot_escaped(out, v);
    out += '"';
  }
}

/// Reads the DOT subset into a GraphView over the document.
class DotReader {
 public:
  /// The view and the reader's scratch draw from `memory`.
  DotReader(std::string_view text, std::pmr::memory_resource* memory)
      : text_(text), memory_(memory), unescaped_(memory) {}

  graph::GraphView read() {
    graph::GraphView view(memory_);
    view.reserve_for(text_.size());
    graph::GraphViewBuilder builder(view);
    expect_keyword("digraph");
    name(view.arena);  // graph name, discarded
    expect('{');
    // DOT edges have no ids; edge k is named "dot_e<k>". Every name the
    // document can need (one per "->" in it) is laid out in one arena
    // string, so each edge id is a view into it.
    const std::string_view edge_names =
        view.arena.keep(synthetic_edge_ids());
    std::size_t edge_name_at = 0;
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
        ++pos_;
        break;
      }
      std::string_view first = name(view.arena);
      skip_space();
      if (pos_ + 1 < text_.size() && text_[pos_] == '-' &&
          text_[pos_ + 1] == '>') {
        pos_ += 2;
        std::string_view second = name(view.arena);
        const auto first_prop = static_cast<std::uint32_t>(view.props.size());
        std::string_view label = attributes(view.arena, view.props, false);
        expect(';');
        std::uint32_t src = ensure_node(builder, first);
        std::uint32_t tgt = ensure_node(builder, second);
        // This edge's name runs up to the next name's leading 'd'.
        std::size_t next = edge_names.find('d', edge_name_at + 1);
        std::string_view id = edge_names.substr(
            edge_name_at, next == std::string_view::npos ? next
                                                         : next - edge_name_at);
        edge_name_at = next;
        builder.add_edge(id, src, tgt, label, first_prop,
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
    if (pos_ != text_.size()) fail("trailing content after digraph");
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

  /// "dot_e0dot_e1...", one name per "->" in the document.
  std::pmr::string synthetic_edge_ids() const {
    std::size_t arrows = 0;
    for (std::size_t at = text_.find("->"); at != std::string_view::npos;
         at = text_.find("->", at + 2)) {
      ++arrows;
    }
    std::pmr::string names(memory_);
    names.reserve(arrows * 9);
    char digits[16];
    for (std::size_t k = 0; k < arrows; ++k) {
      names += "dot_e";
      auto [end, ec] = std::to_chars(digits, digits + sizeof digits, k);
      names.append(digits, end);
    }
    return names;
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

  [[noreturn]] void fail(const std::string& message) {
    throw std::runtime_error("dot parse error at offset " +
                             std::to_string(pos_) + ": " + message);
  }

  void skip_space() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    skip_space();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void expect_keyword(std::string_view kw) {
    skip_space();
    if (text_.substr(pos_, kw.size()) != kw) {
      fail("expected keyword " + std::string(kw));
    }
    pos_ += kw.size();
  }

  std::string_view name(util::StringArena& arena) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == '"') return quoted(arena);
    std::size_t start = pos_;
    while (pos_ < text_.size() && is_name_char(text_[pos_])) ++pos_;
    if (pos_ == start) fail("expected a name");
    return text_.substr(start, pos_ - start);
  }

  /// Position of the next quote or backslash at or after `from`, or npos.
  std::size_t quote_or_escape(std::size_t from) const {
    for (std::size_t i = from; i < text_.size(); ++i) {
      if (text_[i] == '"' || text_[i] == '\\') return i;
    }
    return std::string_view::npos;
  }

  /// A quoted string: a view of the document unless it holds an escape,
  /// in which case the unescaped text goes in `arena`.
  std::string_view quoted(util::StringArena& arena) {
    expect('"');
    std::size_t end = quote_or_escape(pos_);
    if (end != std::string_view::npos && text_[end] == '"') {
      std::string_view plain = text_.substr(pos_, end - pos_);
      pos_ = end + 1;
      return plain;
    }
    std::pmr::string& out = unescaped_;
    out.clear();
    while (true) {
      // Copy the run up to the next quote or backslash in one append.
      end = quote_or_escape(pos_);
      if (end == std::string_view::npos) {
        pos_ = text_.size();
        fail("unterminated string");
      }
      out.append(text_.data() + pos_, end - pos_);
      pos_ = end + 1;
      if (text_[end] == '"') return arena.keep(out);
      if (pos_ >= text_.size()) fail("bad escape");
      out += text_[pos_++];
    }
  }

  /// An optional `[key=value, ...]` list. Appends every attribute but
  /// `label` (and, on a node, `shape`, which only styles it) to `out`,
  /// and returns the last `label` value, or "" when there is none.
  std::string_view attributes(util::StringArena& arena,
                              std::pmr::vector<graph::GraphView::Prop>& out,
                              bool node) {
    std::string_view label;
    skip_space();
    if (pos_ >= text_.size() || text_[pos_] != '[') return label;
    ++pos_;
    while (true) {
      skip_space();
      if (peek() == ']') {
        ++pos_;
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
      if (pos_ < text_.size() && text_[pos_] == ',') ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::pmr::memory_resource* memory_;
  std::pmr::string unescaped_;  ///< quoted()'s buffer, reused
};

}  // namespace

std::string to_dot(const graph::GraphView& view,
                   std::string_view graph_name) {
  // Built in the view's memory, then copied out once at its final size.
  std::pmr::string out(view.resource());
  out.reserve(160 * (view.nodes.size() + view.edges.size()) + 64);
  out += "digraph ";
  out += graph_name;
  out += " {\n";
  std::pmr::vector<graph::GraphView::Prop> scratch(view.resource());
  for (const graph::GraphView::NodeRef& n : view.nodes) {
    const std::span<const graph::GraphView::Prop> props =
        view.ordered_props(n, scratch);
    out += "  \"";
    append_dot_escaped(out, n.id);
    out += "\" [label=\"";
    append_dot_escaped(out, n.label);
    out += "\", shape=";
    out += shape_for(n.label, props);
    append_attributes(out, props);
    out += "];\n";
  }
  for (const graph::GraphView::EdgeRef& e : view.edges) {
    out += "  \"";
    append_dot_escaped(out, view.nodes[e.src].id);
    out += "\" -> \"";
    append_dot_escaped(out, view.nodes[e.tgt].id);
    out += "\" [label=\"";
    append_dot_escaped(out, e.label);
    out += '"';
    append_attributes(out, view.ordered_props(e, scratch));
    out += "];\n";
  }
  out += "}\n";
  return std::string(out);
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
