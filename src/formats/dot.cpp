#include "formats/dot.h"

#include <cctype>
#include <stdexcept>

#include "util/strings.h"

namespace provmark::formats {

namespace {

void append_dot_escaped(std::string& out, std::string_view s) {
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '"' && s[i] != '\\') continue;
    out.append(s.data() + run, i - run);
    out += '\\';
    run = i;
  }
  out.append(s.data() + run, s.size() - run);
}

/// Shape per element type, echoing the paper's figure conventions.
std::string_view shape_for(const graph::Node& n) {
  auto it = n.props.find("type");
  std::string_view type = it != n.props.end() ? it->second : n.label;
  if (type == "Process" || type == "Activity" || type == "activity" ||
      type == "task") {
    return "box";
  }
  if (type == "Agent" || type == "agent") return "octagon";
  if (type == "dummy") return "ellipse";
  return "ellipse";
}

/// `, key="value"` for each property.
void append_attributes(std::string& out, const graph::Properties& props) {
  for (const auto& [k, v] : props) {
    out += ", ";
    out += k;
    out += "=\"";
    append_dot_escaped(out, v);
    out += '"';
  }
}

class DotParser {
 public:
  explicit DotParser(std::string_view text) : text_(text) {}

  graph::PropertyGraph parse() {
    expect_keyword("digraph");
    name();  // graph name, discarded
    expect('{');
    graph::PropertyGraph g;
    int synthetic_edge_id = 0;
    while (true) {
      skip_space();
      if (peek() == '}') {
        ++pos_;
        break;
      }
      std::string first = name();
      skip_space();
      if (pos_ + 1 < text_.size() && text_[pos_] == '-' &&
          text_[pos_ + 1] == '>') {
        pos_ += 2;
        std::string second = name();
        graph::Properties attrs = attributes();
        expect(';');
        std::string label;
        if (auto it = attrs.find("label"); it != attrs.end()) {
          label = it->second;
          attrs.erase(it);
        }
        ensure_node(g, first);
        ensure_node(g, second);
        std::string edge_id =
            "dot_e" + std::to_string(synthetic_edge_id++);
        g.add_edge(edge_id, first, second, label, std::move(attrs));
      } else {
        graph::Properties attrs = attributes();
        expect(';');
        std::string label;
        if (auto it = attrs.find("label"); it != attrs.end()) {
          label = it->second;
          attrs.erase(it);
        }
        // Drop pure styling attributes the writer adds.
        attrs.erase("shape");
        if (graph::Node* existing = g.find_node(first)) {
          existing->label = label;
          for (auto& [k, v] : attrs) existing->props[k] = v;
        } else {
          g.add_node(first, label, std::move(attrs));
        }
      }
    }
    skip_space();
    if (pos_ != text_.size()) fail("trailing content after digraph");
    return g;
  }

 private:
  void ensure_node(graph::PropertyGraph& g, const std::string& id) {
    if (g.find_node(id) == nullptr) g.add_node(id, "");
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

  std::string name() {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == '"') return quoted();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '.' || text_[pos_] == ':')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a name");
    return std::string(text_.substr(start, pos_ - start));
  }

  std::string quoted() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run up to the next quote or backslash in one append.
      std::size_t end = text_.find_first_of("\"\\", pos_);
      if (end == std::string_view::npos) {
        pos_ = text_.size();
        fail("unterminated string");
      }
      out.append(text_.data() + pos_, end - pos_);
      pos_ = end + 1;
      if (text_[end] == '"') return out;
      if (pos_ >= text_.size()) fail("bad escape");
      out += text_[pos_++];
    }
  }

  graph::Properties attributes() {
    graph::Properties attrs;
    skip_space();
    if (pos_ >= text_.size() || text_[pos_] != '[') return attrs;
    ++pos_;
    while (true) {
      skip_space();
      if (peek() == ']') {
        ++pos_;
        return attrs;
      }
      std::string key = name();
      skip_space();
      expect('=');
      std::string value = name();
      attrs.insert_or_assign(std::move(key), std::move(value));
      skip_space();
      if (pos_ < text_.size() && text_[pos_] == ',') ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string to_dot(const graph::PropertyGraph& g,
                   std::string_view graph_name) {
  std::string out;
  out.reserve(160 * (g.node_count() + g.edge_count()) + 64);
  out += "digraph ";
  out += graph_name;
  out += " {\n";
  for (const graph::Node& n : g.nodes()) {
    out += "  \"";
    append_dot_escaped(out, n.id);
    out += "\" [label=\"";
    append_dot_escaped(out, n.label);
    out += "\", shape=";
    out += shape_for(n);
    append_attributes(out, n.props);
    out += "];\n";
  }
  for (const graph::Edge& e : g.edges()) {
    out += "  \"";
    append_dot_escaped(out, e.src);
    out += "\" -> \"";
    append_dot_escaped(out, e.tgt);
    out += "\" [label=\"";
    append_dot_escaped(out, e.label);
    out += '"';
    append_attributes(out, e.props);
    out += "];\n";
  }
  out += "}\n";
  return out;
}

graph::PropertyGraph from_dot(std::string_view text) {
  return DotParser(text).parse();
}

}  // namespace provmark::formats
