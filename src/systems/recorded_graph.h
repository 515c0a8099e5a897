// The graph a recorder builds for one trial, as a graph::GraphView.
//
// A recorder serializes its graph once, so it builds the view the writers
// in formats/ read instead of a PropertyGraph. The view is built in the
// trial's region (util/region.h): its element and property lists, minted
// ids and computed values (decimal numbers) all draw from it, and
// strings of the event trace and literals are referenced in place. So
// the trace must outlive the view — Recorder::record() writes its
// document before it returns. Recorders address nodes by index, so their
// dedupe maps hold indices; they draw from the region too.
//
// Element ids are checked for uniqueness by graph::GraphViewBuilder, with
// PropertyGraph's exceptions. Properties follow the view's rule: an
// element's list may repeat a key and the last value wins, which is what
// assigning into graph::Properties did.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <string_view>
#include <utility>

#include "graph/graph_view.h"
#include "util/region.h"

namespace provmark::systems {

class RecordedGraph {
 public:
  using Prop = graph::GraphView::Prop;

  explicit RecordedGraph(util::Region& region)
      : region_(region), view_(region.resource()), builder_(view_) {}
  RecordedGraph(const RecordedGraph&) = delete;
  RecordedGraph& operator=(const RecordedGraph&) = delete;

  /// The region the graph is built in, for the recorder's own scratch.
  std::pmr::memory_resource* memory() { return region_.resource(); }

  /// A copy of `s` owned by the region.
  std::string_view keep(std::string_view s) { return region_.keep(s); }
  /// The concatenation of `parts`, owned by the region.
  std::string_view join(std::initializer_list<std::string_view> parts) {
    return region_.join(parts);
  }

  /// `prefix` (at most 40 bytes) followed by `n` in decimal, owned by the
  /// region: a minted id or, with no prefix, a numeric property value.
  template <typename Int>
  std::string_view num(Int n, std::string_view prefix = {}) {
    char buf[64];
    char* digits = std::copy(prefix.begin(), prefix.end(), buf);
    auto [end, ec] = std::to_chars(digits, buf + sizeof buf, n);
    return keep(std::string_view(buf, end - buf));
  }

  /// Append a property for the next node or edge added.
  void prop(std::string_view key, std::string_view value) {
    view_.props.push_back({key, value});
  }

  /// Add a node holding the properties appended since the last element
  /// plus `props`; returns its index.
  std::uint32_t node(std::string_view id, std::string_view label,
                     std::initializer_list<Prop> props = {}) {
    view_.props.insert(view_.props.end(), props);
    const auto [first, count] = claim_props();
    return builder_.add_node(id, label, first, count);
  }

  /// Add an edge between node indices, holding the properties appended
  /// since the last element plus `props`.
  void edge(std::string_view id, std::uint32_t src, std::uint32_t tgt,
            std::string_view label, std::initializer_list<Prop> props = {}) {
    view_.props.insert(view_.props.end(), props);
    const auto [first, count] = claim_props();
    builder_.add_edge(id, src, tgt, label, first, count);
  }

  graph::GraphView& view() { return view_; }

  /// The finished view. Nothing may be added afterwards.
  graph::GraphView take() { return std::move(view_); }

 private:
  std::pair<std::uint32_t, std::uint32_t> claim_props() {
    const std::uint32_t first = claimed_;
    claimed_ = static_cast<std::uint32_t>(view_.props.size());
    return {first, claimed_ - first};
  }

  util::Region& region_;
  graph::GraphView view_;
  graph::GraphViewBuilder builder_;
  std::uint32_t claimed_ = 0;  ///< props before this belong to an element
};

}  // namespace provmark::systems
