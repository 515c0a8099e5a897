// In-memory span tracing for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around calls into each
// layer's public functions (never inside the program). A span carries
// its name, start, end, the span that was open on the same thread when
// it began (its parent) and the id of the cell or request it serves.
// Spans stay in memory until the run ends and are then written out.
// A layer's self time is its span's duration minus the part its child
// spans cover.
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace provbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the span list, -1 = root
  std::uint64_t id = 0;      ///< cell or request id
};

class Tracer {
 public:
  /// A disabled tracer records nothing; its scopes cost one branch. The
  /// traced run times the same work with both to report the overhead.
  explicit Tracer(bool enabled = true) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: opens on construction, closes on destruction. Scopes on
  /// one thread must nest (the usual block structure guarantees it).
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int64_t index_ = -1;
  };

  bool enabled() const { return enabled_; }

  /// Snapshot of every span recorded so far, in start order per thread.
  std::vector<Span> spans() const;

 private:
  std::int64_t begin(const char* name, std::uint64_t id);
  void end(std::int64_t index);

  bool enabled_;
  mutable std::mutex mutex_;
  std::deque<Span> spans_;
};

/// Time a layer accounts for: span count, total span time and self time
/// (span time minus the time covered by its children).
struct LayerTime {
  std::uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

/// Per span name; children are found through the parent links.
std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans);

/// Self time of each span in microseconds (same order as `spans`).
std::vector<double> self_times_us(const std::vector<Span>& spans);

/// Empty when every span ends after it starts, lies inside its parent's
/// interval and has a non-negative self time; otherwise a description
/// of the first violation.
std::string check_spans(const std::vector<Span>& spans);

/// Write one tab-separated line per span: index, name, id, parent,
/// start_ns, end_ns, self_us.
void write_spans(const std::filesystem::path& path,
                 const std::vector<Span>& spans);

}  // namespace provbench
