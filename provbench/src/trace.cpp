#include "trace.h"

#include <chrono>
#include <fstream>
#include <stdexcept>

namespace provbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans open on this thread, innermost last. One tracer is active per
/// thread at a time, which is how the benchmark uses them.
thread_local std::vector<std::int64_t> t_open;

}  // namespace

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t id)
    : tracer_(tracer) {
  if (tracer_.enabled_) index_ = tracer_.begin(name, id);
}

Tracer::Scope::~Scope() {
  if (index_ >= 0) tracer_.end(index_);
}

std::int64_t Tracer::begin(const char* name, std::uint64_t id) {
  Span span;
  span.name = name;
  span.id = id;
  span.parent = t_open.empty() ? -1 : t_open.back();
  std::int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<std::int64_t>(spans_.size());
    span.start_ns = now_ns();
    spans_.push_back(span);
  }
  t_open.push_back(index);
  return index;
}

void Tracer::end(std::int64_t index) {
  std::int64_t t = now_ns();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<Span>(spans_.begin(), spans_.end());
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
  }
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    self[static_cast<std::size_t>(span.parent)] -=
        static_cast<double>(span.end_ns - span.start_ns) / 1e3;
  }
  return self;
}

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans) {
  std::vector<double> self = self_times_us(spans);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& layer = out[spans[i].name];
    ++layer.count;
    layer.total_us +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
    layer.self_us += self[i];
  }
  return out;
}

std::string check_spans(const std::vector<Span>& spans) {
  std::vector<double> self = self_times_us(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::string where = "span " + std::to_string(i) + " (" + span.name + ")";
    if (span.end_ns < span.start_ns) return where + " ends before it starts";
    if (span.parent >= static_cast<std::int64_t>(i)) {
      return where + " has a parent that starts after it";
    }
    if (span.parent >= 0) {
      const Span& parent = spans[static_cast<std::size_t>(span.parent)];
      if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns) {
        return where + " is not inside its parent";
      }
    }
    if (self[i] < 0) return where + " has negative self time";
  }
  return "";
}

void write_spans(const std::filesystem::path& path,
                 const std::vector<Span>& spans) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  std::vector<double> self = self_times_us(spans);
  out << "index\tname\tid\tparent\tstart_ns\tend_ns\tself_us\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << '\t' << s.name << '\t' << s.id << '\t' << s.parent << '\t'
        << s.start_ns << '\t' << s.end_ns << '\t' << self[i] << '\n';
  }
}

}  // namespace provbench
