/// \file trace.hpp
/// In-memory spans for the traced run.  The benchmark wraps each call into a
/// library layer in a span (name, start, end, parent); spans stay in memory
/// and are written out once the run ends.  A layer's self time is its
/// span's duration minus the part of that interval its child spans cover.
///
/// Single-threaded by design: every span is opened and closed on the thread
/// that drives the traced run.  Intervals measured on other threads (a
/// server's completion callbacks) are added afterwards with record().

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Microseconds on the steady clock since the first call in the process.
inline double now_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch).count();
}

struct Span {
  std::uint32_t id = 0;      ///< 1-based; 0 means "no span".
  std::uint32_t parent = 0;  ///< 0 for a root span.
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span under the innermost open one; returns its id (0 when off).
  std::uint32_t begin(const char* name) {
    if (!enabled_) return 0;
    const std::uint32_t parent = open_.empty() ? 0 : open_.back();
    spans_.push_back({next_id(), parent, name, now_us(), 0.0});
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void end(std::uint32_t id) {
    if (id == 0) return;
    spans_[id - 1].end_us = now_us();
    open_.pop_back();
  }

  /// Adds a closed span measured elsewhere, under the innermost open span.
  void record(const char* name, double start_us, double end_us) {
    if (!enabled_) return;
    spans_.push_back({next_id(), open_.empty() ? 0 : open_.back(), name, start_us, end_us});
  }

  [[nodiscard]] std::span<const Span> spans() const noexcept { return spans_; }

  /// Writes every span as one JSON array.  Returns false on an I/O error.
  bool write_json(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fputs("[\n", out);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                   s.id, s.parent, s.name.c_str(), s.start_us, s.end_us,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", out);
    return std::fclose(out) == 0;
  }

 private:
  std::uint32_t next_id() const { return static_cast<std::uint32_t>(spans_.size() + 1); }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name) : tracer_(tracer), id_(tracer.begin(name)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

/// Per-name aggregate of self and total time.
struct LayerTime {
  double self_us = 0.0;
  double total_us = 0.0;
  std::size_t count = 0;
};

/// Length of the union of `intervals` clipped to [lo, hi].
[[nodiscard]] inline double covered_us(std::vector<std::pair<double, double>> intervals,
                                       double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals (children may overlap one another).
[[nodiscard]] inline std::map<std::string, LayerTime> self_times(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size() + 1);
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::map<std::string, LayerTime> layers;
  for (const Span& s : spans) {
    const double total = s.end_us - s.start_us;
    LayerTime& layer = layers[s.name];
    layer.total_us += total;
    layer.self_us += total - covered_us(std::move(children[s.id]), s.start_us, s.end_us);
    ++layer.count;
  }
  return layers;
}

}  // namespace perfbench
