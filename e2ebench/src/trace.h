// Spans recorded by the benchmark around its calls into each layer of the
// program (workload, temporal, mr, timr, analysis, bt). Spans are kept in
// memory and written out once, as Chrome trace-event JSON, when the run ends.
// A disabled tracer records nothing, so the untraced jobs pay one branch per
// span site.

#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index of the enclosing span, -1 for a root span
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span under the innermost open one; -1 when disabled.
  int Begin(std::string name) {
    if (!enabled_) return -1;
    Span s;
    s.name = std::move(name);
    s.start_ns = Now();
    s.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = Now();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Summed duration of every closed span with this name.
  double Seconds(const std::string& name) const {
    int64_t ns = 0;
    for (const Span& s : spans_) {
      if (s.name == name && s.end_ns >= s.start_ns) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// the parent index rides in args. Returns false when the file cannot be
  /// written.
  bool WriteChromeJson(const std::string& path) const {
    std::ofstream os(path, std::ios::trunc);
    if (!os) return false;
    os << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) os << ',';
      os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
         << ",\"ts\":" << s.start_ns / 1000
         << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000
         << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    os << "]}\n";
    return static_cast<bool>(os);
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer->Begin(std::move(name))) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace e2e
