// In-memory spans recorded by the benchmark around its calls into the
// library's public layer functions. A span has a name, a start and end
// time, the span that caused it and the request it belongs to. Spans stay
// in memory during the run and are written out once at the end; a
// layer's self time is its span's duration minus its children's.
//
// One Tracer per thread: no locking on the hot path. A disabled tracer
// records nothing, so untraced runs pay one branch per call site.

#ifndef CQABENCH_TRACE_H_
#define CQABENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace cqabench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the same tracer, -1 = root
  std::int64_t request = -1;
  std::int64_t child_ns = 0;  // summed duration of direct children

  std::int64_t self_ns() const { return end_ns - start_ns - child_ns; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its handle (-1 when disabled).
  std::int64_t begin(const char* name, std::int64_t parent,
                     std::int64_t request) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, now_ns(), 0, parent, request, 0});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// Closes a span; returns its duration in ns (0 when disabled).
  std::int64_t end(std::int64_t handle) {
    if (handle < 0) return 0;
    Span& s = spans_[static_cast<std::size_t>(handle)];
    s.end_ns = now_ns();
    const std::int64_t dur = s.end_ns - s.start_ns;
    if (s.parent >= 0) {
      spans_[static_cast<std::size_t>(s.parent)].child_ns += dur;
    }
    return dur;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction or close().
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, std::int64_t parent,
             std::int64_t request)
      : tracer_(t), handle_(t->begin(name, parent, request)) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t handle() const { return handle_; }
  /// Closes the span once; returns its duration in ns.
  std::int64_t close() {
    if (closed_) return dur_;
    closed_ = true;
    dur_ = tracer_->end(handle_);
    return dur_;
  }

 private:
  Tracer* tracer_;
  std::int64_t handle_;
  bool closed_ = false;
  std::int64_t dur_ = 0;
};

struct SelfTime {
  std::uint64_t count = 0;
  std::int64_t self_ns = 0;
};

/// Per-name span count and summed self time over every tracer's spans.
inline std::map<std::string, SelfTime> self_times(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, SelfTime> out;
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans()) {
      SelfTime& a = out[s.name];
      ++a.count;
      a.self_ns += s.self_ns();
    }
  }
  return out;
}

/// Writes every span as one JSON document: {"spans": [[thread, id,
/// parent, request, name, start_ns, end_ns], ...]}.
inline bool write_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"spans\": [", f);
  bool first = true;
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    const auto& spans = tracers[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%s\n[%zu, %zu, %lld, %lld, \"%s\", %lld, %lld]",
                   first ? "" : ",", t, i, static_cast<long long>(s.parent),
                   static_cast<long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace cqabench

#endif  // CQABENCH_TRACE_H_
