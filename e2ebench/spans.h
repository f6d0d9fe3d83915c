// Wall-clock spans recorded at the benchmark's call boundaries into
// libfastiov: name, start, end and parent, kept in memory and written out as
// a Chrome trace when the benchmark ends. Spans nest strictly and are opened
// and closed on the main thread only, so a span's self time is its duration
// minus the durations of its direct children.
#ifndef E2EBENCH_SPANS_H_
#define E2EBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/stats/json_writer.h"

namespace fastiov::e2e {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = -1;  // -1 while open
  };

  int Begin(std::string name) {
    spans_.push_back(Span{std::move(name), open_, NowNs(), -1});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }

  void End(int id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    open_ = spans_[static_cast<size_t>(id)].parent;
  }

  // Summed duration of every closed span with this name.
  double TotalSeconds(const std::string& name) const {
    int64_t ns = 0;
    for (const Span& s : spans_) {
      if (s.name == name && s.end_ns >= 0) {
        ns += s.end_ns - s.start_ns;
      }
    }
    return static_cast<double>(ns) * 1e-9;
  }

  // Self seconds per span name: duration minus direct children's durations.
  std::map<std::string, double> SelfSeconds() const {
    std::vector<int64_t> self(spans_.size(), 0);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const int64_t dur = s.end_ns - s.start_ns;
      self[i] += dur;
      if (s.parent >= 0) {
        self[static_cast<size_t>(s.parent)] -= dur;
      }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
    }
    return out;
  }

  // Chrome trace ("X" complete events, microseconds). `run_id` tags every
  // span so traces from several reps can be told apart when merged.
  void WriteChromeTrace(std::ostream& os, int64_t run_id) const {
    JsonWriter json(os);
    json.BeginObject();
    json.Key("traceEvents");
    json.BeginArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json.BeginObject()
          .KV("name", s.name)
          .KV("cat", Layer(s.name))
          .KV("ph", "X")
          .KV("ts", static_cast<double>(s.start_ns) * 1e-3)
          .KV("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
          .KV("pid", run_id)
          .KV("tid", static_cast<int64_t>(1));
      json.Key("args");
      json.BeginObject()
          .KV("id", static_cast<int64_t>(i))
          .KV("parent", static_cast<int64_t>(s.parent))
          .KV("run_id", run_id)
          .EndObject();
      json.EndObject();
    }
    json.EndArray();
    json.KV("displayTimeUnit", "ms");
    json.EndObject();
    os << "\n";
  }

 private:
  // "experiments.cell_begin" -> "experiments"; names without a dot are their
  // own layer.
  static std::string Layer(const std::string& name) {
    return name.substr(0, name.find('.'));
  }

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

// Opens a span for the lifetime of the scope (closed on exception too).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name)
      : recorder_(recorder), id_(recorder.Begin(std::move(name))) {}
  ~ScopedSpan() { recorder_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int id_;
};

}  // namespace fastiov::e2e

#endif  // E2EBENCH_SPANS_H_
