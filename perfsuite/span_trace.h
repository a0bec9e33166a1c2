// In-memory span recorder for the traced run.
//
// The benchmark records a span around each call it makes into a layer of
// the system (push, run, inject, ...). Spans nest: a span begun while
// another is open becomes its child, and every span carries the trace id of
// the repetition it belongs to. Spans stay in memory and are written once,
// when the run ends. Recording is single-threaded (the benchmark's own
// thread); workers inside the system are never traced from here.
#ifndef AURORA_PERFSUITE_SPAN_TRACE_H_
#define AURORA_PERFSUITE_SPAN_TRACE_H_

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace aurora {
namespace perf {

class SpanTrace {
 public:
  struct Span {
    int name = 0;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
    uint32_t trace = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// Interned id of a span name, for call sites that open many spans.
  int Name(const std::string& name) {
    auto [it, inserted] = ids_.emplace(name, static_cast<int>(names_.size()));
    if (inserted) names_.push_back(name);
    return it->second;
  }

  /// Opens a span as a child of the innermost open span.
  int Begin(int name, uint32_t trace) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.trace = trace;
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int idx) {
    spans_[idx].end_ns = NowNs();
    if (!open_.empty() && open_.back() == idx) open_.pop_back();
  }

  /// RAII span; a null trace makes it a no-op, so call sites stay one line.
  class Scope {
   public:
    Scope(SpanTrace* trace, int name, uint32_t trace_id)
        : trace_(trace),
          idx_(trace == nullptr ? -1 : trace->Begin(name, trace_id)) {}
    Scope(SpanTrace* trace, const std::string& name, uint32_t trace_id)
        : Scope(trace, trace == nullptr ? -1 : trace->Name(name), trace_id) {}
    ~Scope() {
      if (trace_ != nullptr) trace_->End(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanTrace* trace_;
    int idx_;
  };

  /// Total duration of all spans named `name`, in ns.
  int64_t TotalNs(const std::string& name) const {
    return Sum(name, /*self=*/false);
  }
  /// Duration minus the part covered by direct children, summed over all
  /// spans named `name`, in ns. Children never overlap (one thread).
  int64_t SelfNs(const std::string& name) const {
    return Sum(name, /*self=*/true);
  }
  size_t size() const { return spans_.size(); }

  /// Writes {"workload", "seed", "names", "spans": [[name, parent, trace,
  /// start_ns, end_ns], ...], "self_ns": {...}, "metrics": {...}}.
  bool WriteJson(const std::string& path, const std::string& workload,
                 uint64_t seed, const std::vector<Metric>& metrics) const {
    std::ofstream out(path);
    if (!out) return false;
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
        << ",\n \"names\": [";
    for (size_t i = 0; i < names_.size(); ++i) {
      out << (i ? ", " : "") << "\"" << names_[i] << "\"";
    }
    out << "],\n \"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n  " : "\n  ") << "[" << s.name << ", " << s.parent
          << ", " << s.trace << ", " << s.start_ns - t0 << ", "
          << s.end_ns - t0 << "]";
    }
    out << "],\n \"self_ns\": {";
    for (size_t i = 0; i < names_.size(); ++i) {
      out << (i ? ", " : "") << "\"" << names_[i]
          << "\": " << SelfNs(names_[i]);
    }
    out << "},\n \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      out << (i ? ",\n  " : "\n  ") << "\"" << metrics[i].name
          << "\": {\"value\": " << Num(metrics[i].value) << ", \"unit\": \""
          << metrics[i].unit << "\"}";
    }
    out << "}}\n";
    return static_cast<bool>(out);
  }

 private:
  int64_t Sum(const std::string& name, bool self) const {
    auto it = ids_.find(name);
    if (it == ids_.end()) return 0;
    const int id = it->second;
    int64_t total = 0;
    for (const Span& s : spans_) {
      if (s.name == id) total += s.end_ns - s.start_ns;
    }
    if (self) {
      for (const Span& s : spans_) {
        if (s.parent >= 0 && spans_[s.parent].name == id) {
          total -= s.end_ns - s.start_ns;
        }
      }
    }
    return total;
  }

  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
};

}  // namespace perf
}  // namespace aurora

#endif  // AURORA_PERFSUITE_SPAN_TRACE_H_
