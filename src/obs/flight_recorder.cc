#include "obs/flight_recorder.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace aurora {

namespace {

/// Spans from the tail of the tracer ring per dump.
constexpr size_t kDumpSpans = 256;

/// Escapes a free-text field for embedding in a JSON string literal.
void AppendEscaped(std::ostringstream* os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *os << "\\\"";
        break;
      case '\\':
        *os << "\\\\";
        break;
      case '\n':
        *os << "\\n";
        break;
      case '\t':
        *os << "\\t";
        break;
      default:
        *os << c;
        break;
    }
  }
}

}  // namespace

FlightRecorder::FlightRecorder() = default;

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = [] {
    FlightRecorder* r = new FlightRecorder();
    const char* v = std::getenv("AURORA_FLIGHT_RECORDER");
    if (v != nullptr && *v != '\0' && *v != '0') r->set_enabled(true);
    return r;
  }();
  return *recorder;
}

bool FlightRecorder::Trigger(const std::string& event,
                             const std::string& detail, int64_t now_us) {
  if (!enabled()) return false;
  // Claim the latch and a dump sequence number atomically; the dump itself
  // is built outside the lock (Tracer and MetricsRegistry synchronize
  // internally) so racing triggers of *different* events don't serialize on
  // file IO.
  uint64_t seq;
  std::string output_dir;
  Sink sink;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!fired_.insert(event).second) return false;  // latched until Rearm
    seq = dumps_++;
    output_dir = output_dir_;
    sink = sink_;
  }

  Tracer& tracer = Tracer::Global();
  std::vector<TraceSpan> spans = tracer.TailSpans(kDumpSpans);
  if (now_us < 0 && !spans.empty()) now_us = spans.back().end_us;

  std::ostringstream os;
  os << "{\n  \"event\": \"";
  AppendEscaped(&os, event);
  os << "\",\n  \"detail\": \"";
  AppendEscaped(&os, detail);
  os << "\",\n  \"seq\": " << seq << ",\n  \"sim_time_us\": " << now_us
     << ",\n  \"spans_dropped\": " << tracer.dropped() << ",\n  \"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"trace_id\": " << s.trace_id << ", \"kind\": \""
       << SpanKindName(s.kind) << "\", \"node\": " << s.node
       << ", \"site\": \"";
    AppendEscaped(&os, s.site);
    os << "\", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us
       << "}";
  }
  os << (spans.empty() ? "]" : "\n  ]") << ",\n  \"metrics\": "
     << MetricsRegistry::Global().SnapshotJson() << "\n}\n";

  std::string path = output_dir.empty()
                         ? "obs_flight_" + event + ".json"
                         : output_dir + "/obs_flight_" + event + ".json";
  if (sink) {
    sink(path, os.str());
    return true;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << os.str();
  AURORA_LOG(Info) << "flight recorder: " << event << " (" << detail
                   << ") -> " << path;
  return true;
}

}  // namespace aurora
