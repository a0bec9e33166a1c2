#ifndef AURORA_OBS_TRACE_H_
#define AURORA_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/attribution.h"
#include "obs/metrics.h"

namespace aurora {

/// Lifecycle stages a traced tuple passes through. Load-movement events
/// (box slides/splits) are recorded as kMigration spans with trace_id 0 —
/// they belong to the system timeline, not to one tuple. kCreditWait is
/// recorded both per tuple (a batch held in a node's pending buffer for
/// downstream credit) and as trace-0 system spans (a transport stream's
/// credit-stall window).
enum class SpanKind : uint8_t {
  kEnqueue,       ///< tuple entered an engine input (PushInput)
  kBoxExec,       ///< a box consumed the tuple during an activation
  kTransportHop,  ///< tuple arrived at a node over a transport stream
  kDelivery,      ///< tuple reached an application output port
  kMigration,     ///< a box slide/split reconfigured the network
  kFault,         ///< an injected fault event or a detection/recovery step
  kCreditWait,    ///< waited out a credit-blocked (back-pressured) spell
  kShed,          ///< the load shedder dropped the tuple at an input
  kStorage,       ///< a tiered-store stall window (fsync, compaction)
};
constexpr int kNumSpanKinds = 9;

const char* SpanKindName(SpanKind kind);
/// Inverse of SpanKindName. Returns false (leaving *out untouched) for an
/// unknown name; tests/obs/trace_test.cc round-trips every enum value so
/// the two can never drift apart.
bool SpanKindFromName(const std::string& name, SpanKind* out);

/// One event on a tuple's lineage, keyed by simulated time.
struct TraceSpan {
  uint64_t trace_id = 0;  ///< 0 = system-level span (migrations)
  SpanKind kind = SpanKind::kEnqueue;
  /// Overlay node the span executed on; -1 for a standalone engine.
  int node = -1;
  /// Where within the node: "in:<input>", "box:<kind>", "stream:<input>",
  /// "out:<output>", "slide:<box>:<src>-><dst>", "shed:in:<input>",
  /// "credit:<stream>".
  std::string site;
  int64_t start_us = 0;  ///< sim-time the stage began
  int64_t end_us = 0;    ///< sim-time it finished (== start for events)
};

/// \brief Process-wide per-tuple lineage recorder and flight-data source.
///
/// Disabled by default so the hot paths pay one predictable branch; when
/// enabled, the engine assigns each *sampled* source tuple a fresh trace id
/// (carried across operators and over the wire via Tuple::trace_id) and
/// every layer appends spans here. Spans are recorded in simulation-event
/// order, so a tuple's spans are already causally ordered; SpansFor
/// additionally sorts by start time (stable) as a belt-and-braces
/// guarantee.
///
/// Storage is a fixed-capacity ring: the newest `capacity` spans are kept,
/// older ones are evicted and counted in dropped() and the registry counter
/// `trace.spans_dropped` — always-on tracing in long runs holds a bounded
/// window of recent history (the flight recorder's source) instead of
/// growing without bound. Every span still feeds the LatencyAttributor
/// before eviction, so stage attribution is exact regardless of ring size.
///
/// Environment knobs, read once at first Global() use (docs/OBSERVABILITY.md):
///   AURORA_TRACE=1           enable tracing at startup
///   AURORA_TRACE_CAPACITY=N  ring capacity in spans (default 1<<20)
///   AURORA_TRACE_SAMPLE=N    trace every Nth source tuple (default 1)
///
/// Thread-safety: env-knob init happens inside Global()'s magic static
/// (synchronized by the C++ runtime), id issuance is atomic, and the ring,
/// attributor, and exports are mutex-guarded, so threaded-engine workers may
/// record concurrently. Span *order* under concurrent recording reflects
/// lock-acquisition order — a documented nondeterminism class of threaded
/// mode. The attribution() accessor hands out unguarded state and stays
/// single-threaded-only.
class Tracer {
 public:
  static Tracer& Global();

  Tracer();

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Lineage id for a new source tuple: a fresh nonzero id when the tuple
  /// falls on the sampling grid, 0 (= untraced) otherwise. Sampling is
  /// keyed off a monotone issuance counter, so it is deterministic under a
  /// fixed workload regardless of ring capacity.
  uint64_t NewTrace();
  /// Fresh nonzero tuple lineage id, bypassing sampling.
  uint64_t NextTraceId() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Every Nth source tuple gets a trace id (1 = all, the default).
  void set_sample_period(uint64_t n) {
    sample_period_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  }

  /// Stores the span (no-op while disabled; evicts the oldest at capacity).
  void Record(TraceSpan span);

  /// Ring capacity in spans. Changing it keeps the newest spans that fit
  /// and is safe at any time (Clear not required).
  void set_capacity(size_t capacity);
  size_t capacity() const {
    std::lock_guard<std::mutex> lock(mu_);
    return capacity_;
  }
  /// Spans evicted (or rejected at capacity 0) since the last Clear.
  uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.size();
  }
  /// Retained spans, oldest first (record order).
  std::vector<TraceSpan> SnapshotSpans() const;
  /// The newest `max_spans` retained spans, oldest first.
  std::vector<TraceSpan> TailSpans(size_t max_spans) const;
  /// All retained spans of one tuple, stably sorted by start_us (record
  /// order breaks ties, which is causal order in the simulation).
  std::vector<TraceSpan> SpansFor(uint64_t trace_id) const;

  /// Stage-attribution state fed by Record (see obs/attribution.h).
  /// Unguarded reference — callers must be single-threaded (the sim engine)
  /// or externally quiescent.
  LatencyAttributor& attribution() { return attributor_; }
  const LatencyAttributor& attribution() const { return attributor_; }

  /// Drops recorded spans, attribution state, and the dropped counter;
  /// trace ids stay monotonic.
  void Clear();

  /// JSON array of span objects, oldest first.
  std::string ExportJson() const;
  /// CSV timeseries: trace_id,kind,node,site,start_us,end_us per row.
  std::string ExportCsv() const;

 private:
  /// Index into ring_ of the i-th oldest retained span.
  size_t RingIndex(size_t i) const {
    return full_ ? (head_ + i) % ring_.size() : i;
  }
  /// SnapshotSpans body; caller holds mu_.
  std::vector<TraceSpan> SnapshotSpansLocked() const;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> issued_{0};
  std::atomic<uint64_t> sample_period_{1};
  /// Guards the ring (and its bookkeeping), dropped_, and the attributor.
  mutable std::mutex mu_;
  size_t capacity_ = 1 << 20;
  uint64_t dropped_ = 0;
  /// Ring storage: grows up to capacity_, then wraps. head_ is the next
  /// write position == the oldest span once full.
  std::vector<TraceSpan> ring_;
  size_t head_ = 0;
  bool full_ = false;
  Counter* m_spans_dropped_;
  Counter* m_spans_sampled_out_;
  LatencyAttributor attributor_;
};

}  // namespace aurora

#endif  // AURORA_OBS_TRACE_H_
