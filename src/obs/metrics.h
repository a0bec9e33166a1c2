#ifndef AURORA_OBS_METRICS_H_
#define AURORA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace aurora {

/// \brief Monotonic event count (tuples processed, bytes on a link, ...).
///
/// Counters only grow between registry resets; rates are derived by
/// differencing two snapshots. Increments are relaxed atomics so worker
/// threads can share a counter; totals are exact, only cross-counter
/// ordering is unspecified mid-run.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Point-in-time level (queue depth, utilization). Tracks the maximum
/// ever set, which is the metric's high-water mark. Set/Add are atomic
/// (relaxed; Add and the high-water mark use CAS loops), so concurrent
/// writers never tear a double — though a gauge written by racing threads is
/// last-writer-wins by nature.
class Gauge {
 public:
  void Set(double v) {
    value_.store(v, std::memory_order_relaxed);
    RaiseMax(v);
  }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
    RaiseMax(cur + delta);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  /// High-water mark since the last reset.
  double max() const { return max_.load(std::memory_order_relaxed); }
  void Reset() {
    value_.store(0.0, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
  }

 private:
  void RaiseMax(double v) {
    double m = max_.load(std::memory_order_relaxed);
    while (v > m &&
           !max_.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<double> value_{0.0};
  std::atomic<double> max_{0.0};
};

/// \brief Log-bucketed histogram for latency-like positive values.
///
/// Buckets grow geometrically from `min_bound` by `growth`, so quantile
/// queries have bounded relative error (≤ growth-1 before intra-bucket
/// interpolation) over many orders of magnitude at O(#buckets) memory.
/// Exact count/sum/min/max are kept alongside, so mean() and Quantile(1.0)
/// are exact.
class LatencyHistogram {
 public:
  explicit LatencyHistogram(double min_bound = 1e-3, double growth = 1.15);

  void Record(double v) { RecordN(v, 1); }
  /// Exactly equivalent to calling Record(v) `n` times, with the log-based
  /// bucket search done once. The sum still accumulates term by term, so
  /// every derived stat (mean, quantiles, dump bytes) stays bit-identical
  /// to the per-call sequence — callers batch purely to amortize cost.
  void RecordN(double v, uint64_t n);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  /// Value at quantile q in [0, 1], linearly interpolated within the
  /// containing bucket and clamped to the observed [min, max]. Monotone in
  /// q by construction (p50 <= p95 <= p99 <= max). 0 when empty.
  double Quantile(double q) const;

  void Reset();

 private:
  /// Bucket index for a value; bucket 0 holds everything below min_bound_.
  size_t BucketIndex(double v) const;
  /// Lower/upper value bounds of a bucket.
  double BucketLo(size_t idx) const;
  double BucketHi(size_t idx) const;

  double min_bound_;
  double growth_;
  double inv_log_growth_;
  /// The last value bucketed and its bucket. Samples repeat often (a box's
  /// per-tuple cost, a chunk's queue wait), and the bucket is a pure
  /// function of the value, so the memo skips the log without changing any
  /// stat. NaN, which equals nothing, until the first sample.
  double last_value_ = std::numeric_limits<double>::quiet_NaN();
  size_t last_bucket_ = 0;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// \brief Process-wide named-metric registry (the single source of truth the
/// benches and EXPERIMENTS.md numbers come from).
///
/// Names are dotted paths, `layer.entity.metric` (see docs/OBSERVABILITY.md
/// for the scheme). Get* registers on first use and returns a pointer that
/// stays valid for the registry's lifetime — hot paths cache the pointer
/// once and pay one add per event. Reset() zeroes values but keeps
/// registrations, so cached pointers survive (benches reset between runs).
///
/// Counters, gauges, and histograms are separate namespaces. Registration
/// (Get*/Find*), Reset, and the snapshot exporters are mutex-guarded so the
/// threaded engine's workers can register and bump counters/gauges
/// concurrently; histogram Record() is NOT thread-safe and stays confined to
/// the single-threaded simulation path. The raw map accessors below bypass
/// the lock and require a quiescent registry (no concurrent registration).
class MetricsRegistry {
 public:
  /// The process-wide instance every instrumented layer reports into.
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetHistogram(const std::string& name);

  /// Lookup without registering; nullptr when absent.
  const Counter* FindCounter(const std::string& name) const;
  /// Counter value without registering; 0 when absent. Invariant checks
  /// (src/check) reconcile ground-truth tallies against these.
  uint64_t CounterValue(const std::string& name) const {
    const Counter* c = FindCounter(name);
    return c == nullptr ? 0 : c->value();
  }
  const Gauge* FindGauge(const std::string& name) const;
  const LatencyHistogram* FindHistogram(const std::string& name) const;

  size_t num_metrics() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Read-only iteration over registrations (exporters and the
  /// snapshot-diff helper; see obs/snapshot_diff.h).
  const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, std::unique_ptr<LatencyHistogram>>& histograms()
      const {
    return histograms_;
  }

  /// Zeroes every metric, keeping registrations (and pointers) intact.
  void Reset();

  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {...}}, names sorted. Histograms export count, sum, min,
  /// max, mean, p50, p95, p99.
  std::string SnapshotJson() const;

  /// Flat CSV, one `name,type,field,value` row per exported field — the
  /// timeseries-friendly format (append a run/time column downstream).
  std::string SnapshotCsv() const;

 private:
  /// Guards the registration maps (not the metric values themselves, which
  /// carry their own atomics). Snapshots hold it for the whole export so a
  /// mid-snapshot registration can't invalidate iteration.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace aurora

#endif  // AURORA_OBS_METRICS_H_
