#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace aurora {

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

namespace {
/// Hard cap on bucket count: min_bound * growth^511 spans ~31 orders of
/// magnitude at the default growth, far beyond any simulated latency.
constexpr size_t kMaxBuckets = 512;
}  // namespace

LatencyHistogram::LatencyHistogram(double min_bound, double growth)
    : min_bound_(min_bound),
      growth_(growth),
      inv_log_growth_(1.0 / std::log(growth)) {}

size_t LatencyHistogram::BucketIndex(double v) const {
  if (v < min_bound_) return 0;
  double idx = std::floor(std::log(v / min_bound_) * inv_log_growth_) + 1.0;
  return std::min(kMaxBuckets - 1, static_cast<size_t>(std::max(1.0, idx)));
}

double LatencyHistogram::BucketLo(size_t idx) const {
  if (idx == 0) return 0.0;
  return min_bound_ * std::pow(growth_, static_cast<double>(idx - 1));
}

double LatencyHistogram::BucketHi(size_t idx) const {
  if (idx == 0) return min_bound_;
  return min_bound_ * std::pow(growth_, static_cast<double>(idx));
}

void LatencyHistogram::RecordN(double v, uint64_t n) {
  if (n == 0 || std::isnan(v)) return;
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  count_ += n;
  // Term-by-term, not v * n: repeated addition rounds exactly like n
  // individual Record calls would, keeping batched and scalar runs
  // byte-identical in every dumped stat.
  for (uint64_t i = 0; i < n; ++i) sum_ += v;
  if (v != last_value_) {
    last_value_ = v;
    last_bucket_ = BucketIndex(v);
  }
  if (last_bucket_ >= buckets_.size()) buckets_.resize(last_bucket_ + 1, 0);
  buckets_[last_bucket_] += n;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  // Rank of the target observation, 1-based.
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  rank = std::max<uint64_t>(1, std::min(rank, count_));
  uint64_t cum = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    if (cum + buckets_[i] >= rank) {
      // Interpolate by rank position inside the bucket.
      double frac = static_cast<double>(rank - cum) /
                    static_cast<double>(buckets_[i]);
      double v = BucketLo(i) + frac * (BucketHi(i) - BucketLo(i));
      return std::clamp(v, min_, max_);
    }
    cum += buckets_[i];
  }
  return max_;
}

void LatencyHistogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return slot.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const LatencyHistogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

namespace {

/// Metric names are restricted to identifier-ish characters plus `.`, `:`,
/// `-`, `>`, `#`, `/`; escape the two JSON-significant ones defensively.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void AppendDouble(std::ostringstream* os, double v) {
  // Plain decimal, enough digits to round-trip typical latencies.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *os << buf;
}

}  // namespace

std::string MetricsRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
       << "\": " << c->value();
    first = false;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
       << "\": {\"value\": ";
    AppendDouble(&os, g->value());
    os << ", \"max\": ";
    AppendDouble(&os, g->max());
    os << "}";
    first = false;
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
       << "\": {\"count\": " << h->count() << ", \"sum\": ";
    AppendDouble(&os, h->sum());
    os << ", \"min\": ";
    AppendDouble(&os, h->min());
    os << ", \"max\": ";
    AppendDouble(&os, h->max());
    os << ", \"mean\": ";
    AppendDouble(&os, h->mean());
    os << ", \"p50\": ";
    AppendDouble(&os, h->Quantile(0.5));
    os << ", \"p95\": ";
    AppendDouble(&os, h->Quantile(0.95));
    os << ", \"p99\": ";
    AppendDouble(&os, h->Quantile(0.99));
    os << "}";
    first = false;
  }
  os << "\n  }\n}";
  return os.str();
}

std::string MetricsRegistry::SnapshotCsv() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "name,type,field,value\n";
  for (const auto& [name, c] : counters_) {
    os << name << ",counter,value," << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    os << name << ",gauge,value,";
    AppendDouble(&os, g->value());
    os << "\n" << name << ",gauge,max,";
    AppendDouble(&os, g->max());
    os << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    os << name << ",histogram,count," << h->count() << "\n";
    const std::pair<const char*, double> fields[] = {
        {"sum", h->sum()},           {"min", h->min()},
        {"max", h->max()},           {"mean", h->mean()},
        {"p50", h->Quantile(0.5)},   {"p95", h->Quantile(0.95)},
        {"p99", h->Quantile(0.99)},
    };
    for (const auto& [field, v] : fields) {
      os << name << ",histogram," << field << ",";
      AppendDouble(&os, v);
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace aurora
