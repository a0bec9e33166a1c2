#ifndef AURORA_OBS_FLIGHT_RECORDER_H_
#define AURORA_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <string>

namespace aurora {

/// \brief Anomaly-triggered dump of the tracer's recent history.
///
/// The Tracer's ring holds a bounded window of the most recent spans; the
/// flight recorder snapshots that window — plus a full metrics snapshot —
/// the moment something anomalous happens, so the run's final artifacts
/// contain the evidence from *around the event*, not just end-of-run
/// aggregates. Trigger points (each passes its own event tag):
///
///   qos_violation   QoSMonitor: a delivery's latency utility fell below
///                   the critical knee (engine/qos_monitor.cc)
///   shed_activation LoadShedder: drop probability went zero -> nonzero
///   node_crash      StreamNode::Crash (injected or chaos-driven)
///   invariant       InvariantMonitor::Report (simcheck oracle divergence)
///
/// Each event tag fires at most once per run (first occurrence is the
/// interesting one; a violating run would otherwise dump thousands of
/// files); Rearm() resets the latch — tests and simcheck call it between
/// episodes. Dumps go to `obs_flight_<event>.json`:
///
///   {"event": ..., "detail": ..., "seq": N, "sim_time_us": T,
///    "spans_dropped": D, "spans": [...], "metrics": {...}}
///
/// Everything in the dump derives from simulation state, so two same-seed
/// runs produce byte-identical dumps (the CI gates job diffs them).
///
/// Disabled by default; enable programmatically or with
/// AURORA_FLIGHT_RECORDER=1 (read once at first Global() use, inside the
/// magic static so concurrent first use is safe). The once-per-event latch
/// and dump sequencing are mutex-guarded: when several worker threads hit
/// the same anomaly at once, exactly one claims the latch and dumps.
class FlightRecorder {
 public:
  /// Sink invoked with (path, json) per dump; the default writes the file.
  using Sink = std::function<void(const std::string& path,
                                  const std::string& json)>;

  static FlightRecorder& Global();

  FlightRecorder();

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Directory dumps are written into ("" = cwd).
  void set_output_dir(std::string dir) {
    std::lock_guard<std::mutex> lock(mu_);
    output_dir_ = std::move(dir);
  }

  /// Replaces the file-writing sink (tests capture dumps in memory).
  void set_sink(Sink sink) {
    std::lock_guard<std::mutex> lock(mu_);
    sink_ = std::move(sink);
  }

  /// Snapshots the tracer tail + metrics if `event` has not fired since the
  /// last Rearm. Returns true when a dump was produced. `detail` is free
  /// text naming the culprit (output port, stream, node id, ...); `now_us`
  /// is the simulated time of the anomaly (-1 = unknown; the newest
  /// retained span's end time is used instead).
  bool Trigger(const std::string& event, const std::string& detail,
               int64_t now_us = -1);

  /// Total dumps produced (across Rearm cycles).
  uint64_t dumps() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dumps_;
  }

  /// Clears the per-event latches so every event kind may fire again.
  void Rearm() {
    std::lock_guard<std::mutex> lock(mu_);
    fired_.clear();
  }

 private:
  std::atomic<bool> enabled_{false};
  /// Guards latch state, dump sequencing, and the sink/config fields.
  mutable std::mutex mu_;
  std::string output_dir_;
  Sink sink_;
  std::set<std::string> fired_;
  uint64_t dumps_ = 0;
};

}  // namespace aurora

#endif  // AURORA_OBS_FLIGHT_RECORDER_H_
