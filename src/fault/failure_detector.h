#ifndef AURORA_FAULT_FAILURE_DETECTOR_H_
#define AURORA_FAULT_FAILURE_DETECTOR_H_

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"

namespace aurora {

struct FailureDetectorOptions {
  /// Silence longer than this makes a watched endpoint suspect (§6.3: "if a
  /// server has not heard from its downstream neighbor in a while, then it
  /// assumes that neighbor has failed").
  SimDuration timeout = SimDuration::Millis(250);
  /// Consecutive silent CheckSilence rounds (past the timeout) required
  /// before a suspicion is raised. 1 = declare on the first silent check;
  /// higher values trade detection latency for robustness to one-off
  /// heartbeat loss on a perturbed link.
  int suspicion_threshold = 1;
};

/// \brief Timeout-based heartbeat failure detector (paper §6.3).
///
/// One implementation shared by the HA layer (upstream backup watches its
/// downstream neighbours) and the Medusa layer (buyers watch the seller
/// nodes of availability-guaranteed contracts), instead of each keeping
/// private silence timers. The detector is passive: callers feed it
/// Arm/RecordHeartbeat/CheckSilence events on their own schedule, so it
/// runs entirely inside the deterministic simulation.
///
/// Endpoints are opaque ints — NodeIds for HA, any caller-chosen id space
/// elsewhere. Suspicion is tracked per *watched* endpoint (deduped across
/// watchers): one live heartbeat from any watcher refutes it.
class HeartbeatFailureDetector {
 public:
  using EndpointId = int;

  /// A (watcher, watched) pair that newly crossed the suspicion threshold.
  struct Suspicion {
    EndpointId watcher = -1;
    EndpointId watched = -1;
    /// Last time the watcher heard the watched endpoint (arm time if never).
    SimTime last_heard{};
  };

  explicit HeartbeatFailureDetector(FailureDetectorOptions opts = {})
      : opts_(opts) {}

  const FailureDetectorOptions& options() const { return opts_; }

  /// Starts watching `watched` from `watcher`, granting a full timeout's
  /// grace from `now`. No-op when the pair is already armed.
  void Arm(EndpointId watcher, EndpointId watched, SimTime now);
  /// Stops watching the pair (clean shutdown of a binding). Pending silence
  /// state is discarded so the pair can never raise a spurious suspicion.
  void Disarm(EndpointId watcher, EndpointId watched);
  /// Drops every pair watching `watched` plus its suspicion entry — called
  /// when the endpoint is decommissioned or taken over by recovery.
  void ForgetWatched(EndpointId watched);
  /// Drops every pair where `watcher` does the watching — called when the
  /// watcher itself goes down, so a dead watcher's stale silence can't
  /// convict its live neighbours.
  void ForgetWatcher(EndpointId watcher);

  bool IsArmed(EndpointId watcher, EndpointId watched) const {
    return pairs_.count({watcher, watched}) > 0;
  }
  size_t armed_pairs() const { return pairs_.size(); }

  /// A heartbeat from `watched` reached `watcher` at `now`. Arms the pair
  /// if new, resets its silence, and retracts any standing suspicion of
  /// `watched` (a live heartbeat refutes failure).
  void RecordHeartbeat(EndpointId watcher, EndpointId watched, SimTime now);

  /// Evaluates every armed pair at `now`; returns the pairs that newly
  /// became suspect this round, at most one per watched endpoint. Already-
  /// suspected endpoints are not re-reported.
  std::vector<Suspicion> CheckSilence(SimTime now);

  bool IsSuspected(EndpointId watched) const {
    return suspected_.count(watched) > 0;
  }
  /// Retracts a suspicion (e.g. after recovery re-admits the endpoint).
  void ClearSuspicion(EndpointId watched) { suspected_.erase(watched); }

  /// When the watcher last heard the watched endpoint; NotFound while the
  /// pair is not armed.
  Result<SimTime> LastHeard(EndpointId watcher, EndpointId watched) const;

  /// Total suspicions ever raised (monotonic; spurious ones included).
  uint64_t suspicions_raised() const { return suspicions_raised_; }

 private:
  struct PairState {
    SimTime last_heard{};
    int silent_checks = 0;
  };

  FailureDetectorOptions opts_;
  std::map<std::pair<EndpointId, EndpointId>, PairState> pairs_;
  std::set<EndpointId> suspected_;
  uint64_t suspicions_raised_ = 0;
};

}  // namespace aurora

#endif  // AURORA_FAULT_FAILURE_DETECTOR_H_
