#ifndef AURORA_CHECK_INVARIANTS_H_
#define AURORA_CHECK_INVARIANTS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check/scenario.h"
#include "distributed/aurora_star.h"
#include "fault/failure_detector.h"

namespace aurora {

/// One observed invariant breach. `invariant` is a stable machine-readable
/// kind (the shrinker preserves it while minimizing); `detail` is for
/// humans.
struct Violation {
  SimTime at{};
  std::string invariant;
  std::string detail;
};

/// \brief Standing correctness conditions checked while a scenario runs.
///
/// Installed on a live AuroraStarSystem before the simulation starts, the
/// monitor watches:
///  - per-stream FIFO and exactly-once delivery (via StreamNode delivery
///    probes; "duplicate_delivery" / "fifo_reorder"),
///  - bounded sender queues and credit conservation under flow control,
///    every check tick ("queue_bound" / "credit_overdraft" /
///    "credit_shrink"),
///  - heartbeat failure-detector convergence: suspected == actually down
///    once the plan's faults have healed ("detector_divergence"),
/// and at the end of a drained healthy run:
///  - tuple conservation per remote binding, reconciled against the obs
///    metrics registry ("conservation" / "obs_reconcile"),
///  - queue high-water marks ("queue_bound"),
///  - drain itself — a healthy plan that cannot quiesce is a bug ("drain").
class InvariantMonitor {
 public:
  InvariantMonitor(Simulation* sim, OverlayNetwork* net,
                   AuroraStarSystem* system, const ScenarioSpec& spec);

  /// Hooks delivery probes and starts the periodic check + heartbeat
  /// timers. Call once, before the simulation runs.
  void Install();

  /// True when every engine, binding buffer, and transport queue is empty
  /// and no node reports flow blockage — the system cannot make further
  /// progress without new input.
  bool Quiescent() const;

  /// True when the failure detector's suspicion set matches ground truth
  /// (every down node suspected, every up node not).
  bool Converged() const;

  /// End-of-run checks. `drained` reports whether the run reached
  /// quiescence; end-state conservation is only meaningful when it did.
  void Finalize(bool drained);

  const std::vector<Violation>& violations() const { return violations_; }
  /// Tuples delivered across all streams (dedup-passed deliveries).
  uint64_t delivered_tuples() const { return delivered_; }
  /// Deliveries suppressed as duplicates across all streams.
  uint64_t duplicate_tuples() const { return duplicates_; }

 private:
  struct StreamView {
    std::set<SeqNo> seen;
    SeqNo last = 0;
    uint64_t delivered = 0;
    uint64_t duplicates = 0;
  };

  void OnDelivery(NodeId node, const std::string& stream, const Tuple& t,
                  bool duplicate);
  void PeriodicCheck();
  void HeartbeatTick();
  void Report(const std::string& invariant, const std::string& detail);
  /// Sender queue-byte allowance toward one peer carrying `streams` arcs.
  size_t QueueAllowance(size_t streams) const;

  Simulation* sim_;
  OverlayNetwork* net_;
  AuroraStarSystem* system_;
  const ScenarioSpec& spec_;
  HeartbeatFailureDetector detector_;
  std::map<std::pair<NodeId, std::string>, StreamView> streams_;
  /// Last observed credit limit per (node, peer, stream): grants must be
  /// cumulative and monotone.
  std::map<std::pair<std::pair<NodeId, NodeId>, std::string>, uint64_t>
      credit_seen_;
  std::vector<Violation> violations_;
  std::map<std::string, int> reported_;  // per-kind cap
  uint64_t delivered_ = 0;
  uint64_t duplicates_ = 0;
  /// Guards the timers, heartbeats in flight and the delivery probes.
  Liveness liveness_;
};

}  // namespace aurora

#endif  // AURORA_CHECK_INVARIANTS_H_
