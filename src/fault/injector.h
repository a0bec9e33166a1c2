#ifndef AURORA_FAULT_INJECTOR_H_
#define AURORA_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "fault/fault_plan.h"
#include "ha/upstream_backup.h"
#include "obs/metrics.h"

namespace aurora {

struct InjectorOptions {
  /// Seeds the overlay's chaos RNG before any event applies, so two runs of
  /// the same plan + seed replay bit-for-bit.
  uint64_t seed = 1;
  /// When set, the injector wires MTTD/MTTR instrumentation through the
  /// manager's failure/recovery observers (crash time is only known here).
  HaManager* ha = nullptr;
};

/// \brief Applies a FaultPlan to a running Aurora* system.
///
/// Arm() schedules every plan event on the deterministic simulation:
/// crashes call StreamNode::Crash (down + volatile-state wipe), restarts
/// re-join the overlay, partitions/heals flip both directions of a link
/// (routes recompute), perturbations install seeded per-link drop/dup/
/// reorder probabilities, and slowdowns scale a node's CPU multiplier.
/// Each applied event is counted, mirrored into the metrics registry
/// (fault.* counters, fault.mttd_ms / fault.mttr_ms histograms), and — when
/// tracing is on — recorded as a SpanKind::kFault system span.
class Injector {
 public:
  Injector(AuroraStarSystem* system, FaultPlan plan, InjectorOptions opts = {});

  /// Seeds the chaos RNG and schedules all plan events. Call once, before
  /// running the simulation past the plan's first event time.
  Status Arm();

  const FaultPlan& plan() const { return plan_; }

  // ---- Statistics --------------------------------------------------------

  int crashes() const { return crashes_; }
  int restarts() const { return restarts_; }
  int partitions() const { return partitions_; }
  int heals() const { return heals_; }
  int perturbations() const { return perturbations_; }
  int slowdowns() const { return slowdowns_; }
  /// Tuples wiped from crashed nodes' volatile buffers, summed.
  uint64_t tuples_lost() const { return tuples_lost_; }
  /// Detection latencies (crash -> HA detection) observed so far, in ms.
  const std::vector<double>& mttd_ms() const { return mttd_ms_; }
  /// Recovery latencies (crash -> HA recovery complete), in ms.
  const std::vector<double>& mttr_ms() const { return mttr_ms_; }

 private:
  void Apply(const FaultEvent& ev);
  void RecordFaultSpan(const FaultEvent& ev);

  AuroraStarSystem* system_;
  FaultPlan plan_;
  InjectorOptions opts_;
  bool armed_ = false;
  /// When each node last crashed (MTTD/MTTR baselines).
  std::map<NodeId, SimTime> crash_time_;
  int crashes_ = 0;
  int restarts_ = 0;
  int partitions_ = 0;
  int heals_ = 0;
  int perturbations_ = 0;
  int slowdowns_ = 0;
  uint64_t tuples_lost_ = 0;
  std::vector<double> mttd_ms_;
  std::vector<double> mttr_ms_;
  Counter* m_crashes_;
  Counter* m_restarts_;
  Counter* m_partitions_;
  Counter* m_heals_;
  Counter* m_perturbations_;
  Counter* m_slowdowns_;
  Counter* m_tuples_lost_;
  LatencyHistogram* m_mttd_ms_;
  LatencyHistogram* m_mttr_ms_;
  /// Guards the scheduled plan events and the HA observers.
  Liveness liveness_;
};

}  // namespace aurora

#endif  // AURORA_FAULT_INJECTOR_H_
