#ifndef AURORA_HA_UPSTREAM_BACKUP_H_
#define AURORA_HA_UPSTREAM_BACKUP_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "distributed/deployment.h"
#include "fault/failure_detector.h"

namespace aurora {

/// Queue-truncation protocols of §6.2.
enum class TruncationMethod {
  /// Flow messages: the downstream server computes the earliest tuple it
  /// still depends on and reports it upstream on a back channel (one
  /// message per stream per round).
  kFlowMessages,
  /// Sequence-number arrays: the upstream server polls the downstream's
  /// dependency array (two messages per stream per round: query+response),
  /// and may truncate at its own convenience.
  kSeqArrays,
};

struct HaOptions {
  SimDuration heartbeat_interval = SimDuration::Millis(50);
  /// Silence longer than this marks the downstream neighbour failed (§6.3).
  SimDuration failure_timeout = SimDuration::Millis(250);
  /// Consecutive silent detector rounds before declaring (see
  /// FailureDetectorOptions::suspicion_threshold). Raise above 1 to ride out
  /// heartbeat loss on chaos-perturbed links.
  int suspicion_threshold = 1;
  SimDuration checkpoint_interval = SimDuration::Millis(100);
  TruncationMethod method = TruncationMethod::kFlowMessages;
  /// Recover automatically on detection; otherwise callers invoke
  /// RecoverNode themselves.
  bool auto_recover = true;
};

/// \brief Upstream-backup high availability (paper §6, Fig. 8).
///
/// Each server retains the tuples it sent downstream in per-stream output
/// logs; logs are truncated when the downstream confirms (via flow-message
/// back-channels or polled sequence arrays) that it no longer depends on
/// them — neither in its queues, nor in box state, nor in its own not-yet-
/// confirmed outputs. This cascaded truncation rule (a tuple is discarded
/// only when every tuple derived from it is confirmed safe at the next
/// level) holds logs at every hop, so any prefix of k failed servers is
/// recoverable (§6.2 k-safety). On failure (detected by heartbeat silence,
/// §6.3) the upstream backup re-instantiates the failed server's query
/// pieces locally and reprocesses its output log, "emulating the processing
/// of the failed server". A manager may be destroyed before the simulation: its timers
/// and the protocol messages it has in flight are guarded by its lifetime.
class HaManager {
 public:
  /// Observes failure detections / completed recoveries (fault injection
  /// wires MTTD/MTTR instrumentation through these).
  using FailureObserver =
      std::function<void(NodeId failed, NodeId watcher, SimTime detected_at)>;
  using RecoveryObserver =
      std::function<void(NodeId failed, NodeId backup, SimTime recovered_at)>;

  HaManager(AuroraStarSystem* system, HaOptions opts)
      : system_(system),
        opts_(opts),
        detector_(FailureDetectorOptions{opts.failure_timeout,
                                         opts.suspicion_threshold}) {}

  /// Enables log retention on every current remote binding and starts the
  /// checkpoint and heartbeat timers. `deployed`/`query` describe the query
  /// so recovery can re-instantiate pieces.
  Status Protect(DeployedQuery* deployed, const GlobalQuery* query);

  /// One truncation round over all protected bindings (also runs on the
  /// checkpoint timer).
  void RunCheckpointRound();

  /// Earliest sequence number (in `input_name`'s stream space) the node
  /// still depends on: minimum over queued/held tuples downstream of the
  /// input, stateful box dependencies, and the node's unconfirmed outputs.
  /// kNoSeqNo when nothing is needed any more.
  SeqNo ComputeEarliestNeeded(StreamNode& node,
                              const std::string& input_name) const;

  /// Crashes a node (test hook). Detection still happens via heartbeat
  /// silence.
  void CrashNode(NodeId node);

  /// Re-instantiates the failed node's query pieces on `backup` and
  /// replays the relevant output logs (§6.3). Normally invoked by the
  /// failure detector with backup = the failed node's upstream neighbour.
  Status RecoverNode(NodeId failed, NodeId backup);

  void SetFailureObserver(FailureObserver observer) {
    on_failure_ = std::move(observer);
  }
  void SetRecoveryObserver(RecoveryObserver observer) {
    on_recovery_ = std::move(observer);
  }

  const HeartbeatFailureDetector& detector() const { return detector_; }

  // ---- Statistics --------------------------------------------------------

  uint64_t checkpoint_messages() const { return checkpoint_messages_; }
  uint64_t heartbeat_messages() const { return heartbeat_messages_; }
  uint64_t truncated_tuples() const { return truncated_tuples_; }
  uint64_t replayed_tuples() const { return replayed_tuples_; }
  int failures_detected() const { return failures_detected_; }
  int recoveries() const { return recoveries_; }
  /// Total tuples currently retained in output logs across the system.
  size_t TotalRetainedTuples() const;

 private:
  struct BindingRef {
    NodeId src;
    std::string output_name;  // key into src's bindings map
  };

  void StartTimers();
  void HeartbeatRound();
  void CheckFailures();
  /// All (src node, output) bindings currently pointing at `dst`.
  std::vector<BindingRef> BindingsInto(NodeId dst) const;

  AuroraStarSystem* system_;
  HaOptions opts_;
  DeployedQuery* deployed_ = nullptr;
  const GlobalQuery* query_ = nullptr;
  bool protected_ = false;
  /// Shared heartbeat detector (src/fault): each upstream watcher's pair is
  /// (re)armed when its binding is first seen, granting a full timeout's
  /// grace; live heartbeats refute suspicion.
  HeartbeatFailureDetector detector_;
  std::set<NodeId> known_failed_;
  FailureObserver on_failure_;
  RecoveryObserver on_recovery_;
  uint64_t checkpoint_messages_ = 0;
  uint64_t heartbeat_messages_ = 0;
  uint64_t truncated_tuples_ = 0;
  uint64_t replayed_tuples_ = 0;
  int failures_detected_ = 0;
  int recoveries_ = 0;
  /// Guards the timers and the protocol messages in flight.
  Liveness liveness_;
};

}  // namespace aurora

#endif  // AURORA_HA_UPSTREAM_BACKUP_H_
