#ifndef AURORA_CHECK_THREADED_CHECK_H_
#define AURORA_CHECK_THREADED_CHECK_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/oracle.h"
#include "check/scenario.h"

namespace aurora {

/// Result of one threaded-vs-oracle run. Scenario chains are linear
/// (single-input boxes), so the ThreadedEngine determinism contract
/// guarantees byte-identical per-output row sequences — the diff is always
/// exact, never a lossy subsequence check.
struct ThreadedCheckReport {
  int workers = 0;
  uint64_t injected = 0;
  uint64_t activations = 0;
  uint64_t steals = 0;
  uint64_t ring_full_events = 0;
  std::vector<std::string> violations;
  /// Canonical rows per output from the threaded run and the
  /// single-threaded oracle.
  OutputRows outputs;
  OutputRows oracle_outputs;

  bool ok() const { return violations.empty(); }
  std::string Summary() const;
};

/// Deploys the scenario's query onto a ThreadedEngine with `workers`
/// threads, pushes the full generated trace from the calling thread,
/// drains, then replays the same trace through a single-threaded
/// AuroraEngine oracle and diffs every output port exactly.
///
/// The scenario's transport knobs (flow_window, dedup) and fault plan do
/// not apply — there is no network here. What this gate checks is the
/// threaded runtime itself: per-arc FIFO, exactly-once consumption, and
/// quiescence, across worker counts.
///
/// `batch_size` > 1 runs the threaded engine's ProcessBatch path
/// (ThreadedEngineOptions::batch_size); the oracle always runs scalar, so
/// this additionally gates batched+threaded against scalar+single-threaded.
ThreadedCheckReport RunThreadedScenario(const ScenarioSpec& spec,
                                        int workers, int batch_size = 1);

}  // namespace aurora

#endif  // AURORA_CHECK_THREADED_CHECK_H_
