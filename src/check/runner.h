#ifndef AURORA_CHECK_RUNNER_H_
#define AURORA_CHECK_RUNNER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "check/oracle.h"
#include "check/scenario.h"

namespace aurora {

struct RunOptions {
  /// Engine batch_size for every federation node (the ProcessBatch path;
  /// see EngineOptions::batch_size). The oracle always runs scalar
  /// (batch_size 1), so with >1 this diffs the batched path against the
  /// scalar one on top of the distributed-vs-oracle diff.
  int batch_size = 1;
};

/// Everything one scenario execution produced. Deterministic: running the
/// same spec twice yields byte-identical Summary() text.
struct RunReport {
  uint64_t injected = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t delivered = 0;
  uint64_t duplicates = 0;
  bool drained = false;
  /// Oracle diff was skipped (lossy run through stateful operators —
  /// documented nondeterminism, outputs are not comparable).
  bool diff_skipped = false;
  std::vector<Violation> violations;
  /// Canonical rows per output from the distributed run and the oracle.
  OutputRows outputs;
  OutputRows oracle_outputs;

  bool ok() const { return violations.empty(); }
  std::string Summary() const;
};

/// Executes the scenario end to end: deploys its query over a simulated
/// Aurora* federation, injects the trace under the fault plan with the
/// invariant monitor attached, drains (for up to 30 simulated seconds past
/// the trace end), then replays the accepted input through the single-node
/// oracle (RunOracle) and diffs the outputs.
RunReport RunScenario(const ScenarioSpec& spec, const RunOptions& opts = {});

}  // namespace aurora

#endif  // AURORA_CHECK_RUNNER_H_
