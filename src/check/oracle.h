#ifndef AURORA_CHECK_ORACLE_H_
#define AURORA_CHECK_ORACLE_H_

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "distributed/deployment.h"

namespace aurora {

/// Output name -> canonical rows, in emission order.
using OutputRows = std::map<std::string, std::vector<std::string>>;

/// A tuple's field values, '|'-joined: the row form the checkers compare.
std::string CanonicalRow(const Tuple& t);

/// Writes one `<label> <output> rows=<n> hash=<16 hex digits>` line per
/// output. The hash is FNV-1a over the rows, so the line is sensitive to
/// content, not just to the row count.
void WriteOutputLines(std::ostream& os, const char* label,
                      const OutputRows& outputs);

/// Exact comparison of one output's rows with the oracle's: empty when they
/// are equal, else "output '<name>': <label> <n> rows vs oracle <m>, first
/// divergence at row <k>" followed by the two rows found there.
std::string ExactDiff(const std::string& name, const char* label,
                      const std::vector<std::string>& got,
                      const std::vector<std::string>& oracle);

/// The reference run the checkers diff against: `query` deployed on one
/// AuroraEngine with default options (scalar, batch 1), each tuple of
/// `trace` pushed into input "src" at its own timestamp, then run to
/// quiescence.
struct OracleRun {
  /// Rows of every output of the query; empty for an output that emitted
  /// nothing.
  OutputRows rows;
  /// OK, or why the oracle failed.
  Status status;
  /// The step that failed: "deploy", "push" or "run".
  std::string failed_step;
};
OracleRun RunOracle(const GlobalQuery& query, const std::vector<Tuple>& trace);

}  // namespace aurora

#endif  // AURORA_CHECK_ORACLE_H_
