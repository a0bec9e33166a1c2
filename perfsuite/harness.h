// Shared plumbing for aurora_bench: options, clocks, statistics, content
// digests, the oracle comparison, and metric printing.
#ifndef AURORA_PERFSUITE_HARNESS_H_
#define AURORA_PERFSUITE_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tuple/tuple.h"

namespace aurora {
namespace perf {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Timed repetitions continue until this much wall time has passed (and
  /// at least kMinReps have run).
  double seconds = 20.0;
  bool trace = false;
  /// ~2% of every workload's size, one timed repetition: the smoke test.
  bool quick = false;
};

inline constexpr int kMinReps = 5;

// ---- Clocks -----------------------------------------------------------------

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
/// CPU time of the whole process (all threads), in nanoseconds.
int64_t ProcessCpuNs();
/// Peak resident set of this process image, in MiB.
double PeakRssMiB();

/// Wall and process-CPU time accumulated over timed regions.
struct TimedRegion {
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
};
class RegionTimer {
 public:
  RegionTimer() : wall0_(NowNs()), cpu0_(ProcessCpuNs()) {}
  /// Adds the elapsed time to `acc` and returns the wall part.
  int64_t Stop(TimedRegion* acc) const {
    int64_t wall = NowNs() - wall0_;
    acc->wall_ns += wall;
    acc->cpu_ns += ProcessCpuNs() - cpu0_;
    return wall;
  }

 private:
  int64_t wall0_;
  int64_t cpu0_;
};

// ---- Statistics -------------------------------------------------------------

/// Quantile q in [0, 1] with linear interpolation between order statistics
/// (the "type 7" definition). Sorts a copy; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// ---- Content digests --------------------------------------------------------

/// 64-bit FNV-1a over a tuple's values, and optionally its timestamp. Hashes
/// the values' contents (type tag + payload), so it does not depend on the
/// program's own Value::Hash.
uint64_t HashTuple(const Tuple& t, bool with_timestamp);
uint64_t Mix64(uint64_t x);

/// What an output delivered: a count, an order-sensitive chain hash and an
/// order-insensitive sum of tuple hashes.
struct OutputDigest {
  uint64_t count = 0;
  uint64_t chain = 0xcbf29ce484222325ull;
  uint64_t sum = 0;
  bool values_only = false;

  void Add(const Tuple& t) {
    uint64_t h = HashTuple(t, !values_only);
    ++count;
    chain = Mix64(chain ^ h);
    sum += h;
  }
};

/// How an output is compared against the oracle.
enum class Compare {
  kExact,     ///< same tuples in the same order
  kMultiset,  ///< same tuples in any order (downstream of a cross-node union)
};

struct OutputSpec {
  std::string name;
  Compare compare = Compare::kExact;
  /// Hash values only: the timestamp depends on arrival order (a window's
  /// start after an unordered union).
  bool values_only = false;
};

using Digests = std::map<std::string, OutputDigest>;

/// Fresh, empty digests for the given outputs.
Digests MakeDigests(const std::vector<OutputSpec>& outputs);

/// Compares one repetition's outputs with the oracle's. Returns the number
/// of failed results (missing or extra tuples; a same-count content
/// mismatch counts as one per differing output) and appends a description
/// of each difference to `problems`. An output that delivered nothing is a
/// misconfigured run and also fails.
uint64_t DiffAgainstOracle(const std::vector<OutputSpec>& outputs,
                           const Digests& oracle, const Digests& got,
                           std::vector<std::string>* problems);

/// One digest over all outputs (order-insensitive where the comparison is).
uint64_t CombinedDigest(const std::vector<OutputSpec>& outputs,
                        const Digests& d);

// ---- Results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload process reports.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  uint64_t input_digest = 0;
  uint64_t output_digest = 0;
  int reps = 0;
  /// Free-form `key value` facts for the results file (sample counts,
  /// worker count, ...).
  std::vector<std::pair<std::string, std::string>> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

/// Prints `<workload> <metric> <value> <unit>` lines, the error rate, the
/// digests and notes, then the final JSON result line.
void PrintReport(const std::string& workload, const Report& r);

/// Shortest round-trip decimal form of a double ("%.17g").
std::string Num(double v);

/// Build and host facts recorded with every result.
std::string BuildType();
std::string GitSha();
std::string CpuModel();
std::string Compiler();
int HostCpus();

}  // namespace perf
}  // namespace aurora

#endif  // AURORA_PERFSUITE_HARNESS_H_
