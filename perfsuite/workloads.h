// The four benchmark workloads. Each owns its query network, its seeded
// input sources, and the loop that drives the system under test; all share
// the oracle (an untimed scalar single-engine run of the same query and
// inputs) and the repetition bookkeeping.
#ifndef AURORA_PERFSUITE_WORKLOADS_H_
#define AURORA_PERFSUITE_WORKLOADS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "distributed/deployment.h"
#include "harness.h"
#include "span_trace.h"
#include "workload/generator.h"

namespace aurora {
namespace perf {

/// One seeded input stream: a StreamGenerator plus its arrival clock. A
/// workload has one source per query input, in the query's input order.
class Source {
 public:
  Source(std::string input, std::unique_ptr<StreamGenerator> gen)
      : input_(std::move(input)), gen_(std::move(gen)) {}
  const std::string& input() const { return input_; }
  /// Next tuple, stamped with its arrival time.
  Tuple Next() {
    clock_ += gen_->NextGap();
    return gen_->Next(clock_);
  }

 private:
  std::string input_;
  std::unique_ptr<StreamGenerator> gen_;
  // Starts past zero: the engines read a zero timestamp as "unset" and
  // restamp it with their clock, which would put one tuple out of order.
  SimTime clock_ = SimTime::Micros(1);
};

/// The sources of a workload merged in timestamp order (ties go to the
/// lower source index), with a running digest of everything produced.
class InputStream {
 public:
  explicit InputStream(std::vector<Source> sources);
  struct Item {
    int source = 0;
    Tuple tuple;
  };
  Item Next();
  /// Timestamp of the tuple Next() would return.
  SimTime PeekTime() const;
  const Source& source(int i) const { return sources_[i]; }
  size_t num_sources() const { return sources_.size(); }
  uint64_t digest() const { return digest_; }

 private:
  std::vector<Source> sources_;
  std::vector<Tuple> heads_;
  uint64_t digest_ = 0x6a09e667f3bcc909ull;
};

/// What one repetition measured.
struct RepResult {
  TimedRegion timed;
  uint64_t tuples = 0;
  uint64_t failures = 0;
  std::vector<std::string> problems;
  /// Per closed-loop slice (wall ms), or per `alerts` tuple (simulated ms).
  std::vector<double> latency_ms;
  /// True when latency_ms is simulated, hence identical in every
  /// repetition of a seed.
  bool simulated_latency = false;
  Digests outputs;
  uint64_t input_digest = 0;
  /// Layer counters read after the repetition (traced runs use them).
  std::map<std::string, double> counters;
};

/// Result of the open-loop probe: latency from each tuple's due time.
struct LiveResult {
  std::vector<double> latency_us;
  /// The furthest behind schedule the generator pushed any tuple.
  double gen_late_ms = 0.0;
};

enum class Runtime {
  kFederation,  ///< simulated Aurora* nodes, open loop in simulated time
  kEngine,      ///< one AuroraEngine, closed loop of slices
  kThreaded,    ///< ThreadedEngine + one pusher thread, closed loop of slices
};

/// Static description of a workload.
struct WorkloadDef {
  std::string name;
  Runtime runtime = Runtime::kEngine;
  GlobalQuery query;
  std::vector<OutputSpec> outputs;
  /// Engine (or per-node engine) batch size of the system under test.
  int batch_size = 1;
  /// Closed loop: tuples per slice and per repetition, and whether each
  /// slice ends with an engine Tick.
  size_t slice = 4096;
  uint64_t tuples_per_rep = 0;
  bool tick_after_slice = false;
  /// Federation: simulated seconds of input per repetition.
  double sim_seconds = 0.0;
};

class Workload {
 public:
  Workload(WorkloadDef def, const Options& opts);
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const WorkloadDef& def() const { return def_; }
  const Options& options() const { return opts_; }

  /// Fresh sources for one repetition: the same seed gives the same inputs.
  InputStream MakeInput() const;

  /// Untimed scalar run of the same query and inputs on one AuroraEngine
  /// (DeployQueryLocal, batch_size 1): the outputs every repetition must
  /// reproduce.
  Digests RunOracle() const;

  /// Builds the system under test, tears it down, and returns the set-up
  /// time in seconds.
  virtual double SetupOnly() = 0;
  /// One repetition on a freshly built system. `trace` (nullable) records
  /// spans under `trace_id`.
  virtual RepResult RunRep(SpanTrace* trace, uint32_t trace_id) = 0;

  /// Open loop at `rate` tuples/s of wall time for `seconds`, timing each
  /// result from the due time of the tuple that caused it. The default runs
  /// the query on one AuroraEngine and times each tuple until the engine is
  /// quiescent again.
  virtual LiveResult RunLive(double rate, double seconds);

  /// Worker threads the system under test uses (1 unless threaded).
  virtual int workers() const { return 1; }
  /// Overrides the worker count (the traced run's single-worker baseline).
  virtual void set_workers(int) {}

 protected:
  WorkloadDef def_;
  Options opts_;
};

/// Aborts with `st`'s message unless it is OK: for benchmark set-up steps
/// whose failure means the benchmark itself is broken.
void Must(const Status& st);

/// Names of the workloads, in suite order.
const std::vector<std::string>& WorkloadNames();
/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Options& opts);

/// Adds one repetition to the report: attempted input tuples, push/run
/// failures, and every output that differs from the oracle.
void Account(const WorkloadDef& def, const Digests& oracle, const RepResult& r,
             Report* rep);

}  // namespace perf
}  // namespace aurora

#endif  // AURORA_PERFSUITE_WORKLOADS_H_
