// The traced run: per-layer metrics for one workload.
//
// Layers are measured from outside the program: the benchmark times its own
// calls into each layer's public functions (spans around push/run/inject),
// replays the workload's query network one operator at a time, times
// isolated probes of the serde, queue, ring, event-queue and transport
// layers on the workload's own tuples, and reads the program's counters.
// No timing code lives inside the system under test.
#ifndef AURORA_PERFSUITE_LAYERS_H_
#define AURORA_PERFSUITE_LAYERS_H_

#include "harness.h"
#include "workloads.h"

namespace aurora {
namespace perf {

/// Runs the traced measurement of `w`, returns its per-layer metrics, and
/// writes every span and metric to bench_trace_<workload>.json.
Report RunTraced(Workload& w);

}  // namespace perf
}  // namespace aurora

#endif  // AURORA_PERFSUITE_LAYERS_H_
