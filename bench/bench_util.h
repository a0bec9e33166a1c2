#ifndef AURORA_BENCH_BENCH_UTIL_H_
#define AURORA_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "distributed/deployment.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/snapshot_diff.h"
#include "obs/trace.h"
#include "workload/generator.h"

namespace aurora {
namespace bench {

/// Schema (A:int64, B:int64) shared by the benchmark workloads.
inline SchemaPtr SchemaAB() {
  return Schema::Make({Field{"A", ValueType::kInt64},
                       Field{"B", ValueType::kInt64}});
}

/// A simulated Aurora* cluster with `n` identical nodes in a full mesh.
struct Cluster {
  Simulation sim;
  std::unique_ptr<OverlayNetwork> net;
  std::unique_ptr<AuroraStarSystem> system;

  explicit Cluster(int n, LinkOptions link = LinkOptions{},
                   StarOptions star = StarOptions{}) {
    net = std::make_unique<OverlayNetwork>(&sim);
    system = std::make_unique<AuroraStarSystem>(&sim, net.get(), star);
    for (int i = 0; i < n; ++i) {
      auto id = system->AddNode(NodeOptions{"n" + std::to_string(i), 1.0, {}});
      AURORA_CHECK(id.ok());
    }
    net->FullMesh(link);
  }
};

/// Stamps and injects `count` tuples (A=i, B=i%`mod`) at a fixed rate.
inline void InjectAtRate(Cluster* cluster, NodeId node,
                         const std::string& input, int count,
                         double rate_per_sec, int mod = 10) {
  SchemaPtr schema = SchemaAB();
  for (int i = 0; i < count; ++i) {
    SimTime when =
        SimTime::Micros(static_cast<int64_t>(i * 1e6 / rate_per_sec));
    cluster->sim.ScheduleAt(when, [cluster, node, input, schema, i, mod]() {
      Tuple t = MakeTuple(schema, {Value(i), Value(i % mod)});
      (void)cluster->system->node(node).Inject(input, t);
    });
  }
}

/// Zeroes the metrics registry and trace buffer and re-arms the flight
/// recorder's once-per-event latches. Call at the start of each benchmark
/// iteration so a run's snapshot covers that run only (cached metric
/// pointers stay valid — Reset keeps registrations).
inline void ResetObservability() {
  MetricsRegistry::Global().Reset();
  Tracer::Global().Clear();
  FlightRecorder::Global().Rearm();
}

/// Registry snapshot for delta reporting (see obs/snapshot_diff.h) — the
/// same struct `aurora_inspect --diff` uses, so a bench's reported delta and
/// an offline diff of its obs dumps agree by construction.
inline MetricsSnapshot CaptureSnapshot() {
  return MetricsSnapshot::FromRegistry(MetricsRegistry::Global());
}

/// Counter movement between a captured snapshot and the live registry.
/// Replaces ad hoc FindCounter(...)->value() subtraction in the benches.
inline double CounterDeltaSince(const MetricsSnapshot& before,
                                const std::string& name) {
  return SnapshotDiff::Between(before, CaptureSnapshot()).CounterDelta(name);
}

/// Writes the registry's JSON snapshot to `obs_<label>.json` in the working
/// directory — the per-run artifact EXPERIMENTS.md numbers come from.
/// Filename-hostile characters in the label (benchmark names contain
/// '/' and ':') are mapped to '_'.
inline void DumpMetricsSnapshot(const std::string& label) {
  std::string file = label;
  for (char& c : file) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' && c != '.') {
      c = '_';
    }
  }
  std::ofstream out("obs_" + file + ".json");
  out << MetricsRegistry::Global().SnapshotJson() << "\n";
}

/// Normalized per-tuple throughput for the perf trajectory (BENCH_*.json,
/// EXPERIMENTS.md): tuples/sec and ns/tuple over a wall-clock interval the
/// bench measured itself.
struct TupleThroughput {
  double tuples_per_sec = 0;
  double ns_per_tuple = 0;
};

inline TupleThroughput MeasureTupleThroughput(int64_t tuples, double seconds) {
  TupleThroughput t;
  if (tuples > 0 && seconds > 0) {
    t.tuples_per_sec = static_cast<double>(tuples) / seconds;
    t.ns_per_tuple = seconds * 1e9 / static_cast<double>(tuples);
  }
  return t;
}

/// Attaches tuples/sec and ns/tuple counters to a benchmark's report and
/// returns them so the bench can also dump the numbers to a JSON artifact.
inline TupleThroughput ReportTupleThroughput(benchmark::State& state,
                                             int64_t tuples, double seconds) {
  TupleThroughput t = MeasureTupleThroughput(tuples, seconds);
  state.counters["tuples_per_sec"] = t.tuples_per_sec;
  state.counters["ns_per_tuple"] = t.ns_per_tuple;
  state.SetItemsProcessed(tuples);
  return t;
}

/// Process-wide seed from the `--seed=N` flag (default 1). Benches thread
/// it into StreamGenerator workloads and the fault injector, so one
/// invocation is reproducible end to end: two runs with the same seed emit
/// identical obs_*.json artifacts.
inline uint64_t& GlobalSeed() {
  static uint64_t seed = 1;
  return seed;
}

/// Iteration override from `--iters=N` (0 = each bench's default). The
/// gates (scripts/run_gates.sh) pass `--iters 1` to bound sweep cost.
inline int& GlobalIters() {
  static int iters = 0;
  return iters;
}

/// Strips `--seed[=]N` and `--iters[=]N` from argv before Google Benchmark
/// parses the rest (it rejects flags it does not know).
inline void ParseBenchFlags(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string arg = argv[i];
    auto take_value = [&](const std::string& name, std::string* value) {
      if (arg.rfind("--" + name + "=", 0) == 0) {
        *value = arg.substr(name.size() + 3);
        return true;
      }
      if (arg == "--" + name && i + 1 < *argc) {
        *value = argv[++i];
        return true;
      }
      return false;
    };
    std::string value;
    if (take_value("seed", &value)) {
      GlobalSeed() = std::strtoull(value.c_str(), nullptr, 10);
    } else if (take_value("iters", &value)) {
      GlobalIters() = static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

}  // namespace bench
}  // namespace aurora

/// Drop-in replacement for BENCHMARK_MAIN() that understands --seed/--iters.
#define AURORA_BENCH_MAIN()                                             \
  int main(int argc, char** argv) {                                     \
    ::aurora::bench::ParseBenchFlags(&argc, argv);                      \
    ::benchmark::Initialize(&argc, argv);                               \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                              \
    ::benchmark::Shutdown();                                            \
    return 0;                                                           \
  }

#endif  // AURORA_BENCH_BENCH_UTIL_H_
