// The single-node per-tuple hot path (paper §2.3: a node must push tuples
// through box trains "as fast as the hardware allows"). Sweeps tuple width
// x string-vs-numeric payload x input fan-out over a filter -> map -> tumble
// chain replicated per fan-out branch, so every arc hop, ConnectionPoint
// record, expression/predicate evaluation, and group-by probe is on the
// measured path. Writes BENCH_hotpath.json with tuples/sec and ns/tuple per
// configuration — the artifact EXPERIMENTS.md before/after tables come from.
#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "engine/aurora_engine.h"

namespace aurora {
namespace bench {
namespace {

struct HotPathRow {
  std::string name;
  int width = 0;
  bool strings = false;
  int fanout = 0;
  int batch = 1;
  int64_t tuples = 0;
  double seconds = 0;
  TupleThroughput throughput;
};

std::vector<HotPathRow>& Rows() {
  static std::vector<HotPathRow> rows;
  return rows;
}

/// Rows from the batch_size sweep, dumped separately so the original
/// BENCH_hotpath.json stays byte-comparable across commits.
std::vector<HotPathRow>& BatchedRows() {
  static std::vector<HotPathRow> rows;
  return rows;
}

/// Field 0 is the group key, field 1 the aggregated value; with a string
/// payload every other remaining field carries an owned string so deep
/// copies show up in the measurement.
SchemaPtr MakeWideSchema(int width, bool strings) {
  std::vector<Field> fields;
  fields.push_back(Field{"k", ValueType::kInt64});
  fields.push_back(Field{"v", ValueType::kInt64});
  for (int i = 2; i < width; ++i) {
    ValueType type = (strings && i % 2 == 0) ? ValueType::kString
                                             : ValueType::kInt64;
    std::string name = "f";
    name += std::to_string(i);
    fields.push_back(Field{std::move(name), type});
  }
  return Schema::Make(fields);
}

/// A small deterministic pool of input tuples; the bench pushes copies, so
/// the measured cost is the engine's per-tuple handling, not tuple building.
std::vector<Tuple> MakeTuplePool(const SchemaPtr& schema, int width,
                                 bool strings, uint64_t seed) {
  std::vector<Tuple> pool;
  uint64_t x = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (int i = 0; i < 64; ++i) {
    std::vector<Value> values;
    values.push_back(Value(static_cast<int64_t>(i % 8)));
    values.push_back(Value(static_cast<int64_t>(i % 100)));
    for (int f = 2; f < width; ++f) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      if (strings && f % 2 == 0) {
        values.push_back(Value("payload-" + std::to_string(x % 100000) +
                               "-abcdefghijklmnopqrstuvwxyz"));
      } else {
        values.push_back(Value(static_cast<int64_t>(x % 1000)));
      }
    }
    pool.push_back(MakeTuple(schema, std::move(values)));
  }
  return pool;
}

/// input --(fan-out F)--> F x [filter(v >= 5) -> map(all fields, v+1) ->
/// tumble(cnt by k, every 16)] -> one output per branch.
EngineOptions BatchedEngineOptions(int batch) {
  EngineOptions opts;
  opts.batch_size = batch;
  return opts;
}

struct FanOutEngine {
  AuroraEngine engine;
  PortId in;
  uint64_t delivered = 0;

  FanOutEngine(const SchemaPtr& schema, int width, int fanout, int batch = 1)
      : engine(BatchedEngineOptions(batch)) {
    in = *engine.AddInput("in", schema);
    std::vector<std::pair<std::string, Expr>> projections;
    projections.emplace_back("k", Expr::FieldRef("k"));
    projections.emplace_back(
        "v", Expr::Arith(ArithOp::kAdd, Expr::FieldRef("v"),
                         Expr::Constant(Value(static_cast<int64_t>(1)))));
    for (int f = 2; f < width; ++f) {
      std::string name = "f" + std::to_string(f);
      projections.emplace_back(name, Expr::FieldRef(name));
    }
    for (int b = 0; b < fanout; ++b) {
      BoxId filter = *engine.AddBox(FilterSpec(
          Predicate::Compare("v", CompareOp::kGe,
                             Value(static_cast<int64_t>(5)))));
      BoxId map = *engine.AddBox(MapSpec(projections));
      OperatorSpec tumble = TumbleSpec("cnt", "v", {"k"});
      tumble.SetParam("emit", Value(std::string("every_n")));
      tumble.SetParam("n", Value(static_cast<int64_t>(16)));
      BoxId agg = *engine.AddBox(tumble);
      PortId out = *engine.AddOutput("out" + std::to_string(b));
      AURORA_CHECK(engine.Connect(Endpoint::InputPort(in),
                                  Endpoint::BoxPort(filter, 0)).ok());
      AURORA_CHECK(engine.Connect(Endpoint::BoxPort(filter, 0),
                                  Endpoint::BoxPort(map, 0)).ok());
      AURORA_CHECK(engine.Connect(Endpoint::BoxPort(map, 0),
                                  Endpoint::BoxPort(agg, 0)).ok());
      AURORA_CHECK(engine.Connect(Endpoint::BoxPort(agg, 0),
                                  Endpoint::OutputPort(out)).ok());
      engine.SetOutputCallback(out,
                               [this](const Tuple&, SimTime) { ++delivered; });
    }
    AURORA_CHECK(engine.InitializeBoxes().ok());
  }
};

void RunHotPath(benchmark::State& state, int width, bool strings,
                int fanout, int batch = 1, bool batched_sweep = false) {
  SchemaPtr schema = MakeWideSchema(width, strings);
  std::vector<Tuple> pool =
      MakeTuplePool(schema, width, strings, GlobalSeed());
  const int tuples_per_iter = GlobalIters() == 1 ? 1'000 : 8'000;

  int64_t total_tuples = 0;
  double total_seconds = 0;
  uint64_t delivered = 0;
  for (auto _ : state) {
    ResetObservability();
    FanOutEngine fan(schema, width, fanout, batch);
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < tuples_per_iter; ++i) {
      Tuple t = pool[static_cast<size_t>(i) % pool.size()];
      t.set_seq(static_cast<SeqNo>(i));
      benchmark::DoNotOptimize(
          fan.engine.PushInput(fan.in, std::move(t), SimTime()));
    }
    AURORA_CHECK(fan.engine.RunUntilQuiescent(SimTime()).ok());
    total_seconds += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    total_tuples += tuples_per_iter;
    delivered = fan.delivered;
  }

  HotPathRow row;
  row.width = width;
  row.strings = strings;
  row.fanout = fanout;
  row.batch = batch;
  row.name = "w" + std::to_string(width) + (strings ? "_str" : "_num") +
             "_fan" + std::to_string(fanout);
  if (batched_sweep) row.name += "_b" + std::to_string(batch);
  row.tuples = total_tuples;
  row.seconds = total_seconds;
  row.throughput = ReportTupleThroughput(state, total_tuples, total_seconds);
  (batched_sweep ? BatchedRows() : Rows()).push_back(row);

  // Untimed attribution pass with bounded tracing: the obs dump carries
  // latency.attr.* stage histograms for aurora_inspect without the trace
  // branch tax showing up in the measured numbers above. The 4096-span ring
  // is far smaller than the span volume, so this also exercises eviction
  // (attribution stays exact; see obs/trace.h).
  ResetObservability();
  Tracer& tracer = Tracer::Global();
  const bool was_enabled = tracer.enabled();
  tracer.set_enabled(true);
  tracer.set_capacity(4096);
  {
    FanOutEngine fan(schema, width, fanout, batch);
    for (int i = 0; i < tuples_per_iter; ++i) {
      Tuple t = pool[static_cast<size_t>(i) % pool.size()];
      t.set_seq(static_cast<SeqNo>(i));
      (void)fan.engine.PushInput(fan.in, std::move(t), SimTime());
    }
    AURORA_CHECK(fan.engine.RunUntilQuiescent(SimTime()).ok());
  }
  tracer.set_enabled(was_enabled);

  state.counters["delivered"] = static_cast<double>(delivered);
  DumpMetricsSnapshot("hotpath_" + row.name);
}

void BM_HotPath(benchmark::State& state) {
  RunHotPath(state, static_cast<int>(state.range(0)),
             state.range(1) != 0, static_cast<int>(state.range(2)));
}
BENCHMARK(BM_HotPath)
    ->ArgNames({"width", "str", "fanout"})
    ->Args({4, 0, 1})
    ->Args({4, 0, 4})
    ->Args({4, 0, 16})
    ->Args({4, 1, 1})
    ->Args({4, 1, 4})
    ->Args({4, 1, 16})
    ->Args({16, 0, 1})
    ->Args({16, 0, 4})
    ->Args({16, 0, 16})
    ->Args({16, 1, 1})
    ->Args({16, 1, 4})
    ->Args({16, 1, 16});

// The batch_size axis: the same chain with the engine's ProcessBatch path
// at 1 (scalar baseline), 8, and 64 tuples per activation. Narrow numeric
// configs are where batching pays most (vectorized predicate/expr
// evaluation plus chunked arc enqueues); the string configs measure the
// StrColumn + identity-projection path, which keeps wide string schemas on
// the batched path instead of falling back to scalar evaluation. A fixed
// iteration count makes each row's `tuples` repeat from run to run, so
// scripts/run_gates.sh can diff the rows once their wall-clock fields are
// dropped.
void BM_HotPathBatched(benchmark::State& state) {
  RunHotPath(state, static_cast<int>(state.range(0)), state.range(1) != 0,
             static_cast<int>(state.range(2)),
             static_cast<int>(state.range(3)), /*batched_sweep=*/true);
}
BENCHMARK(BM_HotPathBatched)
    ->ArgNames({"width", "str", "fanout", "batch"})
    ->Iterations(10)
    ->Args({4, 0, 1, 1})
    ->Args({4, 0, 1, 8})
    ->Args({4, 0, 1, 64})
    ->Args({4, 0, 4, 1})
    ->Args({4, 0, 4, 8})
    ->Args({4, 0, 4, 64})
    ->Args({16, 0, 1, 1})
    ->Args({16, 0, 1, 8})
    ->Args({16, 0, 1, 64})
    ->Args({16, 1, 1, 1})
    ->Args({16, 1, 1, 8})
    ->Args({16, 1, 1, 64})
    ->Args({16, 1, 4, 1})
    ->Args({16, 1, 4, 8})
    ->Args({16, 1, 4, 64});

/// Google Benchmark re-enters each bench function for iteration-count
/// estimation; keep only the final (measured) run per configuration.
std::vector<HotPathRow> DedupRows(const std::vector<HotPathRow>& all) {
  std::vector<HotPathRow> rows;
  for (const HotPathRow& r : all) {
    bool replaced = false;
    for (HotPathRow& kept : rows) {
      if (kept.name == r.name) {
        kept = r;
        replaced = true;
        break;
      }
    }
    if (!replaced) rows.push_back(r);
  }
  return rows;
}

void DumpRowsJson(const char* path, const char* bench_name,
                  const std::vector<HotPathRow>& rows, bool with_batch) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"" << bench_name << "\",\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const HotPathRow& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"width\": " << r.width
        << ", \"strings\": " << (r.strings ? "true" : "false")
        << ", \"fanout\": " << r.fanout;
    if (with_batch) out << ", \"batch\": " << r.batch;
    out << ", \"tuples\": " << r.tuples
        << ", \"tuples_per_sec\": " << r.throughput.tuples_per_sec
        << ", \"ns_per_tuple\": " << r.throughput.ns_per_tuple << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

void DumpHotPathJson() {
  DumpRowsJson("BENCH_hotpath.json", "hot_path", DedupRows(Rows()),
               /*with_batch=*/false);
  DumpRowsJson("BENCH_hotpath_batched.json", "hot_path_batched",
               DedupRows(BatchedRows()), /*with_batch=*/true);
}

}  // namespace
}  // namespace bench
}  // namespace aurora

int main(int argc, char** argv) {
  // CI convenience: `--iters small` / `--iters full` alias 1 / 0.
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "small") argv[i] = const_cast<char*>("1");
    if (arg == "full") argv[i] = const_cast<char*>("0");
    if (arg == "--iters=small") argv[i] = const_cast<char*>("--iters=1");
    if (arg == "--iters=full") argv[i] = const_cast<char*>("--iters=0");
  }
  ::aurora::bench::ParseBenchFlags(&argc, argv);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::aurora::bench::DumpHotPathJson();
  ::benchmark::Shutdown();
  return 0;
}
