#include "workloads.h"

#include <algorithm>
#include <functional>

#include "engine/aurora_engine.h"
#include "engine/threaded_engine.h"
#include "obs/metrics.h"

namespace aurora {
namespace perf {

std::unique_ptr<Workload> MakeFederationWorkload(WorkloadDef def,
                                                 const Options& opts);

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

InputStream::InputStream(std::vector<Source> sources)
    : sources_(std::move(sources)) {
  for (Source& s : sources_) heads_.push_back(s.Next());
}

SimTime InputStream::PeekTime() const {
  SimTime best = SimTime::Max();
  for (const Tuple& t : heads_) best = std::min(best, t.timestamp());
  return best;
}

InputStream::Item InputStream::Next() {
  int best = 0;
  for (size_t i = 1; i < heads_.size(); ++i) {
    if (heads_[i].timestamp() < heads_[best].timestamp()) {
      best = static_cast<int>(i);
    }
  }
  Item item{best, std::move(heads_[best])};
  heads_[best] = sources_[best].Next();
  digest_ = Mix64(digest_ ^ static_cast<uint64_t>(best) ^
                  HashTuple(item.tuple, /*with_timestamp=*/true));
  return item;
}

void Must(const Status& st) {
  AURORA_CHECK(st.ok()) << "benchmark set-up: " << st.ToString();
}

namespace {

/// Per-source generator seed derived from the run seed.
uint64_t SourceSeed(uint64_t seed, const std::string& workload, int source) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : workload) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return Mix64(Mix64(seed) ^ h ^ (static_cast<uint64_t>(source) << 32));
}

/// The closed loop shared by the engine, threaded and oracle runs: pulls
/// `total` merged input tuples in slices, pushes each slice, then runs the
/// system until it is quiescent. Each slice is one latency sample.
template <typename PushFn, typename RunFn>
void RunClosedLoop(InputStream* in, uint64_t total, size_t slice,
                   PushFn&& push, RunFn&& run, RepResult* r,
                   SpanTrace* trace, uint32_t trace_id) {
  std::vector<InputStream::Item> buf;
  buf.reserve(slice);
  uint64_t done = 0;
  while (done < total) {
    size_t n = static_cast<size_t>(std::min<uint64_t>(slice, total - done));
    buf.clear();
    for (size_t i = 0; i < n; ++i) buf.push_back(in->Next());
    const SimTime now = buf.back().tuple.timestamp();
    RegionTimer timer;
    {
      SpanTrace::Scope span(trace, "push", trace_id);
      for (InputStream::Item& item : buf) {
        Status st = push(item.source, std::move(item.tuple), now);
        if (!st.ok()) {
          ++r->failures;
          if (r->problems.size() < 8) {
            r->problems.push_back("push failed: " + st.ToString());
          }
        }
      }
    }
    {
      SpanTrace::Scope span(trace, "run", trace_id);
      Status st = run(now);
      if (!st.ok()) {
        ++r->failures;
        r->problems.push_back("run failed: " + st.ToString());
      }
    }
    r->latency_ms.push_back(static_cast<double>(timer.Stop(&r->timed)) / 1e6);
    done += n;
  }
  r->tuples += total;
  r->input_digest = in->digest();
}

// Narrow tuples: a Zipf(64, 1.1) key, a small value, a per-source sequence
// number and a wide random int.
SchemaPtr NarrowSchema() {
  return Schema::Make({Field{"k", ValueType::kInt64},
                       Field{"v", ValueType::kInt64},
                       Field{"seq", ValueType::kInt64},
                       Field{"x", ValueType::kInt64}});
}

std::vector<std::unique_ptr<FieldGen>> NarrowGens() {
  std::vector<std::unique_ptr<FieldGen>> g;
  g.push_back(FieldGen::ZipfInt(64, 1.1));
  g.push_back(FieldGen::UniformInt(0, 9));
  g.push_back(FieldGen::Sequential());
  g.push_back(FieldGen::UniformInt(0, 1 << 20));
  return g;
}

OperatorSpec FilterGe(const std::string& field, int64_t bound) {
  return FilterSpec(Predicate::Compare(field, CompareOp::kGe, Value(bound)));
}

/// Identity over `schema` plus one computed field.
OperatorSpec MapPlus(const SchemaPtr& schema, const std::string& name,
                     Expr computed) {
  std::vector<std::pair<std::string, Expr>> proj;
  for (const Field& f : schema->fields()) {
    proj.emplace_back(f.name, Expr::FieldRef(f.name));
  }
  proj.emplace_back(name, std::move(computed));
  return MapSpec(std::move(proj));
}

/// Tumble `agg(field)` by k, closing each group's window every 16 tuples.
OperatorSpec TumbleEvery16(const std::string& agg, const std::string& field,
                           const std::string& result) {
  OperatorSpec spec = TumbleSpec(agg, field, {"k"}, result);
  spec.SetParam("emit", Value("every_n"));
  spec.SetParam("n", Value(int64_t{16}));
  return spec;
}

constexpr int kWideInts = 6;
constexpr int kWideStrings = 7;

// Wide tuples (16 fields): a Zipf(1024, 0.9) key, a sequence number, a small
// value, six random ints and seven strings drawn from a three-value pool.
SchemaPtr WideSchema() {
  std::vector<Field> f = {Field{"k", ValueType::kInt64},
                          Field{"seq", ValueType::kInt64},
                          Field{"v", ValueType::kInt64}};
  for (int i = 0; i < kWideInts; ++i) {
    f.push_back(Field{"i" + std::to_string(i), ValueType::kInt64});
  }
  for (int i = 0; i < kWideStrings; ++i) {
    f.push_back(Field{"s" + std::to_string(i), ValueType::kString});
  }
  return Schema::Make(std::move(f));
}

std::vector<std::unique_ptr<FieldGen>> WideGens() {
  std::vector<std::unique_ptr<FieldGen>> g;
  g.push_back(FieldGen::ZipfInt(1024, 0.9));
  g.push_back(FieldGen::Sequential());
  g.push_back(FieldGen::UniformInt(0, 9));
  for (int i = 0; i < kWideInts; ++i) {
    g.push_back(FieldGen::UniformInt(0, 1 << 20));
  }
  for (int i = 0; i < kWideStrings; ++i) {
    g.push_back(FieldGen::Choice({"cambridge-ma", "providence-ri", "zurich"}));
  }
  return g;
}

/// input -> `chains` x [filter(v >= bound_c) -> map(+y) ->
/// tumble(max seq by k, every 16)] -> out<c>. The window result is the
/// sequence number of the tuple that closed it.
GlobalQuery FanOutQuery(const std::vector<int64_t>& bounds) {
  GlobalQuery q;
  SchemaPtr s = NarrowSchema();
  Must(q.AddInput("in", s));
  for (size_t c = 0; c < bounds.size(); ++c) {
    std::string id = std::to_string(c);
    Must(q.AddBox("f" + id, FilterGe("v", bounds[c])));
    Must(q.AddBox("m" + id,
                  MapPlus(s, "y",
                          Expr::Arith(ArithOp::kAdd, Expr::FieldRef("x"),
                                      Expr::FieldRef("v")))));
    Must(q.AddBox("t" + id, TumbleEvery16("max", "seq", "last")));
    Must(q.AddOutput("out" + id));
    Must(q.ConnectInputToBox("in", "f" + id));
    Must(q.ConnectBoxes("f" + id, 0, "m" + id, 0));
    Must(q.ConnectBoxes("m" + id, 0, "t" + id, 0));
    Must(q.ConnectBoxToOutput("t" + id, 0, "out" + id));
  }
  return q;
}

// Why: the only workload where serde, tuple trains, credit flow, the event
// queue and StreamNode dominate while operator work is small.
WorkloadDef Fed3Def() {
  WorkloadDef d;
  d.name = "fed3";
  d.runtime = Runtime::kFederation;
  SchemaPtr s = NarrowSchema();
  GlobalQuery& q = d.query;
  Must(q.AddBox("u", UnionSpec(2)));
  Must(q.AddBox("t", TumbleEvery16("cnt", "v", "cnt")));
  for (int i = 0; i < 2; ++i) {
    std::string id = std::to_string(i);
    Must(q.AddInput("s" + id, s));
    Must(q.AddBox("f" + id, FilterGe("v", 5)));
    Must(q.AddBox("m" + id,
                  MapPlus(s, "y",
                          Expr::Arith(ArithOp::kAdd, Expr::FieldRef("x"),
                                      Expr::FieldRef("v")))));
    Must(q.ConnectInputToBox("s" + id, "f" + id));
    Must(q.ConnectBoxes("f" + id, 0, "m" + id, 0));
    Must(q.ConnectBoxes("m" + id, 0, "u", i));
  }
  Must(q.AddOutput("alerts"));
  Must(q.AddOutput("counts"));
  Must(q.ConnectBoxToOutput("u", 0, "alerts"));
  Must(q.ConnectBoxes("u", 0, "t", 0));
  Must(q.ConnectBoxToOutput("t", 0, "counts"));
  // Both outputs sit behind a union of two remote streams, whose merge
  // order differs from the single-engine oracle's; window start times after
  // the union depend on that order too.
  d.outputs = {{"alerts", Compare::kMultiset, false},
               {"counts", Compare::kMultiset, true}};
  d.batch_size = 1;
  d.sim_seconds = 5.0;
  return d;
}

// Why: batched operators, TupleBatch columns, chunked routing and the ready
// heap do most of the work, so batching and routing changes show here.
WorkloadDef EngineFanoutDef() {
  WorkloadDef d;
  d.name = "engine_fanout";
  d.runtime = Runtime::kEngine;
  d.query = FanOutQuery({1, 3, 5, 7});
  for (int c = 0; c < 4; ++c) d.outputs.push_back({"out" + std::to_string(c)});
  d.batch_size = 64;
  d.tuples_per_rep = 400000;
  return d;
}

// Why: multi-input and stateful boxes on wide copy-on-write string tuples,
// on the scalar path. A batching change should show no gain here, and the
// scalar path must not get slower.
WorkloadDef EngineDagDef() {
  WorkloadDef d;
  d.name = "engine_dag";
  d.runtime = Runtime::kEngine;
  SchemaPtr s = WideSchema();
  GlobalQuery& q = d.query;
  Must(q.AddBox("u", UnionSpec(2)));
  Must(q.AddBox("ws", WSortSpec({"seq"}, /*timeout_us=*/1000,
                                /*max_buffer=*/64)));
  Must(q.AddBox("tc", TumbleEvery16("cnt", "v", "cnt")));
  Must(q.AddBox("j", JoinSpec("k", "k", /*window_us=*/200)));
  const char* inputs[] = {"a", "b"};
  for (int i = 0; i < 2; ++i) {
    std::string in = inputs[i];
    Must(q.AddInput(in, s));
    Must(q.AddBox("f" + in, FilterGe("v", 2)));
    Must(q.AddBox("m" + in,
                  MapPlus(s, "w",
                          Expr::Arith(ArithOp::kAdd, Expr::FieldRef("v"),
                                      Expr::Constant(Value(int64_t{1}))))));
    Must(q.ConnectInputToBox(in, "f" + in));
    Must(q.ConnectBoxes("f" + in, 0, "m" + in, 0));
    Must(q.ConnectBoxes("m" + in, 0, "u", i));
    Must(q.ConnectBoxes("m" + in, 0, "j", i));
  }
  Must(q.AddOutput("counts"));
  Must(q.AddOutput("pairs"));
  Must(q.ConnectBoxes("u", 0, "ws", 0));
  Must(q.ConnectBoxes("ws", 0, "tc", 0));
  Must(q.ConnectBoxToOutput("tc", 0, "counts"));
  Must(q.ConnectBoxToOutput("j", 0, "pairs"));
  d.outputs = {{"counts"}, {"pairs"}};
  d.batch_size = 1;
  d.tuples_per_rep = 200000;
  d.tick_after_slice = true;
  return d;
}

// Why: SPSC rings, claim CAS, stealing and inline help are the whole cost.
WorkloadDef ThreadedFan8Def() {
  WorkloadDef d;
  d.name = "threaded_fan8";
  d.runtime = Runtime::kThreaded;
  d.query = FanOutQuery({3, 3, 3, 3, 3, 3, 3, 3});
  for (int c = 0; c < 8; ++c) d.outputs.push_back({"out" + std::to_string(c)});
  d.batch_size = 64;
  d.tuples_per_rep = 400000;
  return d;
}

/// Input rate (tuples/s of simulated time) per source.
double SourceRate(const std::string& workload) {
  if (workload == "fed3") return 20000.0;
  if (workload == "engine_dag") return 500000.0;
  return 1000000.0;
}

void ApplyQuick(WorkloadDef* d) {
  d->tuples_per_rep = std::max<uint64_t>(d->slice, d->tuples_per_rep / 50);
  d->sim_seconds /= 50.0;
}

Status ConnectAll(ThreadedEngine* e, const GlobalQuery& q) {
  std::map<std::string, BoxId> boxes;
  for (const auto& in : q.inputs()) {
    AURORA_RETURN_NOT_OK(e->AddInput(in.name, in.schema).status());
  }
  for (const auto& box : q.boxes()) {
    AURORA_ASSIGN_OR_RETURN(BoxId id, e->AddBox(box.spec));
    boxes[box.name] = id;
  }
  for (const auto& out : q.outputs()) {
    AURORA_RETURN_NOT_OK(e->AddOutput(out).status());
  }
  for (const auto& arc : q.arcs()) {
    Endpoint src;
    if (arc.from_kind == GlobalQuery::ArcDef::FromKind::kInput) {
      AURORA_ASSIGN_OR_RETURN(PortId p, e->FindInput(arc.from));
      src = Endpoint::InputPort(p);
    } else {
      src = Endpoint::BoxPort(boxes.at(arc.from), arc.from_index);
    }
    Endpoint dst;
    if (arc.to_kind == GlobalQuery::ArcDef::ToKind::kOutput) {
      AURORA_ASSIGN_OR_RETURN(PortId p, e->FindOutput(arc.to));
      dst = Endpoint::OutputPort(p);
    } else {
      dst = Endpoint::BoxPort(boxes.at(arc.to), arc.to_index);
    }
    AURORA_RETURN_NOT_OK(e->Connect(src, dst).status());
  }
  return Status::OK();
}

/// Busy-waits until `due` (steady clock ns); returns how late it returned.
double SpinUntil(int64_t due) {
  int64_t now = NowNs();
  while (now < due) now = NowNs();
  return static_cast<double>(now - due);
}

double CounterValue(const std::string& name) {
  return static_cast<double>(MetricsRegistry::Global().CounterValue(name));
}

double GaugeMax(const std::string& name) {
  const Gauge* g = MetricsRegistry::Global().FindGauge(name);
  return g == nullptr ? 0.0 : g->max();
}

/// A single AuroraEngine built by DeployQueryLocal, with every output
/// feeding a digest.
struct LocalEngine {
  std::unique_ptr<AuroraEngine> engine;
  std::vector<PortId> ports;  // per query input == per source

  LocalEngine(const WorkloadDef& def, int batch_size, Digests* outputs) {
    EngineOptions eo;
    eo.batch_size = batch_size;
    engine = std::make_unique<AuroraEngine>(eo);
    Must(DeployQueryLocal(engine.get(), def.query));
    for (const OutputSpec& o : def.outputs) {
      auto port = engine->FindOutput(o.name);
      Must(port.status());
      OutputDigest* d = &(*outputs)[o.name];
      engine->SetOutputCallback(*port,
                                [d](const Tuple& t, SimTime) { d->Add(t); });
    }
    for (const auto& in : def.query.inputs()) {
      auto port = engine->FindInput(in.name);
      Must(port.status());
      ports.push_back(*port);
    }
  }

  Status Push(int source, Tuple t, SimTime now) {
    return engine->PushInput(ports[source], std::move(t), now);
  }
  Status Run(SimTime now, bool tick) {
    Status st = engine->RunUntilQuiescent(now);
    if (tick) engine->Tick(now);
    return st;
  }
};

// ---------------------------------------------------------------------------
// engine_fanout / engine_dag
// ---------------------------------------------------------------------------

class EngineWorkload : public Workload {
 public:
  using Workload::Workload;

  double SetupOnly() override {
    Digests d = MakeDigests(def_.outputs);
    int64_t t0 = NowNs();
    LocalEngine e(def_, def_.batch_size, &d);
    return static_cast<double>(NowNs() - t0) / 1e9;
  }

  RepResult RunRep(SpanTrace* trace, uint32_t trace_id) override {
    SpanTrace::Scope rep(trace, "rep", trace_id);
    RepResult r;
    r.outputs = MakeDigests(def_.outputs);
    InputStream in = MakeInput();
    std::unique_ptr<LocalEngine> e;
    {
      SpanTrace::Scope span(trace, "setup", trace_id);
      e = std::make_unique<LocalEngine>(def_, def_.batch_size, &r.outputs);
    }
    const bool tick = def_.tick_after_slice;
    RunClosedLoop(
        &in, def_.tuples_per_rep, def_.slice,
        [&](int src, Tuple t, SimTime now) {
          return e->Push(src, std::move(t), now);
        },
        [&](SimTime now) { return e->Run(now, tick); }, &r, trace, trace_id);
    r.counters["activations"] =
        static_cast<double>(e->engine->total_activations());
    r.counters["chunks"] = CounterValue("engine.batch.emitted_chunks");
    r.counters["chunk_tuples"] = CounterValue("engine.batch.emitted_tuples");
    r.counters["queue_peak"] = GaugeMax("engine.queue_depth");
    return r;
  }
};

// ---------------------------------------------------------------------------
// threaded_fan8
// ---------------------------------------------------------------------------

class ThreadedWorkload : public Workload {
 public:
  ThreadedWorkload(WorkloadDef def, const Options& opts)
      : Workload(std::move(def), opts),
        // 3 workers plus the pusher fill a 4-core host; smaller hosts keep
        // one core for the pusher.
        workers_(std::max(1, std::min(3, HostCpus() - 1))) {}

  int workers() const override { return workers_; }
  void set_workers(int w) override { workers_ = w; }

  struct System {
    std::unique_ptr<ThreadedEngine> engine;
    PortId in = -1;
  };

  /// Builds and starts the engine; `sink(i)` is output i's callback.
  System Build(
      const std::function<ThreadedEngine::OutputCallback(size_t)>& sink)
      const {
    ThreadedEngineOptions to;
    to.workers = workers_;
    to.batch_size = def_.batch_size;
    System s;
    s.engine = std::make_unique<ThreadedEngine>(to);
    Must(ConnectAll(s.engine.get(), def_.query));
    for (size_t i = 0; i < def_.outputs.size(); ++i) {
      auto port = s.engine->FindOutput(def_.outputs[i].name);
      Must(port.status());
      s.engine->SetOutputCallback(*port, sink(i));
    }
    auto port = s.engine->FindInput(def_.query.inputs()[0].name);
    Must(port.status());
    s.in = *port;
    Must(s.engine->Start());
    return s;
  }

  /// Deliveries are serialized per output and each output owns its digest,
  /// so workers never share one.
  System Build(Digests* outputs) const {
    return Build([&](size_t i) -> ThreadedEngine::OutputCallback {
      OutputDigest* d = &(*outputs)[def_.outputs[i].name];
      return [d](const Tuple& t, SimTime) { d->Add(t); };
    });
  }

  /// Every output is a tumble whose result (field 1) is the sequence number
  /// of the tuple that closed the window; that tuple's due time is
  /// start + seq * period.
  LiveResult RunLive(double rate, double seconds) override {
    LiveResult res;
    const int64_t period = static_cast<int64_t>(1e9 / rate);
    const uint64_t n = static_cast<uint64_t>(rate * seconds);
    std::vector<std::vector<double>> latency(def_.outputs.size());
    int64_t start = 0;
    System s = Build([&](size_t i) -> ThreadedEngine::OutputCallback {
      std::vector<double>* lat = &latency[i];
      return [lat, &start, period](const Tuple& t, SimTime) {
        int64_t due = start + t.value(1).AsInt() * period;
        lat->push_back(static_cast<double>(NowNs() - due) / 1e3);
      };
    });
    InputStream in = MakeInput();
    // Written before the first push; workers read it only in callbacks the
    // pushes caused.
    start = NowNs() + 1000000;
    for (uint64_t i = 0; i < n; ++i) {
      Tuple t = in.Next().tuple;
      const int64_t due = start + static_cast<int64_t>(i) * period;
      res.gen_late_ms = std::max(res.gen_late_ms, SpinUntil(due) / 1e6);
      const SimTime ts = t.timestamp();
      Must(s.engine->PushInput(s.in, std::move(t), ts));
    }
    s.engine->WaitQuiescent();
    Must(s.engine->Stop());
    for (const auto& v : latency) {
      res.latency_us.insert(res.latency_us.end(), v.begin(), v.end());
    }
    return res;
  }

  double SetupOnly() override {
    Digests d = MakeDigests(def_.outputs);
    int64_t t0 = NowNs();
    System s = Build(&d);
    double setup = static_cast<double>(NowNs() - t0) / 1e9;
    Must(s.engine->Stop());
    return setup;
  }

  RepResult RunRep(SpanTrace* trace, uint32_t trace_id) override {
    SpanTrace::Scope rep(trace, "rep", trace_id);
    RepResult r;
    r.outputs = MakeDigests(def_.outputs);
    InputStream in = MakeInput();
    System s;
    {
      SpanTrace::Scope span(trace, "setup", trace_id);
      s = Build(&r.outputs);
    }
    ThreadedEngine& eng = *s.engine;
    RunClosedLoop(
        &in, def_.tuples_per_rep, def_.slice,
        [&](int, Tuple t, SimTime now) {
          return eng.PushInput(s.in, std::move(t), now);
        },
        [&](SimTime) {
          eng.WaitQuiescent();
          return Status::OK();
        },
        &r, trace, trace_id);
    r.counters["activations"] = static_cast<double>(eng.activations());
    r.counters["steals"] = static_cast<double>(eng.steals());
    r.counters["ring_full"] = static_cast<double>(eng.ring_full_events());
    r.counters["chunks"] = CounterValue("engine.threaded.batch.emitted_chunks");
    r.counters["chunk_tuples"] =
        CounterValue("engine.threaded.batch.emitted_tuples");
    Status st = eng.Stop();
    if (!st.ok()) {
      ++r.failures;
      r.problems.push_back("threaded engine error: " + st.ToString());
    }
    return r;
  }

 private:
  int workers_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Shared
// ---------------------------------------------------------------------------

Workload::Workload(WorkloadDef def, const Options& opts)
    : def_(std::move(def)), opts_(opts) {}

InputStream Workload::MakeInput() const {
  std::vector<Source> sources;
  int i = 0;
  for (const auto& in : def_.query.inputs()) {
    const bool wide = def_.name == "engine_dag";
    auto gen = std::make_unique<StreamGenerator>(
        in.schema, wide ? WideGens() : NarrowGens(),
        ArrivalProcess::Poisson(SourceRate(def_.name)),
        SourceSeed(opts_.seed, def_.name, i++));
    sources.emplace_back(in.name, std::move(gen));
  }
  return InputStream(std::move(sources));
}

Digests Workload::RunOracle() const {
  Digests d = MakeDigests(def_.outputs);
  InputStream in = MakeInput();
  LocalEngine e(def_, /*batch_size=*/1, &d);
  RepResult r;
  if (def_.runtime == Runtime::kFederation) {
    // The same tuples the federation injects: everything stamped before
    // the end of the simulated input window.
    const SimTime end = SimTime::Seconds(def_.sim_seconds);
    std::vector<InputStream::Item> buf;
    while (in.PeekTime() < end) {
      buf.clear();
      while (buf.size() < def_.slice && in.PeekTime() < end) {
        buf.push_back(in.Next());
      }
      const SimTime now = buf.back().tuple.timestamp();
      for (auto& item : buf) {
        Must(e.Push(item.source, std::move(item.tuple), now));
      }
      Must(e.Run(now, /*tick=*/false));
    }
    return d;
  }
  RunClosedLoop(
      &in, def_.tuples_per_rep, def_.slice,
      [&](int src, Tuple t, SimTime now) {
        return e.Push(src, std::move(t), now);
      },
      [&](SimTime now) { return e.Run(now, def_.tick_after_slice); }, &r,
      nullptr, 0);
  AURORA_CHECK(r.failures == 0) << "oracle run failed";
  return d;
}

LiveResult Workload::RunLive(double rate, double seconds) {
  LiveResult res;
  Digests d = MakeDigests(def_.outputs);
  InputStream in = MakeInput();
  // fed3's query runs on its single-engine deployment here.
  const int batch =
      def_.runtime == Runtime::kFederation ? 1 : def_.batch_size;
  LocalEngine e(def_, batch, &d);
  const int64_t period = static_cast<int64_t>(1e9 / rate);
  const uint64_t n = static_cast<uint64_t>(rate * seconds);
  res.latency_us.reserve(n);
  const int64_t start = NowNs() + 1000000;
  for (uint64_t i = 0; i < n; ++i) {
    InputStream::Item item = in.Next();
    const SimTime ts = item.tuple.timestamp();
    const int64_t due = start + static_cast<int64_t>(i) * period;
    res.gen_late_ms = std::max(res.gen_late_ms, SpinUntil(due) / 1e6);
    Must(e.Push(item.source, std::move(item.tuple), ts));
    Must(e.Run(ts, /*tick=*/false));
    res.latency_us.push_back(static_cast<double>(NowNs() - due) / 1e3);
  }
  return res;
}

void Account(const WorkloadDef& def, const Digests& oracle, const RepResult& r,
             Report* rep) {
  rep->attempted += r.tuples;
  rep->failed += r.failures;
  rep->problems.insert(rep->problems.end(), r.problems.begin(),
                       r.problems.end());
  rep->failed += DiffAgainstOracle(def.outputs, oracle, r.outputs,
                                   &rep->problems);
  if (rep->input_digest == 0) {
    rep->input_digest = r.input_digest;
    rep->output_digest = CombinedDigest(def.outputs, r.outputs);
  } else if (r.input_digest != rep->input_digest) {
    ++rep->failed;
    rep->problems.push_back("repetition inputs differ from the first");
  }
  rep->correct = rep->failed == 0;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "fed3", "engine_fanout", "engine_dag", "threaded_fan8"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Options& opts) {
  WorkloadDef def;
  if (name == "fed3") {
    def = Fed3Def();
  } else if (name == "engine_fanout") {
    def = EngineFanoutDef();
  } else if (name == "engine_dag") {
    def = EngineDagDef();
  } else if (name == "threaded_fan8") {
    def = ThreadedFan8Def();
  } else {
    return nullptr;
  }
  if (opts.quick) ApplyQuick(&def);
  switch (def.runtime) {
    case Runtime::kFederation:
      return MakeFederationWorkload(std::move(def), opts);
    case Runtime::kEngine:
      return std::make_unique<EngineWorkload>(std::move(def), opts);
    case Runtime::kThreaded:
      return std::make_unique<ThreadedWorkload>(std::move(def), opts);
  }
  return nullptr;
}

}  // namespace perf
}  // namespace aurora
