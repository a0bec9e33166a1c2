#include "layers.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ops/operator.h"
#include "sim/simulation.h"
#include "stream/ring_buffer.h"
#include "stream/stream_queue.h"
#include "tuple/serde.h"
#include "tuple/tuple_batch.h"

namespace aurora {
namespace perf {
namespace {

/// Input tuples the isolated probes and the operator replay run over.
constexpr size_t kProbeTuples = 32768;
constexpr int kProbeRepeats = 3;
/// Tuples per queue/ring push-then-pop round: the engines' train size.
constexpr size_t kTrain = 64;
/// Tuples per serialized span when no message size was observed: the
/// federation's transport train size.
constexpr size_t kSpan = 8;
/// Event-queue depth of the simulation probe when the workload has no
/// simulation of its own.
constexpr size_t kDefaultSimDepth = 16;
constexpr double kLiveRate = 100000.0;
constexpr double kLiveSeconds = 2.0;
const char* const kOpKinds[] = {"filter", "map", "tumble",
                                "union", "wsort", "join"};

double PerTuple(double total, double tuples) {
  return tuples > 0 ? total / tuples : 0.0;
}

/// A tuple with the clock the system under test processes it under.
struct Stamped {
  Tuple t;
  SimTime now;
};
/// Tuples per global input.
using Streams = std::map<std::string, std::vector<Stamped>>;

/// The workload's first `n` input tuples, cut into its slices, each tuple
/// stamped with the engine clock it meets: the end of its slice on a
/// closed-loop AuroraEngine, its own arrival time in the federation and the
/// threaded runtime.
std::vector<Streams> ProbeSlices(const Workload& w, size_t n) {
  const WorkloadDef& def = w.def();
  InputStream in = w.MakeInput();
  std::vector<Streams> slices;
  for (size_t done = 0; done < n; done += def.slice) {
    std::vector<InputStream::Item> items;
    for (size_t i = 0; i < std::min(def.slice, n - done); ++i) {
      items.push_back(in.Next());
    }
    const SimTime slice_now = items.back().tuple.timestamp();
    Streams& s = slices.emplace_back();
    for (auto& item : items) {
      const SimTime now = def.runtime == Runtime::kEngine
                              ? slice_now
                              : item.tuple.timestamp();
      s[in.source(item.source).input()].push_back(
          Stamped{std::move(item.tuple), now});
    }
  }
  return slices;
}

std::vector<Tuple> AllTuples(const std::vector<Streams>& slices) {
  std::vector<Tuple> v;
  for (const Streams& s : slices) {
    for (const auto& [name, stream] : s) {
      for (const Stamped& x : stream) v.push_back(x.t);
    }
  }
  return v;
}

// ---- Operator replay --------------------------------------------------------

class CollectEmitter : public Emitter {
 public:
  CollectEmitter(std::vector<std::vector<Stamped>>* outs, bool keep)
      : outs_(outs), keep_(keep) {}
  void Emit(int output, Tuple t) override {
    ++emitted;
    if (keep_) (*outs_)[output].push_back(Stamped{std::move(t), now});
  }
  SimTime now;
  uint64_t emitted = 0;

 private:
  std::vector<std::vector<Stamped>>* outs_;
  bool keep_;
};

struct BoxCost {
  std::string kind;
  double ns = 0;
  uint64_t in = 0;
  uint64_t out = 0;
};

/// One operator fed from outside the engine. State persists across Feed
/// calls, so a workload's slices can be replayed one after another.
class ReplayBox {
 public:
  ReplayBox(const OperatorSpec& spec, std::vector<SchemaPtr> schemas,
            bool keep_outputs)
      : keep_(keep_outputs) {
    auto op = CreateOperator(spec);
    Must(op.status());
    op_ = std::move(*op);
    Must(op_->Init(std::move(schemas)));
    outs_.resize(static_cast<size_t>(op_->num_outputs()));
    cost_.kind = spec.kind;
  }

  /// Processes one slice the way the engine activates the box: batches of
  /// `batch_size` through ProcessBatch for a single-input box, otherwise one
  /// tuple per input in round-robin through Process. Times only the
  /// operator calls; replaces outputs() with this slice's emissions.
  void Feed(const std::vector<const std::vector<Stamped>*>& inputs,
            int batch_size) {
    for (auto& o : outs_) o.clear();
    CollectEmitter em(&outs_, keep_);
    int64_t ns = 0;
    if (inputs.size() == 1 && batch_size > 1) {
      const std::vector<Stamped>& in = *inputs[0];
      const size_t b = static_cast<size_t>(batch_size);
      for (size_t i = 0; i < in.size(); i += b) {
        const size_t end = std::min(in.size(), i + b);
        batch_.Clear();
        for (size_t j = i; j < end; ++j) batch_.Push(in[j].t, in[j].now);
        em.now = in[end - 1].now;
        const int64_t t0 = NowNs();
        Status st = op_->ProcessBatch(0, batch_, &em);
        ns += NowNs() - t0;
        Must(st);
      }
    } else {
      std::vector<size_t> next(inputs.size(), 0);
      const int64_t t0 = NowNs();
      for (bool more = true; more;) {
        more = false;
        for (size_t k = 0; k < inputs.size(); ++k) {
          if (next[k] >= inputs[k]->size()) continue;
          const Stamped& s = (*inputs[k])[next[k]++];
          em.now = s.now;
          Must(op_->Process(static_cast<int>(k), s.t, s.now, &em));
          more = true;
        }
      }
      ns = NowNs() - t0;
    }
    cost_.ns += static_cast<double>(ns);
    for (const auto* in : inputs) cost_.in += in->size();
    cost_.out += em.emitted;
  }

  const Operator& op() const { return *op_; }
  const BoxCost& cost() const { return cost_; }
  const std::vector<Stamped>& outputs(int i) const {
    return outs_[static_cast<size_t>(i)];
  }

 private:
  OperatorPtr op_;
  std::vector<std::vector<Stamped>> outs_;
  TupleBatch batch_;
  BoxCost cost_;
  bool keep_;
};

/// Replays the query network slice by slice; within a slice, box by box in
/// topological order, each box consuming what its upstream boxes emitted
/// for that slice (the order a longest-queue scheduler drains a slice in).
std::vector<BoxCost> ReplayNetwork(const GlobalQuery& q,
                                   const std::vector<Streams>& slices,
                                   int batch_size) {
  struct Source {
    std::string input;  // a global input, or
    int node = -1;      // an upstream node's
    int out = 0;        // output
  };
  struct Node {
    std::unique_ptr<ReplayBox> box;
    std::vector<Source> in;
  };
  std::vector<Node> nodes;
  std::map<std::string, int> built;
  while (built.size() < q.boxes().size()) {
    const size_t before = built.size();
    for (const auto& box : q.boxes()) {
      if (built.count(box.name)) continue;
      std::vector<Source> in;
      std::vector<SchemaPtr> schemas;
      bool ready = true;
      for (const auto& arc : q.arcs()) {
        if (arc.to_kind != GlobalQuery::ArcDef::ToKind::kBox ||
            arc.to != box.name) {
          continue;
        }
        const size_t idx = static_cast<size_t>(arc.to_index);
        if (in.size() <= idx) {
          in.resize(idx + 1);
          schemas.resize(idx + 1);
        }
        if (arc.from_kind == GlobalQuery::ArcDef::FromKind::kInput) {
          in[idx].input = arc.from;
          for (const auto& def : q.inputs()) {
            if (def.name == arc.from) schemas[idx] = def.schema;
          }
        } else if (auto it = built.find(arc.from); it != built.end()) {
          in[idx].node = it->second;
          in[idx].out = arc.from_index;
          schemas[idx] = nodes[it->second].box->op().output_schema(
              arc.from_index);
        } else {
          ready = false;
        }
      }
      if (!ready) continue;
      built[box.name] = static_cast<int>(nodes.size());
      nodes.push_back(Node{std::make_unique<ReplayBox>(box.spec, schemas,
                                                       /*keep_outputs=*/true),
                           std::move(in)});
    }
    AURORA_CHECK(built.size() > before) << "query network has a cycle";
  }
  static const std::vector<Stamped> kEmpty;
  for (const Streams& slice : slices) {
    for (Node& n : nodes) {
      std::vector<const std::vector<Stamped>*> in;
      for (const Source& s : n.in) {
        if (s.node >= 0) {
          in.push_back(&nodes[s.node].box->outputs(s.out));
        } else {
          auto it = slice.find(s.input);
          in.push_back(it == slice.end() ? &kEmpty : &it->second);
        }
      }
      n.box->Feed(in, batch_size);
    }
  }
  std::vector<BoxCost> costs;
  for (const Node& n : nodes) costs.push_back(n.box->cost());
  return costs;
}

/// Median of kProbeRepeats replays, box by box.
std::vector<BoxCost> MedianReplay(const GlobalQuery& q,
                                  const std::vector<Streams>& slices,
                                  int batch_size) {
  std::vector<std::vector<BoxCost>> runs;
  for (int i = 0; i < kProbeRepeats; ++i) {
    runs.push_back(ReplayNetwork(q, slices, batch_size));
  }
  std::vector<BoxCost> out = runs[0];
  for (size_t b = 0; b < out.size(); ++b) {
    std::vector<double> ns;
    for (const auto& run : runs) ns.push_back(run[b].ns);
    out[b].ns = Median(ns);
  }
  return out;
}

/// A union, wsort or join box with engine_dag's settings, for a workload
/// whose query lacks that kind (every query has filter, map and tumble),
/// run slice by slice on its first input stream, split alternately between
/// two inputs for union and join.
BoxCost CanonicalBox(const std::string& kind,
                     const std::vector<Streams>& slices, int batch_size) {
  const std::string& input = slices.front().begin()->first;
  const SchemaPtr schema =
      slices.front().begin()->second.front().t.schema();
  OperatorSpec spec;
  if (kind == "union") spec = UnionSpec(2);
  if (kind == "wsort") spec = WSortSpec({"seq"}, 1000, 64);
  if (kind == "join") spec = JoinSpec("k", "k", 200);
  AURORA_CHECK(!spec.kind.empty()) << "no stand-in box for kind " << kind;
  const size_t ways = spec.kind == "wsort" ? 1 : 2;
  std::vector<std::vector<std::vector<Stamped>>> split(slices.size());
  for (size_t s = 0; s < slices.size(); ++s) {
    split[s].resize(ways);
    const std::vector<Stamped>& all = slices[s].at(input);
    for (size_t i = 0; i < all.size(); ++i) {
      split[s][i % ways].push_back(all[i]);
    }
  }
  std::vector<double> ns;
  BoxCost cost;
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    ReplayBox box(spec, std::vector<SchemaPtr>(ways, schema),
                  /*keep_outputs=*/false);
    for (const auto& parts : split) {
      std::vector<const std::vector<Stamped>*> in;
      for (const auto& p : parts) in.push_back(&p);
      box.Feed(in, batch_size);
    }
    cost = box.cost();
    ns.push_back(cost.ns);
  }
  cost.ns = Median(ns);
  return cost;
}

// ---- Isolated layer probes --------------------------------------------------

template <typename Fn>
double MedianNs(Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < kProbeRepeats; ++i) {
    const int64_t t0 = NowNs();
    fn();
    v.push_back(static_cast<double>(NowNs() - t0));
  }
  return Median(v);
}

struct SerdeCost {
  double encode_ns = 0, decode_ns = 0, bytes = 0, tuples = 0;
};

/// SerializeTuplesInto / DeserializeTuplesInto over `span`-tuple messages
/// of each input stream, with reused scratch buffers as the transport and
/// StreamNode use them.
SerdeCost ProbeSerde(const GlobalQuery& q, const std::vector<Streams>& slices,
                     size_t span) {
  SerdeCost c;
  for (const auto& def : q.inputs()) {
    std::vector<Tuple> tuples;
    for (const Streams& slice : slices) {
      auto it = slice.find(def.name);
      if (it == slice.end()) continue;
      for (const Stamped& s : it->second) tuples.push_back(s.t);
    }
    std::vector<std::vector<uint8_t>> wire;
    for (size_t i = 0; i < tuples.size(); i += span) {
      wire.emplace_back();
      SerializeTuplesInto(tuples.data() + i,
                          std::min(span, tuples.size() - i), &wire.back());
      c.bytes += static_cast<double>(wire.back().size());
    }
    std::vector<uint8_t> scratch;
    c.encode_ns += MedianNs([&] {
      for (size_t i = 0; i < tuples.size(); i += span) {
        SerializeTuplesInto(tuples.data() + i,
                            std::min(span, tuples.size() - i), &scratch);
      }
    });
    std::vector<Tuple> decoded;
    c.decode_ns += MedianNs([&] {
      for (const auto& buf : wire) {
        Must(DeserializeTuplesInto(buf, def.schema, &decoded));
      }
    });
    c.tuples += static_cast<double>(tuples.size());
  }
  return c;
}

/// StreamQueue: push a train, pop it, repeat.
double ProbeQueueNs(const std::vector<Tuple>& tuples) {
  StreamQueue q;
  return MedianNs([&] {
           for (size_t i = 0; i < tuples.size(); i += kTrain) {
             const size_t end = std::min(tuples.size(), i + kTrain);
             for (size_t j = i; j < end; ++j) q.Push(tuples[j]);
             while (!q.empty()) q.Pop();
           }
         }) /
         static_cast<double>(tuples.size());
}

/// BoundedRing on one thread: TryPushN a train, TryPop it back.
double ProbeRingNs(const std::vector<Tuple>& tuples) {
  BoundedRing<Tuple> ring(1024);
  std::vector<Tuple> stage(kTrain);
  std::vector<double> v;
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    int64_t ns = 0;
    Tuple out;
    for (size_t i = 0; i < tuples.size(); i += kTrain) {
      const size_t n = std::min(kTrain, tuples.size() - i);
      std::copy(tuples.begin() + i, tuples.begin() + i + n, stage.begin());
      const int64_t t0 = NowNs();
      size_t pushed = ring.TryPushN(stage.data(), n);
      while (ring.TryPop(&out)) {
      }
      ns += NowNs() - t0;
      AURORA_CHECK(pushed == n) << "ring probe overflow";
    }
    v.push_back(static_cast<double>(ns));
  }
  return Median(v) / static_cast<double>(tuples.size());
}

/// Spins on `try_step` and yields after a run of failures, so two threads
/// the scheduler placed on one core still alternate quickly.
template <typename Fn>
void SpinYield(Fn&& try_step) {
  for (int fails = 0; !try_step();) {
    if (++fails % 64 == 0) std::this_thread::yield();
  }
}

/// BoundedRing handoff between a producer and a consumer thread.
double ProbeRingHandoffNs(const std::vector<Tuple>& tuples) {
  std::vector<double> v;
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    BoundedRing<Tuple> ring(1024);
    std::vector<Tuple> src = tuples;
    std::atomic<bool> go{false};
    std::thread producer([&] {
      SpinYield([&] { return go.load(std::memory_order_acquire); });
      for (size_t i = 0; i < src.size();) {
        SpinYield([&] {
          size_t k =
              ring.TryPushN(src.data() + i, std::min(kTrain, src.size() - i));
          i += k;
          return k > 0;
        });
      }
    });
    const int64_t t0 = NowNs();
    go.store(true, std::memory_order_release);
    Tuple out;
    for (size_t got = 0; got < tuples.size(); ++got) {
      SpinYield([&] { return ring.TryPop(&out); });
    }
    producer.join();
    v.push_back(static_cast<double>(NowNs() - t0));
  }
  return Median(v) / static_cast<double>(tuples.size());
}

/// Simulation: ScheduleAt + RunOne with `depth` other events pending.
double ProbeSimEventNs(size_t depth, size_t events) {
  Simulation sim;
  for (size_t i = 0; i < depth; ++i) {
    sim.ScheduleAt(SimTime::Seconds(1e6), [] {});
  }
  uint64_t fired = 0;
  const double ns = MedianNs([&] {
    for (size_t i = 0; i < events; ++i) {
      sim.ScheduleAt(sim.Now() + SimDuration::Micros(1), [&fired] { ++fired; });
      sim.RunOne();
    }
  });
  AURORA_CHECK(fired == events * static_cast<size_t>(kProbeRepeats))
      << "sim probe lost events";
  return ns / static_cast<double>(events);
}

/// Transport: span Send of `span` tuples on a train-8 multiplexed link,
/// then the simulation events that deliver it.
double ProbeTransportNs(const std::vector<Tuple>& tuples, size_t span) {
  Simulation sim;
  OverlayNetwork net(&sim);
  net.AddNode(NodeOptions{"a", 1.0, {}});
  net.AddNode(NodeOptions{"b", 1.0, {}});
  Must(net.AddLink(0, 1, LinkOptions{}));
  TransportOptions to;
  to.train_size = 8;
  Transport tx(&sim, &net, 0, 1, to);
  Must(tx.RegisterStream("probe", 1.0));
  uint64_t delivered = 0;
  tx.SetDeliveryHandler(
      [&delivered](const std::string&, const Message&) { ++delivered; });
  size_t msgs = 0;
  const double ns = MedianNs([&] {
    for (size_t i = 0; i < tuples.size(); i += span) {
      Must(tx.Send("probe", tuples.data() + i,
                   std::min(span, tuples.size() - i)));
      sim.RunAll();
      ++msgs;
    }
  });
  AURORA_CHECK(delivered == msgs) << "transport probe lost messages";
  return ns / (static_cast<double>(msgs) / kProbeRepeats);
}

double NsPerTuple(const RepResult& r, bool cpu) {
  return static_cast<double>(cpu ? r.timed.cpu_ns : r.timed.wall_ns) /
         static_cast<double>(r.tuples);
}

}  // namespace

Report RunTraced(Workload& w) {
  const WorkloadDef& def = w.def();
  const Options& opts = w.options();
  const bool fed = def.runtime == Runtime::kFederation;
  const bool threaded = def.runtime == Runtime::kThreaded;
  Report rep;
  const Digests oracle = w.RunOracle();
  Account(def, oracle, w.RunRep(nullptr, 0), &rep);  // warm-up

  // Untraced, bench-traced and program-traced repetitions, interleaved so
  // drift on the host hits all three alike.
  std::vector<double> plain_wall, plain_cpu, plain_tput, bench_wall,
      program_wall;
  // Spans and counters come from the first bench-traced repetition; later
  // ones only measure the tracing overhead.
  SpanTrace spans;
  RepResult traced;
  double qdelay_p50 = 0, qdelay_p99 = 0;
  Tracer& tracer = Tracer::Global();
  tracer.set_capacity(1 << 16);
  const int rounds = opts.quick ? 1 : 3;
  for (int i = 0; i < rounds; ++i) {
    RepResult p = w.RunRep(nullptr, 0);
    Account(def, oracle, p, &rep);
    plain_wall.push_back(NsPerTuple(p, false));
    plain_cpu.push_back(NsPerTuple(p, true));
    plain_tput.push_back(1e9 / NsPerTuple(p, false));
    if (i == 2) break;

    MetricsRegistry::Global().Reset();
    SpanTrace overhead_only;
    RepResult t = w.RunRep(i == 0 ? &spans : &overhead_only,
                           static_cast<uint32_t>(i + 1));
    Account(def, oracle, t, &rep);
    bench_wall.push_back(NsPerTuple(t, false));
    if (i == 0) {
      if (const LatencyHistogram* h = MetricsRegistry::Global().FindHistogram(
              "net.transport.queue_delay_us")) {
        qdelay_p50 = h->Quantile(0.5);
        qdelay_p99 = h->Quantile(0.99);
      }
      traced = std::move(t);
    }

    tracer.Clear();
    tracer.set_enabled(true);
    RepResult g = w.RunRep(nullptr, 0);
    tracer.set_enabled(false);
    tracer.Clear();
    Account(def, oracle, g, &rep);
    program_wall.push_back(NsPerTuple(g, false));
  }
  const double e2e_cpu_ns = Median(plain_cpu);
  const double e2e_wall_ns = Median(plain_wall);
  const double e2e_tput = Median(plain_tput);

  // Single-worker baseline of the same job.
  double w1_tput = e2e_tput;
  if (threaded && w.workers() > 1) {
    const int saved = w.workers();
    w.set_workers(1);
    std::vector<double> v;
    for (int i = 0; i < (opts.quick ? 1 : 2); ++i) {
      RepResult r = w.RunRep(nullptr, 0);
      Account(def, oracle, r, &rep);
      v.push_back(1e9 / NsPerTuple(r, false));
    }
    w.set_workers(saved);
    w1_tput = Median(v);
  }

  // Isolated probes on the workload's own tuples.
  const std::vector<Streams> probe =
      ProbeSlices(w, opts.quick ? 2048 : kProbeTuples);
  const std::vector<Tuple> tuples = AllTuples(probe);
  const double probe_n = static_cast<double>(tuples.size());
  const auto& c = traced.counters;
  auto counter = [&c](const char* name) {
    auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  const double n_traced = static_cast<double>(traced.tuples);
  const size_t msg_tuples =
      counter("sent_msgs") > 0
          ? std::max<size_t>(1, static_cast<size_t>(counter("sent_tuples") /
                                                        counter("sent_msgs") +
                                                    0.5))
          : kSpan;
  const SerdeCost serde = ProbeSerde(def.query, probe, msg_tuples);
  const double queue_ns = ProbeQueueNs(tuples);
  const double ring_ns = ProbeRingNs(tuples);
  const double handoff_ns = ProbeRingHandoffNs(tuples);
  const size_t sim_depth =
      fed ? static_cast<size_t>(counter("sim_peak_pending")) : kDefaultSimDepth;
  const double event_ns =
      ProbeSimEventNs(std::max<size_t>(1, sim_depth), tuples.size());
  const double send_ns = ProbeTransportNs(tuples, msg_tuples);

  const std::vector<BoxCost> boxes =
      MedianReplay(def.query, probe, def.batch_size);
  double ops_ns = 0, hops = 0;
  std::map<std::string, BoxCost> by_kind;
  for (const BoxCost& b : boxes) {
    ops_ns += b.ns;
    hops += static_cast<double>(b.in);
    BoxCost& k = by_kind[b.kind];
    k.kind = b.kind;
    k.ns += b.ns;
    k.in += b.in;
    k.out += b.out;
  }
  for (const char* kind : kOpKinds) {
    if (!by_kind.count(kind)) {
      by_kind[kind] = CanonicalBox(kind, probe, def.batch_size);
    }
  }

  const LiveResult live =
      w.RunLive(kLiveRate, opts.quick ? 0.1 : kLiveSeconds);

  // Layer sum along the path, per input tuple, against the e2e CPU cost.
  const double ops_per_tuple = ops_ns / probe_n;
  const double hops_per_tuple = hops / probe_n;
  double explained =
      ops_per_tuple + hops_per_tuple * (threaded ? ring_ns : queue_ns);
  if (fed) {
    explained += PerTuple(counter("sent_tuples"), n_traced) *
                     PerTuple(serde.decode_ns, serde.tuples) +
                 PerTuple(counter("sent_msgs"), n_traced) * send_ns +
                 PerTuple(counter("sim_events"), n_traced) * event_ns;
  }
  const double residual = e2e_cpu_ns - explained;
  const double push_ns = static_cast<double>(spans.TotalNs("push"));
  const double run_self_ns = static_cast<double>(spans.SelfNs("run"));

  rep.Add("tuple.serde.encode_ns_per_tuple",
          PerTuple(serde.encode_ns, serde.tuples), "ns");
  rep.Add("tuple.serde.decode_ns_per_tuple",
          PerTuple(serde.decode_ns, serde.tuples), "ns");
  rep.Add("tuple.serde.wire_bytes_per_tuple",
          PerTuple(serde.bytes, serde.tuples), "B");
  rep.Add("stream.queue.push_pop_ns_per_tuple", queue_ns, "ns");
  rep.Add("stream.queue.peak_depth", counter("queue_peak"), "tuples");
  rep.Add("stream.ring.push_pop_ns_per_tuple", ring_ns, "ns");
  rep.Add("stream.ring.handoff_ns_per_tuple", handoff_ns, "ns");
  for (const char* kind : kOpKinds) {
    const BoxCost& k = by_kind[kind];
    const double in = static_cast<double>(k.in);
    rep.Add(std::string("ops.") + kind + ".ns_per_tuple", PerTuple(k.ns, in),
            "ns");
    rep.Add(std::string("ops.") + kind + ".out_per_in",
            PerTuple(static_cast<double>(k.out), in), "ratio");
  }
  rep.Add("ops.ns_per_tuple", ops_per_tuple, "ns");
  rep.Add("ops.hops_per_tuple", hops_per_tuple, "count");
  rep.Add("engine.push_ns_per_tuple", PerTuple(push_ns, n_traced), "ns");
  rep.Add("engine.run_ns_per_tuple", PerTuple(run_self_ns, n_traced), "ns");
  rep.Add("engine.push_busy_frac", PerTuple(push_ns, push_ns + run_self_ns),
          "ratio");
  rep.Add("engine.activations_per_ktuple",
          PerTuple(counter("activations") * 1e3, n_traced), "count");
  rep.Add("engine.batch.mean_chunk",
          PerTuple(counter("chunk_tuples"), counter("chunks")), "tuples");
  rep.Add("engine.steals_per_ktuple",
          PerTuple(counter("steals") * 1e3, n_traced), "count");
  rep.Add("engine.ring_full_per_ktuple",
          PerTuple(counter("ring_full") * 1e3, n_traced), "count");
  rep.Add("engine.w1_tuples_per_s", w1_tput, "tuples/s");
  rep.Add("engine.scaling", PerTuple(e2e_tput, w1_tput), "ratio");
  rep.Add("engine.live_p50_us", Quantile(live.latency_us, 0.50), "us");
  rep.Add("engine.live_p99_us", Quantile(live.latency_us, 0.99), "us");
  rep.Add("engine.live_gen_late_ms", live.gen_late_ms, "ms");
  rep.Add("sim.events_per_tuple", PerTuple(counter("sim_events"), n_traced),
          "count");
  rep.Add("sim.peak_pending", counter("sim_peak_pending"), "count");
  rep.Add("sim.ns_per_event", event_ns, "ns");
  rep.Add("sim.latency_p999_ms",
          fed ? Quantile(traced.latency_ms, 0.999) : 0.0, "sim_ms");
  rep.Add("net.send_ns_per_msg", send_ns, "ns");
  rep.Add("net.frames_per_ktuple", PerTuple(counter("frames") * 1e3, n_traced),
          "count");
  rep.Add("net.overhead_bytes_per_tuple",
          PerTuple(counter("overhead_bytes"), n_traced), "B");
  rep.Add("net.queue_delay_p50_us", qdelay_p50, "sim_us");
  rep.Add("net.queue_delay_p99_us", qdelay_p99, "sim_us");
  rep.Add("net.credit_stalls", counter("credit_stalls"), "count");
  rep.Add("distributed.steps_per_ktuple",
          PerTuple(counter("steps") * 1e3, n_traced), "count");
  rep.Add("system.cpu_ns_per_tuple", e2e_cpu_ns, "ns");
  rep.Add("system.residual_ns_per_tuple", residual, "ns");
  rep.Add("bench.residual_frac", PerTuple(residual, e2e_cpu_ns), "ratio");
  rep.Add("obs.program_trace_overhead_frac",
          Median(program_wall) / e2e_wall_ns - 1.0, "ratio");
  rep.Add("obs.bench_trace_overhead_frac",
          Median(bench_wall) / e2e_wall_ns - 1.0, "ratio");

  rep.notes.emplace_back("probe_tuples", Num(probe_n));
  rep.notes.emplace_back("probe_msg_tuples", std::to_string(msg_tuples));
  rep.notes.emplace_back("live_samples",
                         std::to_string(live.latency_us.size()));
  rep.notes.emplace_back("spans", std::to_string(spans.size()));
  rep.notes.emplace_back("workers", std::to_string(w.workers()));

  const std::string path = "bench_trace_" + def.name + ".json";
  if (!spans.WriteJson(path, def.name, opts.seed, rep.metrics)) {
    ++rep.failed;
    rep.correct = false;
    rep.problems.push_back("could not write " + path);
  }
  return rep;
}

}  // namespace perf
}  // namespace aurora
