// fed3: a 3-node Aurora* federation on the simulated overlay.
//
// Two Poisson sources (n0, n1) each run filter -> map on their own node;
// remote arcs carry both streams to n2, which unions them into `alerts` and
// counts windows of the union into `counts`. The loop is open in simulated
// time: each source injects its tuples at their stamped arrival times no
// matter how the system keeps up. Wall time is spent inside
// Simulation::RunUntil, in slices of kSlice simulated time whose inputs are
// generated before the slice starts.
#include <deque>
#include <functional>

#include "distributed/deployment.h"
#include "workloads.h"

namespace aurora {
namespace perf {

namespace {

constexpr SimDuration kSlice = SimDuration::Millis(50);
/// Simulated time after the last input during which deliveries complete.
constexpr SimDuration kDrain = SimDuration::Millis(500);

/// The system under test for one repetition.
struct Federation {
  Simulation sim;
  OverlayNetwork net{&sim};
  AuroraStarSystem system{&sim, &net, StarOpts()};
  DeployedQuery deployed;

  static StarOptions StarOpts() {
    StarOptions o;
    o.engine.batch_size = 1;
    o.transport.train_size = 8;
    o.transport.credit_window_bytes = 64 * 1024;
    return o;
  }

  /// Builds 3 nodes on a full mesh of default links (10 MB/s, 5 ms) and
  /// deploys the query; `alerts` records simulated latency per tuple.
  Federation(const WorkloadDef& def, Digests* outputs,
             std::vector<double>* latency_ms) {
    for (int i = 0; i < 3; ++i) {
      auto id = system.AddNode(NodeOptions{"n" + std::to_string(i), 1.0, {}});
      AURORA_CHECK(id.ok()) << id.status().ToString();
    }
    net.FullMesh(LinkOptions{});
    auto dq = DeployQuery(&system, def.query,
                          {{"f0", 0}, {"m0", 0}, {"f1", 1}, {"m1", 1},
                           {"u", 2}, {"t", 2}});
    AURORA_CHECK(dq.ok()) << dq.status().ToString();
    deployed = std::move(*dq);
    for (const OutputSpec& o : def.outputs) {
      OutputDigest* d = &(*outputs)[o.name];
      auto [node, name] = deployed.outputs.at(o.name);
      AuroraEngine::OutputCallback cb;
      if (o.name == "alerts") {
        cb = [d, latency_ms](const Tuple& t, SimTime now) {
          d->Add(t);
          latency_ms->push_back(
              static_cast<double>((now - t.timestamp()).micros()) / 1e3);
        };
      } else {
        cb = [d](const Tuple& t, SimTime) { d->Add(t); };
      }
      Status st = system.CollectOutput(node, name, std::move(cb));
      AURORA_CHECK(st.ok()) << st.ToString();
    }
  }
};

/// One source's pending tuples and its self-rescheduling inject event.
struct Feed {
  StreamNode* node = nullptr;
  std::string input;
  std::deque<Tuple> pending;
  bool scheduled = false;
};

class FederationWorkload : public Workload {
 public:
  using Workload::Workload;

  double SetupOnly() override {
    Digests d = MakeDigests(def_.outputs);
    std::vector<double> lat;
    int64_t t0 = NowNs();
    Federation f(def_, &d, &lat);
    return static_cast<double>(NowNs() - t0) / 1e9;
  }

  RepResult RunRep(SpanTrace* trace, uint32_t trace_id) override {
    SpanTrace::Scope rep(trace, "rep", trace_id);
    RepResult r;
    r.outputs = MakeDigests(def_.outputs);
    r.simulated_latency = true;
    InputStream in = MakeInput();
    std::unique_ptr<Federation> fed;
    {
      SpanTrace::Scope span(trace, "setup", trace_id);
      fed = std::make_unique<Federation>(def_, &r.outputs, &r.latency_ms);
    }

    Simulation& sim = fed->sim;
    std::vector<Feed> feeds(in.num_sources());
    for (size_t i = 0; i < feeds.size(); ++i) {
      const std::string& input = in.source(static_cast<int>(i)).input();
      feeds[i].input = input;
      feeds[i].node = &fed->system.node(fed->deployed.inputs.at(input).first);
    }
    const int push_span = trace == nullptr ? -1 : trace->Name("push");
    size_t peak_pending = 0;
    // Injects the feed's head tuple at its arrival time, then schedules the
    // next one; a feed that runs dry is re-armed when the next slice's
    // tuples are generated.
    std::function<void(Feed*)> arm = [&](Feed* f) {
      if (f->scheduled || f->pending.empty()) return;
      f->scheduled = true;
      sim.ScheduleAt(f->pending.front().timestamp(), [&, f]() {
        f->scheduled = false;
        Tuple t = std::move(f->pending.front());
        f->pending.pop_front();
        peak_pending = std::max(peak_pending, sim.pending());
        Status st;
        {
          SpanTrace::Scope span(trace, push_span, trace_id);
          st = f->node->Inject(f->input, std::move(t));
        }
        if (!st.ok()) {
          ++r.failures;
          if (r.problems.size() < 8) {
            r.problems.push_back("inject failed: " + st.ToString());
          }
        }
        arm(f);
      });
    };

    const SimTime end = SimTime::Seconds(def_.sim_seconds);
    for (SimTime until = kSlice; until < end + kDrain + kSlice;
         until += kSlice) {
      while (in.PeekTime() < std::min(until, end)) {
        InputStream::Item item = in.Next();
        feeds[item.source].pending.push_back(std::move(item.tuple));
        ++r.tuples;
      }
      for (Feed& f : feeds) arm(&f);
      RegionTimer timer;
      {
        SpanTrace::Scope span(trace, "run", trace_id);
        sim.RunUntil(until);
      }
      timer.Stop(&r.timed);
    }
    for (const Feed& f : feeds) {
      if (!f.pending.empty()) {
        ++r.failures;
        r.problems.push_back("source " + f.input + " did not drain");
      }
    }
    r.input_digest = in.digest();

    double activations = 0, steps = 0, frames = 0, overhead = 0, stalls = 0,
           sent_tuples = 0, sent_msgs = 0;
    for (size_t n = 0; n < fed->system.num_nodes(); ++n) {
      StreamNode& node = fed->system.node(static_cast<NodeId>(n));
      activations += static_cast<double>(node.engine().total_activations());
      steps += static_cast<double>(node.steps_executed());
      for (size_t d = 0; d < fed->system.num_nodes(); ++d) {
        const Transport* tx = node.PeerTransport(static_cast<NodeId>(d));
        if (tx == nullptr) continue;
        frames += static_cast<double>(tx->frames_sent());
        overhead += static_cast<double>(tx->overhead_bytes());
        stalls += static_cast<double>(tx->credit_stalls());
      }
      for (const auto& [name, b] : node.bindings()) {
        sent_tuples += static_cast<double>(b.tuples_sent);
        sent_msgs += static_cast<double>(b.messages_sent);
      }
    }
    r.counters["activations"] = activations;
    r.counters["steps"] = steps;
    r.counters["frames"] = frames;
    r.counters["overhead_bytes"] = overhead;
    r.counters["credit_stalls"] = stalls;
    r.counters["sent_tuples"] = sent_tuples;
    r.counters["sent_msgs"] = sent_msgs;
    r.counters["sim_events"] = static_cast<double>(sim.events_executed());
    r.counters["sim_peak_pending"] = static_cast<double>(peak_pending);
    return r;
  }
};

}  // namespace

std::unique_ptr<Workload> MakeFederationWorkload(WorkloadDef def,
                                                 const Options& opts) {
  return std::make_unique<FederationWorkload>(std::move(def), opts);
}

}  // namespace perf
}  // namespace aurora
