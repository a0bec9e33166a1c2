// Single-node Aurora run-time (§2.3, Fig. 3): topology management, train
// scheduling, choke/hold, connection points, dynamic reconfiguration.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine/aurora_engine.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing_util::GetInt;
using testing_util::PaperFigure2Stream;
using testing_util::SchemaAB;

Tuple T(int64_t a, int64_t b) {
  return MakeTuple(SchemaAB(), {Value(a), Value(b)});
}

// input -> filter(B>=lo) -> tumble(cnt by A) -> output.
struct Pipeline {
  AuroraEngine engine;
  PortId in = -1, out = -1;
  BoxId filter = -1, tumble = -1;
  std::vector<Tuple> collected;

  explicit Pipeline(EngineOptions opts = {}, int64_t lo = 0) : engine(opts) {
    in = *engine.AddInput("in", SchemaAB());
    out = *engine.AddOutput("out");
    filter = *engine.AddBox(
        FilterSpec(Predicate::Compare("B", CompareOp::kGe, Value(lo))));
    tumble = *engine.AddBox(TumbleSpec("cnt", "B", {"A"}));
    AURORA_CHECK(engine.Connect(Endpoint::InputPort(in),
                                Endpoint::BoxPort(filter, 0)).ok());
    AURORA_CHECK(engine.Connect(Endpoint::BoxPort(filter, 0),
                                Endpoint::BoxPort(tumble, 0)).ok());
    AURORA_CHECK(engine.Connect(Endpoint::BoxPort(tumble, 0),
                                Endpoint::OutputPort(out)).ok());
    AURORA_CHECK(engine.InitializeBoxes().ok());
    engine.SetOutputCallback(out, [this](const Tuple& t, SimTime) {
      collected.push_back(t);
    });
  }
};

TEST(EngineTest, EndToEndPipeline) {
  Pipeline p;
  for (const Tuple& t : PaperFigure2Stream()) {
    ASSERT_OK(p.engine.PushInput(p.in, t, t.timestamp()));
  }
  ASSERT_OK(p.engine.RunUntilQuiescent(SimTime::Millis(10)));
  ASSERT_EQ(p.collected.size(), 2u);
  EXPECT_EQ(GetInt(p.collected[0], "Result"), 2);
  EXPECT_EQ(GetInt(p.collected[1], "Result"), 3);
  EXPECT_GT(p.engine.total_cpu_micros(), 0.0);
}

TEST(EngineTest, SchemaMismatchOnPushRejected) {
  Pipeline p;
  SchemaPtr other = Schema::Make({Field{"X", ValueType::kString}});
  Tuple t = MakeTuple(other, {Value("boom")});
  EXPECT_TRUE(p.engine.PushInput(p.in, t, SimTime()).IsInvalidArgument());
}

TEST(EngineTest, FanOutCopiesTuples) {
  AuroraEngine engine;
  PortId in = *engine.AddInput("in", SchemaAB());
  PortId out1 = *engine.AddOutput("o1");
  PortId out2 = *engine.AddOutput("o2");
  ASSERT_OK(engine.Connect(Endpoint::InputPort(in),
                           Endpoint::OutputPort(out1)).status());
  ASSERT_OK(engine.Connect(Endpoint::InputPort(in),
                           Endpoint::OutputPort(out2)).status());
  int count1 = 0, count2 = 0;
  engine.SetOutputCallback(out1, [&](const Tuple&, SimTime) { ++count1; });
  engine.SetOutputCallback(out2, [&](const Tuple&, SimTime) { ++count2; });
  ASSERT_OK(engine.PushInput(in, T(1, 1), SimTime()));
  EXPECT_EQ(count1, 1);
  EXPECT_EQ(count2, 1);
}

TEST(EngineTest, ChokeHoldsNewArrivalsButDrainsQueue) {
  Pipeline p;
  ArcId arc = *p.engine.FindArcInto(p.filter, 0);
  ASSERT_OK(p.engine.PushInput(p.in, T(1, 1), SimTime()));
  ASSERT_OK(p.engine.ChokeArc(arc));
  ASSERT_OK(p.engine.PushInput(p.in, T(2, 2), SimTime()));
  EXPECT_EQ(p.engine.ArcQueueSize(arc), 1u);   // pre-choke tuple drains
  EXPECT_EQ(p.engine.HeldTupleCount(arc), 1u); // post-choke tuple held
  ASSERT_OK(p.engine.RunUntilQuiescent(SimTime()));
  EXPECT_EQ(p.engine.ArcQueueSize(arc), 0u);
  // Unchoke releases the held tuple.
  ASSERT_OK(p.engine.UnchokeArc(arc));
  EXPECT_EQ(p.engine.ArcQueueSize(arc), 1u);
  EXPECT_EQ(p.engine.HeldTupleCount(arc), 0u);
}

TEST(EngineTest, ConnectionPointRecordsAndServesAdHocQueries) {
  Pipeline p;
  ArcId arc = *p.engine.FindArcInto(p.tumble, 0);
  RetentionPolicy policy;
  policy.max_tuples = 100;
  ASSERT_OK(p.engine.MakeConnectionPoint(arc, "cp", policy));
  for (const Tuple& t : PaperFigure2Stream()) {
    ASSERT_OK(p.engine.PushInput(p.in, t, t.timestamp()));
  }
  ASSERT_OK(p.engine.RunUntilQuiescent(SimTime::Millis(10)));
  ASSERT_OK_AND_ASSIGN(ConnectionPoint * cp, p.engine.GetConnectionPoint("cp"));
  EXPECT_EQ(cp->history_size(), 7u);
  int matched = 0;
  cp->QueryHistory([](const Tuple& t) { return t.Get("A").AsInt() == 2; },
                   [&](const Tuple&) { ++matched; });
  EXPECT_EQ(matched, 3);
}

TEST(EngineTest, RemoveBoxLifecycle) {
  Pipeline p;
  // A fully-wired box cannot be removed...
  EXPECT_TRUE(p.engine.RemoveBox(p.filter).IsFailedPrecondition());
  // ...until its arcs are gone.
  ArcId in_arc = *p.engine.FindArcInto(p.filter, 0);
  ArcId out_arc = p.engine.ArcsFrom(Endpoint::BoxPort(p.filter, 0))[0];
  ASSERT_OK(p.engine.DisconnectArc(in_arc));
  ASSERT_OK(p.engine.DisconnectArc(out_arc));
  ASSERT_OK(p.engine.RemoveBox(p.filter));
  EXPECT_EQ(p.engine.num_boxes(), 1u);
}

TEST(EngineTest, ExtractAndAdoptKeepsOperatorState) {
  AuroraEngine a, b;
  PortId in = *a.AddInput("in", SchemaAB());
  PortId out = *a.AddOutput("out");
  BoxId t = *a.AddBox(TumbleSpec("cnt", "B", {"A"}));
  ASSERT_OK(a.Connect(Endpoint::InputPort(in), Endpoint::BoxPort(t, 0)).status());
  ASSERT_OK(a.Connect(Endpoint::BoxPort(t, 0), Endpoint::OutputPort(out)).status());
  ASSERT_OK(a.InitializeBoxes());
  ASSERT_OK(a.PushInput(in, T(5, 1), SimTime()));
  ASSERT_OK(a.PushInput(in, T(5, 2), SimTime()));
  ASSERT_OK(a.RunUntilQuiescent(SimTime()));
  // Open window (A=5, 2 tuples) moves with the operator.
  ArcId in_arc = *a.FindArcInto(t, 0);
  ArcId out_arc = a.ArcsFrom(Endpoint::BoxPort(t, 0))[0];
  ASSERT_OK(a.DisconnectArc(in_arc));
  ASSERT_OK(a.DisconnectArc(out_arc));
  ASSERT_OK_AND_ASSIGN(OperatorPtr op, a.ExtractBoxOperator(t));
  ASSERT_OK_AND_ASSIGN(BoxId t2, b.AdoptBoxOperator(std::move(op)));
  PortId in2 = *b.AddInput("in", SchemaAB());
  PortId out2 = *b.AddOutput("out");
  ASSERT_OK(b.Connect(Endpoint::InputPort(in2), Endpoint::BoxPort(t2, 0)).status());
  ASSERT_OK(b.Connect(Endpoint::BoxPort(t2, 0), Endpoint::OutputPort(out2)).status());
  std::vector<Tuple> got;
  b.SetOutputCallback(out2, [&](const Tuple& tp, SimTime) { got.push_back(tp); });
  ASSERT_OK(b.PushInput(in2, T(6, 0), SimTime()));  // closes the A=5 window
  ASSERT_OK(b.RunUntilQuiescent(SimTime()));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(GetInt(got[0], "A"), 5);
  EXPECT_EQ(GetInt(got[0], "Result"), 2);
}

class SchedulerPolicyTest : public ::testing::TestWithParam<SchedulerPolicy> {};

TEST_P(SchedulerPolicyTest, AllPoliciesProcessEverything) {
  EngineOptions opts;
  opts.scheduler = GetParam();
  opts.train_size = 8;
  Pipeline p(opts);
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(p.engine.PushInput(p.in, T(i, i % 5), SimTime()));
  }
  ASSERT_OK(p.engine.RunUntilQuiescent(SimTime()));
  // 99 groups close (the last stays open), regardless of discipline.
  EXPECT_EQ(p.collected.size(), 99u);
  EXPECT_EQ(p.engine.TotalQueuedTuples(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SchedulerPolicyTest,
                         ::testing::Values(SchedulerPolicy::kRoundRobin,
                                           SchedulerPolicy::kLongestQueue,
                                           SchedulerPolicy::kMinOutputDistance,
                                           SchedulerPolicy::kTupleAtATime));

TEST(EngineTest, TrainDepthPushesTowardOutput) {
  EngineOptions deep;
  deep.train_depth = 4;
  Pipeline p(deep);
  for (const Tuple& t : PaperFigure2Stream()) {
    ASSERT_OK(p.engine.PushInput(p.in, t, t.timestamp()));
  }
  // A single step pushes the whole train through filter AND tumble.
  ASSERT_OK_AND_ASSIGN(double cost, p.engine.RunOneStep(SimTime::Millis(8)));
  EXPECT_GT(cost, 0.0);
  EXPECT_EQ(p.collected.size(), 2u);
}

TEST(EngineTest, QoSMonitorMeasuresLatency) {
  Pipeline p;
  ASSERT_OK(p.engine.SetOutputQoS(p.out, QoSSpec::Default()));
  for (const Tuple& t : PaperFigure2Stream()) {
    ASSERT_OK(p.engine.PushInput(p.in, t, t.timestamp()));
  }
  // Process 50ms after the last tuple was created.
  ASSERT_OK(p.engine.RunUntilQuiescent(SimTime::Millis(57)));
  EXPECT_EQ(p.engine.qos_monitor().Delivered(p.out), 2u);
  // Tuple #1 (created at 1ms) reached the output at 57ms → 56ms latency.
  EXPECT_GT(p.engine.qos_monitor().AvgLatencyMs(p.out), 40.0);
  // Default QoS gives full utility below 100ms.
  EXPECT_DOUBLE_EQ(p.engine.qos_monitor().CurrentUtility(p.out), 1.0);
}

TEST(EngineTest, StorageManagerSpillsUnderMemoryPressure) {
  EngineOptions opts;
  opts.memory_budget_bytes = 600;  // a handful of tuples
  Pipeline p(opts);
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(p.engine.PushInput(p.in, T(i, 0), SimTime()));
  }
  EXPECT_GT(p.engine.storage_manager().total_spilled_bytes(), 0u);
  // Everything still processes correctly (spilled tuples are readable).
  ASSERT_OK(p.engine.RunUntilQuiescent(SimTime()));
  EXPECT_EQ(p.collected.size(), 99u);
}

TEST(EngineTest, SpillReadsChargeExtraCpu) {
  EngineOptions opts;
  opts.memory_budget_bytes = 600;
  opts.spill_read_cost_us = 50.0;
  Pipeline spilled(opts);
  Pipeline unspilled;
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(spilled.engine.PushInput(spilled.in, T(i, 0), SimTime()));
    ASSERT_OK(unspilled.engine.PushInput(unspilled.in, T(i, 0), SimTime()));
  }
  ASSERT_OK(spilled.engine.RunUntilQuiescent(SimTime()));
  ASSERT_OK(unspilled.engine.RunUntilQuiescent(SimTime()));
  EXPECT_GT(spilled.engine.total_cpu_micros(),
            unspilled.engine.total_cpu_micros() * 1.5);
}

TEST(EngineTest, InferArcQoSShiftsLatencyGraph) {
  // Fig. 9: the QoS at an internal arc is the output QoS shifted left by
  // the downstream processing time.
  Pipeline p;
  QoSSpec out_spec;
  out_spec.latency = *UtilityGraph::Make({{100.0, 1.0}, {200.0, 0.0}});
  ASSERT_OK(p.engine.SetOutputQoS(p.out, out_spec));
  ArcId arc = *p.engine.FindArcInto(p.filter, 0);
  ASSERT_OK_AND_ASSIGN(QoSSpec inferred, p.engine.InferArcQoS(arc));
  // Downstream of that arc: filter (1us) + tumble (3us) => shift 0.004ms.
  double shift = 100.0 - inferred.latency.points()[0].x;
  EXPECT_NEAR(shift, 0.004, 1e-6);
  // After traffic, measured T_B (includes queueing) replaces the default.
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(p.engine.PushInput(p.in, T(i, 0), SimTime::Millis(i)));
  }
  ASSERT_OK(p.engine.RunUntilQuiescent(SimTime::Millis(60)));
  ASSERT_OK_AND_ASSIGN(QoSSpec measured, p.engine.InferArcQoS(arc));
  double measured_shift = 100.0 - measured.latency.points()[0].x;
  EXPECT_GT(measured_shift, shift);  // queueing time now included
}

TEST(EngineTest, DeferredOperatorErrorSurfaces) {
  AuroraEngine engine;
  PortId in = *engine.AddInput("in", SchemaAB());
  PortId out = *engine.AddOutput("out");
  // Map with division by a field that is zero → runtime error.
  BoxId m = *engine.AddBox(MapSpec(
      {{"Q", Expr::Arith(ArithOp::kDiv, Expr::FieldRef("A"),
                         Expr::FieldRef("B"))}}));
  ASSERT_OK(engine.Connect(Endpoint::InputPort(in), Endpoint::BoxPort(m, 0)).status());
  ASSERT_OK(engine.Connect(Endpoint::BoxPort(m, 0), Endpoint::OutputPort(out)).status());
  ASSERT_OK(engine.InitializeBoxes());
  ASSERT_OK(engine.PushInput(in, T(1, 0), SimTime()));
  Status st = engine.RunUntilQuiescent(SimTime());
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

// An output callback runs inside the ProcessBatch of the box that feeds it,
// and may grow the network there. On its first delivery this one adds a
// chain of 64 filters from a new input to an existing output, enough boxes
// and arcs to reallocate the engine's per-box and per-arc arrays and the
// model's, while the union's activation still has tuples queued on both
// inputs. The activation must re-read them after every ProcessBatch call.
// The callback adds no output port: that would reallocate the callback
// table under the running callback.
TEST(EngineTest, CallbackGrowsNetworkMidActivation) {
  auto run = [](bool grow, std::vector<int64_t>* chain_rows) {
    AuroraEngine engine;
    PortId in0 = *engine.AddInput("in0", SchemaAB());
    PortId in1 = *engine.AddInput("in1", SchemaAB());
    PortId out = *engine.AddOutput("out");
    PortId chain = *engine.AddOutput("chain");
    BoxId u = *engine.AddBox(UnionSpec(2));
    AURORA_CHECK(engine.Connect(Endpoint::InputPort(in0),
                                Endpoint::BoxPort(u, 0)).ok());
    AURORA_CHECK(engine.Connect(Endpoint::InputPort(in1),
                                Endpoint::BoxPort(u, 1)).ok());
    AURORA_CHECK(engine.Connect(Endpoint::BoxPort(u, 0),
                                Endpoint::OutputPort(out)).ok());
    AURORA_CHECK(engine.InitializeBoxes().ok());
    std::vector<int64_t> rows;
    PortId side = -1;
    engine.SetOutputCallback(out, [&](const Tuple& t, SimTime) {
      rows.push_back(GetInt(t, "A"));
      if (!grow || side >= 0) return;
      side = *engine.AddInput("side", SchemaAB());
      Endpoint from = Endpoint::InputPort(side);
      for (int i = 0; i < 64; ++i) {
        BoxId f = *engine.AddBox(FilterSpec(
            Predicate::Compare("B", CompareOp::kGe, Value(int64_t{0}))));
        AURORA_CHECK(engine.Connect(from, Endpoint::BoxPort(f, 0)).ok());
        from = Endpoint::BoxPort(f, 0);
      }
      AURORA_CHECK(engine.Connect(from, Endpoint::OutputPort(chain)).ok());
      AURORA_CHECK(engine.InitializeBoxes().ok());
    });
    engine.SetOutputCallback(chain, [chain_rows](const Tuple& t, SimTime) {
      chain_rows->push_back(GetInt(t, "A"));
    });
    for (int64_t i = 0; i < 10; ++i) {
      AURORA_CHECK(engine.PushInput(in0, T(i, 0), SimTime()).ok());
      AURORA_CHECK(engine.PushInput(in1, T(100 + i, 1), SimTime()).ok());
    }
    // One step is one activation of the union, and it drains both inputs.
    AURORA_CHECK(engine.RunOneStep(SimTime()).ok());
    EXPECT_EQ(engine.total_activations(), 1u);
    EXPECT_EQ(side >= 0, grow);
    if (side >= 0) {
      EXPECT_EQ(engine.num_boxes(), 65u);
      AURORA_CHECK(engine.PushInput(side, T(7, 7), SimTime()).ok());
      AURORA_CHECK(engine.RunUntilQuiescent(SimTime()).ok());
    }
    return rows;
  };
  std::vector<int64_t> unused;
  const std::vector<int64_t> plain = run(false, &unused);
  std::vector<int64_t> chain_rows;
  const std::vector<int64_t> grown = run(true, &chain_rows);
  EXPECT_EQ(grown, plain);
  std::vector<int64_t> sorted = grown;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int64_t> pushed;
  for (int64_t i = 0; i < 10; ++i) pushed.push_back(i);
  for (int64_t i = 0; i < 10; ++i) pushed.push_back(100 + i);
  EXPECT_EQ(sorted, pushed);  // every union tuple exactly once
  EXPECT_EQ(chain_rows, std::vector<int64_t>{7});
}

// A map emits a freshly built tuple, so its lineage comes from the emitter
// wrappers: the output carries the input's trace id at batch 1 (the scalar
// Process path) and above (BatchEmitter).
TEST(EngineTest, MapOutputInheritsTraceIdAtEveryBatchSize) {
  for (int batch : {1, 8}) {
    EngineOptions opts;
    opts.batch_size = batch;
    AuroraEngine engine(opts);
    PortId in = *engine.AddInput("in", SchemaAB());
    PortId out = *engine.AddOutput("out");
    BoxId f = *engine.AddBox(
        FilterSpec(Predicate::Compare("B", CompareOp::kGe, Value(int64_t{0}))));
    BoxId m = *engine.AddBox(MapSpec({{"A", Expr::FieldRef("A")}}));
    ASSERT_OK(engine.Connect(Endpoint::InputPort(in), Endpoint::BoxPort(f, 0))
                  .status());
    ASSERT_OK(engine.Connect(Endpoint::BoxPort(f, 0), Endpoint::BoxPort(m, 0))
                  .status());
    ASSERT_OK(engine.Connect(Endpoint::BoxPort(m, 0), Endpoint::OutputPort(out))
                  .status());
    ASSERT_OK(engine.InitializeBoxes());
    std::vector<uint64_t> traces;
    engine.SetOutputCallback(out, [&traces](const Tuple& t, SimTime) {
      traces.push_back(t.trace_id());
    });
    const int kN = 20;
    for (int i = 0; i < kN; ++i) {
      Tuple t = T(i, i);
      t.set_trace_id(1000 + static_cast<uint64_t>(i));
      ASSERT_OK(engine.PushInput(in, t, SimTime()));
    }
    ASSERT_OK(engine.RunUntilQuiescent(SimTime()));
    ASSERT_EQ(traces.size(), static_cast<size_t>(kN)) << "batch=" << batch;
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(traces[i], 1000u + static_cast<uint64_t>(i))
          << "batch=" << batch << " row " << i;
    }
  }
}

// A network shaped like the perfsuite engine_dag workload: two inputs, each
// through filter -> map, merged by union -> wsort -> tumble, plus a join of
// the two mapped streams. Multi-input boxes take one tuple per round-robin
// turn at every batch size, so each output's row sequence (values, seq,
// timestamp) is identical at batch 1, 8 and 64.
TEST(EngineTest, MultiInputNetworkIdenticalAcrossBatchSizes) {
  SchemaPtr schema = Schema::Make({Field{"K", ValueType::kInt64},
                                   Field{"V", ValueType::kInt64},
                                   Field{"S", ValueType::kInt64}});
  auto run = [&schema](int batch) {
    EngineOptions opts;
    opts.batch_size = batch;
    AuroraEngine engine(opts);
    BoxId u = *engine.AddBox(UnionSpec(2));
    BoxId ws = *engine.AddBox(WSortSpec({"S"}, /*timeout_us=*/1000,
                                        /*max_buffer=*/16));
    BoxId tc = *engine.AddBox(TumbleSpec("cnt", "V", {"K"}));
    BoxId j = *engine.AddBox(JoinSpec("K", "K", /*window_us=*/200));
    std::vector<PortId> ins;
    for (int i = 0; i < 2; ++i) {
      ins.push_back(*engine.AddInput("in" + std::to_string(i), schema));
      BoxId f = *engine.AddBox(FilterSpec(
          Predicate::Compare("V", CompareOp::kGe, Value(int64_t{2}))));
      BoxId m = *engine.AddBox(MapSpec(
          {{"K", Expr::FieldRef("K")},
           {"V", Expr::FieldRef("V")},
           {"S", Expr::FieldRef("S")},
           {"W", Expr::Arith(ArithOp::kAdd, Expr::FieldRef("V"),
                             Expr::Constant(Value(int64_t{1})))}}));
      AURORA_CHECK(engine.Connect(Endpoint::InputPort(ins[i]),
                                  Endpoint::BoxPort(f, 0)).ok());
      AURORA_CHECK(engine.Connect(Endpoint::BoxPort(f, 0),
                                  Endpoint::BoxPort(m, 0)).ok());
      AURORA_CHECK(engine.Connect(Endpoint::BoxPort(m, 0),
                                  Endpoint::BoxPort(u, i)).ok());
      AURORA_CHECK(engine.Connect(Endpoint::BoxPort(m, 0),
                                  Endpoint::BoxPort(j, i)).ok());
    }
    PortId counts = *engine.AddOutput("counts");
    PortId pairs = *engine.AddOutput("pairs");
    AURORA_CHECK(engine.Connect(Endpoint::BoxPort(u, 0),
                                Endpoint::BoxPort(ws, 0)).ok());
    AURORA_CHECK(engine.Connect(Endpoint::BoxPort(ws, 0),
                                Endpoint::BoxPort(tc, 0)).ok());
    AURORA_CHECK(engine.Connect(Endpoint::BoxPort(tc, 0),
                                Endpoint::OutputPort(counts)).ok());
    AURORA_CHECK(engine.Connect(Endpoint::BoxPort(j, 0),
                                Endpoint::OutputPort(pairs)).ok());
    AURORA_CHECK(engine.InitializeBoxes().ok());
    std::vector<std::string> rows;
    auto record = [&rows](const std::string& out) {
      return [&rows, out](const Tuple& t, SimTime) {
        std::string row = out;
        for (size_t i = 0; i < t.num_values(); ++i) {
          row += "|" + t.value(i).ToString();
        }
        row += " seq=" + std::to_string(t.seq()) +
               " ts=" + std::to_string(t.timestamp().micros());
        rows.push_back(std::move(row));
      };
    };
    engine.SetOutputCallback(counts, record("counts"));
    engine.SetOutputCallback(pairs, record("pairs"));
    SimTime now{};
    for (int i = 0; i < 600; ++i) {
      Tuple t = MakeTuple(schema, {Value(int64_t{i % 5}), Value(int64_t{i % 7}),
                                   Value(int64_t{(i * 7919) % 600})});
      t.set_seq(static_cast<SeqNo>(i + 1));
      now = SimTime::Micros(10 * (i + 1));
      t.set_timestamp(now);
      AURORA_CHECK(engine.PushInput(ins[(i / 3) % 2], t, now).ok());
      // Uneven slices, so queues hold a mix of both inputs when boxes run.
      if (i % 37 == 36) {
        AURORA_CHECK(engine.RunUntilQuiescent(now).ok());
        engine.Tick(now);
      }
    }
    AURORA_CHECK(engine.RunUntilQuiescent(now).ok());
    engine.Tick(now + SimDuration::Millis(10));
    AURORA_CHECK(engine.RunUntilQuiescent(now + SimDuration::Millis(10)).ok());
    return rows;
  };
  const std::vector<std::string> scalar = run(1);
  ASSERT_FALSE(scalar.empty());
  ASSERT_TRUE(std::any_of(scalar.begin(), scalar.end(), [](const auto& r) {
    return r.rfind("counts", 0) == 0;
  }));
  ASSERT_TRUE(std::any_of(scalar.begin(), scalar.end(), [](const auto& r) {
    return r.rfind("pairs", 0) == 0;
  }));
  for (int batch : {8, 64}) EXPECT_EQ(run(batch), scalar) << "batch=" << batch;
}

}  // namespace
}  // namespace aurora
