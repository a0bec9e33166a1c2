// ThreadedEngine runtime: per-arc FIFO determinism on linear chains,
// fan-out delivery, help-on-full backpressure with tiny rings, stateful
// operators vs the single-threaded oracle, deferred operator errors, boxes
// built from one spec on differently ordered schemas, and the ring
// multi-push (TryPushN) edge cases chunked batch emission leans on:
// wraparound-spanning reserves, chunks larger than the ring, and a
// concurrent multi-push/pop oracle (run under TSan in CI).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/aurora_engine.h"
#include "engine/threaded_engine.h"
#include "stream/ring_buffer.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing_util::SchemaAB;

Tuple T(int64_t a, int64_t b, int64_t ts_us) {
  Tuple t = MakeTuple(SchemaAB(), {Value(a), Value(b)});
  t.set_timestamp(SimTime::Micros(ts_us));
  return t;
}

std::string Row(const Tuple& t) {
  std::string row;
  for (size_t i = 0; i < t.num_values(); ++i) {
    if (i > 0) row += "|";
    row += t.value(i).ToString();
  }
  return row;
}

// in -> filter(B >= threshold) -> map(+S=A+B) -> out. A linear chain, so
// the output row sequence must be byte-identical at any worker count.
struct Chain {
  ThreadedEngine engine;
  PortId in, out;
  std::vector<std::string> rows;  // guarded by the output mutex (callback)

  explicit Chain(ThreadedEngineOptions opts, int64_t threshold = 10)
      : engine(opts), in(-1), out(-1) {
    in = *engine.AddInput("in", SchemaAB());
    out = *engine.AddOutput("out");
    BoxId f = *engine.AddBox(
        FilterSpec(Predicate::Compare("B", CompareOp::kGe, Value(threshold))));
    BoxId m = *engine.AddBox(
        MapSpec({{"A", Expr::FieldRef("A")},
                 {"B", Expr::FieldRef("B")},
                 {"S", Expr::Arith(ArithOp::kAdd, Expr::FieldRef("A"),
                                   Expr::FieldRef("B"))}}));
    AURORA_CHECK(engine.Connect(Endpoint::InputPort(in),
                                Endpoint::BoxPort(f, 0)).ok());
    AURORA_CHECK(engine.Connect(Endpoint::BoxPort(f, 0),
                                Endpoint::BoxPort(m, 0)).ok());
    AURORA_CHECK(engine.Connect(Endpoint::BoxPort(m, 0),
                                Endpoint::OutputPort(out)).ok());
    AURORA_CHECK(engine.InitializeBoxes().ok());
    engine.SetOutputCallback(out, [this](const Tuple& t, SimTime) {
      rows.push_back(Row(t));
    });
  }
};

std::vector<std::string> ExpectedChainRows(int n, int64_t threshold) {
  std::vector<std::string> expected;
  for (int i = 0; i < n; ++i) {
    int64_t a = i, b = i % 17;
    if (b < threshold) continue;
    expected.push_back(std::to_string(a) + "|" + std::to_string(b) + "|" +
                       std::to_string(a + b));
  }
  return expected;
}

TEST(ThreadedEngineTest, LinearChainIsExactAtEveryWorkerCount) {
  const int kN = 2000;
  const int64_t kThreshold = 10;
  std::vector<std::string> expected = ExpectedChainRows(kN, kThreshold);
  for (int workers : {1, 2, 4}) {
    ThreadedEngineOptions opts;
    opts.workers = workers;
    opts.train_size = 7;  // force many activations per box
    Chain c(opts, kThreshold);
    ASSERT_OK(c.engine.Start());
    for (int i = 0; i < kN; ++i) {
      ASSERT_OK(c.engine.PushInput(c.in, T(i, i % 17, i + 1), SimTime()));
    }
    c.engine.WaitQuiescent();
    ASSERT_OK(c.engine.Stop());
    EXPECT_EQ(c.rows, expected) << "workers=" << workers;
    EXPECT_EQ(c.engine.tuples_in(), static_cast<uint64_t>(kN));
    EXPECT_EQ(c.engine.delivered(c.out), expected.size());
    EXPECT_GT(c.engine.activations(), 0u);
  }
}

TEST(ThreadedEngineTest, WideFanOutDeliversEveryChainInOrder) {
  const int kChains = 8, kN = 500;
  ThreadedEngineOptions opts;
  opts.workers = 4;
  opts.train_size = 16;
  ThreadedEngine engine(opts);
  PortId in = *engine.AddInput("in", SchemaAB());
  std::vector<std::vector<std::string>> rows(kChains);
  std::vector<PortId> outs;
  for (int i = 0; i < kChains; ++i) {
    PortId out = *engine.AddOutput("out" + std::to_string(i));
    outs.push_back(out);
    BoxId f = *engine.AddBox(FilterSpec(Predicate::True()));
    ASSERT_OK(engine.Connect(Endpoint::InputPort(in),
                             Endpoint::BoxPort(f, 0)).status());
    ASSERT_OK(engine.Connect(Endpoint::BoxPort(f, 0),
                             Endpoint::OutputPort(out)).status());
    engine.SetOutputCallback(out, [&rows, i](const Tuple& t, SimTime) {
      rows[i].push_back(Row(t));
    });
  }
  ASSERT_OK(engine.InitializeBoxes());
  ASSERT_OK(engine.Start());

  // kChains independent single-box components over 4 workers: the LPT
  // partitioner must spread them across every worker.
  std::vector<bool> used(4, false);
  for (int b = 0; b < kChains; ++b) used[engine.partition_of(b)] = true;
  for (int w = 0; w < 4; ++w) EXPECT_TRUE(used[w]) << "idle worker " << w;

  for (int i = 0; i < kN; ++i) {
    ASSERT_OK(engine.PushInput(in, T(i, i, i + 1), SimTime()));
  }
  engine.WaitQuiescent();
  ASSERT_OK(engine.Stop());
  for (int i = 0; i < kChains; ++i) {
    ASSERT_EQ(rows[i].size(), static_cast<size_t>(kN)) << "chain " << i;
    for (int k = 0; k < kN; ++k) {
      ASSERT_EQ(rows[i][k], std::to_string(k) + "|" + std::to_string(k))
          << "chain " << i << " row " << k;
    }
    EXPECT_EQ(engine.delivered(outs[i]), static_cast<uint64_t>(kN));
  }
}

TEST(ThreadedEngineTest, TinyRingsBackpressureByHelpingNotDropping) {
  ThreadedEngineOptions opts;
  opts.workers = 2;
  opts.train_size = 4;
  opts.ring_capacity = 2;  // every burst overflows the arc rings
  Chain c(opts, /*threshold=*/0);
  ASSERT_OK(c.engine.Start());
  const int kN = 3000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_OK(c.engine.PushInput(c.in, T(i, i % 17, i + 1), SimTime()));
  }
  c.engine.WaitQuiescent();
  ASSERT_OK(c.engine.Stop());
  EXPECT_EQ(c.rows, ExpectedChainRows(kN, 0));
  // With capacity-2 rings and 3000 tuples the producer must have hit a full
  // ring and run the consumer inline.
  EXPECT_GT(c.engine.ring_full_events(), 0u);
}

TEST(ThreadedEngineTest, StatefulTumbleMatchesSingleThreadedOracle) {
  auto build_tumble = [](auto* engine) {
    OperatorSpec spec = TumbleSpec("sum", "B", {"A"});
    spec.SetParam("emit", Value("every_n"));
    spec.SetParam("n", Value(int64_t{3}));
    PortId in = *engine->AddInput("in", SchemaAB());
    PortId out = *engine->AddOutput("out");
    BoxId box = *engine->AddBox(spec);
    AURORA_CHECK(engine->Connect(Endpoint::InputPort(in),
                                 Endpoint::BoxPort(box, 0)).ok());
    AURORA_CHECK(engine->Connect(Endpoint::BoxPort(box, 0),
                                 Endpoint::OutputPort(out)).ok());
    AURORA_CHECK(engine->InitializeBoxes().ok());
    return std::make_pair(in, out);
  };

  const int kN = 1000;
  // Oracle: the single-threaded engine over the identical trace.
  AuroraEngine oracle;
  auto [oin, oout] = build_tumble(&oracle);
  std::vector<std::string> oracle_rows;
  oracle.SetOutputCallback(oout, [&](const Tuple& t, SimTime) {
    oracle_rows.push_back(Row(t));
  });
  SimTime now{};
  for (int i = 0; i < kN; ++i) {
    Tuple t = T(i % 5, i, i + 1);
    now = t.timestamp();
    ASSERT_OK(oracle.PushInput(oin, t, now));
  }
  ASSERT_OK(oracle.RunUntilQuiescent(now));
  ASSERT_FALSE(oracle_rows.empty());

  for (int workers : {1, 4}) {
    ThreadedEngineOptions opts;
    opts.workers = workers;
    opts.train_size = 5;
    ThreadedEngine engine(opts);
    auto [tin, tout] = build_tumble(&engine);
    std::vector<std::string> rows;
    engine.SetOutputCallback(tout, [&rows](const Tuple& t, SimTime) {
      rows.push_back(Row(t));
    });
    ASSERT_OK(engine.Start());
    for (int i = 0; i < kN; ++i) {
      Tuple t = T(i % 5, i, i + 1);
      ASSERT_OK(engine.PushInput(tin, t, t.timestamp()));
    }
    engine.WaitQuiescent();
    ASSERT_OK(engine.Stop());
    EXPECT_EQ(rows, oracle_rows) << "workers=" << workers;
  }
}

TEST(ThreadedEngineTest, ConcurrentPushersOnDistinctInputsAllDeliver) {
  // Two input ports, two disjoint chains, one pusher thread per port — the
  // documented concurrency contract (one thread at a time *per port*).
  ThreadedEngineOptions opts;
  opts.workers = 4;
  opts.train_size = 8;
  ThreadedEngine engine(opts);
  std::vector<PortId> ins, outs;
  std::vector<std::vector<std::string>> rows(2);
  for (int i = 0; i < 2; ++i) {
    ins.push_back(*engine.AddInput("in" + std::to_string(i), SchemaAB()));
    PortId out = *engine.AddOutput("out" + std::to_string(i));
    outs.push_back(out);
    BoxId f = *engine.AddBox(FilterSpec(Predicate::True()));
    ASSERT_OK(engine.Connect(Endpoint::InputPort(ins[i]),
                             Endpoint::BoxPort(f, 0)).status());
    ASSERT_OK(engine.Connect(Endpoint::BoxPort(f, 0),
                             Endpoint::OutputPort(out)).status());
    engine.SetOutputCallback(out, [&rows, i](const Tuple& t, SimTime) {
      rows[i].push_back(Row(t));
    });
  }
  ASSERT_OK(engine.InitializeBoxes());
  ASSERT_OK(engine.Start());

  const int kN = 2000;
  std::vector<std::thread> pushers;
  for (int p = 0; p < 2; ++p) {
    pushers.emplace_back([&, p] {
      for (int i = 0; i < kN; ++i) {
        Status st = engine.PushInput(ins[p], T(p, i, i + 1), SimTime());
        AURORA_CHECK(st.ok()) << st.ToString();
      }
    });
  }
  for (std::thread& t : pushers) t.join();
  engine.WaitQuiescent();
  ASSERT_OK(engine.Stop());
  for (int p = 0; p < 2; ++p) {
    ASSERT_EQ(rows[p].size(), static_cast<size_t>(kN)) << "port " << p;
    for (int k = 0; k < kN; ++k) {
      ASSERT_EQ(rows[p][k], std::to_string(p) + "|" + std::to_string(k));
    }
  }
  EXPECT_EQ(engine.tuples_in(), static_cast<uint64_t>(2 * kN));
}

// TryPushN where the reserved run crosses the physical end of the slot
// array: slot addressing is (tail + i) & mask, so the published run must
// come back out in order with no special casing at the wrap point.
TEST(RingMultiPushTest, ReserveSpansWraparound) {
  BoundedRing<int64_t> ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  // Advance head and tail to 6 so the next multi-push straddles slot 7 -> 0.
  for (int64_t i = 0; i < 6; ++i) {
    int64_t v = i;
    ASSERT_TRUE(ring.TryPush(v));
  }
  int64_t out;
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(ring.TryPop(&out));
  ASSERT_TRUE(ring.EmptyApprox());

  int64_t chunk[5] = {100, 101, 102, 103, 104};
  ASSERT_EQ(ring.TryPushN(chunk, 5), 5u);  // slots 6,7,0,1,2
  for (int64_t want = 100; want <= 104; ++want) {
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, want);
  }
  EXPECT_FALSE(ring.TryPop(&out));
}

// A chunk larger than the whole ring publishes exactly the available room
// and leaves the tail of the span untouched for the caller to retry (the
// engine helps the consumer between retries).
TEST(RingMultiPushTest, ChunkLargerThanCapacityPublishesPartially) {
  BoundedRing<int64_t> ring(4);
  ASSERT_EQ(ring.capacity(), 4u);
  int64_t chunk[11];
  for (int64_t i = 0; i < 11; ++i) chunk[i] = i;
  ASSERT_EQ(ring.TryPushN(chunk, 11), 4u);  // room = capacity
  ASSERT_EQ(ring.TryPushN(chunk + 4, 7), 0u);  // full: nothing consumed
  int64_t out;
  for (int64_t want = 0; want < 4; ++want) {
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, want);
  }
  // Drained: the rest of the span (untouched by the failed push) goes in.
  ASSERT_EQ(ring.TryPushN(chunk + 4, 7), 4u);
  for (int64_t want = 4; want < 8; ++want) {
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, want);
  }
}

// Concurrent multi-push vs pop oracle: one producer publishing variable-size
// chunks, one consumer popping. The consumer must observe exactly the
// sequence 0..kN-1 — any torn publish, lost slot, or reorder breaks the
// oracle. CI runs this under TSan to certify the reserve-n/publish-once
// memory ordering.
TEST(RingMultiPushTest, ConcurrentMultiPushPopOracle) {
  BoundedRing<int64_t> ring(16);
  const int64_t kN = 200000;
  std::thread producer([&ring] {
    int64_t chunk[13];
    int64_t next = 0;
    while (next < kN) {
      size_t n = static_cast<size_t>((next % 13) + 1);
      if (next + static_cast<int64_t>(n) > kN) {
        n = static_cast<size_t>(kN - next);
      }
      for (size_t i = 0; i < n; ++i) chunk[i] = next + static_cast<int64_t>(i);
      size_t done = 0;
      while (done < n) {
        done += ring.TryPushN(chunk + done, n - done);
      }
      next += static_cast<int64_t>(n);
    }
  });
  int64_t got = 0;
  while (got < kN) {
    int64_t v;
    if (ring.TryPop(&v)) {
      ASSERT_EQ(v, got);
      ++got;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.EmptyApprox());
}

// Engine-level: batch_size 64 over capacity-2 rings makes every chunked
// emission larger than the ring. The chunk must degrade to repeated partial
// publishes with help-on-full between them — exact output, no deadlock.
TEST(ThreadedEngineTest, BatchedChunkLargerThanRingHelpsNotDeadlocks) {
  ThreadedEngineOptions opts;
  opts.workers = 2;
  opts.train_size = 64;
  opts.batch_size = 64;
  opts.ring_capacity = 2;
  Chain c(opts, /*threshold=*/0);
  ASSERT_OK(c.engine.Start());
  const int kN = 3000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_OK(c.engine.PushInput(c.in, T(i, i % 17, i + 1), SimTime()));
  }
  c.engine.WaitQuiescent();
  ASSERT_OK(c.engine.Stop());
  EXPECT_EQ(c.rows, ExpectedChainRows(kN, 0));
  EXPECT_GT(c.engine.ring_full_events(), 0u);
}

// Batched chunked emission under stealing workers stays byte-identical to
// the scalar expectation on a linear chain (the determinism contract is
// batch- and thread-invariant). Small rings force concurrent multi-push,
// help claims, and steals to interleave; CI runs this under TSan too.
TEST(ThreadedEngineTest, BatchedEmissionExactUnderStealingWorkers) {
  const int kN = 2000;
  const int64_t kThreshold = 10;
  std::vector<std::string> expected = ExpectedChainRows(kN, kThreshold);
  for (int workers : {1, 2, 4}) {
    ThreadedEngineOptions opts;
    opts.workers = workers;
    opts.train_size = 16;
    opts.batch_size = 8;
    opts.ring_capacity = 8;
    Chain c(opts, kThreshold);
    ASSERT_OK(c.engine.Start());
    for (int i = 0; i < kN; ++i) {
      ASSERT_OK(c.engine.PushInput(c.in, T(i, i % 17, i + 1), SimTime()));
    }
    c.engine.WaitQuiescent();
    ASSERT_OK(c.engine.Stop());
    EXPECT_EQ(c.rows, expected) << "workers=" << workers;
    EXPECT_EQ(c.engine.delivered(c.out), expected.size());
  }
}

// A map emits a freshly built tuple, so its lineage comes from the emitter
// wrappers: the output carries the input's trace id at batch 1 (the scalar
// Process path) and above (BatchEmitter).
TEST(ThreadedEngineTest, MapOutputInheritsTraceIdAtEveryBatchSize) {
  for (int batch : {1, 8}) {
    ThreadedEngineOptions opts;
    opts.workers = 2;
    opts.batch_size = batch;
    ThreadedEngine engine(opts);
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
    std::vector<uint64_t> traces;  // guarded by the output mutex (callback)
    engine.SetOutputCallback(out, [&traces](const Tuple& t, SimTime) {
      traces.push_back(t.trace_id());
    });
    ASSERT_OK(engine.Start());
    const int kN = 200;
    for (int i = 0; i < kN; ++i) {
      Tuple t = T(i, i, i + 1);
      t.set_trace_id(1000 + static_cast<uint64_t>(i));
      ASSERT_OK(engine.PushInput(in, t, SimTime()));
    }
    engine.WaitQuiescent();
    ASSERT_OK(engine.Stop());
    ASSERT_EQ(traces.size(), static_cast<size_t>(kN)) << "batch=" << batch;
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(traces[i], 1000u + static_cast<uint64_t>(i))
          << "batch=" << batch << " row " << i;
    }
  }
}

// Runs two boxes added from one `spec` in a 2-worker engine. One input
// carries (A, B), the other the same fields in the order (B, A), as separate
// schemas; one pusher thread per input sends `n` tuples with A = 1000 + i and
// B = i % 1000. Returns, per box, how many rows came out and how many of them
// `wrong` rejects. Reading a field at the index bound for the other box's
// schema swaps A and B.
struct TwinCounts {
  int rows[2] = {0, 0};
  int wrong[2] = {0, 0};
};

TwinCounts RunTwinBoxes(const OperatorSpec& spec, int n,
                        std::function<bool(const Tuple&)> wrong) {
  const SchemaPtr schemas[2] = {
      SchemaAB(), Schema::Make({Field{"B", ValueType::kInt64},
                                Field{"A", ValueType::kInt64}})};
  ThreadedEngineOptions opts;
  opts.workers = 2;
  ThreadedEngine engine(opts);
  TwinCounts counts;
  PortId ins[2];
  for (int k = 0; k < 2; ++k) {
    ins[k] = *engine.AddInput("in" + std::to_string(k), schemas[k]);
    PortId out = *engine.AddOutput("out" + std::to_string(k));
    BoxId box = *engine.AddBox(spec);
    AURORA_CHECK(engine.Connect(Endpoint::InputPort(ins[k]),
                                Endpoint::BoxPort(box, 0)).ok());
    AURORA_CHECK(engine.Connect(Endpoint::BoxPort(box, 0),
                                Endpoint::OutputPort(out)).ok());
    // Guarded by the output's mutex.
    engine.SetOutputCallback(out,
                             [&counts, &wrong, k](const Tuple& t, SimTime) {
                               ++counts.rows[k];
                               if (wrong(t)) ++counts.wrong[k];
                             });
  }
  AURORA_CHECK(engine.InitializeBoxes().ok());
  AURORA_CHECK(engine.Start().ok());
  std::vector<std::thread> pushers;
  for (int k = 0; k < 2; ++k) {
    pushers.emplace_back([&, k] {
      for (int i = 0; i < n; ++i) {
        Value a(int64_t{1000} + i), b(int64_t{i % 1000});
        Tuple t = k == 0 ? MakeTuple(schemas[0], {a, b})
                         : MakeTuple(schemas[1], {b, a});
        Status st = engine.PushInput(ins[k], std::move(t), SimTime());
        AURORA_CHECK(st.ok()) << st.ToString();
      }
    });
  }
  for (std::thread& t : pushers) t.join();
  engine.WaitQuiescent();
  AURORA_CHECK(engine.Stop().ok());
  return counts;
}

// Boxes built from one spec own separate predicate trees: each binds its
// leaves to its own input schema, so every tuple passes in both boxes.
TEST(ThreadedEngineTest, FilterBoxesFromOneSpecReadTheirOwnFields) {
  const int kN = 20000;
  OperatorSpec spec = FilterSpec(Predicate::And(
      Predicate::Compare("A", CompareOp::kGe, Value(int64_t{1000})),
      Predicate::Compare("B", CompareOp::kLt, Value(int64_t{1000}))));
  TwinCounts counts =
      RunTwinBoxes(spec, kN, [](const Tuple&) { return false; });
  EXPECT_EQ(counts.rows[0], kN);
  EXPECT_EQ(counts.rows[1], kN);
}

// Same for expression trees: D = A - B is positive in every row of both
// boxes (a swapped read makes it negative).
TEST(ThreadedEngineTest, MapBoxesFromOneSpecReadTheirOwnFields) {
  const int kN = 20000;
  OperatorSpec spec = MapSpec(
      {{"A", Expr::FieldRef("A")},
       {"B", Expr::FieldRef("B")},
       {"D", Expr::Arith(ArithOp::kSub, Expr::FieldRef("A"),
                         Expr::FieldRef("B"))}});
  TwinCounts counts = RunTwinBoxes(spec, kN, [](const Tuple& t) {
    return t.value(2).AsInt() != t.value(0).AsInt() - t.value(1).AsInt();
  });
  EXPECT_EQ(counts.rows[0], kN);
  EXPECT_EQ(counts.rows[1], kN);
  EXPECT_EQ(counts.wrong[0], 0);
  EXPECT_EQ(counts.wrong[1], 0);
}

TEST(ThreadedEngineTest, StartRejectsUninitializedBoxes) {
  ThreadedEngine engine;
  ASSERT_OK(engine.AddInput("in", SchemaAB()).status());
  // The filter's input is never connected, so its schema can't propagate
  // and Start's own InitializeBoxes() pass must refuse to launch.
  ASSERT_OK(engine.AddBox(FilterSpec(Predicate::True())).status());
  EXPECT_FALSE(engine.Start().ok());
}

}  // namespace
}  // namespace aurora
