// The scheduler's readiness and picks: every policy must pick exactly the
// box a reference scan over the queues picks (largest key, ties to the first
// box scanned, the round-robin policies resuming after their last pick), and
// HasWork must track every queue mutation path — push, choke, unchoke, train
// consumption, TakeArcQueue, DisconnectArc.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "engine/aurora_engine.h"
#include "engine/threaded_engine.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing_util::SchemaAB;

Tuple T(int64_t a, int64_t b) {
  return MakeTuple(SchemaAB(), {Value(a), Value(b)});
}

// N independent chains in_i -> filter_i -> out_i, so each box's scheduler
// key is exactly its input arc's queue length.
struct ParallelChains {
  AuroraEngine engine;
  std::vector<PortId> ins;
  std::vector<BoxId> boxes;
  std::vector<ArcId> arcs;  // in_i -> filter_i
  size_t delivered = 0;

  ParallelChains(EngineOptions opts, int n) : engine(opts) {
    for (int i = 0; i < n; ++i) {
      std::string tag = std::to_string(i);
      ins.push_back(*engine.AddInput("in" + tag, SchemaAB()));
      PortId out = *engine.AddOutput("out" + tag);
      boxes.push_back(*engine.AddBox(FilterSpec(Predicate::True())));
      arcs.push_back(*engine.Connect(Endpoint::InputPort(ins[i]),
                                     Endpoint::BoxPort(boxes[i], 0)));
      AURORA_CHECK(engine.Connect(Endpoint::BoxPort(boxes[i], 0),
                                  Endpoint::OutputPort(out)).ok());
      engine.SetOutputCallback(out,
                               [this](const Tuple&, SimTime) { delivered++; });
    }
    AURORA_CHECK(engine.InitializeBoxes().ok());
  }
};

TEST(ReadyQueueTest, LongestQueueMatchesLinearScanOracle) {
  EngineOptions opts;
  opts.scheduler = SchedulerPolicy::kLongestQueue;
  opts.train_size = 3;
  ParallelChains p(opts, 4);
  const size_t pushes[4] = {5, 9, 2, 7};
  size_t total = 0;
  for (int i = 0; i < 4; ++i) {
    for (size_t k = 0; k < pushes[i]; ++k) {
      ASSERT_OK(p.engine.PushInput(p.ins[i], T(i, k), SimTime()));
      total++;
    }
  }

  int steps = 0;
  while (p.engine.HasWork()) {
    ASSERT_LT(steps++, 100) << "scheduler failed to drain";
    // Oracle: the old linear scan — largest queue wins, strict comparison
    // keeps ties on the first (smallest-id) box.
    std::vector<size_t> before(p.arcs.size());
    int best = -1;
    for (size_t i = 0; i < p.arcs.size(); ++i) {
      before[i] = p.engine.ArcQueueSize(p.arcs[i]);
      if (before[i] > 0 && (best < 0 || before[i] > before[best])) {
        best = static_cast<int>(i);
      }
    }
    ASSERT_GE(best, 0);
    ASSERT_OK_AND_ASSIGN(double cost, p.engine.RunOneStep(SimTime()));
    EXPECT_GT(cost, 0.0);
    for (size_t i = 0; i < p.arcs.size(); ++i) {
      size_t expected =
          static_cast<int>(i) == best
              ? before[i] - std::min(before[i], static_cast<size_t>(3))
              : before[i];
      EXPECT_EQ(p.engine.ArcQueueSize(p.arcs[i]), expected)
          << "chain " << i << " at step " << steps;
    }
  }
  EXPECT_EQ(p.delivered, total);
  ASSERT_OK_AND_ASSIGN(double idle, p.engine.RunOneStep(SimTime()));
  EXPECT_EQ(idle, 0.0);
}

TEST(ReadyQueueTest, LongestQueueTieBreaksToSmallestBoxId) {
  EngineOptions opts;
  opts.scheduler = SchedulerPolicy::kLongestQueue;
  opts.train_size = 4;
  ParallelChains p(opts, 3);
  // Push the chains in reverse so insertion order can't mask an id-order
  // bug; all queues end up equal.
  for (int i = 2; i >= 0; --i) {
    for (int k = 0; k < 4; ++k) {
      ASSERT_OK(p.engine.PushInput(p.ins[i], T(i, k), SimTime()));
    }
  }
  ASSERT_OK(p.engine.RunOneStep(SimTime()).status());
  EXPECT_EQ(p.engine.ArcQueueSize(p.arcs[0]), 0u);  // smallest id went first
  EXPECT_EQ(p.engine.ArcQueueSize(p.arcs[1]), 4u);
  EXPECT_EQ(p.engine.ArcQueueSize(p.arcs[2]), 4u);
  ASSERT_OK(p.engine.RunOneStep(SimTime()).status());
  EXPECT_EQ(p.engine.ArcQueueSize(p.arcs[1]), 0u);
  EXPECT_EQ(p.engine.ArcQueueSize(p.arcs[2]), 4u);
}

TEST(ReadyQueueTest, MinOutputDistancePrefersBoxNearestOutput) {
  EngineOptions opts;
  opts.scheduler = SchedulerPolicy::kMinOutputDistance;
  opts.train_size = 1;
  AuroraEngine engine(opts);
  PortId in = *engine.AddInput("in", SchemaAB());
  PortId out = *engine.AddOutput("out");
  BoxId f1 = *engine.AddBox(FilterSpec(Predicate::True()));
  BoxId f2 = *engine.AddBox(FilterSpec(Predicate::True()));
  BoxId f3 = *engine.AddBox(FilterSpec(Predicate::True()));
  ArcId a1 = *engine.Connect(Endpoint::InputPort(in), Endpoint::BoxPort(f1, 0));
  ArcId a2 =
      *engine.Connect(Endpoint::BoxPort(f1, 0), Endpoint::BoxPort(f2, 0));
  ArcId a3 =
      *engine.Connect(Endpoint::BoxPort(f2, 0), Endpoint::BoxPort(f3, 0));
  ASSERT_OK(engine.Connect(Endpoint::BoxPort(f3, 0), Endpoint::OutputPort(out))
                .status());
  ASSERT_OK(engine.InitializeBoxes());
  size_t delivered = 0;
  engine.SetOutputCallback(out, [&](const Tuple&, SimTime) { delivered++; });

  // Seed the head and the tail of the chain; the tail box (distance 1) must
  // outrank the head box (distance 3).
  ASSERT_OK(engine.EnqueueOnArc(a1, T(1, 1), SimTime()));
  ASSERT_OK(engine.EnqueueOnArc(a3, T(2, 2), SimTime()));
  ASSERT_OK(engine.RunOneStep(SimTime()).status());
  EXPECT_EQ(engine.ArcQueueSize(a3), 0u);
  EXPECT_EQ(engine.ArcQueueSize(a1), 1u);
  EXPECT_EQ(delivered, 1u);

  // Remaining tuple drains head-to-tail; the engine must quiesce with both
  // tuples delivered and no phantom readiness left behind.
  ASSERT_OK(engine.RunUntilQuiescent(SimTime()));
  EXPECT_EQ(engine.ArcQueueSize(a1), 0u);
  EXPECT_EQ(engine.ArcQueueSize(a2), 0u);
  EXPECT_EQ(engine.ArcQueueSize(a3), 0u);
  EXPECT_EQ(delivered, 2u);
  EXPECT_FALSE(engine.HasWork());
}

TEST(ReadyQueueTest, HasWorkTracksChokeAndUnchoke) {
  ParallelChains p(EngineOptions{}, 1);
  ArcId a = p.arcs[0];

  // Already-queued tuples still drain through a choked arc, so the box
  // stays ready.
  ASSERT_OK(p.engine.PushInput(p.ins[0], T(1, 1), SimTime()));
  ASSERT_OK(p.engine.ChokeArc(a));
  EXPECT_TRUE(p.engine.HasWork());
  ASSERT_OK(p.engine.RunUntilQuiescent(SimTime()));
  EXPECT_EQ(p.delivered, 1u);

  // New arrivals on a choked arc go to the hold buffer: not consumable,
  // so HasWork must be false until unchoke re-enqueues them.
  ASSERT_OK(p.engine.PushInput(p.ins[0], T(2, 2), SimTime()));
  EXPECT_FALSE(p.engine.HasWork());
  EXPECT_EQ(p.engine.HeldTupleCount(a), 1u);
  ASSERT_OK(p.engine.UnchokeArc(a));
  EXPECT_TRUE(p.engine.HasWork());
  ASSERT_OK(p.engine.RunUntilQuiescent(SimTime()));
  EXPECT_EQ(p.delivered, 2u);
  EXPECT_FALSE(p.engine.HasWork());
}

TEST(ReadyQueueTest, TakeArcQueueAndDisconnectClearReadiness) {
  ParallelChains p(EngineOptions{}, 1);
  ArcId a = p.arcs[0];
  for (int k = 0; k < 3; ++k) {
    ASSERT_OK(p.engine.PushInput(p.ins[0], T(1, k), SimTime()));
  }
  EXPECT_TRUE(p.engine.HasWork());
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> taken, p.engine.TakeArcQueue(a));
  EXPECT_EQ(taken.size(), 3u);
  EXPECT_FALSE(p.engine.HasWork());
  ASSERT_OK(p.engine.DisconnectArc(a));
  EXPECT_FALSE(p.engine.HasWork());
  ASSERT_OK_AND_ASSIGN(double cost, p.engine.RunOneStep(SimTime()));
  EXPECT_EQ(cost, 0.0);
  EXPECT_EQ(p.delivered, 0u);
}

// Interleaved pushes and steps, so queues grow and shrink between picks;
// nothing may be lost or double-scheduled.
TEST(ReadyQueueTest, InterleavedPushAndStepDeliversEverything) {
  EngineOptions opts;
  opts.scheduler = SchedulerPolicy::kLongestQueue;
  opts.train_size = 2;
  ParallelChains p(opts, 2);
  size_t total = 0;
  for (int r = 0; r < 200; ++r) {
    int chain = r % 2;
    int burst = r % 3 + 1;
    for (int k = 0; k < burst; ++k) {
      ASSERT_OK(p.engine.PushInput(p.ins[chain], T(chain, r), SimTime()));
      total++;
    }
    if (r % 4 != 3) {  // let queues build up sometimes
      ASSERT_OK(p.engine.RunOneStep(SimTime()).status());
    }
  }
  ASSERT_OK(p.engine.RunUntilQuiescent(SimTime()));
  EXPECT_EQ(p.delivered, total);
  EXPECT_FALSE(p.engine.HasWork());
  EXPECT_EQ(p.engine.TotalQueuedTuples(), 0u);
}

// Longest queue under load: thousands of enqueues land between picks.
// Chokes, unchokes, TakeArcQueue (with re-enqueue onto another arc) and
// DisconnectArc/Connect all mutate the queues in between; every pick must
// still match the linear-scan oracle exactly.
TEST(ReadyQueueTest, LongestQueueOracleUnderBulkEnqueuesAndRewiring) {
  const int kChains = 6;
  const size_t kTrain = 64;
  EngineOptions opts;
  opts.scheduler = SchedulerPolicy::kLongestQueue;
  opts.train_size = static_cast<int>(kTrain);
  ParallelChains p(opts, kChains);
  Rng rng = testing_util::MakeTestRng(15);
  std::vector<ArcId> arc_of = p.arcs;  // -1 while disconnected
  auto queued = [&](int i) {
    return arc_of[i] < 0 ? size_t{0} : p.engine.ArcQueueSize(arc_of[i]);
  };
  size_t admitted = 0;  // pushes that reached a consumable queue or a hold
  size_t taken = 0;     // tuples removed by TakeArcQueue and not re-enqueued
  int picks = 0;
  for (int round = 0; round < 40; ++round) {
    const int burst = static_cast<int>(rng.UniformInt(500, 3000));
    for (int k = 0; k < burst; ++k) {
      const int i = static_cast<int>(rng.Uniform(kChains));
      ASSERT_OK(p.engine.PushInput(p.ins[i], T(i, k), SimTime()));
      if (arc_of[i] >= 0) admitted++;
    }
    const int i = static_cast<int>(rng.Uniform(kChains));
    switch (rng.Uniform(5)) {
      case 0:  // toggle a choke: later pushes go to the hold buffer
        if (arc_of[i] >= 0) {
          if (p.engine.ArcChoked(arc_of[i])) {
            ASSERT_OK(p.engine.UnchokeArc(arc_of[i]));
          } else {
            ASSERT_OK(p.engine.ChokeArc(arc_of[i]));
          }
        }
        break;
      case 1: {  // migrate half of one queue onto the next chain's arc
        if (arc_of[i] < 0) break;
        ASSERT_OK_AND_ASSIGN(std::vector<Tuple> q,
                             p.engine.TakeArcQueue(arc_of[i]));
        const int j = (i + 1) % kChains;
        for (size_t k = 0; k < q.size(); ++k) {
          if (k % 2 == 0 && arc_of[j] >= 0) {
            ASSERT_OK(p.engine.EnqueueOnArc(arc_of[j], q[k], SimTime()));
          } else {
            taken++;
          }
        }
        break;
      }
      case 2:  // disconnect an arc (emptying it first) or reconnect it
        if (arc_of[i] >= 0) {
          ASSERT_OK(p.engine.UnchokeArc(arc_of[i]));
          ASSERT_OK_AND_ASSIGN(std::vector<Tuple> q,
                               p.engine.TakeArcQueue(arc_of[i]));
          taken += q.size();
          ASSERT_OK(p.engine.DisconnectArc(arc_of[i]));
          arc_of[i] = -1;
        } else {
          ASSERT_OK_AND_ASSIGN(
              arc_of[i], p.engine.Connect(Endpoint::InputPort(p.ins[i]),
                                          Endpoint::BoxPort(p.boxes[i], 0)));
        }
        break;
      default:
        break;
    }
    for (int step = 0; step < 8; ++step) {
      std::vector<size_t> before(kChains);
      int best = -1;
      for (int c = 0; c < kChains; ++c) {
        before[c] = queued(c);
        if (before[c] > 0 && (best < 0 || before[c] > before[best])) best = c;
      }
      EXPECT_EQ(p.engine.HasWork(), best >= 0) << "round " << round;
      ASSERT_OK(p.engine.RunOneStep(SimTime()).status());
      picks++;
      for (int c = 0; c < kChains; ++c) {
        const size_t expected =
            c == best ? before[c] - std::min(before[c], kTrain) : before[c];
        ASSERT_EQ(queued(c), expected)
            << "chain " << c << ", round " << round << ", step " << step;
      }
    }
  }
  // Unchoke everything and drain: nothing admitted may be lost.
  for (ArcId a : arc_of) {
    if (a >= 0) ASSERT_OK(p.engine.UnchokeArc(a));
  }
  ASSERT_OK(p.engine.RunUntilQuiescent(SimTime()));
  EXPECT_GT(picks, 300);
  EXPECT_EQ(p.delivered + taken, admitted);
  EXPECT_FALSE(p.engine.HasWork());
  EXPECT_EQ(p.engine.TotalQueuedTuples(), 0u);
}

// ---- Each policy's pick sequence -----------------------------------------
//
// Three filter chains of 3, 1 and 2 boxes (box ids 0-2, 3 and 4-5), so
// output distances differ, each box fed by exactly one arc: a box's queue is
// its in-arc's queue, and a pick shows as one queue shrinking by a train
// and the next box's growing by as much. The queues start unequal, so every
// policy opens differently: round robin and tuple-at-a-time at box 0 (a
// train of 3 vs one tuple), longest queue at box 3, min output distance at
// box 2.

constexpr int kChainLengths[] = {3, 1, 2};
constexpr size_t kPolicyTrain = 3;
constexpr size_t kInitialQueues[] = {4, 0, 2, 5, 0, 3};
constexpr int kLastPushStep = 7;

struct ChainEngine {
  AuroraEngine engine;
  std::vector<PortId> ins;
  std::vector<ArcId> arc_into;  // per box

  explicit ChainEngine(EngineOptions opts) : engine(opts) {
    for (int c = 0; c < 3; ++c) {
      std::string tag = std::to_string(c);
      ins.push_back(*engine.AddInput("in" + tag, SchemaAB()));
      PortId out = *engine.AddOutput("out" + tag);
      Endpoint from = Endpoint::InputPort(ins[c]);
      for (int k = 0; k < kChainLengths[c]; ++k) {
        BoxId b = *engine.AddBox(FilterSpec(Predicate::True()));
        AURORA_CHECK(b == static_cast<BoxId>(arc_into.size()));
        arc_into.push_back(*engine.Connect(from, Endpoint::BoxPort(b, 0)));
        from = Endpoint::BoxPort(b, 0);
      }
      AURORA_CHECK(engine.Connect(from, Endpoint::OutputPort(out)).ok());
    }
    AURORA_CHECK(engine.InitializeBoxes().ok());
  }
};

/// The reference scheduler over per-box queue lengths, written from each
/// policy's definition.
struct PickModel {
  SchedulerPolicy policy;
  std::vector<size_t> queued;  // per box
  std::vector<int> next;       // successor box; -1 feeds the output
  std::vector<int> distance;   // box hops to the output
  std::vector<int> first;      // each chain's first box
  int cursor = 0;              // round robin: where the next scan starts

  explicit PickModel(SchedulerPolicy p) : policy(p) {
    for (int len : kChainLengths) {
      first.push_back(static_cast<int>(next.size()));
      for (int k = 0; k < len; ++k) {
        const int box = static_cast<int>(next.size());
        next.push_back(k + 1 < len ? box + 1 : -1);
        distance.push_back(len - 1 - k);
      }
    }
    queued.assign(std::begin(kInitialQueues), std::end(kInitialQueues));
  }

  bool RoundRobin() const {
    return policy == SchedulerPolicy::kRoundRobin ||
           policy == SchedulerPolicy::kTupleAtATime;
  }

  /// The box to run next, or -1 when every queue is empty.
  int Pick() {
    const int n = static_cast<int>(queued.size());
    int best = -1;
    for (int step = 0; step < n; ++step) {
      const int b = RoundRobin() ? (cursor + step) % n : step;
      if (queued[b] == 0) continue;
      if (RoundRobin()) {  // the first ready box after the last pick
        cursor = (b + 1) % n;
        return b;
      }
      const bool better =
          best < 0 ||
          (policy == SchedulerPolicy::kLongestQueue
               ? queued[b] > queued[best]           // ties: smaller id
               : distance[b] < distance[best]);     // ties: smaller id
      if (better) best = b;
    }
    return best;
  }

  /// One activation: a train moves one box down its chain.
  void Run(int box) {
    const size_t budget =
        policy == SchedulerPolicy::kTupleAtATime ? 1 : kPolicyTrain;
    const size_t moved = std::min(budget, queued[box]);
    queued[box] -= moved;
    if (next[box] >= 0) queued[next[box]] += moved;
  }
};

/// Runs the scenario on the model and, when `e` is given, steps the engine
/// in lockstep, comparing every queue after every step. Inputs arrive at
/// steps 1, 4 and 7, mid-drain. Returns the model's pick sequence.
std::vector<int> RunPolicyScenario(SchedulerPolicy policy, ChainEngine* e) {
  PickModel model(policy);
  for (size_t b = 0; b < model.queued.size(); ++b) {
    for (size_t k = 0; e != nullptr && k < model.queued[b]; ++k) {
      EXPECT_OK(e->engine.EnqueueOnArc(e->arc_into[b],
                                       T(static_cast<int64_t>(b),
                                         static_cast<int64_t>(k)),
                                       SimTime()));
    }
  }
  std::vector<int> picks;
  for (int step = 0; step < 200; ++step) {
    if (step % 3 == 1 && step <= kLastPushStep) {
      const int chain = (step / 3 + 2) % 3;  // chains 2, 0, 1
      for (int k = 0; k < 2; ++k) {
        if (e != nullptr) {
          EXPECT_OK(e->engine.PushInput(e->ins[chain], T(chain, step),
                                        SimTime()));
        }
        model.queued[model.first[chain]]++;
      }
    }
    const int pick = model.Pick();
    if (pick < 0 && step > kLastPushStep) break;
    if (pick >= 0) {
      picks.push_back(pick);
      model.Run(pick);
    }
    if (e == nullptr) continue;
    EXPECT_EQ(e->engine.HasWork(), pick >= 0) << "step " << step;
    EXPECT_OK(e->engine.RunOneStep(SimTime()).status());
    bool same = true;
    for (size_t b = 0; b < model.queued.size(); ++b) {
      const size_t got = e->engine.ArcQueueSize(e->arc_into[b]);
      EXPECT_EQ(got, model.queued[b])
          << "box " << b << " after step " << step << " (reference pick "
          << pick << ")";
      same = same && got == model.queued[b];
    }
    if (!same) break;  // later steps would only repeat the divergence
  }
  if (e != nullptr) {
    EXPECT_FALSE(e->engine.HasWork());
  }
  return picks;
}

constexpr SchedulerPolicy kPickPolicies[] = {
    SchedulerPolicy::kRoundRobin, SchedulerPolicy::kTupleAtATime,
    SchedulerPolicy::kLongestQueue, SchedulerPolicy::kMinOutputDistance};

class PolicyPickTest : public ::testing::TestWithParam<SchedulerPolicy> {};

TEST_P(PolicyPickTest, StepsMatchReferencePicks) {
  EngineOptions opts;
  opts.scheduler = GetParam();
  opts.train_size = static_cast<int>(kPolicyTrain);
  ChainEngine e(opts);
  const std::vector<int> picks = RunPolicyScenario(GetParam(), &e);
  EXPECT_GT(picks.size(), 10u);
  // The network tells the policies apart: no other policy's reference
  // picks the same sequence.
  for (SchedulerPolicy other : kPickPolicies) {
    if (other == GetParam()) continue;
    EXPECT_NE(RunPolicyScenario(other, nullptr), picks)
        << "policy " << static_cast<int>(other);
  }
}

std::string PolicyName(const ::testing::TestParamInfo<SchedulerPolicy>& info) {
  static const char* const kNames[] = {"RoundRobin", "TupleAtATime",
                                       "LongestQueue", "MinOutputDistance"};
  return kNames[info.index];  // kPickPolicies' order
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicyPickTest,
                         ::testing::ValuesIn(kPickPolicies), PolicyName);

// The threaded runtime's version of the same invariant: an ingest thread
// pushes irregular bursts into a wide network while four workers run (and
// steal) concurrently. Per-arc FIFO plus exactly-once consumption means
// every chain must end with exactly its own rows, in push order, no matter
// how activations interleave or migrate between workers.
TEST(ReadyQueueTest, CrossThreadInterleavedEnqueueAndStealOracle) {
  const int kChains = 6;
  ThreadedEngineOptions topts;
  topts.workers = 4;
  topts.train_size = 3;   // small trains force frequent re-queuing
  topts.ring_capacity = 8;  // small rings force the help-on-full path
  ThreadedEngine engine(topts);
  std::vector<PortId> ins;
  std::vector<std::vector<std::string>> rows(kChains);
  for (int i = 0; i < kChains; ++i) {
    std::string tag = std::to_string(i);
    ins.push_back(*engine.AddInput("in" + tag, SchemaAB()));
    PortId out = *engine.AddOutput("out" + tag);
    BoxId f = *engine.AddBox(FilterSpec(Predicate::True()));
    ASSERT_OK(engine.Connect(Endpoint::InputPort(ins[i]),
                             Endpoint::BoxPort(f, 0)).status());
    ASSERT_OK(engine.Connect(Endpoint::BoxPort(f, 0),
                             Endpoint::OutputPort(out)).status());
    engine.SetOutputCallback(out, [&rows, i](const Tuple& t, SimTime) {
      rows[i].push_back(t.value(0).ToString() + "|" +
                        t.value(1).ToString());
    });
  }
  ASSERT_OK(engine.InitializeBoxes());
  ASSERT_OK(engine.Start());

  std::vector<std::vector<std::string>> expected(kChains);
  for (int r = 0; r < 400; ++r) {
    int chain = r % kChains;
    int burst = r % 3 + 1;
    for (int k = 0; k < burst; ++k) {
      Tuple t = MakeTuple(SchemaAB(), {Value(int64_t{r}), Value(int64_t{k})});
      t.set_timestamp(SimTime::Micros(r + 1));
      expected[chain].push_back(std::to_string(r) + "|" + std::to_string(k));
      ASSERT_OK(engine.PushInput(ins[chain], std::move(t), SimTime()));
    }
  }
  engine.WaitQuiescent();
  ASSERT_OK(engine.Stop());
  for (int i = 0; i < kChains; ++i) {
    EXPECT_EQ(rows[i], expected[i]) << "chain " << i;
  }
}

}  // namespace
}  // namespace aurora
