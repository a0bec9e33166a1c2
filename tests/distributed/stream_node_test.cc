// StreamNode mechanics: sequence numbering, batching, utilization
// accounting, and failure behaviour.
#include <gtest/gtest.h>

#include "distributed/aurora_star.h"
#include "tests/test_util.h"
#include "tuple/serde.h"

namespace aurora {
namespace {

using testing_util::GetInt;
using testing_util::SchemaAB;

class StreamNodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<OverlayNetwork>(&sim_);
    system_ = std::make_unique<AuroraStarSystem>(&sim_, net_.get(),
                                                 star_opts_);
    ASSERT_OK_AND_ASSIGN(a_, system_->AddNode(NodeOptions{"a", 1.0, {}}));
    ASSERT_OK_AND_ASSIGN(b_, system_->AddNode(NodeOptions{"b", 1.0, {}}));
    net_->FullMesh(LinkOptions{});
    // a: input -> filter -> remote output;  b: input -> output (collector).
    AuroraEngine& ae = system_->node(a_).engine();
    PortId in = *ae.AddInput("in", SchemaAB());
    PortId out = *ae.AddOutput("xout");
    BoxId f = *ae.AddBox(FilterSpec(Predicate::True()));
    ASSERT_OK(ae.Connect(Endpoint::InputPort(in), Endpoint::BoxPort(f, 0)).status());
    ASSERT_OK(ae.Connect(Endpoint::BoxPort(f, 0), Endpoint::OutputPort(out)).status());
    ASSERT_OK(ae.InitializeBoxes());
    AuroraEngine& be = system_->node(b_).engine();
    PortId bin = *be.AddInput("xin", SchemaAB());
    PortId bout = *be.AddOutput("final");
    ASSERT_OK(be.Connect(Endpoint::InputPort(bin), Endpoint::OutputPort(bout)).status());
    be.SetOutputCallback(bout, [this](const Tuple& t, SimTime) {
      received_.push_back(t);
    });
    ASSERT_OK_AND_ASSIGN(stream_,
                         system_->ConnectRemote(a_, "xout", b_, "xin"));
  }

  void Inject(int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_OK(system_->node(a_).Inject(
          "in", MakeTuple(SchemaAB(), {Value(i), Value(0)})));
      sim_.RunFor(SimDuration::Millis(1));
    }
  }

  StarOptions star_opts_;
  Simulation sim_;
  std::unique_ptr<OverlayNetwork> net_;
  std::unique_ptr<AuroraStarSystem> system_;
  std::vector<Tuple> received_;
  std::string stream_;
  NodeId a_ = -1, b_ = -1;
};

TEST_F(StreamNodeTest, SequenceNumbersAreMonotonePerStream) {
  Inject(20);
  sim_.RunFor(SimDuration::Seconds(1));
  ASSERT_EQ(received_.size(), 20u);
  for (size_t i = 0; i < received_.size(); ++i) {
    EXPECT_EQ(received_[i].seq(), i + 1);  // §6.2: monotonically increasing
    EXPECT_EQ(GetInt(received_[i], "A"), static_cast<int64_t>(i));
  }
  EXPECT_EQ(system_->node(b_).LastReceivedSeq(stream_), 20u);
}

TEST_F(StreamNodeTest, BindingStatsTrackTraffic) {
  Inject(15);
  sim_.RunFor(SimDuration::Seconds(1));
  const auto& binding = system_->node(a_).bindings().begin()->second;
  EXPECT_EQ(binding.tuples_sent, 15u);
  EXPECT_GT(binding.messages_sent, 0u);
  EXPECT_LE(binding.messages_sent, 15u);  // batching never inflates
  EXPECT_EQ(binding.stream, stream_);
}

TEST_F(StreamNodeTest, DownNodeRefusesInjection) {
  system_->node(a_).SetUp(false);
  Status st = system_->node(a_).Inject(
      "in", MakeTuple(SchemaAB(), {Value(1), Value(0)}));
  EXPECT_TRUE(st.IsUnavailable());
  // Back up: traffic flows again.
  system_->node(a_).SetUp(true);
  Inject(3);
  sim_.RunFor(SimDuration::Seconds(1));
  EXPECT_EQ(received_.size(), 3u);
}

// A node destroyed before the simulation ends leaves its periodic tick and a
// scheduled step behind in the event queue; both must find the node gone
// and do nothing, and the tick must stop rescheduling itself.
TEST_F(StreamNodeTest, DestroyedNodesLeaveNoLiveEventsBehind) {
  ASSERT_OK(system_->node(a_).Inject(
      "in", MakeTuple(SchemaAB(), {Value(1), Value(0)})));
  ASSERT_GT(sim_.pending(), 0u);  // the ticks and a's step
  system_.reset();
  sim_.RunFor(SimDuration::Seconds(1));
  EXPECT_EQ(sim_.pending(), 0u);
  EXPECT_TRUE(received_.empty());
}

// Destroying the system while a's frame to b is still on the wire leaves the
// frame's delivery and a's transport events pending; they must not reach
// either dead node.
TEST_F(StreamNodeTest, DestroyedNodesIgnoreFramesInFlight) {
  ASSERT_OK(system_->node(a_).Inject(
      "in", MakeTuple(SchemaAB(), {Value(1), Value(0)})));
  const Transport* tx = system_->node(a_).PeerTransport(b_);
  while ((tx == nullptr || tx->frames_sent() == 0) &&
         sim_.Now() < SimTime::Seconds(1)) {
    ASSERT_TRUE(sim_.RunOne());
    tx = system_->node(a_).PeerTransport(b_);
  }
  ASSERT_NE(tx, nullptr);
  ASSERT_EQ(tx->frames_sent(), 1u);
  ASSERT_EQ(tx->delivered_count(stream_), 0u);
  system_.reset();
  sim_.RunFor(SimDuration::Seconds(1));
  EXPECT_EQ(sim_.pending(), 0u);
  EXPECT_TRUE(received_.empty());
}

// With credit flow control on, b answers a's data with a credit grant that
// crosses the network back to a; destroying the system while the grant is
// in flight must not let it reach the dead sender.
class StreamNodeFlowTest : public StreamNodeTest {
 protected:
  StreamNodeFlowTest() { star_opts_.transport.credit_window_bytes = 4096; }
};

TEST_F(StreamNodeFlowTest, DestroyedNodesIgnoreGrantsInFlight) {
  Counter* grants =
      MetricsRegistry::Global().GetCounter("net.flow.credit_grants");
  const uint64_t grants_before = grants->value();
  ASSERT_OK(system_->node(a_).Inject(
      "in", MakeTuple(SchemaAB(), {Value(1), Value(0)})));
  while (grants->value() == grants_before &&
         sim_.Now() < SimTime::Seconds(1)) {
    ASSERT_TRUE(sim_.RunOne());
  }
  ASSERT_GT(grants->value(), grants_before);
  system_.reset();
  sim_.RunFor(SimDuration::Seconds(1));
  EXPECT_EQ(sim_.pending(), 0u);
  EXPECT_EQ(received_.size(), 1u);  // delivered before the grant went out
}

// Nodes built directly can die one at a time. Once a has unbound its output,
// b may be destroyed even while a's last frame to it is still on the wire:
// a's transport outlives b, and the delivery must not reach b.
TEST(StreamNodeLifetimeTest, FrameInFlightToDestroyedPeerIsDropped) {
  Simulation sim;
  OverlayNetwork net(&sim);
  NodeId a_id = net.AddNode(NodeOptions{"a", 1.0, {}});
  NodeId b_id = net.AddNode(NodeOptions{"b", 1.0, {}});
  net.FullMesh(LinkOptions{});
  StreamNode a(&sim, &net, a_id, EngineOptions{}, TransportOptions{});
  auto b = std::make_unique<StreamNode>(&sim, &net, b_id, EngineOptions{},
                                        TransportOptions{});
  AuroraEngine& ae = a.engine();
  PortId in = *ae.AddInput("in", SchemaAB());
  PortId out = *ae.AddOutput("xout");
  ASSERT_OK(ae.Connect(Endpoint::InputPort(in), Endpoint::OutputPort(out))
                .status());
  AuroraEngine& be = b->engine();
  PortId bin = *be.AddInput("xin", SchemaAB());
  PortId bout = *be.AddOutput("final");
  ASSERT_OK(be.Connect(Endpoint::InputPort(bin), Endpoint::OutputPort(bout))
                .status());
  size_t received = 0;
  be.SetOutputCallback(bout, [&](const Tuple&, SimTime) { received++; });
  ASSERT_OK(a.BindRemoteOutput("xout", b.get(), "xin", "s"));
  a.Start();
  b->Start();
  ASSERT_OK(a.Inject("in", MakeTuple(SchemaAB(), {Value(1), Value(0)})));
  const Transport* tx = a.PeerTransport(b_id);
  ASSERT_NE(tx, nullptr);
  while (tx->frames_sent() == 0 && sim.Now() < SimTime::Seconds(1)) {
    ASSERT_TRUE(sim.RunOne());
  }
  ASSERT_EQ(tx->frames_sent(), 1u);
  ASSERT_OK(a.UnbindRemoteOutput("xout"));
  b.reset();
  sim.RunFor(SimDuration::Seconds(1));
  EXPECT_EQ(tx->delivered_count("s"), 1u);  // off the wire, into nothing
  EXPECT_EQ(received, 0u);
}

TEST_F(StreamNodeTest, UnknownStreamIsDroppedNotFatal) {
  system_->node(b_).OnRemoteMessage("ghost-stream", Message{});
  Inject(2);
  sim_.RunFor(SimDuration::Seconds(1));
  EXPECT_EQ(received_.size(), 2u);
}

TEST_F(StreamNodeTest, UtilizationRisesUnderLoad) {
  // Make the filter expensive and hammer it.
  AuroraEngine& ae = system_->node(a_).engine();
  for (BoxId id : ae.BoxIds()) {
    (void)(*ae.BoxOp(id))->cost_micros_per_tuple();
    (*ae.BoxOp(id))->set_cost_micros_per_tuple(800.0);
  }
  SchemaPtr schema = SchemaAB();
  for (int i = 0; i < 3000; ++i) {
    sim_.ScheduleAt(SimTime::Micros(i * 400), [this, schema, i]() {
      (void)system_->node(a_).Inject(
          "in", MakeTuple(schema, {Value(i), Value(0)}));
    });
  }
  sim_.RunUntil(SimTime::Seconds(1));
  EXPECT_GT(system_->node(a_).utilization(), 0.8);
  EXPECT_LT(system_->node(b_).utilization(), 0.3);
}

TEST_F(StreamNodeTest, DuplicateBindingRejected) {
  StreamNode& a = system_->node(a_);
  Status st = a.BindRemoteOutput("xout", &system_->node(b_), "xin", "s2");
  EXPECT_TRUE(st.IsAlreadyExists());
}

// Three nodes on a full mesh. Each relays its input "in" to outputs "out1"
// and "out2"; node c's "out1" counts what reaches it.
class StreamNameTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<OverlayNetwork>(&sim_);
    system_ = std::make_unique<AuroraStarSystem>(&sim_, net_.get(),
                                                 StarOptions{});
    for (const char* name : {"a", "b", "c"}) {
      ASSERT_OK_AND_ASSIGN(NodeId id,
                           system_->AddNode(NodeOptions{name, 1.0, {}}));
      AuroraEngine& e = system_->node(id).engine();
      PortId in = *e.AddInput("in", SchemaAB());
      for (const char* out : {"out1", "out2"}) {
        PortId port = *e.AddOutput(out);
        ASSERT_OK(e.Connect(Endpoint::InputPort(in), Endpoint::OutputPort(port))
                      .status());
      }
    }
    net_->FullMesh(LinkOptions{});
    ASSERT_OK(system_->CollectOutput(
        c_, "out1", [this](const Tuple&, SimTime) { ++received_; }));
  }

  void Inject(NodeId node, int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_OK(system_->node(node).Inject(
          "in", MakeTuple(SchemaAB(), {Value(i), Value(0)})));
    }
    sim_.RunFor(SimDuration::Seconds(1));
  }

  StreamNode& node(NodeId id) { return system_->node(id); }

  Simulation sim_;
  std::unique_ptr<OverlayNetwork> net_;
  std::unique_ptr<AuroraStarSystem> system_;
  const NodeId a_ = 0, b_ = 1, c_ = 2;
  size_t received_ = 0;
};

// Both bindings would number their tuples from 1 on one stream, and c's
// dedup watermark would drop the second one's as duplicates.
TEST_F(StreamNameTest, SameNodeCannotReuseAStreamName) {
  ASSERT_OK(node(a_).BindRemoteOutput("out1", &node(c_), "in", "s"));
  EXPECT_TRUE(
      node(a_).BindRemoteOutput("out2", &node(c_), "in", "s")
          .IsAlreadyExists());
  Inject(a_, 10);
  EXPECT_EQ(received_, 10u);
  EXPECT_EQ(node(c_).duplicate_tuples_dropped(), 0u);
  // c keeps the stream after the unbind (stragglers may still arrive), so
  // the name stays taken toward c.
  ASSERT_OK(node(a_).UnbindRemoteOutput("out1"));
  EXPECT_TRUE(
      node(a_).BindRemoteOutput("out2", &node(c_), "in", "s")
          .IsAlreadyExists());
}

TEST_F(StreamNameTest, TwoNodesCannotBindOneStreamNameIntoOnePeer) {
  ASSERT_OK(node(a_).BindRemoteOutput("out1", &node(c_), "in", "s"));
  EXPECT_TRUE(
      node(b_).BindRemoteOutput("out1", &node(c_), "in", "s")
          .IsAlreadyExists());
  Inject(a_, 10);
  Inject(b_, 4);
  EXPECT_EQ(received_, 10u);
  EXPECT_EQ(node(c_).duplicate_tuples_dropped(), 0u);
}

// Two streams into one input each number their tuples from 1; dedup and the
// last received sequence are per stream.
TEST_F(StreamNameTest, DistinctStreamsIntoOneInputKeepTheirOwnSequences) {
  ASSERT_OK(node(a_).BindRemoteOutput("out1", &node(c_), "in", "sa"));
  ASSERT_OK(node(b_).BindRemoteOutput("out1", &node(c_), "in", "sb"));
  Inject(a_, 10);
  Inject(b_, 4);
  EXPECT_EQ(received_, 14u);
  EXPECT_EQ(node(c_).duplicate_tuples_dropped(), 0u);
  EXPECT_EQ(node(c_).LastReceivedSeq("sa"), 10u);
  EXPECT_EQ(node(c_).LastReceivedSeq("sb"), 4u);
}

TEST_F(StreamNodeTest, BindingToMissingRemoteInputRejected) {
  AuroraEngine& ae = system_->node(a_).engine();
  PortId extra = *ae.AddOutput("extra");
  (void)extra;
  Status st = system_->node(a_).BindRemoteOutput(
      "extra", &system_->node(b_), "no-such-input", "s3");
  EXPECT_TRUE(st.IsNotFound());
}

}  // namespace
}  // namespace aurora
