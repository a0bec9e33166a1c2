// Message transport (§4.3): the multiplexed weighted scheduler shares the
// connection by prescribed weights; per-stream connections cost more and
// share equally regardless of weights.
#include <gtest/gtest.h>

#include "net/transport.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

struct TransportRig {
  Simulation sim;
  OverlayNetwork net{&sim};
  NodeId a, b;

  explicit TransportRig(double bandwidth = 1e6) {
    a = net.AddNode(NodeOptions{"a", 1.0, {}});
    b = net.AddNode(NodeOptions{"b", 1.0, {}});
    LinkOptions link;
    link.bandwidth_bytes_per_sec = bandwidth;
    link.latency = SimDuration::Millis(1);
    AURORA_CHECK(net.AddLink(a, b, link).ok());
  }

  Message Msg(size_t n) {
    Message m;
    m.kind = "t";
    m.payload.resize(n);
    return m;
  }
};

TransportOptions Mode(TransportMode mode) {
  TransportOptions opts;
  opts.mode = mode;
  return opts;
}

TEST(TransportTest, DeliversInFifoOrderPerStream) {
  TransportRig rig;
  Transport tx(&rig.sim, &rig.net, rig.a, rig.b,
               Mode(TransportMode::kMultiplexed));
  ASSERT_OK(tx.RegisterStream("s", 1.0));
  std::vector<size_t> sizes;
  tx.SetDeliveryHandler([&](const std::string&, const Message& m) {
    sizes.push_back(m.payload.size());
  });
  for (size_t n : {10, 20, 30}) ASSERT_OK(tx.Send("s", rig.Msg(n)));
  rig.sim.RunAll();
  EXPECT_EQ(sizes, (std::vector<size_t>{10, 20, 30}));
  EXPECT_EQ(tx.delivered_count("s"), 3u);
}

TEST(TransportTest, UnregisteredStreamRejected) {
  TransportRig rig;
  Transport tx(&rig.sim, &rig.net, rig.a, rig.b,
               Mode(TransportMode::kMultiplexed));
  EXPECT_TRUE(tx.Send("nope", rig.Msg(1)).IsNotFound());
  ASSERT_OK(tx.RegisterStream("s", 1.0));
  EXPECT_TRUE(tx.RegisterStream("s", 1.0).IsAlreadyExists());
  EXPECT_TRUE(tx.RegisterStream("w", 0.0).IsInvalidArgument());
}

// Saturates the link from three streams with weights 1:2:4 and returns the
// per-stream delivered byte counts.
std::map<std::string, uint64_t> RunWeightedLoad(TransportMode mode) {
  TransportRig rig(/*bandwidth=*/100'000);  // slow link → backlog
  Transport tx(&rig.sim, &rig.net, rig.a, rig.b, Mode(mode));
  AURORA_CHECK(tx.RegisterStream("w1", 1.0).ok());
  AURORA_CHECK(tx.RegisterStream("w2", 2.0).ok());
  AURORA_CHECK(tx.RegisterStream("w4", 4.0).ok());
  // Offer far more than the link can carry in the measurement window.
  for (int i = 0; i < 300; ++i) {
    for (const char* s : {"w1", "w2", "w4"}) {
      (void)tx.Send(s, [&] {
        Message m;
        m.kind = "t";
        m.payload.resize(160);
        return m;
      }());
    }
  }
  rig.sim.RunUntil(SimTime::Seconds(0.5));  // deliver ~50 KB of ~180 KB
  return {{"w1", tx.delivered_bytes("w1")},
          {"w2", tx.delivered_bytes("w2")},
          {"w4", tx.delivered_bytes("w4")}};
}

TEST(TransportTest, MultiplexedSharesByWeight) {
  auto bytes = RunWeightedLoad(TransportMode::kMultiplexed);
  double total = 0;
  for (auto& [s, b] : bytes) total += static_cast<double>(b);
  ASSERT_GT(total, 0);
  // Shares track the 1:2:4 weights (±5 percentage points).
  EXPECT_NEAR(bytes["w1"] / total, 1.0 / 7.0, 0.05);
  EXPECT_NEAR(bytes["w2"] / total, 2.0 / 7.0, 0.05);
  EXPECT_NEAR(bytes["w4"] / total, 4.0 / 7.0, 0.05);
}

TEST(TransportTest, PerStreamConnectionsIgnoreWeights) {
  auto bytes = RunWeightedLoad(TransportMode::kPerStreamConnections);
  double total = 0;
  for (auto& [s, b] : bytes) total += static_cast<double>(b);
  ASSERT_GT(total, 0);
  // Round-robin TCP-style sharing: everyone gets ~1/3 despite the weights.
  EXPECT_NEAR(bytes["w1"] / total, 1.0 / 3.0, 0.05);
  EXPECT_NEAR(bytes["w4"] / total, 1.0 / 3.0, 0.05);
}

TEST(TransportTest, PerStreamModeCostsMoreOverhead) {
  auto run = [](TransportMode mode, int streams) {
    TransportRig rig;
    Transport tx(&rig.sim, &rig.net, rig.a, rig.b, Mode(mode));
    for (int s = 0; s < streams; ++s) {
      AURORA_CHECK(tx.RegisterStream("s" + std::to_string(s), 1.0).ok());
    }
    for (int i = 0; i < 50; ++i) {
      for (int s = 0; s < streams; ++s) {
        Message m;
        m.kind = "t";
        m.payload.resize(100);
        (void)tx.Send("s" + std::to_string(s), std::move(m));
      }
    }
    rig.sim.RunAll();
    return tx.overhead_bytes();
  };
  // "As the number of message streams grows, the overhead of running
  //  several TCP connections becomes prohibitive" (§4.3).
  uint64_t mux = run(TransportMode::kMultiplexed, 20);
  uint64_t per_stream = run(TransportMode::kPerStreamConnections, 20);
  EXPECT_GT(per_stream, mux);
}

// ---- Tuple trains --------------------------------------------------------

TEST(TransportTrainTest, CoalescesIntoFramesAndPreservesFifo) {
  TransportRig rig;
  TransportOptions opts = Mode(TransportMode::kMultiplexed);
  opts.train_size = 8;
  Transport tx(&rig.sim, &rig.net, rig.a, rig.b, opts);
  ASSERT_OK(tx.RegisterStream("s", 1.0));
  std::vector<size_t> sizes;
  tx.SetDeliveryHandler([&](const std::string&, const Message& m) {
    sizes.push_back(m.payload.size());
  });
  std::vector<size_t> sent;
  for (size_t i = 0; i < 16; ++i) {
    ASSERT_OK(tx.Send("s", rig.Msg(10 + i)));
    sent.push_back(10 + i);
  }
  rig.sim.RunAll();
  // One callback per original message, in FIFO order...
  EXPECT_EQ(sizes, sent);
  EXPECT_EQ(tx.delivered_count("s"), 16u);
  // ...but only 16/8 = 2 frames crossed the wire.
  EXPECT_EQ(tx.frames_sent(), 2u);
}

TEST(TransportTrainTest, PartialTrainFlushesAfterMaxDelay) {
  TransportRig rig;
  TransportOptions opts = Mode(TransportMode::kMultiplexed);
  opts.train_size = 8;
  opts.train_max_delay = SimDuration::Millis(5);
  Transport tx(&rig.sim, &rig.net, rig.a, rig.b, opts);
  ASSERT_OK(tx.RegisterStream("s", 1.0));
  size_t delivered = 0;
  tx.SetDeliveryHandler(
      [&](const std::string&, const Message&) { delivered++; });
  for (int i = 0; i < 3; ++i) ASSERT_OK(tx.Send("s", rig.Msg(50)));
  // Before the batching deadline nothing has departed.
  rig.sim.RunUntil(SimTime::Millis(2));
  EXPECT_EQ(tx.frames_sent(), 0u);
  rig.sim.RunAll();
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(tx.frames_sent(), 1u);
}

TEST(TransportTrainTest, TrainsCutFramesAndOverhead) {
  auto run = [](size_t train_size) {
    TransportRig rig;
    TransportOptions opts = Mode(TransportMode::kMultiplexed);
    opts.train_size = train_size;
    Transport tx(&rig.sim, &rig.net, rig.a, rig.b, opts);
    AURORA_CHECK(tx.RegisterStream("s", 1.0).ok());
    for (int i = 0; i < 64; ++i) (void)tx.Send("s", rig.Msg(120));
    rig.sim.RunAll();
    AURORA_CHECK(tx.delivered_count("s") == 64);
    return std::pair<uint64_t, uint64_t>(tx.frames_sent(),
                                         tx.overhead_bytes());
  };
  auto [frames1, over1] = run(1);
  auto [frames8, over8] = run(8);
  EXPECT_EQ(frames1, 64u);
  EXPECT_EQ(frames8, 8u);  // >= 2x fewer messages (8x here)
  EXPECT_LT(over8, over1);
}

TEST(TransportTrainTest, TupleCountsDriveTrainBudget) {
  TransportRig rig;
  TransportOptions opts = Mode(TransportMode::kMultiplexed);
  opts.train_size = 8;
  Transport tx(&rig.sim, &rig.net, rig.a, rig.b, opts);
  ASSERT_OK(tx.RegisterStream("s", 1.0));
  // Each message already carries 4 tuples: a train of 8 tuples = 2 messages.
  for (int i = 0; i < 4; ++i) {
    Message m = rig.Msg(80);
    m.tuple_count = 4;
    ASSERT_OK(tx.Send("s", std::move(m)));
  }
  rig.sim.RunAll();
  EXPECT_EQ(tx.delivered_count("s"), 4u);
  EXPECT_EQ(tx.frames_sent(), 2u);
}

// ---- Credit flow control -------------------------------------------------

TEST(TransportFlowTest, StallsAtCreditLimitAndResumesOnGrant) {
  TransportRig rig;
  TransportOptions opts = Mode(TransportMode::kMultiplexed);
  opts.credit_window_bytes = 500;
  Transport tx(&rig.sim, &rig.net, rig.a, rig.b, opts);
  ASSERT_OK(tx.RegisterStream("s", 1.0));
  for (int i = 0; i < 5; ++i) ASSERT_OK(tx.Send("s", rig.Msg(200)));
  // All five (1000 payload bytes) exceed the 500-byte window: the producer
  // is told to stop...
  EXPECT_TRUE(tx.StreamBlocked("s"));
  rig.sim.RunUntil(SimTime::Millis(200));
  // ...and only the first two messages (400 bytes <= 500) were dispatched.
  EXPECT_EQ(tx.delivered_count("s"), 2u);
  EXPECT_EQ(tx.sent_offset("s"), 400u);
  EXPECT_GE(tx.credit_stalls(), 1u);
  // A cumulative grant re-opens the window; a stale one is a no-op.
  tx.GrantCredit("s", 300);
  EXPECT_EQ(tx.credit_limit("s"), 500u);
  tx.GrantCredit("s", 1200);
  rig.sim.RunAll();
  EXPECT_EQ(tx.delivered_count("s"), 5u);
  // 1000 enqueued < 1200 granted: the producer has headroom again.
  EXPECT_FALSE(tx.StreamBlocked("s"));
}

TEST(TransportFlowTest, StalledStreamProbesWithSentOffset) {
  TransportRig rig;
  TransportOptions opts = Mode(TransportMode::kMultiplexed);
  opts.credit_window_bytes = 250;
  Transport tx(&rig.sim, &rig.net, rig.a, rig.b, opts);
  ASSERT_OK(tx.RegisterStream("s", 1.0));
  std::vector<uint64_t> probed;
  tx.SetFlowProbeHandler([&](const std::string& stream, uint64_t off) {
    EXPECT_EQ(stream, "s");
    probed.push_back(off);
  });
  for (int i = 0; i < 3; ++i) ASSERT_OK(tx.Send("s", rig.Msg(200)));
  rig.sim.RunUntil(SimTime::Millis(200));
  // Only the first message fit the window; the stall produced probes that
  // carry the cumulative sent offset (so the receiver can heal lost data).
  EXPECT_EQ(tx.delivered_count("s"), 1u);
  ASSERT_GE(probed.size(), 2u);
  EXPECT_EQ(probed.back(), 200u);
}

TEST(TransportFlowTest, PartitionPausesInsteadOfDropping) {
  TransportRig rig;
  TransportOptions opts = Mode(TransportMode::kMultiplexed);
  opts.credit_window_bytes = 1 << 20;
  Transport tx(&rig.sim, &rig.net, rig.a, rig.b, opts);
  ASSERT_OK(tx.RegisterStream("s", 1.0));
  size_t delivered = 0;
  tx.SetDeliveryHandler(
      [&](const std::string&, const Message&) { delivered++; });
  ASSERT_OK(rig.net.SetLinkUp(rig.a, rig.b, false));
  for (int i = 0; i < 6; ++i) ASSERT_OK(tx.Send("s", rig.Msg(100)));
  rig.sim.RunUntil(SimTime::Millis(300));
  // While partitioned the transport holds its queue: nothing delivered,
  // nothing handed to the network to be dropped.
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(rig.net.MessagesDropped(), 0u);
  EXPECT_EQ(tx.queued_messages(), 6u);
  ASSERT_OK(rig.net.SetLinkUp(rig.a, rig.b, true));
  rig.sim.RunAll();
  // After heal: every message exactly once, no loss, no duplicates.
  EXPECT_EQ(delivered, 6u);
  EXPECT_EQ(rig.net.MessagesDropped(), 0u);
}

// A transport destroyed while the simulation still holds its events must
// leave them as no-ops. Destroyed at once, it leaves a frame on the wire and
// the link-free event; one event later, the frame, a credit probe and the
// stall's retry wake.
TEST(TransportTest, DestroyedTransportIgnoresItsPendingEvents) {
  for (int steps : {0, 1}) {
    SCOPED_TRACE(steps);
    TransportRig rig;
    TransportOptions opts = Mode(TransportMode::kMultiplexed);
    opts.credit_window_bytes = 250;
    size_t delivered = 0;
    size_t probed = 0;
    auto tx = std::make_unique<Transport>(&rig.sim, &rig.net, rig.a, rig.b,
                                          opts);
    ASSERT_OK(tx->RegisterStream("s", 1.0));
    tx->SetDeliveryHandler(
        [&](const std::string&, const Message&) { delivered++; });
    tx->SetFlowProbeHandler([&](const std::string&, uint64_t) { probed++; });
    for (int i = 0; i < 3; ++i) ASSERT_OK(tx->Send("s", rig.Msg(200)));
    for (int i = 0; i < steps; ++i) ASSERT_TRUE(rig.sim.RunOne());
    EXPECT_EQ(tx->frames_sent(), 1u);  // the rest is past the credit window
    EXPECT_EQ(tx->credit_stalls(), static_cast<uint64_t>(steps));
    EXPECT_EQ(rig.sim.pending(), steps == 0 ? 2u : 3u);
    tx.reset();
    rig.sim.RunAll();
    EXPECT_EQ(delivered, 0u);
    EXPECT_EQ(probed, 0u);
    EXPECT_EQ(rig.sim.pending(), 0u);
  }
}

TEST(TransportTest, QueueAccounting) {
  TransportRig rig(/*bandwidth=*/1'000);  // very slow
  Transport tx(&rig.sim, &rig.net, rig.a, rig.b,
               Mode(TransportMode::kMultiplexed));
  ASSERT_OK(tx.RegisterStream("s", 1.0));
  for (int i = 0; i < 10; ++i) ASSERT_OK(tx.Send("s", rig.Msg(100)));
  EXPECT_GT(tx.queued_messages(), 0u);
  EXPECT_GT(tx.queued_bytes(), 0u);
  rig.sim.RunAll();
  EXPECT_EQ(tx.queued_messages(), 0u);
  EXPECT_EQ(tx.delivered_count("s"), 10u);
}

}  // namespace
}  // namespace aurora
