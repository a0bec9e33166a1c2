// Content-contract availability clauses (§7.2): "An optional availability
// clause can be added to specify the amount of outage that can be
// tolerated, as a guarantee on the fraction of uptime."
#include <gtest/gtest.h>

#include "medusa/medusa_system.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing_util::SchemaAB;

class AvailabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<OverlayNetwork>(&sim_);
    star_ = std::make_unique<AuroraStarSystem>(&sim_, net_.get(),
                                               StarOptions{});
    ASSERT_OK_AND_ASSIGN(seller_node_,
                         star_->AddNode(NodeOptions{"seller0", 1.0, {}}));
    ASSERT_OK_AND_ASSIGN(buyer_node_,
                         star_->AddNode(NodeOptions{"buyer0", 1.0, {}}));
    net_->FullMesh(LinkOptions{});
    medusa_ = std::make_unique<MedusaSystem>(star_.get());
    ASSERT_OK(medusa_->AddParticipant("seller", {seller_node_}, 1000, 0.001)
                  .status());
    ASSERT_OK(medusa_->AddParticipant("buyer", {buyer_node_}, 1000, 0.001)
                  .status());

    GlobalQuery q;
    ASSERT_OK(q.AddInput("feed", SchemaAB()));
    ASSERT_OK(q.AddBox("src", FilterSpec(Predicate::True())));
    ASSERT_OK(q.AddBox("dst", FilterSpec(Predicate::True())));
    ASSERT_OK(q.AddOutput("out"));
    ASSERT_OK(q.ConnectInputToBox("feed", "src"));
    ASSERT_OK(q.ConnectBoxes("src", 0, "dst", 0));
    ASSERT_OK(q.ConnectBoxToOutput("dst", 0, "out"));
    ASSERT_OK_AND_ASSIGN(
        deployed_, DeployQuery(star_.get(), q,
                               {{"src", seller_node_}, {"dst", buyer_node_}}));
    stream_ = deployed_.remote_streams.at("src->dst");
  }

  Simulation sim_;
  std::unique_ptr<OverlayNetwork> net_;
  std::unique_ptr<AuroraStarSystem> star_;
  std::unique_ptr<MedusaSystem> medusa_;
  DeployedQuery deployed_;
  std::string stream_;
  NodeId seller_node_ = -1, buyer_node_ = -1;
};

TEST_F(AvailabilityTest, ExtendedOutageVoidsGuaranteedContract) {
  ASSERT_OK_AND_ASSIGN(
      int id, medusa_->EstablishContentContract(
                  "seller", "buyer", stream_, 0.1, SimDuration::Seconds(100),
                  /*availability_guarantee=*/0.9));
  medusa_->Start();
  // Traffic flows briefly; then the seller's node goes down for most of
  // the observation window (uptime << 90%).
  for (int i = 0; i < 50; ++i) {
    sim_.ScheduleAt(SimTime::Millis(i * 10), [this, i]() {
      (void)star_->node(seller_node_).Inject(
          "feed", MakeTuple(SchemaAB(), {Value(i), Value(0)}));
    });
  }
  sim_.ScheduleAt(SimTime::Millis(600),
                  [this]() { star_->node(seller_node_).SetUp(false); });
  sim_.RunUntil(SimTime::Seconds(10));

  ASSERT_OK_AND_ASSIGN(const ContentContract* c,
                       medusa_->GetContentContract(id));
  EXPECT_FALSE(c->active);  // guarantee breached → contract void
  EXPECT_GT(c->down_checks, 0u);
}

TEST_F(AvailabilityTest, NoGuaranteeMeansOutageJustPausesBilling) {
  ASSERT_OK_AND_ASSIGN(
      int id, medusa_->EstablishContentContract(
                  "seller", "buyer", stream_, 0.1, SimDuration::Seconds(100),
                  /*availability_guarantee=*/0.0));
  medusa_->Start();
  sim_.ScheduleAt(SimTime::Millis(600),
                  [this]() { star_->node(seller_node_).SetUp(false); });
  sim_.ScheduleAt(SimTime::Seconds(5),
                  [this]() { star_->node(seller_node_).SetUp(true); });
  for (int i = 0; i < 50; ++i) {
    sim_.ScheduleAt(SimTime::Millis(5500 + i * 10), [this, i]() {
      (void)star_->node(seller_node_).Inject(
          "feed", MakeTuple(SchemaAB(), {Value(i), Value(0)}));
    });
  }
  sim_.RunUntil(SimTime::Seconds(8));
  ASSERT_OK_AND_ASSIGN(const ContentContract* c,
                       medusa_->GetContentContract(id));
  EXPECT_TRUE(c->active);  // no clause: the contract survives the outage
  EXPECT_GT(c->messages_settled, 0u);  // post-recovery traffic billed
}

}  // namespace
}  // namespace aurora
