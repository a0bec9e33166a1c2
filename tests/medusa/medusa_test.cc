// Medusa federation (§3.2, §4.4, §7.2): participants, content contracts
// with metered payments, suggested contracts, remote definition with
// authorization, and movement-contract oracles.
#include <gtest/gtest.h>

#include "medusa/medusa_system.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing_util::SchemaAB;

class MedusaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<OverlayNetwork>(&sim_);
    star_ = std::make_unique<AuroraStarSystem>(&sim_, net_.get(),
                                               StarOptions{});
    ASSERT_OK_AND_ASSIGN(mit_node_,
                         star_->AddNode(NodeOptions{"mit0", 1.0, {}}));
    ASSERT_OK_AND_ASSIGN(brown_node_,
                         star_->AddNode(NodeOptions{"brown0", 1.0, {}}));
    net_->FullMesh(LinkOptions{});
    medusa_ = std::make_unique<MedusaSystem>(star_.get());
    ASSERT_OK_AND_ASSIGN(
        mit_, medusa_->AddParticipant("mit", {mit_node_}, 1000.0, 0.001));
    ASSERT_OK_AND_ASSIGN(
        brown_,
        medusa_->AddParticipant("brown", {brown_node_}, 1000.0, 0.001));
  }

  // A producer filter at MIT feeding an output at Brown across the
  // participant boundary. Returns the crossing stream name.
  std::string DeployCrossBoundaryQuery() {
    EXPECT_OK(query_.AddInput("quotes", SchemaAB()));
    EXPECT_OK(query_.AddBox("produce", FilterSpec(Predicate::True())));
    EXPECT_OK(query_.AddBox("consume", FilterSpec(Predicate::True())));
    EXPECT_OK(query_.AddOutput("out"));
    EXPECT_OK(query_.ConnectInputToBox("quotes", "produce"));
    EXPECT_OK(query_.ConnectBoxes("produce", 0, "consume", 0));
    EXPECT_OK(query_.ConnectBoxToOutput("consume", 0, "out"));
    auto deployed = DeployQuery(star_.get(), query_,
                                {{"produce", mit_node_},
                                 {"consume", brown_node_}});
    EXPECT_TRUE(deployed.ok()) << deployed.status().ToString();
    deployed_ = *std::move(deployed);
    return deployed_.remote_streams.at("produce->consume");
  }

  void Inject(int n) {
    for (int i = 0; i < n; ++i) {
      sim_.ScheduleAt(SimTime::Millis(i), [this, i]() {
        (void)star_->node(mit_node_).Inject(
            "quotes", MakeTuple(SchemaAB(), {Value(i), Value(i % 10)}));
      });
    }
  }

  Simulation sim_;
  std::unique_ptr<OverlayNetwork> net_;
  std::unique_ptr<AuroraStarSystem> star_;
  std::unique_ptr<MedusaSystem> medusa_;
  GlobalQuery query_;
  DeployedQuery deployed_;
  Participant* mit_ = nullptr;
  Participant* brown_ = nullptr;
  NodeId mit_node_ = -1, brown_node_ = -1;
};

TEST_F(MedusaTest, ParticipantsOwnDisjointNodes) {
  ASSERT_OK_AND_ASSIGN(std::string owner,
                       medusa_->ParticipantOfNode(mit_node_));
  EXPECT_EQ(owner, "mit");
  // A node cannot belong to two participants.
  auto dup = medusa_->AddParticipant("spy", {mit_node_}, 0, 0.1);
  EXPECT_TRUE(dup.status().IsAlreadyExists());
}

TEST_F(MedusaTest, ContentContractMetersMessagesAndPays) {
  std::string stream = DeployCrossBoundaryQuery();
  ASSERT_OK_AND_ASSIGN(
      int id, medusa_->EstablishContentContract(
                  "mit", "brown", stream, /*price=*/0.5,
                  SimDuration::Seconds(100)));
  medusa_->Start();
  Inject(200);
  sim_.RunUntil(SimTime::Seconds(2));

  ASSERT_OK_AND_ASSIGN(const ContentContract* c,
                       medusa_->GetContentContract(id));
  EXPECT_EQ(c->messages_settled, 200u);
  EXPECT_DOUBLE_EQ(c->total_paid, 100.0);
  // "the receiving participant always pays the sender".
  EXPECT_DOUBLE_EQ(mit_->balance(), 1100.0);
  EXPECT_DOUBLE_EQ(brown_->balance(), 900.0);
}

TEST_F(MedusaTest, ContractRequiresSellerToOwnSource) {
  std::string stream = DeployCrossBoundaryQuery();
  auto wrong = medusa_->EstablishContentContract("brown", "mit", stream, 0.1,
                                                 SimDuration::Seconds(1));
  EXPECT_TRUE(wrong.status().IsFailedPrecondition());
}

TEST_F(MedusaTest, ContractExpiresAfterPeriod) {
  std::string stream = DeployCrossBoundaryQuery();
  ASSERT_OK_AND_ASSIGN(
      int id, medusa_->EstablishContentContract(
                  "mit", "brown", stream, 0.5, SimDuration::Millis(500)));
  medusa_->Start();
  Inject(2000);
  sim_.RunUntil(SimTime::Seconds(3));
  ASSERT_OK_AND_ASSIGN(const ContentContract* c,
                       medusa_->GetContentContract(id));
  EXPECT_FALSE(c->active);
  // Only messages within the period were billed.
  EXPECT_LT(c->messages_settled, 800u);
}

TEST_F(MedusaTest, SuggestedContractSwitchesSeller) {
  std::string stream = DeployCrossBoundaryQuery();
  // A third participant mirrors the content.
  ASSERT_OK_AND_ASSIGN(NodeId tufts_node,
                       star_->AddNode(NodeOptions{"tufts0", 1.0, {}}));
  net_->FullMesh(LinkOptions{});
  ASSERT_OK(medusa_->AddParticipant("tufts", {tufts_node}, 1000.0, 0.001)
                .status());
  ASSERT_OK_AND_ASSIGN(
      int id, medusa_->EstablishContentContract(
                  "mit", "brown", stream, 0.5, SimDuration::Seconds(100)));
  // MIT wants out of the path and points Brown at Tufts. (Tufts must carry
  // the stream; we reuse MIT's stream name here to exercise validation.)
  auto rejected =
      medusa_->SuggestContract("brown", id, "tufts", stream, true);
  EXPECT_TRUE(rejected.status().IsFailedPrecondition());  // only the seller
  // Buyer may also ignore the suggestion.
  ASSERT_OK_AND_ASSIGN(int same,
                       medusa_->SuggestContract("mit", id, "tufts", stream,
                                                /*accept=*/false));
  EXPECT_EQ(same, id);
  EXPECT_EQ(medusa_->suggestions().size(), 1u);
}

TEST_F(MedusaTest, RemoteDefinitionRequiresAuthorizationAndOfferedKind) {
  DeployCrossBoundaryQuery();
  OperatorSpec filter =
      FilterSpec(Predicate::Compare("B", CompareOp::kGe, Value(8)));
  // Find MIT's relay output feeding the boundary stream.
  std::string output_name;
  for (const auto& [name, binding] : star_->node(mit_node_).bindings()) {
    output_name = name;
  }
  ASSERT_FALSE(output_name.empty());

  // Not authorized yet.
  auto denied = medusa_->RemoteDefine("brown", "mit", mit_node_, output_name,
                                      filter);
  EXPECT_TRUE(denied.status().IsFailedPrecondition());
  mit_->AuthorizeRemoteDefiner("brown");
  // Authorized but filter not offered.
  auto not_offered = medusa_->RemoteDefine("brown", "mit", mit_node_,
                                           output_name, filter);
  EXPECT_TRUE(not_offered.status().IsFailedPrecondition());
  mit_->OfferOperatorKind("filter");
  ASSERT_OK_AND_ASSIGN(BoxId box, medusa_->RemoteDefine("brown", "mit",
                                                        mit_node_, output_name,
                                                        filter));
  EXPECT_TRUE(star_->node(mit_node_).engine().IsBoxInitialized(box));
}

TEST_F(MedusaTest, RemoteDefinitionCustomizesContentAtSource) {
  std::string stream = DeployCrossBoundaryQuery();
  mit_->AuthorizeRemoteDefiner("brown");
  mit_->OfferOperatorKind("filter");
  std::string output_name;
  for (const auto& [name, binding] : star_->node(mit_node_).bindings()) {
    output_name = name;
  }
  // Brown only wants B == 0 — one tenth of the stream.
  ASSERT_OK(medusa_->RemoteDefine(
                     "brown", "mit", mit_node_, output_name,
                     FilterSpec(Predicate::Compare("B", CompareOp::kEq,
                                                   Value(0))))
                .status());
  std::vector<Tuple> out;
  ASSERT_OK(star_->CollectOutput(brown_node_, "out",
                                 [&](const Tuple& t, SimTime) {
                                   out.push_back(t);
                                 }));
  Inject(100);
  sim_.RunUntil(SimTime::Seconds(2));
  // Only the customized content crossed the boundary.
  EXPECT_EQ(out.size(), 10u);
  for (const auto& t : out) EXPECT_EQ(t.Get("B").AsInt(), 0);
}

TEST_F(MedusaTest, MovementContractOracleBalancesLoad) {
  // A heavy box at MIT; Brown idles. The movement contract's oracles must
  // hand the box to Brown, and MIT pays Brown for processing.
  ASSERT_OK(query_.AddInput("quotes", SchemaAB()));
  OperatorSpec heavy = FilterSpec(Predicate::True());
  heavy.SetParam("cost_us", Value(900.0));
  ASSERT_OK(query_.AddBox("hot", heavy));
  ASSERT_OK(query_.AddOutput("out"));
  ASSERT_OK(query_.ConnectInputToBox("quotes", "hot"));
  ASSERT_OK(query_.ConnectBoxToOutput("hot", 0, "out"));
  ASSERT_OK_AND_ASSIGN(deployed_,
                       DeployQuery(star_.get(), query_, {{"hot", mit_node_}}));
  ASSERT_OK_AND_ASSIGN(
      int id, medusa_->EstablishMovementContract(
                  "mit", mit_node_, "brown", brown_node_, "hot", &deployed_,
                  /*price_a=*/2.0, /*price_b=*/2.0));
  (void)id;
  medusa_->Start();
  for (int i = 0; i < 3000; ++i) {
    sim_.ScheduleAt(SimTime::Millis(i / 2), [this, i]() {
      (void)star_->node(mit_node_).Inject(
          "quotes", MakeTuple(SchemaAB(), {Value(i), Value(0)}));
    });
  }
  sim_.RunUntil(SimTime::Seconds(4));

  EXPECT_GE(medusa_->total_switches(), 1);
  EXPECT_EQ(deployed_.boxes.at("hot").node, brown_node_);
  // Brown profits from hosting; MIT paid for the service.
  EXPECT_GT(brown_->profit(), 0.0);
  EXPECT_LT(mit_->profit(), 0.0);
  // The economy conserves currency.
  EXPECT_DOUBLE_EQ(mit_->balance() + brown_->balance(), 2000.0);
}

TEST_F(MedusaTest, UnprofitableHostingIsRefused) {
  ASSERT_OK(query_.AddInput("quotes", SchemaAB()));
  OperatorSpec heavy = FilterSpec(Predicate::True());
  heavy.SetParam("cost_us", Value(900.0));
  ASSERT_OK(query_.AddBox("hot", heavy));
  ASSERT_OK(query_.AddOutput("out"));
  ASSERT_OK(query_.ConnectInputToBox("quotes", "hot"));
  ASSERT_OK(query_.ConnectBoxToOutput("hot", 0, "out"));
  ASSERT_OK_AND_ASSIGN(deployed_,
                       DeployQuery(star_.get(), query_, {{"hot", mit_node_}}));
  // Brown's hosting price (price_b) is below its marginal cost
  // (900us * 0.001 $/us = 0.9 per tuple): it must refuse the hand-off.
  ASSERT_OK(medusa_
                ->EstablishMovementContract("mit", mit_node_, "brown",
                                            brown_node_, "hot", &deployed_,
                                            0.01, /*price_b=*/0.0001)
                .status());
  medusa_->Start();
  for (int i = 0; i < 2000; ++i) {
    sim_.ScheduleAt(SimTime::Millis(i / 2), [this, i]() {
      (void)star_->node(mit_node_).Inject(
          "quotes", MakeTuple(SchemaAB(), {Value(i), Value(0)}));
    });
  }
  sim_.RunUntil(SimTime::Seconds(3));
  EXPECT_EQ(medusa_->total_switches(), 0);
  EXPECT_EQ(deployed_.boxes.at("hot").node, mit_node_);
}

}  // namespace
}  // namespace aurora
