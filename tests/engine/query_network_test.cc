// QueryNetwork, the model both engines execute: every Connect /
// InitializeBoxes rejection in one table, and distance-to-output.
#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "engine/query_network.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing_util::SchemaAB;

struct RejectCase {
  std::string name;
  /// Builds a network and returns the status of the step that must fail.
  std::function<Status(QueryNetwork&)> build;
  StatusCode want;
};

// Test listings name a case, not its bytes.
void PrintTo(const RejectCase& c, std::ostream* os) { *os << c.name; }

// A network with one input port, one output port, and one filter box, so
// the cases below can name ids that do and do not exist.
struct Base {
  PortId in, out;
  BoxId filter;
};

Base MakeBase(QueryNetwork& net) {
  Base b;
  b.in = *net.AddInput("in", SchemaAB());
  b.out = *net.AddOutput("out");
  b.filter = *net.AddBox(FilterSpec(Predicate::True()));
  return b;
}

std::vector<RejectCase> RejectCases() {
  return {
      {"UnconnectedBoxInputFailsInit",
       [](QueryNetwork& net) {
         Base b = MakeBase(net);
         (void)*net.AddBox(UnionSpec(2));  // nothing wired into the union
         AURORA_CHECK(net.Connect(Endpoint::InputPort(b.in),
                                  Endpoint::BoxPort(b.filter, 0))
                          .ok());
         return net.InitializeBoxes();
       },
       StatusCode::kFailedPrecondition},
      {"DuplicateInputArcRejected",
       [](QueryNetwork& net) {
         Base b = MakeBase(net);
         AURORA_CHECK(net.Connect(Endpoint::InputPort(b.in),
                                  Endpoint::BoxPort(b.filter, 0))
                          .ok());
         return net.Connect(Endpoint::InputPort(b.in),
                            Endpoint::BoxPort(b.filter, 0))
             .status();
       },
       StatusCode::kAlreadyExists},
      {"AdoptRejectsSchemaMismatch",
       [](QueryNetwork& net) {
         // An adopted box arrives initialized, so a mismatched source is
         // caught at Connect rather than at InitializeBoxes.
         OperatorPtr op =
             std::move(CreateOperator(FilterSpec(Predicate::True())))
                 .ValueUnsafe();
         AURORA_CHECK(op->Init({SchemaAB()}).ok());
         BoxId f = *net.AdoptBox(std::move(op));
         PortId bad =
             *net.AddInput("bad", Schema::Make({Field{"X", ValueType::kString}}));
         return net.Connect(Endpoint::InputPort(bad), Endpoint::BoxPort(f, 0))
             .status();
       },
       StatusCode::kInvalidArgument},
      {"BadInputPortId",
       [](QueryNetwork& net) {
         Base b = MakeBase(net);
         return net.Connect(Endpoint::InputPort(3),
                            Endpoint::BoxPort(b.filter, 0))
             .status();
       },
       StatusCode::kInvalidArgument},
      {"BadSourceBoxId",
       [](QueryNetwork& net) {
         Base b = MakeBase(net);
         return net.Connect(Endpoint::BoxPort(7, 0), Endpoint::OutputPort(b.out))
             .status();
       },
       StatusCode::kInvalidArgument},
      {"BadDestinationBoxId",
       [](QueryNetwork& net) {
         Base b = MakeBase(net);
         return net.Connect(Endpoint::InputPort(b.in), Endpoint::BoxPort(-1, 0))
             .status();
       },
       StatusCode::kInvalidArgument},
      {"BadBoxOutputIndex",
       [](QueryNetwork& net) {
         Base b = MakeBase(net);
         return net.Connect(Endpoint::BoxPort(b.filter, 1),
                            Endpoint::OutputPort(b.out))
             .status();
       },
       StatusCode::kInvalidArgument},
      {"BadBoxInputIndex",
       [](QueryNetwork& net) {
         Base b = MakeBase(net);
         return net.Connect(Endpoint::InputPort(b.in),
                            Endpoint::BoxPort(b.filter, 1))
             .status();
       },
       StatusCode::kInvalidArgument},
      {"BadOutputPortId",
       [](QueryNetwork& net) {
         Base b = MakeBase(net);
         return net.Connect(Endpoint::BoxPort(b.filter, 0),
                            Endpoint::OutputPort(5))
             .status();
       },
       StatusCode::kInvalidArgument},
      {"RemovedBoxIsGone",
       [](QueryNetwork& net) {
         Base b = MakeBase(net);
         AURORA_CHECK(net.RemoveBox(b.filter).ok());
         return net.Connect(Endpoint::InputPort(b.in),
                            Endpoint::BoxPort(b.filter, 0))
             .status();
       },
       StatusCode::kInvalidArgument},
      {"ArcOutOfOutputPort",
       [](QueryNetwork& net) {
         Base b = MakeBase(net);
         return net.Connect(Endpoint::OutputPort(b.out),
                            Endpoint::BoxPort(b.filter, 0))
             .status();
       },
       StatusCode::kInvalidArgument},
      {"ArcIntoInputPort",
       [](QueryNetwork& net) {
         Base b = MakeBase(net);
         return net.Connect(Endpoint::BoxPort(b.filter, 0),
                            Endpoint::InputPort(b.in))
             .status();
       },
       StatusCode::kInvalidArgument},
      {"CycleFailsInit",
       [](QueryNetwork& net) {
         // in -> union.0; union -> filter -> union.1: every arc is legal on
         // its own, but neither box can learn its input schemas.
         Base b = MakeBase(net);
         BoxId u = *net.AddBox(UnionSpec(2));
         AURORA_CHECK(
             net.Connect(Endpoint::InputPort(b.in), Endpoint::BoxPort(u, 0))
                 .ok());
         AURORA_CHECK(
             net.Connect(Endpoint::BoxPort(u, 0), Endpoint::BoxPort(b.filter, 0))
                 .ok());
         AURORA_CHECK(
             net.Connect(Endpoint::BoxPort(b.filter, 0), Endpoint::BoxPort(u, 1))
                 .ok());
         return net.InitializeBoxes();
       },
       StatusCode::kFailedPrecondition},
  };
}

class QueryNetworkRejectTest : public ::testing::TestWithParam<RejectCase> {};

TEST_P(QueryNetworkRejectTest, Rejects) {
  QueryNetwork net;
  Status st = GetParam().build(net);
  EXPECT_EQ(st.code(), GetParam().want) << st.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Table, QueryNetworkRejectTest, ::testing::ValuesIn(RejectCases()),
    [](const ::testing::TestParamInfo<RejectCase>& info) {
      return info.param.name;
    });

// in -> a -> {b, c} -> d(union) -> out, plus a dead-end e off a: distances
// take the shortest path, and a box with no route to an output keeps the
// sentinel. Disconnecting the output arc resets everything.
TEST(QueryNetworkTest, DistanceToOutputOnDiamond) {
  QueryNetwork net;
  PortId in = *net.AddInput("in", SchemaAB());
  PortId out = *net.AddOutput("out");
  auto filter = [&net] { return *net.AddBox(FilterSpec(Predicate::True())); };
  BoxId a = filter(), b = filter(), c = filter(), e = filter();
  BoxId d = *net.AddBox(UnionSpec(2));
  ASSERT_OK(net.Connect(Endpoint::InputPort(in), Endpoint::BoxPort(a, 0))
                .status());
  for (BoxId mid : {b, c, e}) {
    ASSERT_OK(net.Connect(Endpoint::BoxPort(a, 0), Endpoint::BoxPort(mid, 0))
                  .status());
  }
  ASSERT_OK(net.Connect(Endpoint::BoxPort(b, 0), Endpoint::BoxPort(d, 0))
                .status());
  ASSERT_OK(net.Connect(Endpoint::BoxPort(c, 0), Endpoint::BoxPort(d, 1))
                .status());
  ASSERT_OK_AND_ASSIGN(
      ArcId out_arc,
      net.Connect(Endpoint::BoxPort(d, 0), Endpoint::OutputPort(out)));
  ASSERT_OK(net.InitializeBoxes());

  EXPECT_EQ(net.box(d).distance_to_output, 0);
  EXPECT_EQ(net.box(b).distance_to_output, 1);
  EXPECT_EQ(net.box(c).distance_to_output, 1);
  EXPECT_EQ(net.box(a).distance_to_output, 2);
  EXPECT_EQ(net.box(e).distance_to_output, QueryNetwork::kNoOutput);
  EXPECT_EQ(net.ArcsFrom(Endpoint::BoxPort(a, 0)).size(), 3u);
  EXPECT_EQ(net.ArcsInto(out).size(), 1u);

  ASSERT_OK(net.Disconnect(out_arc));
  for (BoxId box : {a, b, c, d, e}) {
    EXPECT_EQ(net.box(box).distance_to_output, QueryNetwork::kNoOutput);
  }
  EXPECT_TRUE(net.ArcsInto(out).empty());
  EXPECT_FALSE(net.HasArc(out_arc));
}

}  // namespace
}  // namespace aurora
