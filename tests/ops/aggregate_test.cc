// Aggregate functions and the paper's agg/combine requirement (§5.1):
//   agg({x_1..x_n}) == combine(agg({x_1..x_k}), agg({x_{k+1}..x_n}))
// verified as a parameterized property over every combinable aggregate,
// split point, and data distribution.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "ops/aggregate.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

TEST(AggregateTest, Count) {
  ASSERT_OK_AND_ASSIGN(auto agg, MakeAggregate("cnt"));
  agg->Reset();
  for (int i = 0; i < 5; ++i) agg->Update(Value(i));
  EXPECT_EQ(agg->Final().AsInt(), 5);
  EXPECT_EQ(agg->count(), 5u);
}

TEST(AggregateTest, SumKeepsIntegersIntegral) {
  ASSERT_OK_AND_ASSIGN(auto agg, MakeAggregate("sum"));
  agg->Reset();
  agg->Update(Value(2));
  agg->Update(Value(3));
  EXPECT_EQ(agg->Final().type(), ValueType::kInt64);
  EXPECT_EQ(agg->Final().AsInt(), 5);
}

TEST(AggregateTest, SumMixedBecomesDouble) {
  ASSERT_OK_AND_ASSIGN(auto agg, MakeAggregate("sum"));
  agg->Reset();
  agg->Update(Value(2));
  agg->Update(Value(0.5));
  EXPECT_EQ(agg->Final().type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(agg->Final().AsDouble(), 2.5);
}

TEST(AggregateTest, Avg) {
  ASSERT_OK_AND_ASSIGN(auto agg, MakeAggregate("avg"));
  agg->Reset();
  agg->Update(Value(2));
  agg->Update(Value(3));
  EXPECT_DOUBLE_EQ(agg->Final().AsDouble(), 2.5);
}

TEST(AggregateTest, MinMax) {
  ASSERT_OK_AND_ASSIGN(auto mn, MakeAggregate("min"));
  ASSERT_OK_AND_ASSIGN(auto mx, MakeAggregate("max"));
  mn->Reset();
  mx->Reset();
  for (int64_t v : {5, 2, 9, 3}) {
    mn->Update(Value(v));
    mx->Update(Value(v));
  }
  EXPECT_EQ(mn->Final().AsInt(), 2);
  EXPECT_EQ(mx->Final().AsInt(), 9);
}

TEST(AggregateTest, ResetClearsState) {
  ASSERT_OK_AND_ASSIGN(auto agg, MakeAggregate("sum"));
  agg->Reset();
  agg->Update(Value(10));
  agg->Reset();
  agg->Update(Value(1));
  EXPECT_EQ(agg->Final().AsInt(), 1);
}

TEST(AggregateTest, UnknownNameIsError) {
  EXPECT_TRUE(MakeAggregate("median").status().IsInvalidArgument());
}

TEST(AggregateTest, CombinabilityTable) {
  // Per the paper: cnt→sum, max→max; avg has none.
  EXPECT_TRUE(IsCombinableAggregate("cnt"));
  EXPECT_TRUE(IsCombinableAggregate("sum"));
  EXPECT_TRUE(IsCombinableAggregate("min"));
  EXPECT_TRUE(IsCombinableAggregate("max"));
  EXPECT_FALSE(IsCombinableAggregate("avg"));
  EXPECT_EQ(*CombineFunctionFor("cnt"), "sum");
  EXPECT_EQ(*CombineFunctionFor("sum"), "sum");
  EXPECT_EQ(*CombineFunctionFor("min"), "min");
  EXPECT_EQ(*CombineFunctionFor("max"), "max");
  EXPECT_TRUE(CombineFunctionFor("avg").status().IsFailedPrecondition());
}

TEST(AggregateTest, ResultTypes) {
  EXPECT_EQ(AggResultType("cnt", ValueType::kDouble), ValueType::kInt64);
  EXPECT_EQ(AggResultType("avg", ValueType::kInt64), ValueType::kDouble);
  EXPECT_EQ(AggResultType("sum", ValueType::kInt64), ValueType::kInt64);
  EXPECT_EQ(AggResultType("max", ValueType::kDouble), ValueType::kDouble);
}

// ---------------------------------------------------------------------------
// Property sweep: the combine identity over every combinable aggregate,
// split point, and value distribution.
// ---------------------------------------------------------------------------

struct CombineCase {
  const char* agg;
  int n;        // values in the window
  int split;    // split point k
  uint64_t seed;
};

// Test listings name a case, not its bytes (the first of which are a
// pointer, so they change from run to run).
void PrintTo(const CombineCase& c, std::ostream* os) {
  *os << c.agg << "_n" << c.n << "_split" << c.split << "_seed" << c.seed;
}

class CombinePropertyTest : public ::testing::TestWithParam<CombineCase> {};

TEST_P(CombinePropertyTest, CombineEqualsWhole) {
  const CombineCase& c = GetParam();
  Rng rng(c.seed);
  std::vector<Value> values;
  for (int i = 0; i < c.n; ++i) {
    values.push_back(Value(rng.UniformInt(-1000, 1000)));
  }
  ASSERT_OK_AND_ASSIGN(auto whole, MakeAggregate(c.agg));
  ASSERT_OK_AND_ASSIGN(auto left, MakeAggregate(c.agg));
  ASSERT_OK_AND_ASSIGN(auto right, MakeAggregate(c.agg));
  ASSERT_OK_AND_ASSIGN(std::string combine_name, CombineFunctionFor(c.agg));
  ASSERT_OK_AND_ASSIGN(auto combine, MakeAggregate(combine_name));
  whole->Reset();
  left->Reset();
  right->Reset();
  combine->Reset();
  for (int i = 0; i < c.n; ++i) {
    whole->Update(values[i]);
    (i < c.split ? left : right)->Update(values[i]);
  }
  if (left->count() > 0) combine->Update(left->Final());
  if (right->count() > 0) combine->Update(right->Final());
  EXPECT_EQ(combine->Final(), whole->Final())
      << c.agg << " n=" << c.n << " split=" << c.split;
}

std::vector<CombineCase> MakeCombineCases() {
  std::vector<CombineCase> cases;
  uint64_t seed = 1;
  for (const char* agg : {"cnt", "sum", "min", "max"}) {
    for (int n : {1, 2, 7, 64}) {
      for (int split : {0, 1, n / 2, n}) {
        cases.push_back(CombineCase{agg, n, split, seed++});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAggregates, CombinePropertyTest,
                         ::testing::ValuesIn(MakeCombineCases()));

}  // namespace
}  // namespace aurora
