// Bound-once field access: Expr::Bind / Predicate::Bind resolve attribute
// names to indices at box-init time, fail eagerly on missing fields, and the
// lazy rebind in Eval keeps evaluation correct for tuples whose schema
// differs from the bound one.
#include <gtest/gtest.h>

#include "ops/expr.h"
#include "ops/op_spec.h"
#include "ops/operator.h"
#include "ops/predicate.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing_util::CollectingEmitter;
using testing_util::SchemaAB;

Tuple T(int64_t a, int64_t b) {
  return MakeTuple(SchemaAB(), {Value(a), Value(b)});
}

TEST(BindTest, ExprBindMissingFieldIsNotFound) {
  Expr e = Expr::FieldRef("Missing");
  EXPECT_TRUE(e.Bind(SchemaAB()).IsNotFound());
  // Nested references are checked too.
  Expr nested = Expr::Arith(ArithOp::kAdd, Expr::FieldRef("A"),
                            Expr::FieldRef("Missing"));
  EXPECT_TRUE(nested.Bind(SchemaAB()).IsNotFound());
}

TEST(BindTest, ExprEvalCorrectAfterBind) {
  Expr e = Expr::Arith(ArithOp::kMul, Expr::FieldRef("B"),
                       Expr::Constant(Value(int64_t{10})));
  ASSERT_OK(e.Bind(SchemaAB()));
  ASSERT_OK_AND_ASSIGN(Value v, e.Eval(T(1, 7)));
  EXPECT_EQ(v.AsInt(), 70);
}

TEST(BindTest, ExprRebindsLazilyOnDifferentSchema) {
  Expr e = Expr::FieldRef("A");
  ASSERT_OK(e.Bind(SchemaAB()));  // A is index 0 here
  ASSERT_OK_AND_ASSIGN(Value v1, e.Eval(T(5, 6)));
  EXPECT_EQ(v1.AsInt(), 5);
  // In this schema A sits at index 1: a stale bound index would read X.
  SchemaPtr xa = Schema::Make(
      {Field{"X", ValueType::kInt64}, Field{"A", ValueType::kInt64}});
  ASSERT_OK_AND_ASSIGN(Value v2,
                       e.Eval(MakeTuple(xa, {Value(100), Value(42)})));
  EXPECT_EQ(v2.AsInt(), 42);
  // And flipping back to the original schema still works.
  ASSERT_OK_AND_ASSIGN(Value v3, e.Eval(T(9, 1)));
  EXPECT_EQ(v3.AsInt(), 9);
}

TEST(BindTest, ExprEvalWithoutBindStillWorks) {
  // Bind is a warm cache plus eager error check, not a correctness
  // requirement: a never-bound expression evaluates fine.
  Expr e = Expr::FieldRef("B");
  ASSERT_OK_AND_ASSIGN(Value v, e.Eval(T(1, 33)));
  EXPECT_EQ(v.AsInt(), 33);
}

TEST(BindTest, PredicateBindRecursesThroughCombinators) {
  Predicate p = Predicate::And(
      Predicate::Compare("A", CompareOp::kGe, Value(int64_t{0})),
      Predicate::Or(
          Predicate::Compare("B", CompareOp::kLt, Value(int64_t{10})),
          Predicate::Not(
              Predicate::Compare("A", CompareOp::kEq, Value(int64_t{1})))));
  ASSERT_OK(p.Bind(SchemaAB()));
  EXPECT_TRUE(p.Eval(T(2, 3)));
  EXPECT_FALSE(p.Eval(T(-1, 3)));

  // A missing field anywhere in the tree surfaces through Bind.
  Predicate bad = Predicate::And(
      Predicate::True(),
      Predicate::Not(
          Predicate::Compare("Missing", CompareOp::kEq, Value(int64_t{0}))));
  EXPECT_TRUE(bad.Bind(SchemaAB()).IsNotFound());
}

TEST(BindTest, PredicateHashPartitionBindsAndEvals) {
  Predicate even = Predicate::HashPartition("A", 2, 0);
  Predicate odd = Predicate::HashPartition("A", 2, 1);
  ASSERT_OK(even.Bind(SchemaAB()));
  ASSERT_OK(odd.Bind(SchemaAB()));
  EXPECT_TRUE(Predicate::HashPartition("Missing", 2, 0)
                  .Bind(SchemaAB())
                  .IsNotFound());
  // The two partitions are complementary for any tuple.
  for (int64_t a = 0; a < 16; ++a) {
    EXPECT_NE(even.Eval(T(a, 0)), odd.Eval(T(a, 0))) << "a=" << a;
  }
}

TEST(BindTest, PredicateRebindsLazilyOnDifferentSchema) {
  Predicate p = Predicate::Compare("A", CompareOp::kEq, Value(int64_t{42}));
  ASSERT_OK(p.Bind(SchemaAB()));
  EXPECT_TRUE(p.Eval(T(42, 0)));
  SchemaPtr xa = Schema::Make(
      {Field{"X", ValueType::kInt64}, Field{"A", ValueType::kInt64}});
  EXPECT_TRUE(p.Eval(MakeTuple(xa, {Value(0), Value(42)})));
  EXPECT_FALSE(p.Eval(MakeTuple(xa, {Value(42), Value(0)})));
}

// Operator Init surfaces unresolvable fields before any tuple flows.
TEST(BindTest, FilterOpInitFailsOnMissingPredicateField) {
  OperatorSpec spec =
      FilterSpec(Predicate::Compare("Missing", CompareOp::kGe, Value(0)));
  ASSERT_OK_AND_ASSIGN(OperatorPtr op, CreateOperator(spec));
  EXPECT_TRUE(op->Init({SchemaAB()}).IsNotFound());
}

TEST(BindTest, MapOpInitFailsOnMissingExprField) {
  OperatorSpec spec = MapSpec({{"Out", Expr::FieldRef("Missing")}});
  ASSERT_OK_AND_ASSIGN(OperatorPtr op, CreateOperator(spec));
  EXPECT_TRUE(op->Init({SchemaAB()}).IsNotFound());
}

/// Map's rows, one ToString each, for five (A, S) tuples built on `rows`
/// and fed to a Map initialized on `init`, per tuple or as one batch.
std::vector<std::string> MapRows(const OperatorSpec& spec,
                                 const SchemaPtr& init, const SchemaPtr& rows,
                                 bool batched) {
  auto op = std::move(CreateOperator(spec)).ValueUnsafe();
  EXPECT_OK(op->Init({init}));
  std::vector<Tuple> in;
  for (int64_t i = 0; i < 5; ++i) {
    in.push_back(MakeTuple(
        rows, {Value(i), Value("row " + std::to_string(i) +
                               ", a string past the inline buffer")}));
  }
  CollectingEmitter emitter;
  if (batched) {
    TupleBatch batch;
    for (const Tuple& t : in) batch.Push(t, SimTime());
    EXPECT_OK(op->ProcessBatch(0, batch, &emitter));
  } else {
    for (const Tuple& t : in) EXPECT_OK(op->Process(0, t, SimTime(), &emitter));
  }
  std::vector<std::string> out;
  for (const Tuple& t : emitter.OnOutput(0)) out.push_back(t.ToString());
  return out;
}

// Map copies a field at its Init-bound index only for tuples that carry the
// schema object it was initialized on. Tuples on an equal but distinct
// schema object go through Eval, and both paths give the same rows.
TEST(BindTest, MapRowsMatchOnAnEqualSchemaObject) {
  auto make = [] {
    return Schema::Make({Field{"A", ValueType::kInt64},
                         Field{"S", ValueType::kString}});
  };
  SchemaPtr bound = make();
  SchemaPtr equal = make();
  ASSERT_NE(bound, equal);
  OperatorSpec spec = MapSpec(
      {{"S", Expr::FieldRef("S")},
       {"A", Expr::FieldRef("A")},
       {"D", Expr::Arith(ArithOp::kMul, Expr::FieldRef("A"),
                         Expr::Constant(Value(int64_t{2})))}});
  const std::vector<std::string> expected = MapRows(spec, bound, bound, false);
  ASSERT_EQ(expected.size(), 5u);
  EXPECT_NE(expected[3].find("row 3"), std::string::npos) << expected[3];
  EXPECT_NE(expected[3].find("A=3"), std::string::npos) << expected[3];
  EXPECT_NE(expected[3].find("D=6"), std::string::npos) << expected[3];
  EXPECT_EQ(MapRows(spec, bound, equal, false), expected);
  EXPECT_EQ(MapRows(spec, bound, bound, true), expected);
  EXPECT_EQ(MapRows(spec, bound, equal, true), expected);
}

}  // namespace
}  // namespace aurora
