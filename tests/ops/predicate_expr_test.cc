// Declarative predicates and expressions: evaluation, algebra, and the wire
// round-trips that remote definition (§4.4) depends on.
#include <gtest/gtest.h>

#include "ops/expr.h"
#include "ops/predicate.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing_util::SchemaAB;

Tuple T(int64_t a, int64_t b) {
  return MakeTuple(SchemaAB(), {Value(a), Value(b)});
}

TEST(PredicateTest, CompareOps) {
  EXPECT_TRUE(Predicate::Compare("A", CompareOp::kEq, Value(1)).Eval(T(1, 0)));
  EXPECT_FALSE(Predicate::Compare("A", CompareOp::kEq, Value(1)).Eval(T(2, 0)));
  EXPECT_TRUE(Predicate::Compare("B", CompareOp::kLt, Value(3)).Eval(T(0, 2)));
  EXPECT_TRUE(Predicate::Compare("B", CompareOp::kLe, Value(2)).Eval(T(0, 2)));
  EXPECT_TRUE(Predicate::Compare("B", CompareOp::kGt, Value(1)).Eval(T(0, 2)));
  EXPECT_TRUE(Predicate::Compare("B", CompareOp::kGe, Value(2)).Eval(T(0, 2)));
  EXPECT_TRUE(Predicate::Compare("B", CompareOp::kNe, Value(5)).Eval(T(0, 2)));
}

TEST(PredicateTest, BooleanCombinators) {
  Predicate p = Predicate::And(
      Predicate::Compare("A", CompareOp::kGe, Value(1)),
      Predicate::Compare("B", CompareOp::kLt, Value(5)));
  EXPECT_TRUE(p.Eval(T(1, 4)));
  EXPECT_FALSE(p.Eval(T(0, 4)));
  EXPECT_FALSE(p.Eval(T(1, 5)));

  Predicate q = Predicate::Or(
      Predicate::Compare("A", CompareOp::kEq, Value(9)),
      Predicate::Compare("B", CompareOp::kEq, Value(9)));
  EXPECT_TRUE(q.Eval(T(9, 0)));
  EXPECT_TRUE(q.Eval(T(0, 9)));
  EXPECT_FALSE(q.Eval(T(0, 0)));

  EXPECT_FALSE(Predicate::Not(Predicate::True()).Eval(T(0, 0)));
}

TEST(PredicateTest, NegationComplementsExactly) {
  // The splitter routes with p and relies on the router's second output
  // being exactly the complement.
  Predicate p = Predicate::Compare("B", CompareOp::kLt, Value(3));
  Predicate not_p = p.Negation();
  for (int b = 0; b < 10; ++b) {
    EXPECT_NE(p.Eval(T(0, b)), not_p.Eval(T(0, b)));
  }
}

TEST(PredicateTest, HashPartitionIsDisjointAndComplete) {
  // §5.2 "half of the available streams": the hash family must partition.
  Predicate p0 = Predicate::HashPartition("A", 2, 0);
  Predicate p1 = Predicate::HashPartition("A", 2, 1);
  int zeros = 0;
  for (int a = 0; a < 100; ++a) {
    bool in0 = p0.Eval(T(a, 0));
    bool in1 = p1.Eval(T(a, 0));
    EXPECT_NE(in0, in1) << "a=" << a;
    if (in0) ++zeros;
  }
  // Roughly balanced.
  EXPECT_GT(zeros, 30);
  EXPECT_LT(zeros, 70);
}

TEST(PredicateTest, WireRoundTrip) {
  Predicate p = Predicate::Or(
      Predicate::And(Predicate::Compare("A", CompareOp::kGe, Value(1)),
                     Predicate::Not(Predicate::Compare("B", CompareOp::kEq,
                                                       Value("x")))),
      Predicate::HashPartition("A", 4, 2));
  Encoder enc;
  p.Encode(&enc);
  Decoder dec(enc.buffer());
  ASSERT_OK_AND_ASSIGN(Predicate got, Predicate::Decode(&dec));
  EXPECT_EQ(got.ToString(), p.ToString());
  for (int a = 0; a < 20; ++a) {
    EXPECT_EQ(got.Eval(T(a, a)), p.Eval(T(a, a)));
  }
}

TEST(PredicateTest, DecodeRejectsZeroModulus) {
  Encoder enc;
  enc.PutU8(5);  // kHash
  enc.PutString("A");
  enc.PutU32(0);
  enc.PutU32(0);
  Decoder dec(enc.buffer());
  EXPECT_TRUE(Predicate::Decode(&dec).status().IsInvalidArgument());
}

// Decoding recurses once per nesting level, so the depth is capped:
// kMaxDecodeDepth levels decode, one more is rejected, and 2 MB of nested
// kNot tags return a Status instead of overflowing the stack.
TEST(PredicateTest, DecodeRejectsNestingPastLimit) {
  Predicate p = Predicate::True();
  for (int i = 0; i < kMaxDecodeDepth; ++i) p = Predicate::Not(p);
  Encoder enc;
  p.Encode(&enc);
  Decoder at_limit(enc.buffer());
  ASSERT_OK_AND_ASSIGN(Predicate got, Predicate::Decode(&at_limit));
  EXPECT_EQ(got.ToString(), p.ToString());

  Encoder deeper;
  Predicate::Not(p).Encode(&deeper);
  Decoder past_limit(deeper.buffer());
  EXPECT_TRUE(Predicate::Decode(&past_limit).status().IsInvalidArgument());

  std::vector<uint8_t> hostile(2 << 20, 4);  // kNot, kNot, ...
  Decoder dec(hostile);
  EXPECT_TRUE(Predicate::Decode(&dec).status().IsInvalidArgument());
}

TEST(ExprTest, FieldAndConstant) {
  ASSERT_OK_AND_ASSIGN(Value v, Expr::FieldRef("B").Eval(T(1, 7)));
  EXPECT_EQ(v.AsInt(), 7);
  ASSERT_OK_AND_ASSIGN(Value c, Expr::Constant(Value(3.5)).Eval(T(0, 0)));
  EXPECT_DOUBLE_EQ(c.AsDouble(), 3.5);
}

TEST(ExprTest, IntegerArithmeticStaysIntegral) {
  Expr e = Expr::Arith(ArithOp::kAdd, Expr::FieldRef("A"),
                       Expr::Arith(ArithOp::kMul, Expr::FieldRef("B"),
                                   Expr::Constant(Value(10))));
  ASSERT_OK_AND_ASSIGN(Value v, e.Eval(T(3, 4)));
  EXPECT_EQ(v.type(), ValueType::kInt64);
  EXPECT_EQ(v.AsInt(), 43);
  ASSERT_OK_AND_ASSIGN(ValueType t, e.ResultType(*SchemaAB()));
  EXPECT_EQ(t, ValueType::kInt64);
}

TEST(ExprTest, DivisionAlwaysDouble) {
  Expr e = Expr::Arith(ArithOp::kDiv, Expr::FieldRef("A"), Expr::FieldRef("B"));
  ASSERT_OK_AND_ASSIGN(Value v, e.Eval(T(7, 2)));
  EXPECT_DOUBLE_EQ(v.AsDouble(), 3.5);
  EXPECT_TRUE(e.Eval(T(7, 0)).status().IsInvalidArgument());  // div by zero
}

TEST(ExprTest, MissingFieldError) {
  EXPECT_TRUE(Expr::FieldRef("Z").Eval(T(0, 0)).status().IsNotFound());
}

TEST(ExprTest, WireRoundTrip) {
  Expr e = Expr::Arith(ArithOp::kSub, Expr::FieldRef("A"),
                       Expr::Constant(Value(1.5)));
  Encoder enc;
  e.Encode(&enc);
  Decoder dec(enc.buffer());
  ASSERT_OK_AND_ASSIGN(Expr got, Expr::Decode(&dec));
  ASSERT_OK_AND_ASSIGN(Value v, got.Eval(T(4, 0)));
  EXPECT_DOUBLE_EQ(v.AsDouble(), 2.5);
}

// The kArith twin of PredicateTest.DecodeRejectsNestingPastLimit.
TEST(ExprTest, DecodeRejectsNestingPastLimit) {
  Expr e = Expr::FieldRef("A");
  for (int i = 0; i < kMaxDecodeDepth; ++i) {
    e = Expr::Arith(ArithOp::kAdd, e, Expr::Constant(Value(1)));
  }
  Encoder enc;
  e.Encode(&enc);
  Decoder at_limit(enc.buffer());
  ASSERT_OK_AND_ASSIGN(Expr got, Expr::Decode(&at_limit));
  ASSERT_OK_AND_ASSIGN(Value v, got.Eval(T(1, 0)));
  EXPECT_EQ(v.AsInt(), 1 + kMaxDecodeDepth);

  Encoder deeper;
  Expr::Arith(ArithOp::kAdd, e, Expr::Constant(Value(1))).Encode(&deeper);
  Decoder past_limit(deeper.buffer());
  EXPECT_TRUE(Expr::Decode(&past_limit).status().IsInvalidArgument());

  std::vector<uint8_t> hostile;
  for (int i = 0; i < (1 << 20); ++i) {
    hostile.push_back(2);  // kArith
    hostile.push_back(0);  // kAdd
  }
  Decoder dec(hostile);
  EXPECT_TRUE(Expr::Decode(&dec).status().IsInvalidArgument());
}

TEST(OpSpecTest, WireRoundTripCarriesEverything) {
  OperatorSpec spec = TumbleSpec("sum", "B", {"A"}, "Total");
  spec.SetParam("cost_us", Value(7.5));
  Encoder enc;
  spec.Encode(&enc);
  Decoder dec(enc.buffer());
  ASSERT_OK_AND_ASSIGN(OperatorSpec got, OperatorSpec::Decode(&dec));
  EXPECT_EQ(got, spec);
  EXPECT_EQ(got.GetString("agg", ""), "sum");
  EXPECT_EQ(got.attrs, std::vector<std::string>{"A"});
  EXPECT_DOUBLE_EQ(got.GetDouble("cost_us", 0), 7.5);
}

TEST(OpSpecTest, FilterSpecRoundTripKeepsPredicate) {
  OperatorSpec spec =
      FilterSpec(Predicate::Compare("B", CompareOp::kLt, Value(3)), true);
  Encoder enc;
  spec.Encode(&enc);
  Decoder dec(enc.buffer());
  ASSERT_OK_AND_ASSIGN(OperatorSpec got, OperatorSpec::Decode(&dec));
  ASSERT_TRUE(got.predicate.has_value());
  EXPECT_TRUE(got.predicate->Eval(T(0, 2)));
  EXPECT_FALSE(got.predicate->Eval(T(0, 3)));
  EXPECT_TRUE(got.GetBool("two_way", false));
}

}  // namespace
}  // namespace aurora
