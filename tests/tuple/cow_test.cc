// Copy-on-write tuple bodies: copies alias one allocation until a mutation
// detaches a private body, and sharing is never observable through the
// value/equality/wire-size API. Also covers the end-to-end aliasing the COW
// design exists for: a tuple pushed through an engine reaches the output
// callback still sharing the original body.
#include <gtest/gtest.h>

#include "engine/aurora_engine.h"
#include "tests/test_util.h"
#include "tuple/tuple.h"
#include "tuple/tuple_batch.h"

namespace aurora {
namespace {

SchemaPtr SchemaABS() {
  return Schema::Make({Field{"A", ValueType::kInt64},
                       Field{"B", ValueType::kInt64},
                       Field{"S", ValueType::kString}});
}

Tuple T(int64_t a, int64_t b, const std::string& s) {
  return MakeTuple(SchemaABS(), {Value(a), Value(b), Value(s)});
}

TEST(CowTupleTest, CopySharesBody) {
  Tuple t = T(1, 2, "payload");
  Tuple copy = t;
  EXPECT_TRUE(copy.SharesBodyWith(t));
  EXPECT_TRUE(t.SharesBodyWith(copy));
  EXPECT_TRUE(copy.ValuesEqual(t));
  Tuple moved = std::move(copy);
  EXPECT_TRUE(moved.SharesBodyWith(t));
}

TEST(CowTupleTest, DefaultConstructedSharesNothing) {
  Tuple a, b;
  EXPECT_FALSE(a.SharesBodyWith(b));  // null bodies never count as shared
  EXPECT_EQ(a.num_values(), 0u);
  EXPECT_TRUE(a.ValuesEqual(b));  // both empty
}

// ---- The single-block body contract ---------------------------------------

// The handle is {body pointer, timestamp, seq, trace id}.
static_assert(sizeof(Tuple) == 32);

TEST(TupleBodyTest, DefaultTupleHasNullSchemaEmptyValuesAndHeaderWireSize) {
  Tuple t;
  EXPECT_EQ(t.schema(), nullptr);
  EXPECT_TRUE(t.values().empty());
  EXPECT_EQ(t.num_values(), 0u);
  EXPECT_EQ(t.WireSize(), 26u);  // timestamp + seq + trace id + count
  EXPECT_EQ(t.ToString(), "()");
}

TEST(TupleBodyTest, SchemaLivesInTheBody) {
  SchemaPtr schema = SchemaABS();
  Tuple t = MakeTuple(schema, {Value(int64_t{1}), Value(int64_t{2}),
                               Value("s")});
  EXPECT_EQ(t.schema().get(), schema.get());
  EXPECT_EQ(schema.use_count(), 2);  // the test's copy and the body's
  Tuple copy = t;
  EXPECT_EQ(schema.use_count(), 2);  // handle copies share the body's
  t = Tuple();
  copy = Tuple();
  EXPECT_EQ(schema.use_count(), 1);  // the last drop freed the body
}

TEST(TupleBodyTest, CopyMoveAndSelfAssignment) {
  Tuple t = T(1, 2, "body");
  t.set_seq(7);
  t.set_timestamp(SimTime::Micros(11));
  t.set_trace_id(13);

  Tuple copy(t);
  EXPECT_TRUE(copy.SharesBodyWith(t));
  EXPECT_EQ(copy.seq(), 7u);
  EXPECT_EQ(copy.timestamp(), SimTime::Micros(11));
  EXPECT_EQ(copy.trace_id(), 13u);

  Tuple assigned = T(9, 9, "other");
  assigned = copy;
  EXPECT_TRUE(assigned.SharesBodyWith(t));
  EXPECT_EQ(assigned.seq(), 7u);

  // Self-assignment, copy and move, keeps the body alive and unchanged.
  Tuple& alias = assigned;
  assigned = alias;
  EXPECT_TRUE(assigned.SharesBodyWith(t));
  assigned = std::move(alias);
  EXPECT_TRUE(assigned.SharesBodyWith(t));
  EXPECT_EQ(assigned.value(2).AsString(), "body");

  // A moved-from handle is empty; its metadata stays readable.
  Tuple moved(std::move(copy));
  EXPECT_TRUE(moved.SharesBodyWith(t));
  EXPECT_EQ(moved.trace_id(), 13u);
  EXPECT_EQ(copy.num_values(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copy.schema(), nullptr);
  EXPECT_FALSE(copy.SharesBodyWith(t));
  Tuple move_assigned;
  move_assigned = std::move(moved);
  EXPECT_TRUE(move_assigned.SharesBodyWith(t));
  EXPECT_TRUE(moved.values().empty());  // NOLINT(bugprone-use-after-move)

  // A moved-from handle can be reassigned and used again.
  moved = t;
  EXPECT_TRUE(moved.SharesBodyWith(t));
  EXPECT_TRUE(moved.ValuesEqual(t));
}

TEST(TupleBodyTest, SetValueMutatesUniqueBodyInPlaceAndDetachesSharedOne) {
  Tuple t = T(1, 2, "in-place");
  const Value* before = &t.value(0);
  t.SetValue(0, Value(int64_t{5}));
  EXPECT_EQ(&t.value(0), before);  // unique: no new block
  EXPECT_EQ(t.value(0).AsInt(), 5);

  Tuple other = t;
  t.SetValue(0, Value(int64_t{6}));
  EXPECT_NE(&t.value(0), before);  // shared: detached into a new block
  EXPECT_EQ(&other.value(0), before);
  EXPECT_EQ(t.value(0).AsInt(), 6);
  EXPECT_EQ(other.value(0).AsInt(), 5);
  EXPECT_EQ(t.schema().get(), other.schema().get());
}

TEST(TupleBodyTest, MutableValuesMutatesUniqueBodyInPlaceAndDetachesShared) {
  Tuple t = T(1, 2, "span");
  const Value* before = &t.value(0);
  std::span<Value> row = t.MutableValues();
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row.data(), before);  // unique: the same block
  row[1] = Value(int64_t{20});
  EXPECT_EQ(t.value(1).AsInt(), 20);

  Tuple other = t;
  const size_t wire = other.WireSize();
  std::span<Value> detached = t.MutableValues();
  EXPECT_NE(detached.data(), before);  // shared: a private copy
  detached[2] = Value("span, longer");
  EXPECT_EQ(other.value(2).AsString(), "span");
  EXPECT_EQ(other.WireSize(), wire);
  EXPECT_EQ(t.WireSize(), wire + 8);  // the cache was reset on detach
}

TEST(TupleBuilderTest, AppendedValuesLandInOrder) {
  SchemaPtr schema = SchemaABS();
  const Value text("longer than the small-string buffer");
  Tuple::Builder row(schema, 3);
  row.Append(int64_t{3});
  row.Append(Value(int64_t{4}));
  row.Append(text);  // copied: the caller keeps its value
  Tuple t = row.Finish();
  EXPECT_EQ(t.schema(), schema);
  ASSERT_EQ(t.num_values(), 3u);
  EXPECT_EQ(t.value(0).AsInt(), 3);
  EXPECT_EQ(t.value(1).AsInt(), 4);
  EXPECT_EQ(t.value(2).AsString(), text.AsString());
  EXPECT_EQ(text.AsString(), "longer than the small-string buffer");
  EXPECT_EQ(t.timestamp(), SimTime());
  EXPECT_EQ(t.seq(), kNoSeqNo);
  EXPECT_EQ(t.trace_id(), 0u);
  EXPECT_TRUE(t.ValuesEqual(T(3, 4, text.AsString())));
}

TEST(TupleBuilderTest, WireSizeMatchesMakeTuple) {
  Tuple::Builder row(SchemaABS(), 3);
  row.Append(int64_t{1});
  row.Append(int64_t{2});
  row.Append(std::string("wire"));
  Tuple built = row.Finish();
  EXPECT_EQ(built.WireSize(), T(1, 2, "wire").WireSize());
}

TEST(TupleBodyTest, EmptyRowStillCarriesItsSchema) {
  SchemaPtr empty = Schema::Make({});
  Tuple t(empty, std::vector<Value>{});
  EXPECT_EQ(t.schema().get(), empty.get());
  EXPECT_TRUE(t.values().empty());
  EXPECT_EQ(t.WireSize(), 26u);
  Tuple copy = t;
  EXPECT_TRUE(copy.SharesBodyWith(t));
}

TEST(CowTupleTest, MutationAfterShareDetachesPrivateCopy) {
  Tuple t = T(1, 2, "original");
  Tuple copy = t;
  ASSERT_TRUE(copy.SharesBodyWith(t));
  copy.SetValue(2, Value("changed"));
  EXPECT_FALSE(copy.SharesBodyWith(t));
  // The writer sees the new value, the other handle is untouched.
  EXPECT_EQ(copy.value(2).AsString(), "changed");
  EXPECT_EQ(t.value(2).AsString(), "original");
  EXPECT_FALSE(copy.ValuesEqual(t));
}

TEST(CowTupleTest, MutableValuesAlsoDetaches) {
  Tuple t = T(1, 2, "x");
  Tuple copy = t;
  copy.MutableValues()[0] = Value(int64_t{42});
  EXPECT_FALSE(copy.SharesBodyWith(t));
  EXPECT_EQ(copy.value(0).AsInt(), 42);
  EXPECT_EQ(t.value(0).AsInt(), 1);
}

TEST(CowTupleTest, SoleOwnerMutationDoesNotCopy) {
  // With a unique body the mutation happens in place — observable only
  // through values, but at least assert correctness of the fast path.
  Tuple t = T(7, 8, "solo");
  t.SetValue(0, Value(int64_t{9}));
  EXPECT_EQ(t.value(0).AsInt(), 9);
  EXPECT_EQ(t.value(2).AsString(), "solo");
}

TEST(CowTupleTest, MetadataIsPerHandleAndDoesNotDetach) {
  Tuple t = T(1, 2, "meta");
  t.set_seq(5);
  t.set_timestamp(SimTime::Millis(3));
  t.set_trace_id(99);
  Tuple copy = t;
  copy.set_seq(6);
  copy.set_timestamp(SimTime::Millis(4));
  copy.set_trace_id(100);
  // Restamping metadata must not trigger a body copy...
  EXPECT_TRUE(copy.SharesBodyWith(t));
  // ...and must not leak across handles.
  EXPECT_EQ(t.seq(), 5u);
  EXPECT_EQ(t.trace_id(), 99u);
  EXPECT_EQ(t.timestamp(), SimTime::Millis(3));
  EXPECT_EQ(copy.seq(), 6u);
  EXPECT_EQ(copy.trace_id(), 100u);
}

TEST(CowTupleTest, ValuesEqualAcrossDistinctBodies) {
  Tuple a = T(1, 2, "same");
  Tuple b = T(1, 2, "same");
  EXPECT_FALSE(a.SharesBodyWith(b));
  EXPECT_TRUE(a.ValuesEqual(b));
  EXPECT_FALSE(a.ValuesEqual(T(1, 2, "different")));
}

TEST(CowTupleTest, WireSizeUnchangedByShareAndUpdatedByMutation) {
  Tuple t = T(1, 2, "abcdef");
  size_t before = t.WireSize();
  Tuple copy = t;
  EXPECT_EQ(copy.WireSize(), before);  // shared cached size
  copy.SetValue(2, Value("abcdefghij"));
  EXPECT_EQ(copy.WireSize(), before + 4);  // 4 more string bytes
  EXPECT_EQ(t.WireSize(), before);         // original cache untouched
  // An equal-content rebuilt tuple reports the identical wire size.
  EXPECT_EQ(T(1, 2, "abcdef").WireSize(), before);
}

TEST(CowTupleTest, HotPathSectionFlagAndExemptionNest) {
  EXPECT_FALSE(TupleHotPathSection::InHotPath());
  {
    TupleHotPathSection hot;
    EXPECT_TRUE(TupleHotPathSection::InHotPath());
    {
      TupleHotPathSection::Exemption allow;
      EXPECT_FALSE(TupleHotPathSection::InHotPath());
      {
        TupleHotPathSection nested;
        EXPECT_TRUE(TupleHotPathSection::InHotPath());
      }
      EXPECT_FALSE(TupleHotPathSection::InHotPath());
    }
    EXPECT_TRUE(TupleHotPathSection::InHotPath());
  }
  EXPECT_FALSE(TupleHotPathSection::InHotPath());
}

// The reason COW exists: a tuple that passes through the engine unmodified
// (filter pass-through, queue hop, output delivery) arrives at the callback
// still aliasing the pushed body, and its trace id survives the trip.
TEST(CowTupleTest, EnginePassThroughSharesBodyWithInput) {
  AuroraEngine engine;
  PortId in = *engine.AddInput("in", SchemaABS());
  PortId out = *engine.AddOutput("out");
  BoxId f = *engine.AddBox(FilterSpec(Predicate::True()));
  ASSERT_OK(engine.Connect(Endpoint::InputPort(in), Endpoint::BoxPort(f, 0))
                .status());
  ASSERT_OK(engine.Connect(Endpoint::BoxPort(f, 0), Endpoint::OutputPort(out))
                .status());
  ASSERT_OK(engine.InitializeBoxes());
  std::vector<Tuple> collected;
  engine.SetOutputCallback(out, [&](const Tuple& t, SimTime) {
    collected.push_back(t);
  });

  Tuple pushed = T(3, 4, "through");
  pushed.set_trace_id(1234);
  ASSERT_OK(engine.PushInput(in, pushed, SimTime::Millis(1)));
  ASSERT_OK(engine.RunUntilQuiescent(SimTime::Millis(1)));
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_TRUE(collected[0].SharesBodyWith(pushed));
  EXPECT_EQ(collected[0].trace_id(), 1234u);
  EXPECT_TRUE(collected[0].ValuesEqual(pushed));
}

// ---- COW under the batched (ProcessBatch) path ---------------------------

// Tuples pushed into a TupleBatch alias the caller's bodies, and building a
// columnar view reads values without detaching anything.
TEST(CowBatchTest, BatchTuplesAliasAndColumnBuildDoesNotDetach) {
  SchemaPtr ab = testing_util::SchemaAB();
  Tuple a = MakeTuple(ab, {Value(int64_t{1}), Value(int64_t{2})});
  Tuple b = MakeTuple(ab, {Value(int64_t{3}), Value(int64_t{4})});
  TupleBatch batch;
  batch.Push(a, SimTime::Millis(1));
  batch.Push(b, SimTime::Millis(2));
  EXPECT_TRUE(batch.tuple(0).SharesBodyWith(a));
  EXPECT_TRUE(batch.tuple(1).SharesBodyWith(b));
  const int64_t* col = batch.I64Column(0);
  ASSERT_NE(col, nullptr);
  EXPECT_EQ(col[0], 1);
  EXPECT_EQ(col[1], 3);
  // The columnar read is non-mutating: bodies still shared afterwards.
  EXPECT_TRUE(batch.tuple(0).SharesBodyWith(a));
  EXPECT_TRUE(batch.tuple(1).SharesBodyWith(b));
}

// Detaching one tuple's body mid-batch (an operator mutating its private
// copy) must not disturb the other handles: SharesBodyWith flips only for
// the detached pair, and ValuesEqual falls back from the shared-body
// short-circuit to a real element-wise compare.
TEST(CowBatchTest, MidBatchDetachIsIsolatedAndEqualityStillHolds) {
  SchemaPtr ab = testing_util::SchemaAB();
  Tuple a = MakeTuple(ab, {Value(int64_t{1}), Value(int64_t{2})});
  Tuple b = MakeTuple(ab, {Value(int64_t{3}), Value(int64_t{4})});
  TupleBatch batch;
  batch.Push(a, SimTime::Millis(1));
  batch.Push(b, SimTime::Millis(2));
  // Write-back through the batch detaches that slot's body only.
  batch.tuple(0).SetValue(1, Value(int64_t{2}));  // same content, new body
  EXPECT_FALSE(batch.tuple(0).SharesBodyWith(a));
  EXPECT_TRUE(batch.tuple(1).SharesBodyWith(b));
  // No shared body to short-circuit on; the element-wise path must agree.
  EXPECT_TRUE(batch.tuple(0).ValuesEqual(a));
  batch.tuple(0).SetValue(1, Value(int64_t{99}));
  EXPECT_FALSE(batch.tuple(0).ValuesEqual(a));
  EXPECT_EQ(a.value(1).AsInt(), 2);  // original handle untouched
}

// Clear() recycles the scratch (capacity kept) but never leaks state: a
// column built for one generation of tuples must be rebuilt for the next,
// and schema-uniformity is re-derived from scratch.
TEST(CowBatchTest, ScratchReuseAcrossClearRebuildsColumns) {
  SchemaPtr ab = testing_util::SchemaAB();
  TupleBatch batch;
  batch.Push(MakeTuple(ab, {Value(int64_t{10}), Value(int64_t{0})}),
             SimTime::Millis(1));
  const int64_t* col = batch.I64Column(0);
  ASSERT_NE(col, nullptr);
  EXPECT_EQ(col[0], 10);

  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(batch.uniform_schema());
  batch.Push(MakeTuple(ab, {Value(int64_t{20}), Value(int64_t{0})}),
             SimTime::Millis(2));
  batch.Push(MakeTuple(ab, {Value(int64_t{30}), Value(int64_t{0})}),
             SimTime::Millis(3));
  col = batch.I64Column(0);
  ASSERT_NE(col, nullptr);
  EXPECT_EQ(col[0], 20);
  EXPECT_EQ(col[1], 30);

  // A generation with a string where int64 was expected invalidates the
  // cached "column 0 is int64" verdict once cleared and refilled.
  batch.Clear();
  SchemaPtr abs = SchemaABS();
  batch.Push(T(1, 2, "not-an-int"), SimTime::Millis(4));
  EXPECT_EQ(batch.I64Column(2), nullptr);  // S column is a string
  const int64_t* a_col = batch.I64Column(0);
  ASSERT_NE(a_col, nullptr);
  EXPECT_EQ(a_col[0], 1);
}

// The batched filter path is still zero-copy end to end: with batch_size
// > 1 a pass-through tuple reaches the output callback aliasing the pushed
// body, exactly like the scalar path above.
TEST(CowBatchTest, BatchedEnginePassThroughSharesBodyWithInput) {
  EngineOptions eopts;
  eopts.batch_size = 8;
  AuroraEngine engine(eopts);
  PortId in = *engine.AddInput("in", SchemaABS());
  PortId out = *engine.AddOutput("out");
  BoxId f = *engine.AddBox(FilterSpec(Predicate::True()));
  ASSERT_OK(engine.Connect(Endpoint::InputPort(in), Endpoint::BoxPort(f, 0))
                .status());
  ASSERT_OK(engine.Connect(Endpoint::BoxPort(f, 0), Endpoint::OutputPort(out))
                .status());
  ASSERT_OK(engine.InitializeBoxes());
  std::vector<Tuple> collected;
  engine.SetOutputCallback(out, [&](const Tuple& t, SimTime) {
    collected.push_back(t);
  });

  Tuple pushed = T(3, 4, "batched-through");
  pushed.set_trace_id(4321);
  ASSERT_OK(engine.PushInput(in, pushed, SimTime::Millis(1)));
  ASSERT_OK(engine.RunUntilQuiescent(SimTime::Millis(1)));
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_TRUE(collected[0].SharesBodyWith(pushed));
  EXPECT_EQ(collected[0].trace_id(), 4321u);
  EXPECT_TRUE(collected[0].ValuesEqual(pushed));
}

// ConnectionPoint fan-out records alias the same body as well.
TEST(CowTupleTest, ConnectionPointSubscriberSharesBody) {
  AuroraEngine engine;
  PortId in = *engine.AddInput("in", SchemaABS());
  PortId out = *engine.AddOutput("out");
  BoxId f = *engine.AddBox(FilterSpec(Predicate::True()));
  ArcId arc = *engine.Connect(Endpoint::InputPort(in), Endpoint::BoxPort(f, 0));
  ASSERT_OK(engine.Connect(Endpoint::BoxPort(f, 0), Endpoint::OutputPort(out))
                .status());
  ASSERT_OK(engine.InitializeBoxes());
  ASSERT_OK(engine.MakeConnectionPoint(arc, "cp", RetentionPolicy{}));
  std::vector<Tuple> seen;
  ASSERT_OK_AND_ASSIGN(ConnectionPoint * cp, engine.GetConnectionPoint("cp"));
  cp->Subscribe([&](const Tuple& t, SimTime) { seen.push_back(t); });

  Tuple pushed = T(5, 6, "fanout");
  ASSERT_OK(engine.PushInput(in, pushed, SimTime::Millis(1)));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_TRUE(seen[0].SharesBodyWith(pushed));
}

}  // namespace
}  // namespace aurora
