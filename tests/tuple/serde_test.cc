#include "tuple/serde.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace aurora {
namespace {

using testing_util::PaperFigure2Stream;
using testing_util::SchemaAB;

TEST(SerdeTest, PrimitiveRoundTrips) {
  Encoder enc;
  enc.PutU8(0xAB);
  enc.PutU16(0x1234);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x0123456789ABCDEFull);
  enc.PutI64(-42);
  enc.PutDouble(3.14159);
  enc.PutString("stream processing");

  Decoder dec(enc.buffer());
  EXPECT_EQ(*dec.GetU8(), 0xAB);
  EXPECT_EQ(*dec.GetU16(), 0x1234);
  EXPECT_EQ(*dec.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(*dec.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(*dec.GetI64(), -42);
  EXPECT_DOUBLE_EQ(*dec.GetDouble(), 3.14159);
  EXPECT_EQ(*dec.GetString(), "stream processing");
  EXPECT_TRUE(dec.AtEnd());
}

TEST(SerdeTest, ValueRoundTripsAllTypes) {
  std::vector<Value> values = {Value::Null(), Value(true), Value(false),
                               Value(-7), Value(123456789.25), Value("abc")};
  Encoder enc;
  for (const auto& v : values) enc.PutValue(v);
  Decoder dec(enc.buffer());
  for (const auto& v : values) {
    ASSERT_OK_AND_ASSIGN(Value got, dec.GetValue());
    EXPECT_EQ(got, v);
    EXPECT_EQ(got.type(), v.type());
  }
}

TEST(SerdeTest, TupleRoundTripPreservesMetadata) {
  Tuple t = MakeTuple(SchemaAB(), {Value(1), Value(2)});
  t.set_timestamp(SimTime::Millis(123));
  t.set_seq(99);
  Encoder enc;
  enc.PutTuple(t);
  Decoder dec(enc.buffer());
  ASSERT_OK_AND_ASSIGN(Tuple got, dec.GetTuple(SchemaAB()));
  EXPECT_TRUE(got.ValuesEqual(t));
  EXPECT_EQ(got.timestamp(), SimTime::Millis(123));
  EXPECT_EQ(got.seq(), 99u);
}

TEST(SerdeTest, SchemaRoundTrip) {
  SchemaPtr schema = Schema::Make({Field{"id", ValueType::kInt64},
                                   Field{"name", ValueType::kString},
                                   Field{"score", ValueType::kDouble}});
  Encoder enc;
  enc.PutSchema(*schema);
  Decoder dec(enc.buffer());
  ASSERT_OK_AND_ASSIGN(SchemaPtr got, dec.GetSchema());
  EXPECT_TRUE(got->Equals(*schema));
}

TEST(SerdeTest, BatchRoundTrip) {
  std::vector<Tuple> tuples = PaperFigure2Stream();
  std::vector<uint8_t> bytes = SerializeTuples(tuples);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> got,
                       DeserializeTuples(bytes, SchemaAB()));
  ASSERT_EQ(got.size(), tuples.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].ValuesEqual(tuples[i]));
    EXPECT_EQ(got[i].seq(), tuples[i].seq());
  }
}

TEST(SerdeTest, TruncatedBufferIsError) {
  std::vector<Tuple> tuples = PaperFigure2Stream();
  std::vector<uint8_t> bytes = SerializeTuples(tuples);
  bytes.resize(bytes.size() / 2);
  auto result = DeserializeTuples(bytes, SchemaAB());
  EXPECT_TRUE(result.status().IsOutOfRange()) << result.status().ToString();
}

TEST(SerdeTest, TrailingGarbageIsError) {
  std::vector<uint8_t> bytes = SerializeTuples(PaperFigure2Stream());
  bytes.push_back(0xFF);
  auto result = DeserializeTuples(bytes, SchemaAB());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

// Raw bytes round-trip as a view into the buffer; a length past the end,
// even one that would wrap the read position, is OutOfRange and reads
// nothing.
TEST(SerdeTest, RawBytesRoundTripAndStayInBounds) {
  const std::vector<uint8_t> raw = {1, 2, 3, 4, 5};
  Encoder enc;
  enc.PutBytes(raw.data(), raw.size());
  enc.PutU8(9);
  Decoder dec(enc.buffer());
  ASSERT_OK_AND_ASSIGN(std::span<const uint8_t> head, dec.GetBytes(2));
  EXPECT_TRUE(dec.GetBytes(SIZE_MAX).status().IsOutOfRange());
  EXPECT_TRUE(dec.GetBytes(5).status().IsOutOfRange());
  ASSERT_OK_AND_ASSIGN(std::span<const uint8_t> tail, dec.GetBytes(3));
  std::vector<uint8_t> got(head.begin(), head.end());
  got.insert(got.end(), tail.begin(), tail.end());
  EXPECT_EQ(got, raw);
  EXPECT_EQ(*dec.GetU8(), 9);
  EXPECT_TRUE(dec.AtEnd());
}

// The batch count comes off the wire: a hostile count (ff ff ff 7f claims
// 2^31 - 1 tuples, 64 GiB of handles) must not size the allocation, and the
// decode still fails at the first missing tuple.
TEST(SerdeTest, HostileCountDoesNotSizeTheAllocation) {
  std::vector<uint8_t> bytes = {0xff, 0xff, 0xff, 0x7f};
  std::vector<Tuple> out;
  Status st = DeserializeTuplesInto(bytes, SchemaAB(), &out);
  EXPECT_TRUE(st.IsOutOfRange()) << st.ToString();
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.capacity(), 0u);

  // A real batch whose count claims far more tuples than follow.
  bytes = SerializeTuples(PaperFigure2Stream());
  bytes[0] = bytes[1] = bytes[2] = 0xff;
  bytes[3] = 0x7f;
  st = DeserializeTuplesInto(bytes, SchemaAB(), &out);
  EXPECT_TRUE(st.IsOutOfRange()) << st.ToString();
  EXPECT_LE(out.capacity(), bytes.size());
}

// The value count in a row header comes off the wire too: 65 535 claimed
// values with 3 bytes left fail at the count, before the row's block is
// allocated or any value decoded (alloc_count_test checks the allocation).
TEST(SerdeTest, HostileValueCountFailsBeforeDecodingAValue) {
  Encoder enc;
  enc.PutI64(1);  // timestamp
  enc.PutU64(2);  // seq
  enc.PutU64(3);  // trace id
  enc.PutU16(0xffff);
  enc.PutBytes(reinterpret_cast<const uint8_t*>("abc"), 3);
  Decoder dec(enc.buffer());
  Result<Tuple> t = dec.GetTuple(SchemaAB());
  EXPECT_TRUE(t.status().IsOutOfRange()) << t.status().ToString();
  EXPECT_EQ(dec.remaining(), 3u);
}

TEST(SerdeTest, BadValueTagIsError) {
  Encoder enc;
  enc.PutU8(200);  // not a ValueType
  Decoder dec(enc.buffer());
  EXPECT_TRUE(dec.GetValue().status().IsInvalidArgument());
}

TEST(SerdeTest, WireSizeMatchesEncodedSize) {
  for (const Tuple& t : PaperFigure2Stream()) {
    Encoder enc;
    enc.PutTuple(t);
    EXPECT_EQ(enc.size(), t.WireSize());
  }
}

TEST(SchemaTest, IndexOfAndProject) {
  SchemaPtr s = SchemaAB();
  ASSERT_OK_AND_ASSIGN(size_t idx, s->IndexOf("B"));
  EXPECT_EQ(idx, 1u);
  EXPECT_TRUE(s->IndexOf("Z").status().IsNotFound());
  ASSERT_OK_AND_ASSIGN(SchemaPtr proj, s->Project({"B"}));
  EXPECT_EQ(proj->num_fields(), 1u);
  EXPECT_EQ(proj->field(0).name, "B");
  EXPECT_TRUE(s->Project({"B", "Q"}).status().IsNotFound());
}

TEST(SchemaTest, EqualsIsIdentityOrSameFields) {
  SchemaPtr s = SchemaAB();
  EXPECT_TRUE(s->Equals(*s));            // the same object
  EXPECT_TRUE(s->Equals(*SchemaAB()));   // equal, distinct objects
  EXPECT_FALSE(s->Equals(*s->AddField(Field{"C", ValueType::kInt64})));
  SchemaPtr ba = Schema::Make(
      {Field{"B", ValueType::kInt64}, Field{"A", ValueType::kInt64}});
  EXPECT_FALSE(s->Equals(*ba));  // order matters
}

TEST(SchemaTest, AddFieldCreatesNewSchema) {
  SchemaPtr s = SchemaAB();
  SchemaPtr extended = s->AddField(Field{"Result", ValueType::kDouble});
  EXPECT_EQ(s->num_fields(), 2u);
  EXPECT_EQ(extended->num_fields(), 3u);
  EXPECT_TRUE(extended->HasField("Result"));
}

}  // namespace
}  // namespace aurora
