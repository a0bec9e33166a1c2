// A tuple is one heap block: building it from numeric values allocates
// exactly once, a Map emission on a numeric row is that one allocation,
// copying, moving or dropping handles allocates nothing, and a builder
// dropped halfway frees everything it allocated. Counts calls to the global
// operator new and delete, which this test binary replaces with counting
// forwarders to malloc/free. ASan and TSan supply their own allocation
// functions, so under them the replacement is left out and the counts are
// not checked (the dropped-builder case still runs, for the leak checker).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "ops/op_spec.h"
#include "ops/operator.h"
#include "tuple/serde.h"
#include "tuple/tuple.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AURORA_COUNTS_ALLOCATIONS 0
#else
#define AURORA_COUNTS_ALLOCATIONS 1
#endif

namespace {
thread_local bool counting = false;
thread_local int allocations = 0;
thread_local int frees = 0;
thread_local std::size_t largest = 0;
}  // namespace

#if AURORA_COUNTS_ALLOCATIONS
// The library's other allocation and deallocation functions (array,
// nothrow) forward to these, so every new/delete pair stays malloc/free.
// Not inlined, so the compiler never pairs an inlined free() with a
// `new` expression and warns about a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (counting) {
    allocations++;
    largest = std::max(largest, size);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (counting && p != nullptr) frees++;
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  operator delete(p);
}
#endif

namespace aurora {
namespace {

/// Allocations made by `fn` on this thread; `frees` and `largest` then
/// hold the frees it made and its largest allocation.
template <typename Fn>
int CountAllocations(Fn fn) {
  allocations = 0;
  frees = 0;
  largest = 0;
  counting = true;
  fn();
  counting = false;
  return allocations;
}

SchemaPtr SchemaKV() {
  return Schema::Make({Field{"K", ValueType::kInt64},
                       Field{"V", ValueType::kDouble}});
}

TEST(TupleAllocTest, ConstructionIsOneAllocation) {
  if (!AURORA_COUNTS_ALLOCATIONS) GTEST_SKIP() << "sanitizer allocator";
  SchemaPtr schema = SchemaKV();
  Tuple t;
  EXPECT_EQ(CountAllocations([&] {
              Tuple::Builder row(schema, 2);
              row.Append(int64_t{1});
              row.Append(2.5);
              t = row.Finish();
            }),
            1);
  EXPECT_EQ(t.value(0).AsInt(), 1);
  EXPECT_EQ(t.value(1).AsDouble(), 2.5);
}

/// Keeps the last emission without allocating.
class LastEmission : public Emitter {
 public:
  void Emit(int, Tuple t) override { last = std::move(t); }
  Tuple last;
};

TEST(TupleAllocTest, MapEmissionOnAnIntRowIsOneAllocation) {
  if (!AURORA_COUNTS_ALLOCATIONS) GTEST_SKIP() << "sanitizer allocator";
  SchemaPtr schema = Schema::Make({Field{"A", ValueType::kInt64},
                                   Field{"B", ValueType::kInt64}});
  // Two bound field copies and one computed field, built into one block.
  auto op = std::move(CreateOperator(MapSpec(
                          {{"B", Expr::FieldRef("B")},
                           {"A", Expr::FieldRef("A")},
                           {"S", Expr::Arith(ArithOp::kAdd, Expr::FieldRef("A"),
                                             Expr::FieldRef("B"))}})))
                .ValueUnsafe();
  ASSERT_TRUE(op->Init({schema}).ok());
  Tuple in = MakeTuple(schema, {Value(int64_t{2}), Value(int64_t{5})});
  LastEmission emitter;
  EXPECT_EQ(CountAllocations([&] {
              ASSERT_TRUE(op->Process(0, in, SimTime(), &emitter).ok());
            }),
            1);
  ASSERT_EQ(emitter.last.num_values(), 3u);
  EXPECT_EQ(emitter.last.value(0).AsInt(), 5);
  EXPECT_EQ(emitter.last.value(1).AsInt(), 2);
  EXPECT_EQ(emitter.last.value(2).AsInt(), 7);
}

// Strings longer than the small-string buffer own heap storage, so the two
// built values are allocations of their own; dropping the builder must free
// them and the block. Under the sanitizers the counts are not kept, and the
// leak checker covers the same ground.
TEST(TupleAllocTest, DroppedBuilderFreesWhatItBuilt) {
  SchemaPtr schema = Schema::Make({Field{"X", ValueType::kString},
                                   Field{"Y", ValueType::kString},
                                   Field{"Z", ValueType::kString}});
  const Value first(std::string(64, 'x'));
  const Value second(std::string(64, 'y'));
  const int made = CountAllocations([&] {
    Tuple::Builder row(schema, 3);
    row.Append(first);
    row.Append(second);
  });
  if (!AURORA_COUNTS_ALLOCATIONS) GTEST_SKIP() << "sanitizer allocator";
  EXPECT_EQ(made, 3);  // the block and two string copies
  EXPECT_EQ(frees, made);
}

// A row header claiming 65 535 values with 3 bytes left fails before any
// allocation is sized by the count (65 535 values would be about 2.6 MB).
TEST(TupleAllocTest, ForgedValueCountSizesNoAllocation) {
  if (!AURORA_COUNTS_ALLOCATIONS) GTEST_SKIP() << "sanitizer allocator";
  Encoder enc;
  enc.PutI64(1);   // timestamp
  enc.PutU64(2);   // seq
  enc.PutU64(3);   // trace id
  enc.PutU16(0xffff);
  enc.PutBytes(reinterpret_cast<const uint8_t*>("abc"), 3);
  Decoder dec(enc.buffer());
  SchemaPtr schema = SchemaKV();
  CountAllocations([&] { EXPECT_FALSE(dec.GetTuple(schema).ok()); });
  EXPECT_LT(largest, 0xffff * sizeof(Value));
}

TEST(TupleAllocTest, HandleCopiesMovesAndDropsDoNotAllocate) {
  if (!AURORA_COUNTS_ALLOCATIONS) GTEST_SKIP() << "sanitizer allocator";
  SchemaPtr schema = SchemaKV();
  Tuple t = MakeTuple(schema, {Value(int64_t{1}), Value(2.5)});
  std::vector<Tuple> copies;
  copies.reserve(8);
  EXPECT_EQ(CountAllocations([&] {
              for (int i = 0; i < 8; ++i) copies.push_back(t);
              Tuple moved = std::move(copies.back());
              copies.pop_back();
              moved.set_seq(3);
              copies.clear();
            }),
            0);
  EXPECT_TRUE(t.ValuesEqual(MakeTuple(schema, {Value(int64_t{1}),
                                               Value(2.5)})));
}

}  // namespace
}  // namespace aurora
