// A tuple is one heap block: constructing it from numeric values allocates
// exactly once, and copying, moving or dropping handles allocates nothing.
// Counts calls to the global operator new, which this test binary replaces
// with a counting forwarder to malloc. ASan and TSan supply their own
// allocation functions, so under them the replacement is left out and the
// tests skip.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "tuple/tuple.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AURORA_COUNTS_ALLOCATIONS 0
#else
#define AURORA_COUNTS_ALLOCATIONS 1
#endif

namespace {
thread_local bool counting = false;
thread_local int allocations = 0;
}  // namespace

#if AURORA_COUNTS_ALLOCATIONS
// The library's other allocation and deallocation functions (array,
// nothrow) forward to these, so every new/delete pair stays malloc/free.
// Not inlined, so the compiler never pairs an inlined free() with a
// `new` expression and warns about a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (counting) allocations++;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#endif

namespace aurora {
namespace {

/// Allocations made by `fn` on this thread.
template <typename Fn>
int CountAllocations(Fn fn) {
  allocations = 0;
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
  std::vector<Value> scratch;
  scratch.reserve(2);
  Tuple t;
  EXPECT_EQ(CountAllocations([&] {
              scratch.clear();
              scratch.emplace_back(int64_t{1});
              scratch.emplace_back(2.5);
              t = Tuple(schema, std::span<Value>(scratch));
            }),
            1);
  EXPECT_EQ(t.value(0).AsInt(), 1);
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
