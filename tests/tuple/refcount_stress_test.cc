// Tuple bodies are intrusively refcounted and shared across worker threads:
// several threads copy, move, restamp, detach and drop handles to the same
// bodies at once, and the last drop of each body frees it exactly once.
// Every body holds one reference to the stream's schema, so the schema's
// use count proves no body leaked; a double free or a use after free trips
// the sanitizers, and a refcount race trips TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "tests/test_util.h"
#include "tuple/tuple.h"

namespace aurora {
namespace {

SchemaPtr SchemaKS() {
  return Schema::Make({Field{"K", ValueType::kInt64},
                       Field{"S", ValueType::kString}});
}

TEST(TupleRefcountStressTest, ConcurrentCopiesAndDropsFreeEachBodyOnce) {
  const int kBodies = 64;
  const int kThreads = 4;
  const int kIters = 50000;
  SchemaPtr schema = SchemaKS();
  std::vector<Tuple> shared;
  for (int i = 0; i < kBodies; ++i) {
    shared.push_back(MakeTuple(
        schema, {Value(int64_t{i}), Value("body " + std::to_string(i))}));
  }
  const size_t wire = shared[10].WireSize();
  std::vector<std::thread> threads;
  std::vector<int> errors(kThreads, 0);
  std::atomic<int> ready{0};
  for (int w = 0; w < kThreads; ++w) {
    // Each thread starts from its own handles to the same bodies.
    threads.emplace_back([&, w, mine = shared]() mutable {
      Rng rng = testing_util::MakeTestRng(static_cast<uint64_t>(w));
      std::vector<Tuple> held;
      // Start together so the threads really contend on the refcounts.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int it = 0; it < kIters; ++it) {
        const size_t i = rng.Uniform(kBodies);
        switch (rng.Uniform(6)) {
          case 0:
          case 1:
            held.push_back(mine[i]);  // copy: one increment
            break;
          case 2:
            if (!held.empty()) held.pop_back();  // drop: one decrement
            break;
          case 3: {
            // Move a handle through a temporary and restamp it; neither
            // may touch the refcount or the body.
            Tuple moved = std::move(mine[i]);
            moved.set_seq(static_cast<SeqNo>(it));
            mine[i] = std::move(moved);
            break;
          }
          case 4: {
            // Detach a private copy of a shared body and mutate it.
            Tuple own = mine[i];
            own.SetValue(0, Value(int64_t{-1}));
            if (own.SharesBodyWith(mine[i]) || own.value(0).AsInt() != -1) {
              errors[w]++;
            }
            break;
          }
          default:
            // Readers of shared bodies, including the cached wire size.
            if (mine[i].value(0).AsInt() != static_cast<int64_t>(i) ||
                (i == 10 && mine[i].WireSize() != wire)) {
              errors[w]++;
            }
            break;
        }
      }
      for (const Tuple& t : held) {
        if (t.value(1).AsString().rfind("body ", 0) != 0) errors[w]++;
      }
      // `held` and `mine` drop here, racing the other threads' drops.
    });
  }
  // Drop the main thread's handles while the workers still run, so the
  // last drop of each body happens on whichever thread finishes last.
  shared.clear();
  for (std::thread& t : threads) t.join();
  for (int w = 0; w < kThreads; ++w) EXPECT_EQ(errors[w], 0) << "thread " << w;
  EXPECT_EQ(schema.use_count(), 1);  // every body was freed
}

}  // namespace
}  // namespace aurora
