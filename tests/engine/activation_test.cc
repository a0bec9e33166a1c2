// The chunk rule of RunActivation (engine/activation.h), driven without an
// engine: a scripted `take` serves fixed per-input queues and records every
// call. A Filter stands for a single-input box and a Union for a
// multi-input box.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "engine/activation.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing_util::CollectingEmitter;
using testing_util::GetDouble;
using testing_util::GetInt;
using testing_util::SchemaAB;

constexpr int kUnconnected = -1;

struct Call {
  int input;
  int want;
  bool operator==(const Call& o) const {
    return input == o.input && want == o.want;
  }
};

void PrintTo(const Call& c, std::ostream* os) {
  *os << "(" << c.input << ", " << c.want << ")";
}

/// Fixed per-input queues behind a scripted `take`. Input i's k-th tuple
/// carries A = 100 * i + k; an unconnected input serves nothing.
struct Script {
  std::vector<bool> connected;
  std::vector<std::deque<Tuple>> queues;
  std::vector<Call> calls;
  std::vector<int64_t> served;  // A of every tuple handed out, in order

  explicit Script(const std::vector<int>& queued) {
    for (size_t i = 0; i < queued.size(); ++i) {
      connected.push_back(queued[i] != kUnconnected);
      queues.emplace_back();
      for (int k = 0; k < queued[i]; ++k) {
        queues.back().push_back(MakeTuple(
            SchemaAB(),
            {Value(static_cast<int64_t>(100 * i + k)), Value(int64_t{1})}));
      }
    }
  }

  int Take(int input, int want, TupleBatch& batch) {
    calls.push_back({input, want});
    EXPECT_TRUE(batch.empty()) << "take got a batch that was not cleared";
    if (!connected[input]) return 0;
    std::deque<Tuple>& q = queues[input];
    int got = 0;
    while (got < want && !q.empty()) {
      served.push_back(GetInt(q.front(), "A"));
      batch.Push(std::move(q.front()), SimTime());
      q.pop_front();
      got++;
    }
    return got;
  }
};

OperatorPtr MakeBox(int n_inputs) {
  OperatorSpec spec =
      n_inputs == 1
          ? FilterSpec(Predicate::Compare("B", CompareOp::kGe,
                                          Value(int64_t{0})))
          : UnionSpec(n_inputs);
  OperatorPtr op = std::move(CreateOperator(spec)).ValueUnsafe();
  AURORA_CHECK(op->Init(std::vector<SchemaPtr>(n_inputs, SchemaAB())).ok());
  return op;
}

struct ChunkCase {
  std::string name;
  int budget;
  int batch_size;
  std::vector<int> queued;  // tuples per input; kUnconnected for arc -1
  int cursor;               // the cursor before the activation
  std::vector<Call> calls;  // expected (input, want) of every take
  int final_cursor;
  int processed;
};

void PrintTo(const ChunkCase& c, std::ostream* os) { *os << c.name; }

class ChunkRuleTest : public ::testing::TestWithParam<ChunkCase> {};

TEST_P(ChunkRuleTest, TakesCursorAndCount) {
  const ChunkCase& c = GetParam();
  const int n_inputs = static_cast<int>(c.queued.size());
  OperatorPtr op = MakeBox(n_inputs);
  Script script(c.queued);
  CollectingEmitter emitter;
  TupleBatch batch;
  int cursor = c.cursor;
  Status error;
  const int processed = RunActivation(
      op.get(), n_inputs, c.budget, c.batch_size, batch, &emitter,
      [&]() -> int& { return cursor; },
      [&](int input, int want, TupleBatch& b) {
        return script.Take(input, want, b);
      },
      &error);
  EXPECT_EQ(script.calls, c.calls);
  EXPECT_EQ(cursor, c.final_cursor);
  EXPECT_EQ(processed, c.processed);
  EXPECT_TRUE(error.ok()) << error.ToString();
  EXPECT_TRUE(batch.empty());
  // Every served tuple went through ProcessBatch once, in serving order
  // (the filter passes all and the union merges in arrival order).
  std::vector<int64_t> emitted;
  for (const Tuple& t : emitter.OnOutput(0)) emitted.push_back(GetInt(t, "A"));
  EXPECT_EQ(emitted, script.served);
  EXPECT_EQ(static_cast<int>(script.served.size()), processed);
  EXPECT_EQ(op->tuples_in(), static_cast<uint64_t>(processed));
}

std::vector<Call> Repeat(Call call, int times) {
  return std::vector<Call>(static_cast<size_t>(times), call);
}

std::vector<Call> Concat(std::vector<Call> a, const std::vector<Call>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

INSTANTIATE_TEST_SUITE_P(
    Table, ChunkRuleTest,
    ::testing::Values(
        // Single-input box: chunks of min(batch_size, budget left).
        ChunkCase{"Single_Budget1_Batch1", 1, 1, {5}, 0, {{0, 1}}, 0, 1},
        ChunkCase{"Single_Budget1_Batch64", 1, 64, {5}, 0, {{0, 1}}, 0, 1},
        ChunkCase{"Single_Budget5_Batch7", 5, 7, {10}, 0, {{0, 5}}, 0, 5},
        ChunkCase{"Single_Budget5_Batch1", 5, 1, {10}, 0,
                  Repeat({0, 1}, 5), 0, 5},
        ChunkCase{"Single_Budget64_Batch64", 64, 64, {100}, 0, {{0, 64}}, 0,
                  64},
        // 9 chunks of 7 leave a budget of 1.
        ChunkCase{"Single_Budget64_Batch7_BudgetLeft", 64, 7, {64}, 0,
                  Concat(Repeat({0, 7}, 9), {{0, 1}}), 0, 64},
        // A short queue: three chunks, then one empty round ends it.
        ChunkCase{"Single_Budget64_Batch7_Short", 64, 7, {20}, 0,
                  Repeat({0, 7}, 4), 0, 20},
        ChunkCase{"Single_Budget64_Batch1_Short", 64, 1, {3}, 0,
                  Repeat({0, 1}, 4), 0, 3},
        ChunkCase{"Single_Empty", 64, 64, {0}, 0, {{0, 64}}, 0, 0},
        ChunkCase{"Single_Unconnected", 64, 7, {kUnconnected}, 0, {{0, 7}},
                  0, 0},
        // Multi-input box: one tuple per turn at every batch size.
        ChunkCase{"Union2_Budget1_MidRound", 1, 64, {2, 2}, 1, {{1, 1}}, 0,
                  1},
        ChunkCase{"Union2_Budget5_Uneven", 5, 64, {3, 1}, 0,
                  {{0, 1}, {1, 1}, {0, 1}, {1, 1}, {0, 1}, {1, 1}, {0, 1}},
                  1, 4},
        ChunkCase{"Union2_Budget5_Batch1_Full", 5, 1, {4, 4}, 0,
                  {{0, 1}, {1, 1}, {0, 1}, {1, 1}, {0, 1}}, 1, 5},
        ChunkCase{"Union3_Budget5_EmptyInput", 5, 7, {4, 0, 4}, 0,
                  {{0, 1}, {1, 1}, {2, 1}, {0, 1}, {1, 1}, {2, 1}, {0, 1}},
                  1, 5},
        ChunkCase{"Union3_Budget64_Unconnected_MidRound", 64, 7,
                  {2, kUnconnected, 1}, 2,
                  {{2, 1}, {0, 1}, {1, 1}, {2, 1}, {0, 1}, {1, 1}, {2, 1},
                   {0, 1}},
                  1, 3},
        ChunkCase{"Union3_AllEmpty_MidRound", 64, 64, {0, kUnconnected, 0},
                  1, {{1, 1}, {2, 1}, {0, 1}}, 1, 0}));

// A failing row does not stop the activation: the rest of its chunk and
// every later chunk still run, the first error lands in the slot, and an
// error already there stays.
TEST(RunActivationTest, FirstErrorAndProcessingGoesOn) {
  for (int batch_size : {1, 4}) {
    for (bool prefilled : {false, true}) {
      SCOPED_TRACE("batch_size=" + std::to_string(batch_size) +
                   (prefilled ? " prefilled" : ""));
      OperatorSpec spec = MapSpec({{"Q", Expr::Arith(ArithOp::kDiv,
                                                     Expr::FieldRef("A"),
                                                     Expr::FieldRef("B"))}});
      OperatorPtr op = std::move(CreateOperator(spec)).ValueUnsafe();
      ASSERT_OK(op->Init({SchemaAB()}));
      // B is 0 on rows 2 and 6: those two rows fail.
      std::deque<Tuple> queue;
      for (int64_t i = 0; i < 10; ++i) {
        queue.push_back(MakeTuple(
            SchemaAB(), {Value(i), Value(int64_t{i == 2 || i == 6 ? 0 : 1})}));
      }
      CollectingEmitter emitter;
      TupleBatch batch;
      int cursor = 0;
      Status error = prefilled ? Status::Internal("earlier") : Status::OK();
      const int processed = RunActivation(
          op.get(), 1, 64, batch_size, batch, &emitter,
          [&]() -> int& { return cursor; },
          [&](int, int want, TupleBatch& b) {
            int got = 0;
            while (got < want && !queue.empty()) {
              b.Push(std::move(queue.front()), SimTime());
              queue.pop_front();
              got++;
            }
            return got;
          },
          &error);
      EXPECT_EQ(processed, 10);
      EXPECT_EQ(op->tuples_in(), 10u);
      std::vector<double> quotients;
      for (const Tuple& t : emitter.OnOutput(0)) {
        quotients.push_back(GetDouble(t, "Q"));
      }
      EXPECT_EQ(quotients, (std::vector<double>{0, 1, 3, 4, 5, 7, 8, 9}));
      if (prefilled) {
        EXPECT_TRUE(error.IsInternal()) << error.ToString();
        EXPECT_EQ(error.message(), "earlier");
      } else {
        EXPECT_TRUE(error.IsInvalidArgument()) << error.ToString();
        EXPECT_EQ(error.message(), "division by zero");
      }
    }
  }
}

}  // namespace
}  // namespace aurora
