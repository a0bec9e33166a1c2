// Randomized property sweeps over operator invariants, parameterized by
// seed and workload shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>

#include "check/shrink_list.h"
#include "common/rng.h"
#include "ops/aggregate.h"
#include "ops/wsort_op.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing_util::CollectingEmitter;
using testing_util::GetInt;
using testing_util::MakeTestRng;
using testing_util::RunUnaryOp;
using testing_util::SchemaAB;

struct SeedCase {
  uint64_t seed;
  int n;
};

// Test listings name a case, not its bytes.
void PrintTo(const SeedCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_n" << c.n;
}

class WSortPropertyTest : public ::testing::TestWithParam<SeedCase> {};

// Invariant: whatever arrives, the emitted sequence (including drain) is
// non-decreasing in the sort key, and emitted + dropped == received.
TEST_P(WSortPropertyTest, OutputSortedAndAccounted) {
  const auto& c = GetParam();
  Rng rng = MakeTestRng(c.seed);
  auto spec = WSortSpec({"A"}, /*timeout_us=*/5'000);
  ASSERT_OK_AND_ASSIGN(OperatorPtr op, CreateOperator(spec));
  ASSERT_OK(op->Init({SchemaAB()}));
  auto* wsort = static_cast<WSortOp*>(op.get());
  CollectingEmitter emitter;
  SimTime now;
  for (int i = 0; i < c.n; ++i) {
    Tuple t = MakeTuple(SchemaAB(),
                        {Value(rng.UniformInt(0, 50)), Value(i)});
    now += SimDuration::Millis(static_cast<int64_t>(rng.Uniform(4)));
    t.set_timestamp(now);
    ASSERT_OK(op->Process(0, t, now, &emitter));
    op->OnTick(now, &emitter);
  }
  op->Drain(&emitter);
  std::vector<Tuple> out = emitter.OnOutput(0);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(GetInt(out[i - 1], "A"), GetInt(out[i], "A")) << "at " << i;
  }
  EXPECT_EQ(out.size() + wsort->dropped(), static_cast<size_t>(c.n));
}

INSTANTIATE_TEST_SUITE_P(Sweep, WSortPropertyTest,
                         ::testing::Values(SeedCase{1, 50}, SeedCase{2, 200},
                                           SeedCase{3, 500}, SeedCase{4, 31},
                                           SeedCase{5, 1000}));

class TumblePropertyTest : public ::testing::TestWithParam<SeedCase> {};

// Invariant: with agg=cnt, the sum of all window counts (after drain)
// equals the number of input tuples, and each window's count equals its
// run length.
TEST_P(TumblePropertyTest, CountsPartitionTheInput) {
  const auto& c = GetParam();
  Rng rng = MakeTestRng(c.seed);
  SchemaPtr schema = SchemaAB();
  std::vector<Tuple> stream;
  int64_t group = 0;
  std::vector<int64_t> run_lengths;
  while (static_cast<int>(stream.size()) < c.n) {
    int64_t run = rng.UniformInt(1, 6);
    run = std::min<int64_t>(run, c.n - static_cast<int64_t>(stream.size()));
    run_lengths.push_back(run);
    for (int64_t j = 0; j < run; ++j) {
      stream.push_back(MakeTuple(schema, {Value(group), Value(j)}));
    }
    ++group;
  }
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      RunUnaryOp(TumbleSpec("cnt", "B", {"A"}), schema, stream, true));
  ASSERT_EQ(out.size(), run_lengths.size());
  int64_t total = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(GetInt(out[i], "Result"), run_lengths[i]) << "window " << i;
    total += GetInt(out[i], "Result");
  }
  EXPECT_EQ(total, c.n);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TumblePropertyTest,
                         ::testing::Values(SeedCase{10, 40}, SeedCase{11, 123},
                                           SeedCase{12, 400},
                                           SeedCase{13, 999}));

class JoinPropertyTest : public ::testing::TestWithParam<SeedCase> {};

// Invariant: the join result is independent of which side a pair's tuples
// arrive on first (symmetric hash join).
TEST_P(JoinPropertyTest, SymmetricInArrivalOrder) {
  const auto& c = GetParam();
  SchemaPtr left = SchemaAB();
  SchemaPtr right = Schema::Make(
      {Field{"K", ValueType::kInt64}, Field{"V", ValueType::kInt64}});
  // A batch of left/right tuples with random keys, all within the window.
  Rng rng = MakeTestRng(c.seed);
  std::vector<Tuple> lefts, rights;
  for (int i = 0; i < c.n; ++i) {
    Tuple l = MakeTuple(left, {Value(rng.UniformInt(0, 9)), Value(i)});
    l.set_timestamp(SimTime::Millis(1));
    lefts.push_back(std::move(l));
    Tuple r = MakeTuple(right, {Value(rng.UniformInt(0, 9)), Value(i)});
    r.set_timestamp(SimTime::Millis(1));
    rights.push_back(std::move(r));
  }
  auto run = [&](bool left_first) {
    auto op = std::move(CreateOperator(JoinSpec("A", "K", 1'000'000))).ValueUnsafe();
    AURORA_CHECK(op->Init({left, right}).ok());
    CollectingEmitter emitter;
    if (left_first) {
      for (const auto& l : lefts) {
        (void)op->Process(0, l, SimTime::Millis(1), &emitter);
      }
      for (const auto& r : rights) {
        (void)op->Process(1, r, SimTime::Millis(1), &emitter);
      }
    } else {
      for (const auto& r : rights) {
        (void)op->Process(1, r, SimTime::Millis(1), &emitter);
      }
      for (const auto& l : lefts) {
        (void)op->Process(0, l, SimTime::Millis(1), &emitter);
      }
    }
    // Canonicalize: multiset of (left B, right V) pairs.
    std::multiset<std::pair<int64_t, int64_t>> pairs;
    for (const auto& t : emitter.OnOutput(0)) {
      pairs.insert({t.Get("B").AsInt(), t.Get("V").AsInt()});
    }
    return pairs;
  };
  EXPECT_EQ(run(true), run(false));
}

INSTANTIATE_TEST_SUITE_P(Sweep, JoinPropertyTest,
                         ::testing::Values(SeedCase{20, 20}, SeedCase{21, 60},
                                           SeedCase{22, 150}));

// ---- Brute-force reference checks (seeded, shrinking on failure) ---------
//
// Each suite feeds seeded random input to an operator and compares against
// an independent from-scratch reference model. On mismatch the failing
// input list is minimized with ShrinkList (the simcheck minimizer) so the
// assertion message carries a small reproducer instead of hundreds of rows.

std::string DescribeRows(const std::vector<std::pair<int64_t, int64_t>>& rows) {
  std::ostringstream os;
  for (const auto& [a, b] : rows) os << "(" << a << "," << b << ") ";
  return os.str();
}

class AggregatePropertyTest : public ::testing::TestWithParam<SeedCase> {};

// Invariant: every registered aggregate matches a direct fold over the
// same values.
TEST_P(AggregatePropertyTest, MatchesDirectFold) {
  const auto& c = GetParam();
  for (const std::string name : {"cnt", "sum", "avg", "min", "max"}) {
    Rng rng = MakeTestRng(c.seed);
    ASSERT_OK_AND_ASSIGN(auto agg, MakeAggregate(name));
    agg->Reset();
    std::vector<int64_t> values;
    for (int i = 0; i < c.n; ++i) {
      int64_t v = rng.UniformInt(-500, 500);
      values.push_back(v);
      agg->Update(Value(v));
    }
    int64_t sum = 0, mn = values[0], mx = values[0];
    for (int64_t v : values) {
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    EXPECT_EQ(agg->count(), static_cast<uint64_t>(c.n)) << name;
    Value got = agg->Final();
    if (name == "cnt") {
      EXPECT_EQ(got.AsInt(), c.n);
    } else if (name == "sum") {
      EXPECT_EQ(got.AsInt(), sum) << name;
    } else if (name == "avg") {
      EXPECT_DOUBLE_EQ(got.AsNumeric(),
                       static_cast<double>(sum) / c.n);
    } else if (name == "min") {
      EXPECT_EQ(got.AsInt(), mn);
    } else {
      EXPECT_EQ(got.AsInt(), mx);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AggregatePropertyTest,
                         ::testing::Values(SeedCase{30, 1}, SeedCase{31, 17},
                                           SeedCase{32, 256},
                                           SeedCase{33, 777}));

using Row = std::pair<int64_t, int64_t>;  // (A, B)

std::vector<Tuple> RowsToTuples(const std::vector<Row>& rows) {
  SchemaPtr schema = SchemaAB();
  std::vector<Tuple> tuples;
  for (const auto& [a, b] : rows) {
    tuples.push_back(MakeTuple(schema, {Value(a), Value(b)}));
  }
  return tuples;
}

class TumbleEveryNPropertyTest : public ::testing::TestWithParam<SeedCase> {};

// Invariant: tumble in every_n mode equals the reference "per-key sums of
// consecutive chunks of n values" (drain flushing the final partials).
TEST_P(TumbleEveryNPropertyTest, MatchesChunkedReference) {
  const auto& c = GetParam();
  Rng rng = MakeTestRng(c.seed);
  const int64_t n = rng.UniformInt(2, 5);
  std::vector<Row> rows;
  for (int i = 0; i < c.n; ++i) {
    rows.push_back({rng.UniformInt(0, 5), rng.UniformInt(0, 99)});
  }
  auto spec = TumbleSpec("sum", "B", {"A"});
  spec.SetParam("emit", Value("every_n"));
  spec.SetParam("n", Value(n));

  // Mismatch detector, reused by the shrinker: per-key emitted sums vs
  // per-key chunked reference sums.
  auto mismatch = [&](const std::vector<Row>& input) {
    auto out = RunUnaryOp(spec, SchemaAB(), RowsToTuples(input), true);
    if (!out.ok()) return true;
    std::map<int64_t, std::vector<int64_t>> got, want;
    for (const Tuple& t : *out) {
      got[GetInt(t, "A")].push_back(GetInt(t, "Result"));
    }
    std::map<int64_t, std::vector<int64_t>> per_key;
    for (const auto& [a, b] : input) per_key[a].push_back(b);
    for (const auto& [a, values] : per_key) {
      for (size_t at = 0; at < values.size(); at += static_cast<size_t>(n)) {
        size_t end = std::min(values.size(), at + static_cast<size_t>(n));
        int64_t sum = 0;
        for (size_t j = at; j < end; ++j) sum += values[j];
        want[a].push_back(sum);
      }
    }
    return got != want;
  };

  if (mismatch(rows)) {
    std::vector<Row> minimal = ShrinkList<Row>(rows, mismatch);
    FAIL() << "tumble every_n (n=" << n
           << ") diverges from chunked reference; minimal failing input: "
           << DescribeRows(minimal);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TumbleEveryNPropertyTest,
                         ::testing::Values(SeedCase{40, 30}, SeedCase{41, 100},
                                           SeedCase{42, 333},
                                           SeedCase{43, 998}));

struct WindowCase {
  uint64_t seed;
  int n;
  int64_t window;
  int64_t advance;
};

void PrintTo(const WindowCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_n" << c.n << "_window" << c.window
      << "_advance" << c.advance;
}

class WindowAggPropertyTest : public ::testing::TestWithParam<WindowCase> {};

// Invariant: xsection(sum) with groupby equals the reference "sum of the
// last `window` values at every position p >= window-1 where
// (p - window + 1) % advance == 0", independently per key.
TEST_P(WindowAggPropertyTest, XSectionMatchesSlidingReference) {
  const auto& c = GetParam();
  Rng rng = MakeTestRng(c.seed);
  std::vector<Row> rows;
  for (int i = 0; i < c.n; ++i) {
    rows.push_back({rng.UniformInt(0, 3), rng.UniformInt(0, 50)});
  }
  auto spec = XSectionSpec("sum", "B", c.window, c.advance, {"A"});

  auto mismatch = [&](const std::vector<Row>& input) {
    auto out = RunUnaryOp(spec, SchemaAB(), RowsToTuples(input));
    if (!out.ok()) return true;
    std::map<int64_t, std::vector<int64_t>> got, want;
    for (const Tuple& t : *out) {
      got[GetInt(t, "A")].push_back(GetInt(t, "Result"));
    }
    std::map<int64_t, std::vector<int64_t>> per_key;
    for (const auto& [a, b] : input) per_key[a].push_back(b);
    for (const auto& [a, values] : per_key) {
      for (size_t p = static_cast<size_t>(c.window) - 1; p < values.size();
           ++p) {
        size_t lo = p - static_cast<size_t>(c.window) + 1;
        if (lo % static_cast<size_t>(c.advance) != 0) continue;
        int64_t sum = 0;
        for (size_t j = lo; j <= p; ++j) sum += values[j];
        want[a].push_back(sum);
      }
    }
    return got != want;
  };

  if (mismatch(rows)) {
    std::vector<Row> minimal = ShrinkList<Row>(rows, mismatch);
    FAIL() << "xsection(window=" << c.window << ", advance=" << c.advance
           << ") diverges from sliding reference; minimal failing input: "
           << DescribeRows(minimal);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WindowAggPropertyTest,
    ::testing::Values(WindowCase{50, 60, 3, 1}, WindowCase{51, 120, 4, 4},
                      WindowCase{52, 250, 5, 2}, WindowCase{53, 500, 2, 1},
                      WindowCase{54, 77, 6, 3}));

class WSortBufferPropertyTest : public ::testing::TestWithParam<SeedCase> {};

// Invariant: wsort with a buffer cap (timeout 0, so no timer involvement)
// equals an independent sorted-buffer + watermark model: when the buffer
// exceeds its cap the smallest element is emitted and becomes the
// watermark; arrivals below the watermark are dropped; drain emits the
// remainder in ascending order.
TEST_P(WSortBufferPropertyTest, MatchesSortedBufferReference) {
  const auto& c = GetParam();
  Rng rng = MakeTestRng(c.seed);
  const int64_t max_buffer = rng.UniformInt(3, 12);
  // Unique sort keys in random order: ties between equal keys would make
  // the reference's pick ambiguous without modeling the op's internals.
  std::vector<Row> rows;
  for (int i = 0; i < c.n; ++i) {
    rows.push_back({rng.UniformInt(0, 1000) * 1000 + i, i});
  }
  auto spec = WSortSpec({"A"}, /*timeout_us=*/0, max_buffer);

  auto mismatch = [&](const std::vector<Row>& input) {
    auto out = RunUnaryOp(spec, SchemaAB(), RowsToTuples(input), true);
    if (!out.ok()) return true;
    std::vector<int64_t> got;
    for (const Tuple& t : *out) got.push_back(GetInt(t, "A"));
    std::vector<int64_t> want;
    std::vector<int64_t> buffer;
    int64_t watermark = -1;
    for (const auto& [a, b] : input) {
      if (a < watermark) continue;  // late: reference model drops it
      buffer.insert(std::upper_bound(buffer.begin(), buffer.end(), a), a);
      while (static_cast<int64_t>(buffer.size()) > max_buffer) {
        watermark = buffer.front();
        want.push_back(buffer.front());
        buffer.erase(buffer.begin());
      }
    }
    want.insert(want.end(), buffer.begin(), buffer.end());
    return got != want;
  };

  if (mismatch(rows)) {
    std::vector<Row> minimal = ShrinkList<Row>(rows, mismatch);
    FAIL() << "wsort(max_buffer=" << max_buffer
           << ") diverges from sorted-buffer reference; minimal failing "
              "input: "
           << DescribeRows(minimal);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, WSortBufferPropertyTest,
                         ::testing::Values(SeedCase{60, 25}, SeedCase{61, 80},
                                           SeedCase{62, 300},
                                           SeedCase{63, 1000}));

// ---- Batch-vs-scalar equivalence (BatchOracle) ---------------------------
//
// Contract under test: for any operator, chunking an input stream through
// ProcessBatch is emission-equivalent to per-tuple Process — same tuples in
// the same order on the same outputs, same seq/trace stamping, same
// operator counters, and the same first error. The scalar run is the
// oracle; the batched run must match it byte for byte at every batch size,
// including sizes that leave odd tails. On mismatch the failing input list
// is minimized with ShrinkList.

/// One canonical line per emission: output index, seq, trace id, values.
std::string CanonicalEmissions(const CollectingEmitter& emitter) {
  std::ostringstream os;
  for (const auto& [output, t] : emitter.emissions()) {
    os << output << " seq=" << t.seq() << " trace=" << t.trace_id()
       << " ts=" << t.timestamp().micros() << " [";
    for (size_t i = 0; i < t.num_values(); ++i) {
      if (i > 0) os << "|";
      os << t.value(i).ToString();
    }
    os << "]\n";
  }
  return os.str();
}

struct OracleRun {
  std::string emissions;
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  std::string first_error;  // empty when every Process/ProcessBatch was OK
};

/// Replicates the per-tuple trace propagation the engines see: everything
/// emitted while processing tuple t inherits t's trace id unless already
/// traced. ProcessBatch folds this stamping into its BatchEmitter, so the
/// scalar oracle must model it too.
class TraceStampingEmitter : public Emitter {
 public:
  explicit TraceStampingEmitter(Emitter* inner) : inner_(inner) {}
  void SetCurrent(const Tuple& t) { trace_id_ = t.trace_id(); }
  void Emit(int output, Tuple t) override {
    if (trace_id_ != 0 && t.trace_id() == 0) t.set_trace_id(trace_id_);
    inner_->Emit(output, std::move(t));
  }

 private:
  Emitter* inner_;
  uint64_t trace_id_ = 0;
};

/// Scalar oracle: per-tuple Process with engine semantics — trace ids
/// stamped per input tuple, a failing tuple emits nothing and the first
/// error is recorded, later tuples still run (that is what both schedulers
/// do with deferred_error_).
OracleRun RunScalarOracle(const OperatorSpec& spec, const SchemaPtr& schema,
                          const std::vector<Tuple>& tuples, bool drain) {
  OracleRun run;
  auto op = std::move(CreateOperator(spec)).ValueUnsafe();
  AURORA_CHECK(op->Init({schema}).ok());
  CollectingEmitter emitter;
  TraceStampingEmitter stamping(&emitter);
  for (const Tuple& t : tuples) {
    stamping.SetCurrent(t);
    Status st = op->Process(0, t, t.timestamp(), &stamping);
    if (!st.ok() && run.first_error.empty()) run.first_error = st.ToString();
  }
  if (drain) op->Drain(&emitter);
  run.emissions = CanonicalEmissions(emitter);
  run.tuples_in = op->tuples_in();
  run.tuples_out = op->tuples_out();
  return run;
}

/// Batched run: the same stream chunked into TupleBatches of `batch_size`
/// (the final chunk is the odd tail whenever the sizes do not divide).
OracleRun RunBatched(const OperatorSpec& spec, const SchemaPtr& schema,
                     const std::vector<Tuple>& tuples, int batch_size,
                     bool drain) {
  OracleRun run;
  auto op = std::move(CreateOperator(spec)).ValueUnsafe();
  AURORA_CHECK(op->Init({schema}).ok());
  CollectingEmitter emitter;
  TupleBatch batch;
  batch.Reserve(static_cast<size_t>(batch_size));
  for (size_t at = 0; at < tuples.size();
       at += static_cast<size_t>(batch_size)) {
    batch.Clear();
    size_t end = std::min(tuples.size(), at + static_cast<size_t>(batch_size));
    for (size_t i = at; i < end; ++i) {
      batch.Push(tuples[i], tuples[i].timestamp());
    }
    Status st = op->ProcessBatch(0, batch, &emitter);
    if (!st.ok() && run.first_error.empty()) run.first_error = st.ToString();
  }
  if (drain) op->Drain(&emitter);
  run.emissions = CanonicalEmissions(emitter);
  run.tuples_in = op->tuples_in();
  run.tuples_out = op->tuples_out();
  return run;
}

/// The fixture core: "" when scalar and batched agree on emissions,
/// counters, and first error; a human-readable diff otherwise.
std::string BatchOracleDiff(const OperatorSpec& spec, const SchemaPtr& schema,
                            const std::vector<Tuple>& tuples, int batch_size,
                            bool drain) {
  OracleRun scalar = RunScalarOracle(spec, schema, tuples, drain);
  OracleRun batched = RunBatched(spec, schema, tuples, batch_size, drain);
  std::ostringstream os;
  if (scalar.emissions != batched.emissions) {
    os << "emissions diverge at batch_size=" << batch_size << "\n-- scalar:\n"
       << scalar.emissions << "-- batched:\n" << batched.emissions;
  }
  if (scalar.tuples_in != batched.tuples_in) {
    os << "tuples_in: scalar=" << scalar.tuples_in
       << " batched=" << batched.tuples_in << "\n";
  }
  if (scalar.tuples_out != batched.tuples_out) {
    os << "tuples_out: scalar=" << scalar.tuples_out
       << " batched=" << batched.tuples_out << "\n";
  }
  if (scalar.first_error != batched.first_error) {
    os << "first error: scalar='" << scalar.first_error << "' batched='"
       << batched.first_error << "'\n";
  }
  return os.str();
}

/// Seeded random (A, B) stream on `schema` with seq numbers 1..n,
/// millisecond timestamps, and a trace id on every third tuple (exercises
/// buffered BatchEmitter seq/trace stamping against the per-tuple Process
/// path's). Pass the schema object the operator is initialized on: the
/// engines' tuples carry it, and that is the path bound field indices and
/// pointer-uniform batches take.
std::vector<Tuple> BatchStream(const SchemaPtr& schema, uint64_t seed, int n,
                               int64_t a_range, int64_t b_lo, int64_t b_hi) {
  Rng rng = MakeTestRng(seed);
  std::vector<Tuple> tuples;
  for (int i = 0; i < n; ++i) {
    Tuple t = MakeTuple(schema, {Value(rng.UniformInt(0, a_range)),
                                 Value(rng.UniformInt(b_lo, b_hi))});
    t.set_seq(static_cast<SeqNo>(i + 1));
    t.set_timestamp(SimTime::Millis(i + 1));
    if (i % 3 == 0) t.set_trace_id(static_cast<uint64_t>(1000 + i));
    tuples.push_back(std::move(t));
  }
  return tuples;
}

/// BatchStream's rows with a third field S, a string longer than the
/// small-string buffer, built on `schema` (A, B, S) itself so a Map
/// initialized on it copies its bound fields.
std::vector<Tuple> TextBatchStream(const SchemaPtr& schema, uint64_t seed,
                                   int n, int64_t b_lo, int64_t b_hi) {
  std::vector<Tuple> tuples;
  for (const Tuple& ab : BatchStream(SchemaAB(), seed, n, 50, b_lo, b_hi)) {
    Tuple t = MakeTuple(
        schema, {ab.value(0), ab.value(1),
                 Value("a string field past the inline buffer, row " +
                       std::to_string(ab.seq()))});
    t.set_seq(ab.seq());
    t.set_timestamp(ab.timestamp());
    t.set_trace_id(ab.trace_id());
    tuples.push_back(std::move(t));
  }
  return tuples;
}

struct BatchOpCase {
  const char* name;
  uint64_t seed;
  int n;
};

void PrintTo(const BatchOpCase& c, std::ostream* os) { *os << c.name; }

/// Every unary operator kind under one sweep. Batch sizes cover the
/// degenerate (1), small primes that never divide the stream (2, 7 — odd
/// tails), and the bench's wide setting (64, larger than most streams).
class BatchOracleTest : public ::testing::TestWithParam<BatchOpCase> {
 protected:
  void CheckAllBatchSizes(const OperatorSpec& spec, const SchemaPtr& schema,
                          const std::vector<Tuple>& tuples, bool drain) {
    for (int batch_size : {1, 2, 7, 64}) {
      std::string diff = BatchOracleDiff(spec, schema, tuples, batch_size,
                                         drain);
      if (diff.empty()) continue;
      // Minimize on the first failing batch size: fewer rows, same diff.
      auto mismatch = [&](const std::vector<Tuple>& input) {
        return !BatchOracleDiff(spec, schema, input, batch_size, drain)
                    .empty();
      };
      std::vector<Tuple> minimal = ShrinkList<Tuple>(tuples, mismatch);
      std::ostringstream rows;
      for (const Tuple& t : minimal) {
        rows << "(" << GetInt(t, "A") << "," << GetInt(t, "B") << ") ";
      }
      FAIL() << spec.ToString() << " batch_size=" << batch_size
             << " diverges from scalar oracle; minimal failing input: "
             << rows.str() << "\n" << diff;
    }
  }
};

TEST_P(BatchOracleTest, FilterOneWay) {
  const auto& c = GetParam();
  const SchemaPtr schema = SchemaAB();
  CheckAllBatchSizes(
      FilterSpec(Predicate::Compare("A", CompareOp::kLt, Value(int64_t{25}))),
      schema, BatchStream(schema, c.seed, c.n, 50, -100, 100), false);
}

TEST_P(BatchOracleTest, FilterTwoWay) {
  const auto& c = GetParam();
  const SchemaPtr schema = SchemaAB();
  CheckAllBatchSizes(
      FilterSpec(Predicate::Compare("A", CompareOp::kGe, Value(int64_t{25})),
                 /*two_way=*/true),
      schema, BatchStream(schema, c.seed + 1, c.n, 50, -100, 100), false);
}

TEST_P(BatchOracleTest, FilterBooleanTree) {
  const auto& c = GetParam();
  const SchemaPtr schema = SchemaAB();
  // And/Or/Not over compares: EvalBatch runs trees through per-tuple Eval.
  Predicate p = Predicate::Or(
      Predicate::And(
          Predicate::Compare("A", CompareOp::kGt, Value(int64_t{10})),
          Predicate::Compare("B", CompareOp::kLe, Value(int64_t{0}))),
      Predicate::Not(
          Predicate::Compare("A", CompareOp::kNe, Value(int64_t{7}))));
  CheckAllBatchSizes(FilterSpec(std::move(p)), schema,
                     BatchStream(schema, c.seed + 2, c.n, 50, -100, 100),
                     false);
}

TEST_P(BatchOracleTest, FilterDoubleConstantAgainstIntColumn) {
  const auto& c = GetParam();
  const SchemaPtr schema = SchemaAB();
  // A double constant is not the int64 kernel's shape: per-tuple Eval.
  CheckAllBatchSizes(
      FilterSpec(Predicate::Compare("A", CompareOp::kGt, Value(24.5))),
      schema, BatchStream(schema, c.seed + 3, c.n, 50, -100, 100), false);
}

TEST_P(BatchOracleTest, MapInt64FastPath) {
  const auto& c = GetParam();
  const SchemaPtr schema = SchemaAB();
  // add/sub/mul over int64 fields and constants: the vectorized Expr tree.
  std::vector<std::pair<std::string, Expr>> proj;
  proj.emplace_back("S",
                    Expr::Arith(ArithOp::kAdd, Expr::FieldRef("A"),
                                Expr::Arith(ArithOp::kMul, Expr::FieldRef("B"),
                                            Expr::Constant(Value(int64_t{3})))));
  proj.emplace_back("D", Expr::Arith(ArithOp::kSub, Expr::FieldRef("B"),
                                     Expr::FieldRef("A")));
  CheckAllBatchSizes(MapSpec(std::move(proj)), schema,
                     BatchStream(schema, c.seed + 4, c.n, 50, -100, 100),
                     false);
}

TEST_P(BatchOracleTest, MapDivFallbackWithErrors) {
  const auto& c = GetParam();
  const SchemaPtr schema = SchemaAB();
  // kDiv forces the per-tuple fallback, and B ranges over 0 so some tuples
  // divide by zero: the batched path must skip exactly those tuples and
  // surface the same first error the scalar path does.
  std::vector<std::pair<std::string, Expr>> proj;
  proj.emplace_back("Q", Expr::Arith(ArithOp::kDiv, Expr::FieldRef("A"),
                                     Expr::FieldRef("B")));
  CheckAllBatchSizes(MapSpec(std::move(proj)), schema,
                     BatchStream(schema, c.seed + 5, c.n, 50, 0, 3), false);
}

TEST_P(BatchOracleTest, MapBoundFieldsThenFailingDivision) {
  const auto& c = GetParam();
  // The bound field copies (one a heap string) come first, so every zero
  // divisor abandons a half-built row, at every batch size.
  auto text_schema = [] {
    return Schema::Make({Field{"A", ValueType::kInt64},
                         Field{"B", ValueType::kInt64},
                         Field{"S", ValueType::kString}});
  };
  const SchemaPtr schema = text_schema();
  std::vector<std::pair<std::string, Expr>> proj;
  proj.emplace_back("A", Expr::FieldRef("A"));
  proj.emplace_back("S", Expr::FieldRef("S"));
  proj.emplace_back("Q", Expr::Arith(ArithOp::kDiv, Expr::FieldRef("A"),
                                     Expr::FieldRef("B")));
  const OperatorSpec spec = MapSpec(std::move(proj));
  CheckAllBatchSizes(spec, schema,
                     TextBatchStream(schema, c.seed + 13, c.n, 0, 3), false);
  // Tuples on an equal but distinct schema object take the rebind path:
  // the identity fields go through Eval instead of the bound copies.
  CheckAllBatchSizes(spec, schema,
                     TextBatchStream(text_schema(), c.seed + 14, c.n, 0, 3),
                     false);
}

TEST_P(BatchOracleTest, TumbleRunBased) {
  const auto& c = GetParam();
  const SchemaPtr schema = SchemaAB();
  CheckAllBatchSizes(TumbleSpec("sum", "B", {"A"}), schema,
                     BatchStream(schema, c.seed + 6, c.n, 4, 0, 99), true);
}

TEST_P(BatchOracleTest, TumbleEveryN) {
  const auto& c = GetParam();
  const SchemaPtr schema = SchemaAB();
  auto spec = TumbleSpec("cnt", "B", {"A"});
  spec.SetParam("emit", Value("every_n"));
  spec.SetParam("n", Value(int64_t{3}));
  // Small key range: consecutive same-key tuples close windows mid-batch.
  CheckAllBatchSizes(spec, schema,
                     BatchStream(schema, c.seed + 7, c.n, 2, 0, 99), true);
}

TEST_P(BatchOracleTest, WindowAggXSection) {
  const auto& c = GetParam();
  const SchemaPtr schema = SchemaAB();
  CheckAllBatchSizes(XSectionSpec("max", "B", 4, 2, {"A"}), schema,
                     BatchStream(schema, c.seed + 8, c.n, 3, 0, 50), false);
}

TEST_P(BatchOracleTest, WindowAggSlide) {
  const auto& c = GetParam();
  const SchemaPtr schema = SchemaAB();
  CheckAllBatchSizes(SlideSpec("avg", "B", 5, {"A"}), schema,
                     BatchStream(schema, c.seed + 9, c.n, 3, 0, 50), false);
}

TEST_P(BatchOracleTest, WSort) {
  const auto& c = GetParam();
  const SchemaPtr schema = SchemaAB();
  CheckAllBatchSizes(WSortSpec({"A"}, /*timeout_us=*/0, /*max_buffer=*/6),
                     schema, BatchStream(schema, c.seed + 10, c.n, 1000, 0, 9),
                     true);
}

TEST_P(BatchOracleTest, WSortUnbounded) {
  const auto& c = GetParam();
  const SchemaPtr schema = SchemaAB();
  // max_buffer=0 and no timeout: nothing leaves before the drain, which
  // must emit equal keys in arrival order.
  CheckAllBatchSizes(WSortSpec({"A"}, /*timeout_us=*/0, /*max_buffer=*/0),
                     schema, BatchStream(schema, c.seed + 12, c.n, 1000, 0, 9),
                     true);
}

TEST_P(BatchOracleTest, Resample) {
  const auto& c = GetParam();
  const SchemaPtr schema = SchemaAB();
  CheckAllBatchSizes(ResampleSpec("B", /*interval_us=*/2000), schema,
                     BatchStream(schema, c.seed + 11, c.n, 50, 0, 100), true);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BatchOracleTest,
                         ::testing::Values(BatchOpCase{"tiny", 70, 1},
                                           BatchOpCase{"odd", 71, 13},
                                           BatchOpCase{"mid", 72, 129},
                                           BatchOpCase{"big", 73, 500}));

TEST(BatchOracleInt64Test, FilterInt64CompareMatchesScalar) {
  // Int64 field vs int64 constant: EvalBatch's one columnar kernel, every
  // operator, odd-tail and wide batch sizes. A spans 0..9, so the constant
  // falls below, on and above the column's values in every run.
  const SchemaPtr schema = SchemaAB();
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    for (int batch_size : {1, 7, 64}) {
      std::string diff = BatchOracleDiff(
          FilterSpec(Predicate::Compare("A", op, Value(int64_t{5}))), schema,
          BatchStream(schema, 98, 113, 9, -100, 100), batch_size, false);
      EXPECT_TRUE(diff.empty())
          << "op=" << CompareOpName(op) << " batch=" << batch_size << "\n"
          << diff;
    }
  }
}

// Multi-input boxes never get batch-dequeued by the schedulers, but the
// base-class ProcessBatch must still be emission-equivalent per input.
TEST(BatchOracleMultiInputTest, UnionDefaultLoopMatchesScalar) {
  SchemaPtr schema = SchemaAB();
  std::vector<Tuple> a = BatchStream(schema, 80, 37, 50, 0, 9);
  std::vector<Tuple> b = BatchStream(schema, 81, 37, 50, 0, 9);
  auto run = [&](bool batched) {
    auto op = std::move(CreateOperator(UnionSpec(2))).ValueUnsafe();
    AURORA_CHECK(op->Init({schema, schema}).ok());
    CollectingEmitter emitter;
    if (batched) {
      TupleBatch ba, bb;
      for (const Tuple& t : a) ba.Push(t, t.timestamp());
      for (const Tuple& t : b) bb.Push(t, t.timestamp());
      EXPECT_OK(op->ProcessBatch(0, ba, &emitter));
      EXPECT_OK(op->ProcessBatch(1, bb, &emitter));
    } else {
      for (const Tuple& t : a) {
        EXPECT_OK(op->Process(0, t, t.timestamp(), &emitter));
      }
      for (const Tuple& t : b) {
        EXPECT_OK(op->Process(1, t, t.timestamp(), &emitter));
      }
    }
    EXPECT_EQ(op->tuples_in(), a.size() + b.size());
    return CanonicalEmissions(emitter);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(BatchOracleMultiInputTest, JoinDefaultLoopMatchesScalar) {
  SchemaPtr left = SchemaAB();
  SchemaPtr right = Schema::Make(
      {Field{"K", ValueType::kInt64}, Field{"V", ValueType::kInt64}});
  std::vector<Tuple> lefts = BatchStream(left, 82, 29, 9, 0, 99);
  std::vector<Tuple> rights;
  {
    Rng rng = MakeTestRng(83);
    for (int i = 0; i < 29; ++i) {
      Tuple t = MakeTuple(right, {Value(rng.UniformInt(0, 9)), Value(i)});
      t.set_timestamp(SimTime::Millis(1));
      rights.push_back(std::move(t));
    }
  }
  for (Tuple& t : lefts) t.set_timestamp(SimTime::Millis(1));
  auto run = [&](bool batched) {
    auto op =
        std::move(CreateOperator(JoinSpec("A", "K", 1'000'000))).ValueUnsafe();
    AURORA_CHECK(op->Init({left, right}).ok());
    CollectingEmitter emitter;
    if (batched) {
      TupleBatch bl, br;
      for (const Tuple& t : lefts) bl.Push(t, t.timestamp());
      for (const Tuple& t : rights) br.Push(t, t.timestamp());
      EXPECT_OK(op->ProcessBatch(0, bl, &emitter));
      EXPECT_OK(op->ProcessBatch(1, br, &emitter));
    } else {
      for (const Tuple& t : lefts) {
        EXPECT_OK(op->Process(0, t, t.timestamp(), &emitter));
      }
      for (const Tuple& t : rights) {
        EXPECT_OK(op->Process(1, t, t.timestamp(), &emitter));
      }
    }
    return CanonicalEmissions(emitter);
  };
  EXPECT_EQ(run(false), run(true));
}

// A batch of probes against a buffered opposite side: runs of identical
// probes, advancing timestamps (expiry between runs), and a post-probe
// scalar push that checks the probe buffer came out identical.
TEST(BatchOracleMultiInputTest, JoinRepeatedProbesMatchScalar) {
  SchemaPtr left = SchemaAB();
  SchemaPtr right = Schema::Make(
      {Field{"K", ValueType::kInt64}, Field{"V", ValueType::kInt64}});
  Rng rng = MakeTestRng(84);
  std::vector<Tuple> rights;
  for (int i = 0; i < 40; ++i) {
    Tuple t = MakeTuple(right, {Value(rng.UniformInt(0, 5)), Value(i)});
    t.set_timestamp(SimTime::Millis(rng.UniformInt(1, 30)));
    rights.push_back(std::move(t));
  }
  std::vector<Tuple> lefts;
  SimTime ts = SimTime::Millis(5);
  int64_t run_key = 0;
  for (int i = 0; i < 60; ++i) {
    if (i % 4 == 0) {
      ts += SimDuration::Millis(rng.UniformInt(0, 3));
      run_key = rng.UniformInt(0, 5);
    }
    Tuple t = MakeTuple(left, {Value(run_key), Value(i)});
    t.set_timestamp(ts);
    t.set_seq(static_cast<SeqNo>(100 + i));
    lefts.push_back(std::move(t));
  }
  Tuple post = MakeTuple(right, {Value(run_key), Value(int64_t{999})});
  post.set_timestamp(ts);
  auto run = [&](bool batched) {
    auto op =
        std::move(CreateOperator(JoinSpec("A", "K", 10'000))).ValueUnsafe();
    AURORA_CHECK(op->Init({left, right}).ok());
    CollectingEmitter emitter;
    for (const Tuple& r : rights) {
      EXPECT_OK(op->Process(1, r, r.timestamp(), &emitter));
    }
    if (batched) {
      TupleBatch batch;
      for (const Tuple& l : lefts) batch.Push(l, l.timestamp());
      EXPECT_OK(op->ProcessBatch(0, batch, &emitter));
    } else {
      for (const Tuple& l : lefts) {
        EXPECT_OK(op->Process(0, l, l.timestamp(), &emitter));
      }
    }
    // A late right tuple joins against whatever the probe side buffered:
    // catches any divergence in the probe buffer or its expiry.
    EXPECT_OK(op->Process(1, post, post.timestamp(), &emitter));
    return CanonicalEmissions(emitter);
  };
  EXPECT_EQ(run(false), run(true));
}

// ---- String-schema batches -----------------------------------------------

SchemaPtr SchemaSB() {
  return Schema::Make(
      {Field{"S", ValueType::kString}, Field{"B", ValueType::kInt64}});
}

/// Seeded stream over (S:string, B:int64) on `schema`, with the same
/// seq/trace stamping as BatchStream; words repeat (and include "") so
/// string compares exercise every ordering against the constant.
std::vector<Tuple> StringStream(const SchemaPtr& schema, uint64_t seed,
                                int n) {
  static const char* kWords[] = {"alpha", "bravo", "charlie",
                                 "delta", "echo",  ""};
  Rng rng = MakeTestRng(seed);
  std::vector<Tuple> tuples;
  for (int i = 0; i < n; ++i) {
    Tuple t = MakeTuple(schema, {Value(kWords[rng.UniformInt(0, 5)]),
                                 Value(rng.UniformInt(-100, 100))});
    t.set_seq(static_cast<SeqNo>(i + 1));
    t.set_timestamp(SimTime::Millis(i + 1));
    if (i % 3 == 0) t.set_trace_id(static_cast<uint64_t>(2000 + i));
    tuples.push_back(std::move(t));
  }
  return tuples;
}

TEST(BatchOracleStringTest, FilterStringCompareMatchesScalar) {
  // String field vs string constant: EvalBatch's per-tuple fallback, every
  // operator, odd-tail and wide batch sizes.
  const SchemaPtr schema = SchemaSB();
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    for (int batch_size : {1, 7, 64}) {
      std::string diff = BatchOracleDiff(
          FilterSpec(Predicate::Compare("S", op, Value("charlie"))),
          schema, StringStream(schema, 95, 113), batch_size, false);
      EXPECT_TRUE(diff.empty())
          << "op=" << CompareOpName(op) << " batch=" << batch_size << "\n"
          << diff;
    }
  }
}

TEST(BatchOracleStringTest, MapIdentityStringProjectionMatchesScalar) {
  // A bare string field ref plus an int arithmetic column: identity
  // projections copy values straight out of the tuple, so a string column
  // no longer forces Map onto the scalar path.
  const SchemaPtr schema = SchemaSB();
  for (int batch_size : {1, 7, 64}) {
    std::vector<std::pair<std::string, Expr>> proj;
    proj.emplace_back("S2", Expr::FieldRef("S"));
    proj.emplace_back("B2", Expr::Arith(ArithOp::kAdd, Expr::FieldRef("B"),
                                        Expr::Constant(Value(int64_t{7}))));
    std::string diff =
        BatchOracleDiff(MapSpec(std::move(proj)), schema,
                        StringStream(schema, 96, 77), batch_size, false);
    EXPECT_TRUE(diff.empty()) << "batch=" << batch_size << "\n" << diff;
  }
}

// ---- BatchEmitter chunked-emission stamping (regression) -----------------
//
// Seq/trace stamping must happen at Emit time, not at flush time: a chunk
// boundary falling between two emissions must never change which input
// tuple's metadata an emission inherits.

class ChunkRecordingEmitter : public Emitter {
 public:
  void Emit(int output, Tuple t) override {
    chunk_sizes.push_back(1);
    tuples.emplace_back(output, std::move(t));
  }
  void EmitChunk(int output, Tuple* ts, size_t n) override {
    chunk_sizes.push_back(n);
    for (size_t i = 0; i < n; ++i) {
      tuples.emplace_back(output, std::move(ts[i]));
    }
  }
  std::vector<size_t> chunk_sizes;
  std::vector<std::pair<int, Tuple>> tuples;
};

TEST(BatchEmitterTest, SeqStampingPinnedAcrossChunkBoundary) {
  SchemaPtr schema = SchemaAB();
  ChunkRecordingEmitter inner;
  uint64_t counter = 0;
  Operator::BatchEmitter be(&inner, &counter);
  be.EnableBuffering(2);  // force a flush after every 2 staged emissions
  for (int i = 0; i < 5; ++i) {
    Tuple in = MakeTuple(schema, {Value(int64_t{i}), Value(int64_t{0})});
    in.set_seq(static_cast<SeqNo>(10 + i));
    in.set_trace_id(static_cast<uint64_t>(500 + i));
    be.SetCurrent(in);
    be.Emit(0, MakeTuple(schema, {Value(int64_t{i}), Value(int64_t{1})}));
  }
  be.Flush();
  ASSERT_EQ(inner.tuples.size(), 5u);
  EXPECT_EQ(counter, 5u);
  for (int i = 0; i < 5; ++i) {
    // Every emission carries the seq/trace of the input tuple current at
    // its own Emit call, even though flushes happened at 2, 4, and the
    // tail — chunk boundaries must not smear stamping across emissions.
    EXPECT_EQ(inner.tuples[i].second.seq(), static_cast<SeqNo>(10 + i)) << i;
    EXPECT_EQ(inner.tuples[i].second.trace_id(),
              static_cast<uint64_t>(500 + i))
        << i;
  }
  // Delivery really was chunked, not unrolled per tuple.
  EXPECT_EQ(inner.chunk_sizes, (std::vector<size_t>{2, 2, 1}));
}

TEST(BatchEmitterTest, FlushSplitsChunksPerOutputRun) {
  SchemaPtr schema = SchemaAB();
  ChunkRecordingEmitter inner;
  uint64_t counter = 0;
  Operator::BatchEmitter be(&inner, &counter);
  be.EnableBuffering(8);
  const int outputs[] = {0, 0, 1, 1, 0};
  for (int i = 0; i < 5; ++i) {
    Tuple in = MakeTuple(schema, {Value(int64_t{i}), Value(int64_t{0})});
    in.set_seq(static_cast<SeqNo>(i + 1));
    be.SetCurrent(in);
    be.Emit(outputs[i],
            MakeTuple(schema, {Value(int64_t{i}), Value(int64_t{1})}));
  }
  be.Flush();
  // One chunk per consecutive same-output run, original order preserved.
  EXPECT_EQ(inner.chunk_sizes, (std::vector<size_t>{2, 2, 1}));
  ASSERT_EQ(inner.tuples.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(inner.tuples[i].first, outputs[i]) << i;
    EXPECT_EQ(GetInt(inner.tuples[i].second, "A"), i);
    EXPECT_EQ(inner.tuples[i].second.seq(), static_cast<SeqNo>(i + 1)) << i;
  }
}

// Degenerate shapes the schedulers can produce: an empty batch (queue
// drained by a race in the threaded engine) must be a no-op, and a
// batch of one must equal a single Process call.
TEST(BatchOracleEdgeTest, EmptyBatchIsANoOp) {
  auto op = std::move(CreateOperator(TumbleSpec("sum", "B", {"A"})))
                .ValueUnsafe();
  ASSERT_OK(op->Init({SchemaAB()}));
  CollectingEmitter emitter;
  TupleBatch batch;
  ASSERT_OK(op->ProcessBatch(0, batch, &emitter));
  EXPECT_TRUE(emitter.emissions().empty());
  EXPECT_EQ(op->tuples_in(), 0u);
  EXPECT_EQ(op->tuples_out(), 0u);
}

TEST(BatchOracleEdgeTest, BatchOfOneEqualsScalarCall) {
  const SchemaPtr schema = SchemaAB();
  std::vector<Tuple> one = BatchStream(schema, 90, 1, 50, 0, 9);
  std::string diff = BatchOracleDiff(
      FilterSpec(Predicate::Compare("A", CompareOp::kGe, Value(int64_t{0}))),
      schema, one, /*batch_size=*/1, false);
  EXPECT_TRUE(diff.empty()) << diff;
}

TEST(BatchOracleEdgeTest, BadInputIndexRejectedWithoutSideEffects) {
  auto op = std::move(CreateOperator(FilterSpec(Predicate::True())))
                .ValueUnsafe();
  const SchemaPtr schema = SchemaAB();
  ASSERT_OK(op->Init({schema}));
  CollectingEmitter emitter;
  TupleBatch batch;
  batch.Push(BatchStream(schema, 91, 1, 50, 0, 9)[0], SimTime::Millis(1));
  EXPECT_FALSE(op->ProcessBatch(1, batch, &emitter).ok());
  EXPECT_TRUE(emitter.emissions().empty());
  EXPECT_EQ(op->tuples_in(), 0u);
}

// A batch whose tuples span two schemas must not take any columnar fast
// path (uniform_schema() is false); the per-tuple fallback keeps the
// filter correct for the rows that do carry the bound field.
TEST(BatchOracleEdgeTest, MixedSchemaBatchFallsBackPerTuple) {
  SchemaPtr ab = SchemaAB();
  std::vector<Tuple> tuples = BatchStream(ab, 92, 16, 50, 0, 9);
  TupleBatch batch;
  for (const Tuple& t : tuples) batch.Push(t, t.timestamp());
  EXPECT_TRUE(batch.uniform_schema());
  // Same fields, distinct Schema instance: pointer-uniformity breaks.
  SchemaPtr ab2 = Schema::Make({Field{"A", ValueType::kInt64},
                                Field{"B", ValueType::kInt64}});
  Tuple odd = MakeTuple(ab2, {Value(int64_t{1}), Value(int64_t{2})});
  odd.set_timestamp(SimTime::Millis(99));
  batch.Push(odd, odd.timestamp());
  EXPECT_FALSE(batch.uniform_schema());
  EXPECT_EQ(batch.I64Column(0), nullptr);

  auto op = std::move(CreateOperator(FilterSpec(Predicate::Compare(
                          "A", CompareOp::kLt, Value(int64_t{25})))))
                .ValueUnsafe();
  ASSERT_OK(op->Init({ab}));
  CollectingEmitter emitter;
  ASSERT_OK(op->ProcessBatch(0, batch, &emitter));
  size_t want = 0;
  for (const Tuple& t : tuples) {
    if (t.value(0).AsInt() < 25) ++want;
  }
  if (odd.value(0).AsInt() < 25) ++want;
  EXPECT_EQ(emitter.emissions().size(), want);
}

// The minimizer itself: a failing predicate defined by containing a magic
// value must shrink to exactly that one element.
TEST(ShrinkListTest, MinimizesToSingleCulprit) {
  std::vector<int> items;
  for (int i = 0; i < 100; ++i) items.push_back(i);
  auto contains_culprit = [](const std::vector<int>& xs) {
    return std::find(xs.begin(), xs.end(), 73) != xs.end();
  };
  std::vector<int> minimal = ShrinkList<int>(items, contains_culprit);
  ASSERT_EQ(minimal.size(), 1u);
  EXPECT_EQ(minimal[0], 73);
}

TEST(ShrinkListTest, KeepsInterdependentPair) {
  // When failure needs two elements jointly, both must survive.
  std::vector<int> items = {5, 1, 9, 2, 7, 3, 8, 4};
  auto needs_both = [](const std::vector<int>& xs) {
    bool a = std::find(xs.begin(), xs.end(), 9) != xs.end();
    bool b = std::find(xs.begin(), xs.end(), 4) != xs.end();
    return a && b;
  };
  std::vector<int> minimal = ShrinkList<int>(items, needs_both);
  EXPECT_EQ(minimal, (std::vector<int>{9, 4}));
}

}  // namespace
}  // namespace aurora
