// Property sweep (experiment C9 + Fig. 5/6 transparency): for random
// streams, every combinable aggregate, and several routing predicates, a
// split box must produce exactly the multiset of results the unsplit box
// produces.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "distributed/box_splitter.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing_util::SchemaAB;

enum class PredicateKind { kContent, kHash };

struct SplitCase {
  const char* agg;         // aggregate of the split Tumble
  PredicateKind predicate;
  double zipf_skew;        // groupby key skew
  int tuples;
  int split_after;         // tuples processed before the split
  uint64_t seed;
};

// Test listings name a case, not its bytes.
void PrintTo(const SplitCase& c, std::ostream* os) {
  *os << c.agg
      << (c.predicate == PredicateKind::kContent ? "_content" : "_hash")
      << "_skew" << static_cast<int>(c.zipf_skew * 10) << "_n" << c.tuples
      << "_at" << c.split_after;
}

class SplitTransparencyTest : public ::testing::TestWithParam<SplitCase> {};

// Runs the Figure-2-style query (Tumble agg(B) groupby A) over `stream`,
// optionally splitting after `split_after` tuples; returns the multiset of
// (A, Result) pairs after draining everything.
std::vector<std::pair<int64_t, int64_t>> RunQuery(
    const std::vector<Tuple>& stream, const SplitCase& c, bool split) {
  Simulation sim;
  OverlayNetwork net(&sim);
  AuroraStarSystem system(&sim, &net, StarOptions{});
  NodeId m1 = *system.AddNode(NodeOptions{"m1", 1.0, {}});
  NodeId m2 = *system.AddNode(NodeOptions{"m2", 1.0, {}});
  net.FullMesh(LinkOptions{});
  GlobalQuery q;
  AURORA_CHECK(q.AddInput("in", SchemaAB()).ok());
  AURORA_CHECK(q.AddBox("t", TumbleSpec(c.agg, "B", {"A"})).ok());
  AURORA_CHECK(q.AddOutput("out").ok());
  AURORA_CHECK(q.ConnectInputToBox("in", "t").ok());
  AURORA_CHECK(q.ConnectBoxToOutput("t", 0, "out").ok());
  auto deployed_result = DeployQuery(&system, q, {{"t", m1}});
  AURORA_CHECK(deployed_result.ok());
  DeployedQuery deployed = *std::move(deployed_result);
  std::vector<std::pair<int64_t, int64_t>> out;
  AURORA_CHECK(system
                   .CollectOutput(m1, "out",
                                  [&](const Tuple& t, SimTime) {
                                    out.emplace_back(t.Get("A").AsInt(),
                                                     t.Get("Result").AsInt());
                                  })
                   .ok());

  int injected = 0;
  for (const Tuple& t : stream) {
    if (split && injected == c.split_after) {
      BoxSplitter splitter(&system);
      SplitRequest req;
      req.box_name = "t";
      req.partition =
          c.predicate == PredicateKind::kContent
              ? Predicate::Compare("B", CompareOp::kLt, Value(50))
              : Predicate::HashPartition("B", 2, 0);
      req.dst_node = m2;
      req.wsort_timeout_us = 0;
      auto result = splitter.Split(&deployed, req);
      AURORA_CHECK(result.ok()) << result.status().ToString();
    }
    AURORA_CHECK(system.node(m1).Inject("in", t).ok());
    sim.RunFor(SimDuration::Millis(2));
    injected++;
  }
  sim.RunFor(SimDuration::Seconds(1));

  // Drain everything: leaves, then (when split) the merge chain.
  auto drain_box = [&](const std::string& name) {
    auto it = deployed.boxes.find(name);
    if (it == deployed.boxes.end()) return;
    AuroraEngine& engine = system.node(it->second.node).engine();
    AURORA_CHECK(engine.DrainBoxState(it->second.box, sim.Now()).ok());
    AURORA_CHECK(engine.RunUntilQuiescent(sim.Now()).ok());
    system.node(it->second.node).Flush();
    sim.RunFor(SimDuration::Millis(500));
  };
  drain_box("t");
  drain_box("t/copy");
  drain_box("t/wsort");
  drain_box("t/merge");
  sim.RunFor(SimDuration::Seconds(1));

  std::sort(out.begin(), out.end());
  return out;
}

TEST_P(SplitTransparencyTest, SplitEqualsUnsplit) {
  const SplitCase& c = GetParam();
  // Build a deterministic random *group-clustered* stream: each groupby
  // value appears in exactly one contiguous run of random length. This is
  // the regime the paper's merge network is designed for (its Figure 2
  // sample stream has this shape): with WSort in "large enough timeout"
  // mode, distinct temporal runs of the same group would be merged — see
  // RecurringGroupsMergeAcrossRuns below.
  Rng rng(c.seed);
  // Zipf-skewed run lengths: heavy skew = a few dominant groups, the
  // condition that misbalances content-based split predicates.
  ZipfGenerator zipf(10, c.zipf_skew);
  SchemaPtr schema = SchemaAB();
  std::vector<Tuple> stream;
  int64_t group = 0;
  while (static_cast<int>(stream.size()) < c.tuples) {
    int run = 1 + static_cast<int>(zipf.Sample(&rng));
    for (int j = 0; j < run && static_cast<int>(stream.size()) < c.tuples;
         ++j) {
      Tuple t =
          MakeTuple(schema, {Value(group), Value(rng.UniformInt(0, 99))});
      t.set_timestamp(SimTime::Millis(static_cast<int64_t>(stream.size())));
      stream.push_back(std::move(t));
    }
    ++group;
  }

  auto reference = RunQuery(stream, c, /*split=*/false);
  auto split = RunQuery(stream, c, /*split=*/true);
  EXPECT_EQ(split, reference);
}

TEST(SplitSemanticsTest, RecurringGroupsMergeAcrossRuns) {
  // Documented limitation, inherent to the paper's Fig. 6 merge network in
  // drain mode: when the same groupby value recurs in separate runs, the
  // merge WSort orders everything by the groupby attribute, so the
  // combining Tumble coalesces the runs. (A finite WSort timeout bounds
  // how far apart runs can be and still merge.) An unsplit box would have
  // emitted one result per run.
  SplitCase c{"cnt", PredicateKind::kHash, 0.0, 0, 0, 0};
  SchemaPtr schema = SchemaAB();
  std::vector<Tuple> stream;
  // Runs: A=1 (2 tuples), A=2 (1), A=1 again (3).
  for (int64_t a : {1, 1, 2, 1, 1, 1}) {
    Tuple t = MakeTuple(schema, {Value(a), Value(static_cast<int64_t>(
                                               stream.size()))});
    t.set_timestamp(SimTime::Millis(static_cast<int64_t>(stream.size())));
    stream.push_back(std::move(t));
  }
  c.tuples = static_cast<int>(stream.size());
  auto reference = RunQuery(stream, c, /*split=*/false);
  auto split = RunQuery(stream, c, /*split=*/true);
  // Unsplit: three results (1,2), (2,1), (1,3). Split+drain: the two A=1
  // runs merge into (1,5).
  EXPECT_EQ(reference.size(), 3u);
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split[0], (std::pair<int64_t, int64_t>{1, 5}));
  EXPECT_EQ(split[1], (std::pair<int64_t, int64_t>{2, 1}));
}

std::vector<SplitCase> MakeSplitCases() {
  std::vector<SplitCase> cases;
  uint64_t seed = 100;
  for (const char* agg : {"cnt", "sum", "min", "max"}) {
    for (PredicateKind pred : {PredicateKind::kContent, PredicateKind::kHash}) {
      for (double skew : {0.0, 1.1}) {
        cases.push_back(SplitCase{agg, pred, skew, 60, 20, seed++});
      }
    }
  }
  // Edge positions: split before any tuple, and near the end.
  cases.push_back(SplitCase{"cnt", PredicateKind::kHash, 0.5, 40, 0, seed++});
  cases.push_back(SplitCase{"sum", PredicateKind::kContent, 0.5, 40, 39, seed++});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SplitTransparencyTest,
                         ::testing::ValuesIn(MakeSplitCases()));

}  // namespace
}  // namespace aurora
