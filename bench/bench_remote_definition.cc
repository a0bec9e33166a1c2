// Experiment C8 (paper §4.4): remote definition for content customization.
//
// "A receiving participant interested only in knowing when a specific
// stock passes above a certain threshold would normally have to receive
// the complete stream... With remote definition, it can instead remotely
// define the filter, and receive directly the customized content."
//
// Reported shape: boundary-crossing bytes shrink by roughly the filter's
// selectivity when the filter is remotely defined at the producer.
#include "bench/bench_util.h"
#include "medusa/medusa_system.h"

namespace aurora {
namespace bench {
namespace {

void BM_RemoteDefinition(benchmark::State& state) {
  const bool remote_define = state.range(0) != 0;
  const int match_pct = static_cast<int>(state.range(1));
  for (auto _ : state) {
    Cluster cluster(2);
    MedusaSystem medusa(cluster.system.get());
    auto seller = medusa.AddParticipant("quotes-inc", {0}, 1000, 0.0001);
    auto buyer = medusa.AddParticipant("trader", {1}, 1000, 0.0001);
    AURORA_CHECK(seller.ok() && buyer.ok());
    (*seller)->AuthorizeRemoteDefiner("trader");
    (*seller)->OfferOperatorKind("filter");

    GlobalQuery q;
    AURORA_CHECK(q.AddInput("quotes", SchemaAB()).ok());
    AURORA_CHECK(q.AddBox("produce", FilterSpec(Predicate::True())).ok());
    // The buyer-side threshold filter, applied after the boundary.
    AURORA_CHECK(
        q.AddBox("threshold", FilterSpec(Predicate::Compare(
                                  "B", CompareOp::kLt,
                                  Value(static_cast<int64_t>(match_pct)))))
            .ok());
    AURORA_CHECK(q.AddOutput("alerts").ok());
    AURORA_CHECK(q.ConnectInputToBox("quotes", "produce").ok());
    AURORA_CHECK(q.ConnectBoxes("produce", 0, "threshold", 0).ok());
    AURORA_CHECK(q.ConnectBoxToOutput("threshold", 0, "alerts").ok());
    auto deployed =
        DeployQuery(cluster.system.get(), q, {{"produce", 0}, {"threshold", 1}});
    AURORA_CHECK(deployed.ok());
    uint64_t alerts = 0;
    AURORA_CHECK(cluster.system
                     ->CollectOutput(1, "alerts",
                                     [&](const Tuple&, SimTime) { ++alerts; })
                     .ok());

    if (remote_define) {
      std::string output_name;
      for (const auto& [name, binding] : cluster.system->node(0).bindings()) {
        output_name = name;
      }
      AURORA_CHECK(
          medusa
              .RemoteDefine("trader", "quotes-inc", 0, output_name,
                            FilterSpec(Predicate::Compare(
                                "B", CompareOp::kLt,
                                Value(static_cast<int64_t>(match_pct)))))
              .ok());
    }
    const int kTuples = 2000;
    InjectAtRate(&cluster, 0, "quotes", kTuples, 5000.0, /*mod=*/100);
    cluster.sim.RunUntil(SimTime::Seconds(2));

    state.counters["match_pct"] = match_pct;
    state.counters["alerts"] = static_cast<double>(alerts);
    state.counters["boundary_bytes"] =
        static_cast<double>(cluster.net->LinkBytesSent(0, 1));
    state.counters["bytes_per_quote"] =
        static_cast<double>(cluster.net->LinkBytesSent(0, 1)) / kTuples;
  }
}
BENCHMARK(BM_RemoteDefinition)
    ->ArgNames({"remote_def", "match_pct"})
    ->Args({0, 10})
    ->Args({1, 10})
    ->Args({0, 50})
    ->Args({1, 50})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace aurora

AURORA_BENCH_MAIN()
