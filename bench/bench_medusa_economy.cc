// Experiment C7 (paper §3.2, §7.2): the agoric economy "anneals to a state
// where the economy is stable" and movement contracts implement
// inter-participant load balancing.
//
// Four participants, all query load initially concentrated at one. With
// movement contracts + oracles, boxes migrate to underloaded participants,
// the utilization spread collapses, hosts profit from processing fees, and
// currency is conserved. Without them the skew persists.
#include "bench/bench_util.h"
#include "medusa/medusa_system.h"

namespace aurora {
namespace bench {
namespace {

void BM_EconomyAnneals(benchmark::State& state) {
  const bool movement_contracts = state.range(0) != 0;
  for (auto _ : state) {
    Cluster cluster(4);
    MedusaSystem medusa(cluster.system.get());
    std::vector<Participant*> participants;
    for (int p = 0; p < 4; ++p) {
      auto added = medusa.AddParticipant("p" + std::to_string(p),
                                         {static_cast<NodeId>(p)}, 1000.0,
                                         /*cost_per_cpu_us=*/0.0001);
      AURORA_CHECK(added.ok());
      participants.push_back(*added);
    }

    GlobalQuery q;
    std::map<std::string, NodeId> placement;
    const int kQueries = 6;
    for (int c = 0; c < kQueries; ++c) {
      std::string idx = std::to_string(c);
      AURORA_CHECK(q.AddInput("in" + idx, SchemaAB()).ok());
      OperatorSpec heavy = FilterSpec(Predicate::True());
      heavy.SetParam("cost_us", Value(400.0));
      AURORA_CHECK(q.AddBox("f" + idx, heavy).ok());
      AURORA_CHECK(q.AddOutput("out" + idx).ok());
      AURORA_CHECK(q.ConnectInputToBox("in" + idx, "f" + idx).ok());
      AURORA_CHECK(q.ConnectBoxToOutput("f" + idx, 0, "out" + idx).ok());
      placement["f" + idx] = 0;  // participant p0 owns all the load
    }
    auto deployed = DeployQuery(cluster.system.get(), q, placement);
    AURORA_CHECK(deployed.ok());
    if (movement_contracts) {
      // p0 pre-agrees movement contracts with each peer for each query.
      for (int c = 0; c < kQueries; ++c) {
        NodeId peer = static_cast<NodeId>(1 + c % 3);
        AURORA_CHECK(
            medusa
                .EstablishMovementContract(
                    "p0", 0, "p" + std::to_string(peer), peer,
                    "f" + std::to_string(c), &*deployed,
                    /*price_a=*/0.1, /*price_b=*/0.1)
                .ok());
      }
    }
    medusa.Start();

    for (int c = 0; c < kQueries; ++c) {
      InjectAtRate(&cluster, 0, "in" + std::to_string(c), 3000, 1000.0,
                   /*mod=*/1000);
    }
    cluster.sim.RunUntil(SimTime::Seconds(4));

    double max_util = 0, min_util = 1, balance_sum = 0;
    double min_profit = 1e18;
    for (int p = 0; p < 4; ++p) {
      double u = cluster.system->node(p).utilization();
      max_util = std::max(max_util, u);
      min_util = std::min(min_util, u);
      balance_sum += participants[p]->balance();
      if (p > 0) min_profit = std::min(min_profit, participants[p]->profit());
    }
    state.counters["switches"] = medusa.total_switches();
    state.counters["util_spread"] = max_util - min_util;
    state.counters["owner_p0_profit"] = participants[0]->profit();
    state.counters["min_host_profit"] = min_profit;
    state.counters["currency_conserved"] =
        (std::abs(balance_sum - 4000.0) < 1e-6) ? 1.0 : 0.0;
    state.counters["money_moved"] = medusa.total_transferred();
  }
}
BENCHMARK(BM_EconomyAnneals)
    ->ArgName("movement_contracts")
    ->Arg(0)
    ->Arg(1)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace aurora

AURORA_BENCH_MAIN()
