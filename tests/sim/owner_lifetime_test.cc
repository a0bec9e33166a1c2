// Destroy-while-pending: every component whose callbacks point at itself
// must let those callbacks fire harmlessly after it is destroyed. Each case
// builds its owner on the heap, runs until one of its callbacks is in
// flight (a kernel event, an overlay delivery or a stored observer),
// releases the owner with reset() and runs on. Without the owner's Guard
// the orphaned callback reads freed memory, which the ASan build reports.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>

#include "check/invariants.h"
#include "distributed/catalog_binding.h"
#include "distributed/load_daemon.h"
#include "fault/injector.h"
#include "ha/process_pair.h"
#include "ha/upstream_backup.h"
#include "medusa/medusa_system.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing_util::SchemaAB;

/// Three nodes on a full mesh running in -> f -> m -> t -> out, one box per
/// node. Idle, the only pending events are the three node ticks.
struct Rig {
  Rig() {
    system = std::make_unique<AuroraStarSystem>(&sim, &net, StarOptions{});
    for (int i = 0; i < 3; ++i) {
      n[i] = *system->AddNode(NodeOptions{"n" + std::to_string(i), 1.0, {}});
    }
    net.FullMesh(LinkOptions{});
    EXPECT_OK(query.AddInput("in", SchemaAB()));
    EXPECT_OK(query.AddBox("f", FilterSpec(Predicate::True())));
    EXPECT_OK(query.AddBox("m", MapSpec({{"A", Expr::FieldRef("A")},
                                         {"B", Expr::FieldRef("B")}})));
    EXPECT_OK(query.AddBox("t", TumbleSpec("cnt", "B", {"A"})));
    EXPECT_OK(query.AddOutput("out"));
    EXPECT_OK(query.ConnectInputToBox("in", "f"));
    EXPECT_OK(query.ConnectBoxes("f", 0, "m", 0));
    EXPECT_OK(query.ConnectBoxes("m", 0, "t", 0));
    EXPECT_OK(query.ConnectBoxToOutput("t", 0, "out"));
    auto placed = DeployQuery(system.get(), query,
                              {{"f", n[0]}, {"m", n[1]}, {"t", n[2]}});
    EXPECT_TRUE(placed.ok()) << placed.status().ToString();
    deployed = *std::move(placed);
  }

  void Inject(int count) {
    for (int i = 0; i < count; ++i) {
      EXPECT_OK(system->node(n[0]).Inject(
          "in", MakeTuple(SchemaAB(), {Value(i), Value(i)})));
    }
  }

  size_t RetainedTuples() {
    size_t total = 0;
    for (NodeId id : n) {
      for (const auto& [name, b] : system->node(id).bindings()) {
        total += b.output_log.size();
      }
    }
    return total;
  }

  Simulation sim;
  OverlayNetwork net{&sim};
  std::unique_ptr<AuroraStarSystem> system;
  GlobalQuery query;
  DeployedQuery deployed;
  NodeId n[3] = {-1, -1, -1};
  /// Outlives the owner in cases whose owner observes an HA manager.
  std::unique_ptr<HaManager> ha;
  /// Case-specific reading taken when the owner is released.
  size_t mark = 0;
};

struct OwnerCase {
  const char* name;
  /// Builds the owner, runs until one of its callbacks is in flight and
  /// returns it.
  std::function<std::shared_ptr<void>(Rig&)> arm;
  /// Checks the system once the owner is gone and the run went on.
  std::function<void(Rig&)> check;
};

// Prints a case by name, so test names do not carry pointer bytes.
void PrintTo(const OwnerCase& c, std::ostream* os) { *os << c.name; }

void OnlyNodeTicksRemain(Rig& rig) { EXPECT_EQ(rig.sim.pending(), 3u); }

const OwnerCase kCases[] = {
    {"InjectorPlanEvent",
     [](Rig& rig) {
       FaultPlan plan;
       plan.CrashAt(SimTime::Millis(50), rig.n[1]);
       auto injector = std::make_shared<Injector>(rig.system.get(), plan);
       EXPECT_OK(injector->Arm());
       return injector;
     },
     [](Rig& rig) {
       EXPECT_TRUE(rig.system->node(rig.n[1]).up());  // the crash never ran
       OnlyNodeTicksRemain(rig);
     }},
    {"InjectorHaObservers",
     [](Rig& rig) {
       rig.ha = std::make_unique<HaManager>(rig.system.get(), HaOptions{});
       EXPECT_OK(rig.ha->Protect(&rig.deployed, &rig.query));
       auto injector = std::make_shared<Injector>(
           rig.system.get(), FaultPlan{},
           InjectorOptions{.seed = 1, .ha = rig.ha.get()});
       EXPECT_OK(injector->Arm());
       rig.ha->CrashNode(rig.n[1]);  // detection and recovery come later
       return injector;
     },
     [](Rig& rig) {
       EXPECT_EQ(rig.ha->failures_detected(), 1);
       EXPECT_EQ(rig.ha->recoveries(), 1);
     }},
    {"LoadShareDaemon",
     [](Rig& rig) {
       auto daemon = std::make_shared<LoadShareDaemon>(
           rig.system.get(), &rig.deployed, LoadDaemonOptions{});
       daemon->Start();
       return daemon;
     },
     OnlyNodeTicksRemain},
    {"ProcessPairModel",
     [](Rig& rig) {
       auto pair = std::make_shared<ProcessPairModel>(rig.system.get(),
                                                      rig.n[0], rig.n[1]);
       pair->Start();
       return pair;
     },
     OnlyNodeTicksRemain},
    {"MedusaSystem",
     [](Rig& rig) {
       auto medusa = std::make_shared<MedusaSystem>(rig.system.get());
       medusa->Start();
       return medusa;
     },
     OnlyNodeTicksRemain},
    // The first checkpoint and the second heartbeat round both run at
    // 100 ms; their truncation reports and heartbeats are then on the wire.
    {"HaManager",
     [](Rig& rig) {
       auto ha = std::make_shared<HaManager>(rig.system.get(), HaOptions{});
       EXPECT_OK(ha->Protect(&rig.deployed, &rig.query));
       rig.Inject(10);
       rig.sim.RunUntil(SimTime::Millis(100));
       EXPECT_GT(ha->checkpoint_messages(), 0u);
       EXPECT_EQ(ha->truncated_tuples(), 0u);
       EXPECT_GT(ha->heartbeat_messages(), 0u);
       rig.mark = rig.RetainedTuples();
       EXPECT_GT(rig.mark, 0u);
       return ha;
     },
     [](Rig& rig) {
       EXPECT_EQ(rig.RetainedTuples(), rig.mark);  // no late truncation
       OnlyNodeTicksRemain(rig);
     }},
    // Heartbeats leave at 50 ms; the tuple injected then reaches n1's
    // delivery probe after the monitor is gone.
    {"InvariantMonitor",
     [](Rig& rig) {
       static const ScenarioSpec kSpec;
       auto monitor = std::make_shared<InvariantMonitor>(
           &rig.sim, &rig.net, rig.system.get(), kSpec);
       monitor->Install();
       rig.sim.RunUntil(SimTime::Millis(50));
       rig.Inject(1);
       return monitor;
     },
     OnlyNodeTicksRemain},
    // A source tuple forwarded from n2 to its home n0; the whole system is
    // destroyed while the tuple is on the wire.
    {"CatalogBindingRoutedTuple",
     [](Rig& rig) {
       DhtCatalog catalog;
       for (NodeId id : rig.n) {
         EXPECT_OK(catalog.AddNode(id, "n" + std::to_string(id)));
       }
       CatalogBinding binding(rig.system.get(), &catalog, "acme");
       EXPECT_OK(binding.RegisterDeployment("q", rig.query, rig.deployed));
       EXPECT_OK(binding.RouteSourceTuple(
           rig.n[2], "in", MakeTuple(SchemaAB(), {Value(1), Value(1)})));
       EXPECT_EQ(binding.forwards(), 1u);
       return std::shared_ptr<void>(std::move(rig.system));
     },
     [](Rig& rig) { EXPECT_EQ(rig.sim.pending(), 0u); }},
};

class OwnerLifetimeTest : public ::testing::TestWithParam<OwnerCase> {};

TEST_P(OwnerLifetimeTest, CallbacksInFlightOutliveTheirOwner) {
  Rig rig;
  std::shared_ptr<void> owner = GetParam().arm(rig);
  const uint64_t executed = rig.sim.events_executed();
  owner.reset();
  rig.sim.RunFor(SimDuration::Seconds(2));
  EXPECT_GT(rig.sim.events_executed(), executed);
  GetParam().check(rig);
}

INSTANTIATE_TEST_SUITE_P(
    Owners, OwnerLifetimeTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<OwnerCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace aurora
