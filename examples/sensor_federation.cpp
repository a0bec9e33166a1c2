// Federated operation with Medusa (paper §3.2, §4.4, §7.2): a sensor-
// network operator ("sensornet") sells a temperature stream to an
// analytics firm ("weatherco") under a per-message content contract.
// Shipping everything is expensive, so weatherco uses *remote definition*
// to install its threshold filter inside sensornet's domain and pays for
// the (much smaller) customized stream instead.
#include <cstdio>

#include "distributed/deployment.h"
#include "medusa/medusa_system.h"

using namespace aurora;

int main() {
  Simulation sim;
  OverlayNetwork net(&sim);
  AuroraStarSystem star(&sim, &net, StarOptions{});
  NodeId sensor_proxy = *star.AddNode(NodeOptions{"sensor-proxy", 1.0, {}});
  NodeId analytics = *star.AddNode(NodeOptions{"analytics", 1.0, {}});
  net.FullMesh(LinkOptions{});

  MedusaSystem medusa(&star);
  Participant* sensornet =
      *medusa.AddParticipant("sensornet", {sensor_proxy}, 1000.0, 0.0001);
  Participant* weatherco =
      *medusa.AddParticipant("weatherco", {analytics}, 1000.0, 0.0001);
  sensornet->OfferOperatorKind("filter");
  sensornet->AuthorizeRemoteDefiner("weatherco");

  SchemaPtr readings = Schema::Make({Field{"sensor", ValueType::kInt64},
                                     Field{"temp_c", ValueType::kInt64}});
  GlobalQuery q;
  AURORA_CHECK(q.AddInput("readings", readings).ok());
  AURORA_CHECK(q.AddBox("export", FilterSpec(Predicate::True())).ok());
  AURORA_CHECK(q.AddBox("consume", FilterSpec(Predicate::True())).ok());
  AURORA_CHECK(q.AddOutput("heat_alerts").ok());
  AURORA_CHECK(q.ConnectInputToBox("readings", "export").ok());
  AURORA_CHECK(q.ConnectBoxes("export", 0, "consume", 0).ok());
  AURORA_CHECK(q.ConnectBoxToOutput("consume", 0, "heat_alerts").ok());
  auto deployed = DeployQuery(
      &star, q, {{"export", sensor_proxy}, {"consume", analytics}});
  AURORA_CHECK(deployed.ok());
  std::string boundary_stream = deployed->remote_streams.at("export->consume");

  uint64_t alerts = 0;
  AURORA_CHECK(star.CollectOutput(analytics, "heat_alerts",
                                  [&](const Tuple&, SimTime) { ++alerts; })
                   .ok());

  // Content contract: weatherco pays 0.02 "dollars" per message, 95%
  // availability, for an hour of simulated time.
  int contract = *medusa.EstablishContentContract(
      "sensornet", "weatherco", boundary_stream, /*price=*/0.02,
      SimDuration::Seconds(3600), /*availability=*/0.95);
  medusa.Start();

  Rng rng(7);
  auto run_phase = [&](const char* label, double from_s, double to_s) {
    for (double t = from_s * 1000; t < to_s * 1000; t += 2.0) {
      Tuple reading = MakeTuple(
          readings, {Value(rng.UniformInt(0, 49)),
                     Value(rng.UniformInt(-10, 39))});  // 10 of 50 values >=30
      sim.ScheduleAt(SimTime::Millis(static_cast<int64_t>(t)),
                     [&star, sensor_proxy, reading]() {
                       (void)star.node(sensor_proxy).Inject("readings",
                                                            reading);
                     });
    }
    sim.RunUntil(SimTime::Seconds(to_s));
    const ContentContract& c = *(*medusa.GetContentContract(contract));
    std::printf(
        "%-22s boundary=%8llu bytes  paid=$%-7.2f  balances: sensornet=$%.2f "
        "weatherco=$%.2f\n",
        label,
        static_cast<unsigned long long>(
            net.LinkBytesSent(sensor_proxy, analytics)),
        c.total_paid, sensornet->balance(), weatherco->balance());
  };

  std::printf("phase 1: raw feed crosses the boundary, weatherco filters "
              "locally\n");
  run_phase("after phase 1:", 0.0, 2.0);

  // Remote definition: install (temp_c >= 30) inside sensornet's domain.
  std::string export_output;
  for (const auto& [name, binding] : star.node(sensor_proxy).bindings()) {
    export_output = name;
  }
  AURORA_CHECK(medusa
                   .RemoteDefine("weatherco", "sensornet", sensor_proxy,
                                 export_output,
                                 FilterSpec(Predicate::Compare(
                                     "temp_c", CompareOp::kGe,
                                     Value(static_cast<int64_t>(30)))))
                   .ok());
  std::printf("\nphase 2: weatherco remotely defines Filter(temp_c >= 30) "
              "at the sensor proxy\n");
  uint64_t bytes_before = net.LinkBytesSent(sensor_proxy, analytics);
  run_phase("after phase 2:", 2.0, 4.0);
  uint64_t bytes_after = net.LinkBytesSent(sensor_proxy, analytics);

  std::printf(
      "\nphase-2 boundary traffic: %llu bytes (vs %llu in phase 1) — the "
      "customized stream is ~%.0f%% of the raw feed\n",
      static_cast<unsigned long long>(bytes_after - bytes_before),
      static_cast<unsigned long long>(bytes_before),
      100.0 * static_cast<double>(bytes_after - bytes_before) /
          static_cast<double>(bytes_before));
  std::printf("%llu heat alerts delivered in total\n",
              static_cast<unsigned long long>(alerts));
  return 0;
}
