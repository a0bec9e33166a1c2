#include "check/threaded_check.h"

#include <sstream>

#include "distributed/deployment.h"
#include "engine/threaded_engine.h"
#include "obs/metrics.h"

namespace aurora {

std::string ThreadedCheckReport::Summary() const {
  // The `workers=` line carries scheduling-dependent stats (activations
  // shrink under batching; steals vary run to run) — digest consumers that
  // compare across configurations filter it and diff the content-hashed
  // `output` lines.
  std::ostringstream os;
  os << "workers=" << workers << " injected=" << injected
     << " activations=" << activations << " steals=" << steals
     << " ring_full=" << ring_full_events << "\n";
  WriteOutputLines(os, "output", outputs);
  os << "violations=" << violations.size() << "\n";
  for (const std::string& v : violations) {
    os << "violation " << v << "\n";
  }
  return os.str();
}

ThreadedCheckReport RunThreadedScenario(const ScenarioSpec& spec,
                                        int workers, int batch_size) {
  ThreadedCheckReport report;
  report.workers = workers;
  if (Status st = spec.Validate(); !st.ok()) {
    report.violations.push_back("spec: " + st.ToString());
    return report;
  }
  MetricsRegistry::Global().Reset();

  auto query = spec.BuildQuery();
  if (!query.ok()) {
    report.violations.push_back("deploy: " + query.status().ToString());
    return report;
  }

  ThreadedEngineOptions topts;
  topts.workers = workers;
  topts.train_size = spec.train > 0 ? spec.train * 16 : 64;
  topts.batch_size = batch_size;
  ThreadedEngine engine(topts);
  if (Status st = DeployQueryLocal(&engine, *query); !st.ok()) {
    report.violations.push_back("deploy: " + st.ToString());
    return report;
  }
  for (const std::string& name : query->outputs()) {
    auto port = engine.FindOutput(name);
    if (!port.ok()) {
      report.violations.push_back("deploy: " + port.status().ToString());
      return report;
    }
    std::string out_name = name;
    // Called with the output's mutex held; rows land in emission order.
    engine.SetOutputCallback(*port, [&report, out_name](const Tuple& t,
                                                        SimTime) {
      report.outputs[out_name].push_back(CanonicalRow(t));
    });
    report.outputs[name];
    report.oracle_outputs[name];
  }

  if (Status st = engine.Start(); !st.ok()) {
    report.violations.push_back("start: " + st.ToString());
    return report;
  }
  std::vector<Tuple> trace = spec.GenerateTrace();
  for (const Tuple& t : trace) {
    Status push = engine.PushInputByName("src", t, t.timestamp());
    if (!push.ok()) {
      report.violations.push_back("push: " + push.ToString());
      (void)engine.Stop();
      return report;
    }
    ++report.injected;
  }
  engine.WaitQuiescent();
  report.activations = engine.activations();
  report.steals = engine.steals();
  report.ring_full_events = engine.ring_full_events();
  if (Status st = engine.Stop(); !st.ok()) {
    report.violations.push_back("operator: " + st.ToString());
    return report;
  }

  // Single-threaded oracle over the identical trace.
  OracleRun oracle = RunOracle(*query, trace);
  for (auto& [name, rows] : oracle.rows) {
    report.oracle_outputs[name] = std::move(rows);
  }
  if (!oracle.status.ok()) {
    report.violations.push_back("oracle " + oracle.failed_step + ": " +
                                oracle.status.ToString());
    return report;
  }

  // Exact diff: scenario chains are linear, so the determinism contract
  // promises byte-identical row sequences per output.
  for (const auto& [name, oracle_rows] : report.oracle_outputs) {
    std::string diff =
        ExactDiff(name, "threaded", report.outputs[name], oracle_rows);
    if (!diff.empty()) report.violations.push_back("oracle_diff: " + diff);
  }
  return report;
}

}  // namespace aurora
