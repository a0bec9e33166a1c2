#include "check/runner.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "fault/injector.h"
#include "obs/metrics.h"

namespace aurora {

namespace {

/// How long past the trace end a healthy run may take to quiesce, and the
/// idle-detection granularity while draining.
constexpr SimDuration kDrainTimeout = SimDuration::Seconds(30);
constexpr SimDuration kDrainSlice = SimDuration::Millis(100);

/// Is `sub` a subsequence of `full` (order-preserving containment)?
bool IsSubsequence(const std::vector<std::string>& sub,
                   const std::vector<std::string>& full) {
  size_t j = 0;
  for (const std::string& row : full) {
    if (j < sub.size() && sub[j] == row) ++j;
  }
  return j == sub.size();
}

void DiffOutputs(const ScenarioSpec& spec, RunReport* report) {
  if (spec.Lossy() && spec.Stateful()) {
    // Losing input to a windowed/ordering operator shifts every later
    // window; the outputs legitimately diverge. Documented nondeterminism.
    report->diff_skipped = true;
    return;
  }
  for (const auto& [name, oracle_rows] : report->oracle_outputs) {
    const std::vector<std::string>& got = report->outputs[name];
    if (!spec.Lossy()) {
      std::string diff = ExactDiff(name, "distributed", got, oracle_rows);
      if (!diff.empty()) {
        report->violations.push_back(
            Violation{SimTime{}, "oracle_diff", std::move(diff)});
      }
    } else if (!IsSubsequence(got, oracle_rows)) {
      report->violations.push_back(Violation{
          SimTime{}, "oracle_diff",
          "output '" + name + "': distributed rows are not an in-order "
          "subset of the oracle's under a lossy fault plan"});
    }
  }
}

}  // namespace

std::string RunReport::Summary() const {
  std::ostringstream os;
  os << "injected=" << injected << " accepted=" << accepted
     << " rejected=" << rejected << " delivered=" << delivered
     << " duplicates=" << duplicates << " drained=" << (drained ? "yes" : "no")
     << (diff_skipped ? " diff=skipped" : "") << "\n";
  WriteOutputLines(os, "output", outputs);
  WriteOutputLines(os, "oracle", oracle_outputs);
  os << "violations=" << violations.size() << "\n";
  for (const Violation& v : violations) {
    os << "violation " << v.invariant << " at " << v.at.micros()
       << "us: " << v.detail << "\n";
  }
  return os.str();
}

RunReport RunScenario(const ScenarioSpec& spec, const RunOptions& opts) {
  RunReport report;
  if (Status st = spec.Validate(); !st.ok()) {
    report.violations.push_back(
        Violation{SimTime{}, "spec", st.ToString()});
    return report;
  }

  // Scenario runs must not inherit counter values from earlier runs in the
  // same process: obs reconciliation compares absolute totals.
  MetricsRegistry::Global().Reset();

  Simulation sim;
  OverlayNetwork net(&sim);
  StarOptions sopts;
  sopts.transport.credit_window_bytes = spec.flow_window;
  sopts.transport.train_size = spec.train;
  sopts.transport.stream_dedup = spec.dedup;
  sopts.engine.batch_size = opts.batch_size;
  AuroraStarSystem system(&sim, &net, sopts);
  for (int i = 0; i < spec.nodes; ++i) {
    NodeOptions nopts;
    nopts.name = "n" + std::to_string(i);
    auto added = system.AddNode(nopts);
    if (!added.ok()) {
      report.violations.push_back(
          Violation{SimTime{}, "deploy", added.status().ToString()});
      return report;
    }
  }
  net.FullMesh(LinkOptions{});

  auto query = spec.BuildQuery();
  if (!query.ok()) {
    report.violations.push_back(
        Violation{SimTime{}, "deploy", query.status().ToString()});
    return report;
  }
  auto deployed = DeployQuery(&system, *query, spec.Placement());
  if (!deployed.ok()) {
    report.violations.push_back(
        Violation{SimTime{}, "deploy", deployed.status().ToString()});
    return report;
  }
  for (const auto& [name, where] : deployed->outputs) {
    std::string out_name = name;
    Status st = system.CollectOutput(
        where.first, where.second,
        [&report, out_name](const Tuple& t, SimTime) {
          report.outputs[out_name].push_back(CanonicalRow(t));
        });
    if (!st.ok()) {
      report.violations.push_back(
          Violation{SimTime{}, "deploy", st.ToString()});
      return report;
    }
  }

  InvariantMonitor monitor(&sim, &net, &system, spec);
  monitor.Install();

  Injector injector(&system, spec.faults, InjectorOptions{spec.seed, nullptr});
  if (Status st = injector.Arm(); !st.ok()) {
    report.violations.push_back(Violation{SimTime{}, "deploy", st.ToString()});
    return report;
  }

  std::vector<Tuple> trace = spec.GenerateTrace();
  std::vector<char> accepted(trace.size(), 0);
  NodeId home = deployed->inputs.at("src").first;
  for (size_t i = 0; i < trace.size(); ++i) {
    sim.ScheduleAt(trace[i].timestamp(), [&, i] {
      ++report.injected;
      Status st = system.node(home).Inject("src", trace[i]);
      if (st.ok()) {
        accepted[i] = 1;
        ++report.accepted;
      } else {
        ++report.rejected;
      }
    });
  }

  SimTime end = spec.TraceEnd();
  for (const FaultEvent& ev : spec.faults.events()) {
    if (ev.at > end) end = ev.at;
  }
  end = end + SimDuration::Millis(500);
  sim.RunUntil(end);

  if (spec.faults.EndsHealthy()) {
    int stable = 0;
    report.drained = sim.RunUntilIdle(
        end + kDrainTimeout, kDrainSlice, [&] {
          if (!monitor.Quiescent() ||
              (system.num_nodes() > 1 && !monitor.Converged())) {
            stable = 0;
            return false;
          }
          return ++stable >= 2;
        });
  } else {
    // Plans that never recover (hand-written or mid-shrink) get a
    // best-effort settle; end-state conservation is not checked.
    sim.RunFor(SimDuration::Seconds(5));
    report.drained = false;
  }

  monitor.Finalize(report.drained);
  report.violations.insert(report.violations.end(),
                           monitor.violations().begin(),
                           monitor.violations().end());
  report.delivered = monitor.delivered_tuples();
  report.duplicates = monitor.duplicate_tuples();

  // The oracle is always scalar: with batch_size > 1 on the federation side
  // this diff doubles as the batched-vs-scalar equivalence gate.
  std::vector<Tuple> accepted_trace;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (accepted[i]) accepted_trace.push_back(trace[i]);
  }
  OracleRun oracle = RunOracle(*query, accepted_trace);
  // Both maps list every output, even one that emitted nothing.
  for (const auto& [name, rows] : oracle.rows) report.outputs[name];
  report.oracle_outputs = std::move(oracle.rows);
  if (!oracle.status.ok()) {
    const std::string label = oracle.failed_step == "deploy"
                                  ? "oracle: "
                                  : "oracle " + oracle.failed_step + ": ";
    report.violations.push_back(Violation{
        SimTime{}, "deploy", label + oracle.status.ToString()});
    return report;
  }
  DiffOutputs(spec, &report);
  return report;
}

}  // namespace aurora
