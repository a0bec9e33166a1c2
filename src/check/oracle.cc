#include "check/oracle.h"

#include <cstdio>
#include <sstream>

#include "engine/aurora_engine.h"

namespace aurora {

namespace {

/// FNV-1a over all rows.
uint64_t HashRows(const std::vector<std::string>& rows) {
  uint64_t h = 1469598103934665603ull;
  for (const std::string& row : rows) {
    for (char c : row) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ull;
    }
    h ^= '\n';
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::string CanonicalRow(const Tuple& t) {
  std::string row;
  for (size_t i = 0; i < t.num_values(); ++i) {
    if (i > 0) row += "|";
    row += t.value(i).ToString();
  }
  return row;
}

void WriteOutputLines(std::ostream& os, const char* label,
                      const OutputRows& outputs) {
  for (const auto& [name, rows] : outputs) {
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(HashRows(rows)));
    os << label << " " << name << " rows=" << rows.size() << " hash=" << hex
       << "\n";
  }
}

std::string ExactDiff(const std::string& name, const char* label,
                      const std::vector<std::string>& got,
                      const std::vector<std::string>& oracle) {
  if (got == oracle) return "";
  size_t at = 0;
  while (at < got.size() && at < oracle.size() && got[at] == oracle[at]) {
    ++at;
  }
  std::ostringstream detail;
  detail << "output '" << name << "': " << label << " " << got.size()
         << " rows vs oracle " << oracle.size() << ", first divergence at row "
         << at;
  if (at < got.size()) detail << " (got '" << got[at] << "')";
  if (at < oracle.size()) detail << " (oracle '" << oracle[at] << "')";
  return detail.str();
}

OracleRun RunOracle(const GlobalQuery& query, const std::vector<Tuple>& trace) {
  OracleRun run;
  AuroraEngine oracle;
  if (Status st = DeployQueryLocal(&oracle, query); !st.ok()) {
    return {{}, st, "deploy"};
  }
  for (const std::string& name : query.outputs()) {
    auto port = oracle.FindOutput(name);
    if (!port.ok()) return {std::move(run.rows), port.status(), "deploy"};
    std::vector<std::string>* rows = &run.rows[name];
    oracle.SetOutputCallback(*port, [rows](const Tuple& t, SimTime) {
      rows->push_back(CanonicalRow(t));
    });
  }
  SimTime now{};
  for (const Tuple& t : trace) {
    now = t.timestamp();
    if (Status push = oracle.PushInputByName("src", t, now); !push.ok()) {
      return {std::move(run.rows), push, "push"};
    }
  }
  if (Status st = oracle.RunUntilQuiescent(now); !st.ok()) {
    return {std::move(run.rows), st, "run"};
  }
  return run;
}

}  // namespace aurora
