// aurora_bench: the repository benchmark.
//
//   aurora_bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
//       Runs one workload in this process and prints `W metric value unit`
//       lines, then one JSON result line. --trace 1 reports the per-layer
//       metrics of a separate traced run and writes bench_trace_W.json.
//   aurora_bench [--seed N] [--seconds S] [--trace] [--quick] [--out FILE]
//       Runs every workload in its own child process (so peak RSS is per
//       workload), prints all lines, writes FILE, and exits non-zero when any
//       output differs from the oracle.
//   aurora_bench --calibrate N [--seed N] [--seconds S]
//       Runs the suite N times and prints each end-to-end metric's spread.
//   aurora_bench --smoke
//       The quick suite twice with seed 1 and once with seed 2: every
//       workload must be correct, same-seed runs must agree on input and
//       output digests and on fed3's simulated latency, and seed 2 must
//       change the inputs.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"
#include "workloads.h"

namespace aurora {
namespace perf {
namespace {

/// Builds timed for setup_s before each timed repetition. Spreading the
/// samples over the run keeps one busy spell on the host from moving them
/// all; one per repetition keeps the extra thread churn (threaded_fan8
/// starts its workers in every build) from moving peak RSS.
constexpr int kSetupsPerRep = 1;

/// The untimed oracle, one warm-up repetition, then timed repetitions until
/// `seconds` have passed (at least kMinReps).
Report RunEndToEnd(Workload& w) {
  const Options& opts = w.options();
  const WorkloadDef& def = w.def();
  Report rep;
  const Digests oracle = w.RunOracle();
  RepResult warm = w.RunRep(nullptr, 0);
  Account(def, oracle, warm, &rep);

  std::vector<double> tput, cpu, latency, setup;
  const int min_reps = opts.quick ? 1 : kMinReps;
  const int64_t start = NowNs();
  while (rep.reps < min_reps ||
         static_cast<double>(NowNs() - start) / 1e9 < opts.seconds) {
    for (int i = 0; i < kSetupsPerRep; ++i) setup.push_back(w.SetupOnly());
    RepResult r = w.RunRep(nullptr, static_cast<uint32_t>(++rep.reps));
    Account(def, oracle, r, &rep);
    const double wall_s = static_cast<double>(r.timed.wall_ns) / 1e9;
    const double cpu_s = static_cast<double>(r.timed.cpu_ns) / 1e9;
    tput.push_back(static_cast<double>(r.tuples) / wall_s);
    cpu.push_back(cpu_s / static_cast<double>(r.tuples) * 1e6);
    if (!r.simulated_latency || latency.empty()) {
      latency.insert(latency.end(), r.latency_ms.begin(), r.latency_ms.end());
    }
  }

  rep.Add("tuples_per_s", Median(tput), "tuples/s");
  rep.Add("latency_p50_ms", Quantile(latency, 0.50), "ms");
  rep.Add("cpu_s_per_mtuple", Median(cpu), "s");
  rep.Add("peak_rss_mb", PeakRssMiB(), "MiB");
  rep.Add("setup_s", Median(setup), "s");

  rep.notes.emplace_back("reps", std::to_string(rep.reps));
  rep.notes.emplace_back("tuples_per_rep",
                         std::to_string(warm.tuples));
  rep.notes.emplace_back("latency_samples", std::to_string(latency.size()));
  // Reported, not bounded: on a shared host the closed-loop tail moves
  // 10-30% between identical runs (README.md).
  rep.notes.emplace_back("latency_p99_ms", Num(Quantile(latency, 0.99)));
  rep.notes.emplace_back("setup_samples", std::to_string(setup.size()));
  std::string per_rep;
  for (double t : tput) per_rep += (per_rep.empty() ? "" : ",") + Num(t);
  rep.notes.emplace_back("rep_tuples_per_s", per_rep);
  rep.notes.emplace_back("workers", std::to_string(w.workers()));
  return rep;
}

// ---- Child processes (suite, calibrate, smoke) ------------------------------

struct ChildRun {
  int exit_code = -1;
  std::string workload;
  /// metric -> (value text, unit); digests and notes included.
  std::map<std::string, std::pair<std::string, std::string>> lines;
  std::string json;
};

ChildRun RunChild(const std::string& self, const std::string& workload,
                  const Options& opts) {
  std::vector<std::string> args = {self,
                                   "--workload",
                                   workload,
                                   "--seed",
                                   std::to_string(opts.seed),
                                   "--seconds",
                                   Num(opts.seconds),
                                   "--trace",
                                   opts.trace ? "1" : "0"};
  if (opts.quick) args.push_back("--quick");
  ChildRun run;
  run.workload = workload;
  int fds[2];
  if (pipe(fds) != 0) return run;
  std::fflush(stdout);
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return run;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(self.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty() && line[0] == '{') {
      run.json = line;
      continue;
    }
    std::istringstream fields(line);
    std::string w, metric, value, unit;
    if (fields >> w >> metric >> value >> unit && w == workload) {
      run.lines[metric] = {value, unit};
    }
  }
  return run;
}

bool ChildCorrect(const ChildRun& r) {
  return r.exit_code == 0 &&
         r.json.find("\"correct\": true") != std::string::npos &&
         r.json.find("\"failed\": 0,") != std::string::npos;
}

void PrintChild(const ChildRun& r) {
  for (const auto& [metric, vu] : r.lines) {
    std::printf("%s %s %s %s\n", r.workload.c_str(), metric.c_str(),
                vu.first.c_str(), vu.second.c_str());
  }
  std::printf("%s correct %s -\n", r.workload.c_str(),
              ChildCorrect(r) ? "true" : "false");
}

std::string HostJson(const Options& opts) {
  std::string j = "{\"nproc\": " + std::to_string(HostCpus());
  j += ", \"cpu\": \"" + CpuModel() + "\"";
  j += ", \"compiler\": \"" + Compiler() + "\"";
  j += ", \"build_type\": \"" + BuildType() + "\"";
  j += ", \"git_sha\": \"" + GitSha() + "\"";
  j += ", \"seed\": " + std::to_string(opts.seed);
  j += ", \"seconds\": " + Num(opts.seconds);
  j += ", \"quick\": " + std::string(opts.quick ? "true" : "false");
  j += ", \"trace\": " + std::string(opts.trace ? "true" : "false") + "}";
  return j;
}

std::vector<ChildRun> RunAll(const std::string& self, const Options& opts) {
  std::vector<ChildRun> runs;
  for (const std::string& w : WorkloadNames()) {
    runs.push_back(RunChild(self, w, opts));
    PrintChild(runs.back());
    std::fflush(stdout);
  }
  return runs;
}

int RunSuite(const std::string& self, const Options& opts,
             const std::string& out_path) {
  std::vector<ChildRun> runs = RunAll(self, opts);
  bool ok = true;
  std::ofstream out(out_path);
  out << "{\"host\": " << HostJson(opts) << ",\n \"workloads\": {";
  for (size_t i = 0; i < runs.size(); ++i) {
    const ChildRun& r = runs[i];
    ok = ok && ChildCorrect(r);
    out << (i ? ",\n  " : "\n  ") << "\"" << r.workload
        << "\": {\"exit_code\": " << r.exit_code << ", \"result\": "
        << (r.json.empty() ? "null" : r.json) << ", \"lines\": {";
    size_t k = 0;
    for (const auto& [metric, vu] : r.lines) {
      out << (k++ ? ", " : "") << "\"" << metric << "\": [\"" << vu.first
          << "\", \"" << vu.second << "\"]";
    }
    out << "}}";
  }
  out << "}}\n";
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
}

const std::vector<std::string>& EndToEndMetrics() {
  static const std::vector<std::string> m = {
      "tuples_per_s", "latency_p50_ms", "cpu_s_per_mtuple", "peak_rss_mb",
      "setup_s"};
  return m;
}

int RunCalibrate(const std::string& self, const Options& opts, int n) {
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  bool ok = true;
  for (int i = 0; i < n; ++i) {
    std::printf("# calibration run %d of %d\n", i + 1, n);
    for (const ChildRun& r : RunAll(self, opts)) {
      ok = ok && ChildCorrect(r);
      for (const std::string& m : EndToEndMetrics()) {
        auto it = r.lines.find(m);
        if (it != r.lines.end()) {
          values[r.workload][m].push_back(std::atof(it->second.first.c_str()));
        }
      }
    }
  }
  std::printf("# spread = (max - min) / median and (q3 - q1) / median over %d "
              "runs\n", n);
  for (const std::string& w : WorkloadNames()) {
    for (const std::string& m : EndToEndMetrics()) {
      const std::vector<double>& v = values[w][m];
      if (v.empty()) continue;
      double med = Median(v);
      double lo = *std::min_element(v.begin(), v.end());
      double hi = *std::max_element(v.begin(), v.end());
      double iqr = Quantile(v, 0.75) - Quantile(v, 0.25);
      std::printf("%s %s median %s range_spread %.4f iqr_spread %.4f\n",
                  w.c_str(), m.c_str(), Num(med).c_str(),
                  med != 0 ? (hi - lo) / med : 0.0,
                  med != 0 ? iqr / med : 0.0);
    }
  }
  return ok ? 0 : 1;
}

int RunSmoke(const std::string& self) {
  Options opts;
  opts.quick = true;
  opts.seconds = 0;
  opts.seed = 1;
  std::vector<ChildRun> a = RunAll(self, opts);
  std::vector<ChildRun> b = RunAll(self, opts);
  opts.seed = 2;
  std::vector<ChildRun> c = RunAll(self, opts);
  int bad = 0;
  auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "smoke: %s\n", what.c_str());
    ++bad;
  };
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string& w = a[i].workload;
    for (const ChildRun* r : {&a[i], &b[i], &c[i]}) {
      if (!ChildCorrect(*r)) fail(w + ": run not correct");
    }
    for (const char* key : {"digest.input", "digest.output"}) {
      if (a[i].lines[key] != b[i].lines[key]) {
        fail(w + ": same-seed runs differ in " + key);
      }
    }
    if (a[i].lines["digest.input"] == c[i].lines["digest.input"]) {
      fail(w + ": seed 2 did not change the inputs");
    }
    if (w == "fed3") {
      for (const char* key : {"latency_p50_ms", "note.latency_p99_ms"}) {
        if (a[i].lines[key] != b[i].lines[key]) {
          fail(w + ": same-seed simulated latency differs in " + key);
        }
      }
    }
  }
  std::printf("smoke: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: aurora_bench [--workload NAME] [--seed N] "
               "[--seconds S] [--trace [0|1]] [--quick] [--out FILE] "
               "[--calibrate N] [--smoke]\nworkloads:");
  for (const std::string& w : WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opts;
  std::string out_path = "bench_results.json";
  int calibrate = 0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--workload" && (v = value())) {
      opts.workload = v;
    } else if (arg == "--seed" && (v = value())) {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      opts.seconds = std::atof(v);
    } else if (arg == "--trace") {
      // Bare --trace, or --trace 0|1.
      opts.trace = true;
      if (i + 1 < argc && (std::string(argv[i + 1]) == "0" ||
                           std::string(argv[i + 1]) == "1")) {
        opts.trace = std::string(argv[++i]) == "1";
      }
    } else if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--out" && (v = value())) {
      out_path = v;
    } else if (arg == "--calibrate" && (v = value())) {
      calibrate = std::atoi(v);
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return Usage();
    }
  }
  const std::string build = BuildType();
  if (build != "Release" && build != "RelWithDebInfo") {
    std::fprintf(stderr,
                 "warning: aurora_bench built as '%s'; timings are only "
                 "comparable from Release or RelWithDebInfo builds\n",
                 build.c_str());
  }
  const std::string self = argv[0];
  if (smoke) return RunSmoke(self);
  if (calibrate > 0) return RunCalibrate(self, opts, calibrate);
  if (opts.workload.empty()) return RunSuite(self, opts, out_path);

  std::unique_ptr<Workload> w = MakeWorkload(opts.workload, opts);
  if (w == nullptr) return Usage();
  std::printf("# host %s\n", HostJson(opts).c_str());
  Report rep = opts.trace ? RunTraced(*w) : RunEndToEnd(*w);
  PrintReport(opts.workload, rep);
  return rep.correct ? 0 : 1;
}

}  // namespace
}  // namespace perf
}  // namespace aurora

int main(int argc, char** argv) { return aurora::perf::Main(argc, argv); }
