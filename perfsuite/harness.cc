#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef AURORA_BENCH_BUILD_TYPE
#define AURORA_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef AURORA_BENCH_GIT_SHA
#define AURORA_BENCH_GIT_SHA "unknown"
#endif

namespace aurora {
namespace perf {

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMiB() {
  // VmHWM belongs to this program image; getrusage's ru_maxrss also carries
  // over the peak of whatever process exec'd it (a launcher script).
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {

constexpr uint64_t kFnvPrime = 0x100000001b3ull;

inline uint64_t FnvBytes(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t HashTuple(const Tuple& t, bool with_timestamp) {
  uint64_t h = 0xcbf29ce484222325ull;
  if (with_timestamp) {
    int64_t ts = t.timestamp().micros();
    h = FnvBytes(h, &ts, sizeof(ts));
  }
  for (const Value& v : t.values()) {
    uint8_t tag = static_cast<uint8_t>(v.type());
    h = FnvBytes(h, &tag, 1);
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kBool: {
        uint8_t b = v.AsBool() ? 1 : 0;
        h = FnvBytes(h, &b, 1);
        break;
      }
      case ValueType::kInt64: {
        int64_t i = v.AsInt();
        h = FnvBytes(h, &i, sizeof(i));
        break;
      }
      case ValueType::kDouble: {
        double d = v.AsDouble();
        h = FnvBytes(h, &d, sizeof(d));
        break;
      }
      case ValueType::kString: {
        const std::string& s = v.AsString();
        uint64_t n = s.size();
        h = FnvBytes(h, &n, sizeof(n));
        h = FnvBytes(h, s.data(), s.size());
        break;
      }
    }
  }
  return h;
}

Digests MakeDigests(const std::vector<OutputSpec>& outputs) {
  Digests d;
  for (const OutputSpec& o : outputs) d[o.name].values_only = o.values_only;
  return d;
}

uint64_t DiffAgainstOracle(const std::vector<OutputSpec>& outputs,
                           const Digests& oracle, const Digests& got,
                           std::vector<std::string>* problems) {
  uint64_t failed = 0;
  for (const OutputSpec& o : outputs) {
    const OutputDigest& want = oracle.at(o.name);
    const OutputDigest& have = got.at(o.name);
    if (have.count == 0) {
      ++failed;
      problems->push_back("output '" + o.name +
                          "' delivered no tuples (misconfigured workload)");
      continue;
    }
    if (have.count != want.count) {
      failed += have.count > want.count ? have.count - want.count
                                        : want.count - have.count;
      problems->push_back("output '" + o.name + "' delivered " +
                          std::to_string(have.count) + " tuples, oracle " +
                          std::to_string(want.count));
      continue;
    }
    bool same = o.compare == Compare::kExact ? have.chain == want.chain
                                             : have.sum == want.sum;
    if (!same) {
      ++failed;
      problems->push_back("output '" + o.name + "' content differs from the " +
                          (o.compare == Compare::kExact ? "oracle sequence"
                                                        : "oracle multiset"));
    }
  }
  return failed;
}

uint64_t CombinedDigest(const std::vector<OutputSpec>& outputs,
                        const Digests& d) {
  uint64_t h = 0x84222325cbf29ce4ull;
  for (const OutputSpec& o : outputs) {
    const OutputDigest& od = d.at(o.name);
    h = Mix64(h ^ od.count);
    h = Mix64(h ^ (o.compare == Compare::kExact ? od.chain : od.sum));
  }
  return h;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

void PrintReport(const std::string& workload, const Report& r) {
  for (const Metric& m : r.metrics) {
    std::printf("%s %s %s %s\n", workload.c_str(), m.name.c_str(),
                Num(m.value).c_str(), m.unit.c_str());
  }
  std::printf("%s error_rate %s ratio\n", workload.c_str(),
              Num(r.attempted == 0 ? 1.0
                                   : static_cast<double>(r.failed) /
                                         static_cast<double>(r.attempted))
                  .c_str());
  std::printf("%s digest.input %s hex\n", workload.c_str(),
              Hex(r.input_digest).c_str());
  std::printf("%s digest.output %s hex\n", workload.c_str(),
              Hex(r.output_digest).c_str());
  for (const auto& [key, value] : r.notes) {
    std::printf("%s note.%s %s -\n", workload.c_str(), key.c_str(),
                value.c_str());
  }
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "%s: FAILED: %s\n", workload.c_str(), p.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + JsonEscape(m.name) + "\": {\"value\": " + Num(m.value) +
            ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string BuildType() { return AURORA_BENCH_BUILD_TYPE; }
std::string GitSha() { return AURORA_BENCH_GIT_SHA; }

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                  &regs[i * 4 + 2], &regs[i * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace perf
}  // namespace aurora
