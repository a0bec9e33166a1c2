// aurora_inspect: offline bottleneck analysis over the observability
// artifacts the benches, simcheck, and the flight recorder write.
//
//   aurora_inspect <dump.json>             summary: stage attribution per
//                                          output, top bottleneck boxes, and
//                                          (for flight dumps) trace timelines
//   aurora_inspect --storage <dump.json>   tiered-store view: tier occupancy
//                                          per store, AOF/compaction/read
//                                          counters, read amplification, and
//                                          per-arc spill reconciliation
//   aurora_inspect --check <dump.json>     validate the dump: snapshot schema,
//                                          stage/e2e conservation, spill
//                                          conservation (unspill <= spill,
//                                          outstanding <= ever-spilled), and
//                                          batch-emission accounting (chunk
//                                          sizes reconcile with the per-arc
//                                          enqueue/deliver/hold counters);
//                                          nonzero exit on failure (CI)
//   aurora_inspect --diff <a.json> <b.json> metric deltas between two dumps
//   aurora_inspect --top N / --traces N    table / timeline row limits
//
// A "dump" is either a bare MetricsRegistry::SnapshotJson() object
// (obs_*.json) or any document embedding one under "metrics" (flight dumps),
// in which case the "spans" array also yields per-trace timelines.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/attribution.h"
#include "obs/json.h"
#include "obs/snapshot_diff.h"
#include "obs/trace.h"

namespace aurora {
namespace {

struct InspectOptions {
  int top_boxes = 10;
  int max_traces = 5;
  bool check = false;
  bool storage = false;
};

// ---------------------------------------------------------------------------
// Stage attribution table
// ---------------------------------------------------------------------------

/// One output's attribution series pulled out of the snapshot.
struct OutputAttribution {
  std::string output;
  MetricsSnapshot::HistogramStats e2e;
  MetricsSnapshot::HistogramStats stage[kNumStages];
  uint64_t dominant[kNumStages] = {};
};

std::vector<OutputAttribution> CollectAttribution(
    const MetricsSnapshot& snap) {
  const std::string prefix = "latency.attr.";
  const std::string e2e_suffix = ".e2e_us";
  std::vector<OutputAttribution> outs;
  for (const auto& [name, stats] : snap.histograms) {
    if (name.rfind(prefix, 0) != 0) continue;
    if (name.size() <= prefix.size() + e2e_suffix.size()) continue;
    if (name.compare(name.size() - e2e_suffix.size(), e2e_suffix.size(),
                     e2e_suffix) != 0) {
      continue;
    }
    OutputAttribution oa;
    oa.output = name.substr(prefix.size(),
                            name.size() - prefix.size() - e2e_suffix.size());
    oa.e2e = stats;
    const std::string base = prefix + oa.output + ".";
    for (int i = 0; i < kNumStages; ++i) {
      const char* stage = StageName(static_cast<Stage>(i));
      auto it = snap.histograms.find(base + stage + "_us");
      if (it != snap.histograms.end()) oa.stage[i] = it->second;
      oa.dominant[i] = snap.CounterOr(base + "dominant." + stage);
    }
    outs.push_back(std::move(oa));
  }
  return outs;
}

void PrintAttribution(const std::vector<OutputAttribution>& outs) {
  if (outs.empty()) {
    std::printf(
        "No stage attribution recorded (latency.attr.* series absent; run "
        "with AURORA_TRACE=1).\n");
    return;
  }
  std::printf("Stage attribution per output (simulated us):\n");
  for (const OutputAttribution& oa : outs) {
    std::printf("  out:%s  deliveries=%llu  e2e mean=%.1fus p95=%.1fus\n",
                oa.output.c_str(),
                static_cast<unsigned long long>(oa.e2e.count), oa.e2e.mean,
                oa.e2e.p95);
    double total_sum = std::max(1e-12, oa.e2e.sum);
    int dom = 0;
    for (int i = 1; i < kNumStages; ++i) {
      if (oa.stage[i].sum > oa.stage[dom].sum) dom = i;
    }
    for (int i = 0; i < kNumStages; ++i) {
      double share = 100.0 * oa.stage[i].sum / total_sum;
      std::printf("    %-10s mean=%8.1fus  share=%5.1f%%  dominant_in=%llu%s\n",
                  StageName(static_cast<Stage>(i)), oa.stage[i].mean, share,
                  static_cast<unsigned long long>(oa.dominant[i]),
                  i == dom ? "  <- dominant" : "");
    }
  }
}

/// Conservation: per output, each stage histogram has exactly one sample per
/// delivery, and the stage sums add up to the e2e sum (exactly in the
/// engine; within float-print tolerance after a JSON round trip).
bool CheckAttribution(const std::vector<OutputAttribution>& outs) {
  bool ok = true;
  for (const OutputAttribution& oa : outs) {
    double stage_sum = 0.0;
    for (int i = 0; i < kNumStages; ++i) {
      stage_sum += oa.stage[i].sum;
      if (oa.stage[i].count != oa.e2e.count) {
        std::printf(
            "CHECK FAIL out:%s stage %s has %llu samples but e2e has %llu\n",
            oa.output.c_str(), StageName(static_cast<Stage>(i)),
            static_cast<unsigned long long>(oa.stage[i].count),
            static_cast<unsigned long long>(oa.e2e.count));
        ok = false;
      }
    }
    // %.6g snapshot serialization keeps ~6 significant digits per field.
    double tol = 1e-4 * std::max(1.0, oa.e2e.sum);
    if (std::abs(stage_sum - oa.e2e.sum) > tol) {
      std::printf(
          "CHECK FAIL out:%s stage sums %.6g != e2e sum %.6g (tol %.3g)\n",
          oa.output.c_str(), stage_sum, oa.e2e.sum, tol);
      ok = false;
    }
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Bottleneck boxes
// ---------------------------------------------------------------------------

struct BoxProfile {
  std::string box;  // "n<node>.<id>:<kind>"
  uint64_t self_us = 0;
  uint64_t activations = 0;
  uint64_t tuples = 0;
};

std::vector<BoxProfile> CollectBoxes(const MetricsSnapshot& snap) {
  const std::string prefix = "engine.box.";
  const std::string suffix = ".self_us";
  std::vector<BoxProfile> boxes;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind(prefix, 0) != 0 || name.size() <= prefix.size() + suffix.size()) {
      continue;
    }
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    BoxProfile bp;
    bp.box = name.substr(prefix.size(),
                         name.size() - prefix.size() - suffix.size());
    bp.self_us = value;
    const std::string base = prefix + bp.box + ".";
    bp.activations = snap.CounterOr(base + "activations");
    bp.tuples = snap.CounterOr(base + "tuples");
    boxes.push_back(std::move(bp));
  }
  std::sort(boxes.begin(), boxes.end(), [](const BoxProfile& a,
                                           const BoxProfile& b) {
    if (a.self_us != b.self_us) return a.self_us > b.self_us;
    return a.box < b.box;
  });
  return boxes;
}

void PrintBoxes(const std::vector<BoxProfile>& boxes, int top) {
  if (boxes.empty()) {
    std::printf("\nNo per-box profiles recorded (engine.box.* absent).\n");
    return;
  }
  std::printf("\nTop bottleneck boxes by self time:\n");
  std::printf("  %-28s %12s %12s %12s %10s\n", "box", "self_us", "activations",
              "tuples", "us/tuple");
  size_t n = std::min(boxes.size(), static_cast<size_t>(top));
  for (size_t i = 0; i < n; ++i) {
    const BoxProfile& b = boxes[i];
    double per_tuple = b.tuples == 0
                           ? 0.0
                           : static_cast<double>(b.self_us) /
                                 static_cast<double>(b.tuples);
    std::printf("  %-28s %12llu %12llu %12llu %10.2f\n", b.box.c_str(),
                static_cast<unsigned long long>(b.self_us),
                static_cast<unsigned long long>(b.activations),
                static_cast<unsigned long long>(b.tuples), per_tuple);
  }
  if (boxes.size() > n) {
    std::printf("  ... (%zu more)\n", boxes.size() - n);
  }
}

// ---------------------------------------------------------------------------
// Tiered storage (storage.* / engine.storage.*)
// ---------------------------------------------------------------------------

/// One tiered store's occupancy gauges, keyed by its `scope` label
/// (`storage.<scope>.mem.bytes` and friends).
struct StoreTiers {
  std::string scope;
  double mem_bytes = 0, mem_records = 0;
  double aof_bytes = 0, aof_segments = 0;
  double page_bytes = 0, page_files = 0;
  double read_amp = 0;
};

/// One arc's spill channel: current outstanding spilled tuples/bytes plus
/// their high-water marks (`engine.storage.spilled_{tuples,hwm}.<scope>.arcN`).
struct ArcSpill {
  std::string arc;  // "<scope>.arc<N>"
  double tuples = 0, tuples_hwm = 0;
  double bytes = 0, bytes_hwm = 0;
};

struct StorageView {
  std::vector<StoreTiers> stores;
  std::vector<ArcSpill> arcs;
  // Process-wide storage counters.
  uint64_t aof_appends = 0, aof_appended_bytes = 0, aof_fsyncs = 0;
  uint64_t segments_sealed = 0;
  uint64_t compactions = 0, compaction_records = 0, compaction_dropped = 0;
  uint64_t pages_written = 0;
  uint64_t reads = 0, read_records = 0, read_scanned = 0, read_bytes = 0;
  uint64_t truncates = 0;
  uint64_t recovered_records = 0, recovered_torn_bytes = 0;
  uint64_t halog_appends = 0, halog_replayed = 0;
  // Engine-side spill counters.
  uint64_t spill_events = 0, spill_tuples = 0, spill_bytes = 0;
  uint64_t unspill_tuples = 0;

  bool present() const {
    return !stores.empty() || aof_appends > 0 || spill_tuples > 0 ||
           unspill_tuples > 0;
  }
};

StorageView CollectStorage(const MetricsSnapshot& snap) {
  StorageView v;
  v.aof_appends = snap.CounterOr("storage.aof.appends");
  v.aof_appended_bytes = snap.CounterOr("storage.aof.appended_bytes");
  v.aof_fsyncs = snap.CounterOr("storage.aof.fsyncs");
  v.segments_sealed = snap.CounterOr("storage.aof.segments_sealed");
  v.compactions = snap.CounterOr("storage.compactions");
  v.compaction_records = snap.CounterOr("storage.compaction.records");
  v.compaction_dropped = snap.CounterOr("storage.compaction.dropped_records");
  v.pages_written = snap.CounterOr("storage.pages.written");
  v.reads = snap.CounterOr("storage.reads");
  v.read_records = snap.CounterOr("storage.reads.records");
  v.read_scanned = snap.CounterOr("storage.reads.records_scanned");
  v.read_bytes = snap.CounterOr("storage.reads.bytes");
  v.truncates = snap.CounterOr("storage.truncates");
  v.recovered_records = snap.CounterOr("storage.recovered.records");
  v.recovered_torn_bytes = snap.CounterOr("storage.recovered.torn_bytes");
  v.halog_appends = snap.CounterOr("storage.halog.appends");
  v.halog_replayed = snap.CounterOr("storage.halog.replayed");
  v.spill_events = snap.CounterOr("engine.storage.spill.events");
  v.spill_tuples = snap.CounterOr("engine.storage.spill.tuples");
  v.spill_bytes = snap.CounterOr("engine.storage.spill.bytes");
  v.unspill_tuples = snap.CounterOr("engine.storage.unspill.tuples");

  // Tier occupancy gauges: storage.<scope>.<tier metric>. The scope label
  // is whatever TieredStoreOptions::scope was, so it is recovered by
  // stripping a known suffix rather than by splitting on dots.
  std::map<std::string, StoreTiers> stores;
  struct Suffix {
    const char* text;
    double StoreTiers::* field;
  };
  static const Suffix kSuffixes[] = {
      {".mem.bytes", &StoreTiers::mem_bytes},
      {".mem.records", &StoreTiers::mem_records},
      {".aof.bytes", &StoreTiers::aof_bytes},
      {".aof.segments", &StoreTiers::aof_segments},
      {".page.bytes", &StoreTiers::page_bytes},
      {".page.files", &StoreTiers::page_files},
      {".read_amp", &StoreTiers::read_amp},
  };
  const std::string prefix = "storage.";
  for (const auto& [name, value] : snap.gauges) {
    if (name.rfind(prefix, 0) != 0) continue;
    for (const Suffix& s : kSuffixes) {
      size_t slen = std::strlen(s.text);
      if (name.size() <= prefix.size() + slen) continue;
      if (name.compare(name.size() - slen, slen, s.text) != 0) continue;
      std::string scope =
          name.substr(prefix.size(), name.size() - prefix.size() - slen);
      StoreTiers& st = stores[scope];
      st.scope = scope;
      st.*(s.field) = value;
      break;
    }
  }
  for (auto& [scope, st] : stores) v.stores.push_back(st);

  // Per-arc spill channels: engine.storage.spilled_tuples.<scope>.arc<N>
  // with a matching spilled_hwm (bytes) gauge.
  const std::string tuples_prefix = "engine.storage.spilled_tuples.";
  std::map<std::string, ArcSpill> arcs;
  for (const auto& [name, value] : snap.gauges) {
    if (name.rfind(tuples_prefix, 0) != 0) continue;
    std::string key = name.substr(tuples_prefix.size());
    ArcSpill& a = arcs[key];
    a.arc = key;
    a.tuples = value;
    a.tuples_hwm = snap.GaugeMaxOr(name, value);
    const std::string bytes_name = "engine.storage.spilled_hwm." + key;
    a.bytes = snap.GaugeOr(bytes_name);
    a.bytes_hwm = snap.GaugeMaxOr(bytes_name, a.bytes);
  }
  for (auto& [key, a] : arcs) v.arcs.push_back(a);
  return v;
}

void PrintStorage(const StorageView& v) {
  if (!v.present()) {
    std::printf(
        "\nNo tiered-storage activity recorded (storage.* series absent).\n");
    return;
  }
  std::printf("\nTiered storage:\n");
  if (!v.stores.empty()) {
    std::printf("  %-12s %10s %8s %10s %6s %10s %6s %9s\n", "store",
                "mem_bytes", "mem_rec", "aof_bytes", "segs", "page_bytes",
                "pages", "read_amp");
    for (const StoreTiers& st : v.stores) {
      std::printf("  %-12s %10.0f %8.0f %10.0f %6.0f %10.0f %6.0f %9.2f\n",
                  st.scope.c_str(), st.mem_bytes, st.mem_records, st.aof_bytes,
                  st.aof_segments, st.page_bytes, st.page_files, st.read_amp);
    }
  }
  std::printf("  aof: appends=%llu bytes=%llu fsyncs=%llu sealed=%llu\n",
              static_cast<unsigned long long>(v.aof_appends),
              static_cast<unsigned long long>(v.aof_appended_bytes),
              static_cast<unsigned long long>(v.aof_fsyncs),
              static_cast<unsigned long long>(v.segments_sealed));
  std::printf(
      "  compaction: runs=%llu records=%llu dropped=%llu pages_written=%llu "
      "truncates=%llu\n",
      static_cast<unsigned long long>(v.compactions),
      static_cast<unsigned long long>(v.compaction_records),
      static_cast<unsigned long long>(v.compaction_dropped),
      static_cast<unsigned long long>(v.pages_written),
      static_cast<unsigned long long>(v.truncates));
  double amp = v.read_records == 0
                   ? 0.0
                   : static_cast<double>(v.read_scanned) /
                         static_cast<double>(v.read_records);
  std::printf(
      "  reads: calls=%llu records=%llu scanned=%llu bytes=%llu "
      "amplification=%.2f\n",
      static_cast<unsigned long long>(v.reads),
      static_cast<unsigned long long>(v.read_records),
      static_cast<unsigned long long>(v.read_scanned),
      static_cast<unsigned long long>(v.read_bytes), amp);
  std::printf(
      "  recovery: records=%llu torn_bytes=%llu  halog: appends=%llu "
      "replayed=%llu\n",
      static_cast<unsigned long long>(v.recovered_records),
      static_cast<unsigned long long>(v.recovered_torn_bytes),
      static_cast<unsigned long long>(v.halog_appends),
      static_cast<unsigned long long>(v.halog_replayed));
  std::printf(
      "  spill: events=%llu tuples=%llu bytes=%llu unspilled=%llu "
      "outstanding=%lld\n",
      static_cast<unsigned long long>(v.spill_events),
      static_cast<unsigned long long>(v.spill_tuples),
      static_cast<unsigned long long>(v.spill_bytes),
      static_cast<unsigned long long>(v.unspill_tuples),
      static_cast<long long>(v.spill_tuples) -
          static_cast<long long>(v.unspill_tuples));
  for (const ArcSpill& a : v.arcs) {
    std::printf(
        "    %-20s tuples=%6.0f (hwm %6.0f)  bytes=%8.0f (hwm %8.0f)\n",
        a.arc.c_str(), a.tuples, a.tuples_hwm, a.bytes, a.bytes_hwm);
  }
}

/// Spill conservation over the dump. Gauges are refreshed on budget
/// enforcement, so a gauge may read stale-high against the end-of-run
/// counters; the sound invariants are the ones against the all-time spill
/// counters, not against the residual.
bool CheckStorage(const StorageView& v) {
  if (!v.present()) return true;  // nothing to reconcile
  bool ok = true;
  if (v.unspill_tuples > v.spill_tuples) {
    std::printf(
        "CHECK FAIL storage: unspill.tuples=%llu exceeds spill.tuples=%llu "
        "(read back more than was ever spilled)\n",
        static_cast<unsigned long long>(v.unspill_tuples),
        static_cast<unsigned long long>(v.spill_tuples));
    ok = false;
  }
  double arc_tuples = 0, arc_bytes = 0;
  for (const ArcSpill& a : v.arcs) {
    arc_tuples += a.tuples;
    arc_bytes += a.bytes;
  }
  if (arc_tuples > static_cast<double>(v.spill_tuples)) {
    std::printf(
        "CHECK FAIL storage: per-arc outstanding spilled tuples %.0f exceed "
        "spill.tuples=%llu\n",
        arc_tuples, static_cast<unsigned long long>(v.spill_tuples));
    ok = false;
  }
  if (arc_bytes > static_cast<double>(v.spill_bytes)) {
    std::printf(
        "CHECK FAIL storage: per-arc outstanding spilled bytes %.0f exceed "
        "spill.bytes=%llu\n",
        arc_bytes, static_cast<unsigned long long>(v.spill_bytes));
    ok = false;
  }
  if (v.read_scanned < v.read_records) {
    std::printf(
        "CHECK FAIL storage: reads.records=%llu exceed records_scanned=%llu "
        "(read amplification below 1 is impossible)\n",
        static_cast<unsigned long long>(v.read_records),
        static_cast<unsigned long long>(v.read_scanned));
    ok = false;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Batched-emission accounting
// ---------------------------------------------------------------------------

/// The engine.batch.* / engine.threaded.batch.* counters each engine's one
/// routing path (RouteChunk) maintains for every routed chunk, batch 1 and
/// input-port routing included. Missing counters read as 0, so dumps with
/// no routed tuple pass trivially.
struct BatchView {
  // Single-threaded engine (AuroraEngine::RouteChunk).
  double chunks = 0;        ///< engine.batch.emitted_chunks
  double chunk_tuples = 0;  ///< engine.batch.emitted_tuples (sum of sizes)
  double fanout = 0;        ///< engine.batch.fanout_tuples (tuples x arcs)
  double enqueued = 0;      ///< engine.batch.chunk_enqueued (to box queues)
  double delivered = 0;     ///< engine.batch.chunk_delivered (to outputs)
  double held = 0;          ///< engine.batch.chunk_held (choked arcs)
  // Threaded engine (ThreadedEngine::RouteChunk -> ring multi-push).
  double t_chunks = 0;      ///< engine.threaded.batch.emitted_chunks
  double t_tuples = 0;      ///< engine.threaded.batch.emitted_tuples
  double t_publishes = 0;   ///< engine.threaded.batch.multipush_publishes

  bool present() const {
    return chunks > 0 || chunk_tuples > 0 || fanout > 0 || t_chunks > 0 ||
           t_tuples > 0 || t_publishes > 0;
  }
};

BatchView CollectBatch(const MetricsSnapshot& snap) {
  BatchView v;
  v.chunks = snap.CounterOr("engine.batch.emitted_chunks");
  v.chunk_tuples = snap.CounterOr("engine.batch.emitted_tuples");
  v.fanout = snap.CounterOr("engine.batch.fanout_tuples");
  v.enqueued = snap.CounterOr("engine.batch.chunk_enqueued");
  v.delivered = snap.CounterOr("engine.batch.chunk_delivered");
  v.held = snap.CounterOr("engine.batch.chunk_held");
  v.t_chunks = snap.CounterOr("engine.threaded.batch.emitted_chunks");
  v.t_tuples = snap.CounterOr("engine.threaded.batch.emitted_tuples");
  v.t_publishes = snap.CounterOr("engine.threaded.batch.multipush_publishes");
  return v;
}

/// Chunked emission never invents or drops tuples: every tuple of every
/// chunk fans out to each downstream arc exactly once, and on each arc it is
/// enqueued to a box, delivered to an output, or held on a choked arc.
bool CheckBatch(const BatchView& v) {
  if (!v.present()) return true;  // nothing routed: nothing to reconcile
  bool ok = true;
  if (v.chunks > v.chunk_tuples) {
    std::printf(
        "CHECK FAIL batch: emitted_chunks=%.0f exceed emitted_tuples=%.0f "
        "(every chunk carries at least one tuple)\n",
        v.chunks, v.chunk_tuples);
    ok = false;
  }
  if (v.enqueued + v.delivered + v.held != v.fanout) {
    std::printf(
        "CHECK FAIL batch: chunk_enqueued=%.0f + chunk_delivered=%.0f + "
        "chunk_held=%.0f != fanout_tuples=%.0f (per-arc tuple counters do "
        "not reconcile with the emitted chunk sizes)\n",
        v.enqueued, v.delivered, v.held, v.fanout);
    ok = false;
  }
  if (v.t_chunks > v.t_tuples) {
    std::printf(
        "CHECK FAIL batch: threaded emitted_chunks=%.0f exceed "
        "emitted_tuples=%.0f (every chunk carries at least one tuple)\n",
        v.t_chunks, v.t_tuples);
    ok = false;
  }
  if (v.t_chunks == 0 && v.t_publishes > 0) {
    std::printf(
        "CHECK FAIL batch: multipush_publishes=%.0f without any threaded "
        "emitted chunk (ring multi-push only runs under chunked emission)\n",
        v.t_publishes);
    ok = false;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Trace timelines (flight dumps)
// ---------------------------------------------------------------------------

struct SpanRow {
  uint64_t trace_id;
  std::string kind;
  int node;
  std::string site;
  int64_t start_us;
  int64_t end_us;
};

std::vector<SpanRow> CollectSpans(const JsonValue& doc) {
  std::vector<SpanRow> rows;
  const JsonValue* spans = doc.FindArray("spans");
  if (spans == nullptr) return rows;
  for (const JsonValue& s : spans->AsArray()) {
    if (!s.is_object()) continue;
    SpanRow row;
    row.trace_id = static_cast<uint64_t>(s.NumberOr("trace_id", 0));
    row.kind = s.StringOr("kind", "?");
    row.node = static_cast<int>(s.NumberOr("node", -1));
    row.site = s.StringOr("site", "");
    row.start_us = static_cast<int64_t>(s.NumberOr("start_us", 0));
    row.end_us = static_cast<int64_t>(s.NumberOr("end_us", 0));
    rows.push_back(std::move(row));
  }
  return rows;
}

void PrintTimelines(const std::vector<SpanRow>& rows, int max_traces) {
  if (rows.empty()) return;
  std::map<uint64_t, std::vector<const SpanRow*>> by_trace;
  size_t system_spans = 0;
  for (const SpanRow& r : rows) {
    if (r.trace_id == 0) {
      system_spans++;
    } else {
      by_trace[r.trace_id].push_back(&r);
    }
  }
  std::printf("\nTrace timelines (%zu spans, %zu traces, %zu system spans):\n",
              rows.size(), by_trace.size(), system_spans);
  int printed = 0;
  // Newest traces carry the evidence nearest the anomaly: walk ids
  // descending.
  for (auto it = by_trace.rbegin();
       it != by_trace.rend() && printed < max_traces; ++it, ++printed) {
    std::vector<const SpanRow*>& spans = it->second;
    std::stable_sort(spans.begin(), spans.end(),
                     [](const SpanRow* a, const SpanRow* b) {
                       return a->start_us < b->start_us;
                     });
    int64_t t0 = spans.front()->start_us;
    int64_t t_end = spans.back()->end_us;
    std::printf("  trace %llu (%lldus end to end):\n",
                static_cast<unsigned long long>(it->first),
                static_cast<long long>(t_end - t0));
    for (const SpanRow* s : spans) {
      std::printf("    +%-8lld %-13s n%-3d %s",
                  static_cast<long long>(s->start_us - t0), s->kind.c_str(),
                  s->node, s->site.c_str());
      if (s->end_us > s->start_us) {
        std::printf("  (%lldus)",
                    static_cast<long long>(s->end_us - s->start_us));
      }
      std::printf("\n");
    }
  }
  if (static_cast<int>(by_trace.size()) > printed) {
    std::printf("  ... (%zu more traces)\n", by_trace.size() - printed);
  }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

int Inspect(const std::string& path, const InspectOptions& opts) {
  Result<JsonValue> doc = JsonValue::ParseFile(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "aurora_inspect: %s\n",
                 doc.status().ToString().c_str());
    return 2;
  }
  Result<MetricsSnapshot> snap = MetricsSnapshot::FromJson(*doc);
  if (!snap.ok()) {
    std::fprintf(stderr, "aurora_inspect: %s: %s\n", path.c_str(),
                 snap.status().ToString().c_str());
    return 2;
  }

  std::printf("== %s ==\n", path.c_str());
  std::string event = doc->StringOr("event", "");
  if (!event.empty()) {
    std::printf("flight dump: event=%s detail=\"%s\" sim_time_us=%lld "
                "spans_dropped=%lld\n\n",
                event.c_str(), doc->StringOr("detail", "").c_str(),
                static_cast<long long>(doc->NumberOr("sim_time_us", -1)),
                static_cast<long long>(doc->NumberOr("spans_dropped", 0)));
  }

  std::vector<OutputAttribution> attribution = CollectAttribution(*snap);
  StorageView storage = CollectStorage(*snap);
  if (opts.storage) {
    PrintStorage(storage);
  } else {
    PrintAttribution(attribution);
    PrintBoxes(CollectBoxes(*snap), opts.top_boxes);
    PrintTimelines(CollectSpans(*doc), opts.max_traces);
  }

  if (opts.check) {
    BatchView batch = CollectBatch(*snap);
    bool ok = CheckAttribution(attribution);
    ok = CheckStorage(storage) && ok;
    ok = CheckBatch(batch) && ok;
    if (!ok) return 1;
    std::printf("\nCHECK OK: %zu outputs conserve stage attribution, "
                "%zu spill arcs reconcile, "
                "batch emission %s (%.0f chunks / %.0f tuples), "
                "%zu counters, %zu gauges, %zu histograms parsed.\n",
                attribution.size(), storage.arcs.size(),
                batch.present() ? "reconciles" : "absent",
                batch.chunks + batch.t_chunks,
                batch.chunk_tuples + batch.t_tuples, snap->counters.size(),
                snap->gauges.size(), snap->histograms.size());
  }
  return 0;
}

int Diff(const std::string& path_a, const std::string& path_b) {
  Result<MetricsSnapshot> a = MetricsSnapshot::FromJsonFile(path_a);
  if (!a.ok()) {
    std::fprintf(stderr, "aurora_inspect: %s: %s\n", path_a.c_str(),
                 a.status().ToString().c_str());
    return 2;
  }
  Result<MetricsSnapshot> b = MetricsSnapshot::FromJsonFile(path_b);
  if (!b.ok()) {
    std::fprintf(stderr, "aurora_inspect: %s: %s\n", path_b.c_str(),
                 b.status().ToString().c_str());
    return 2;
  }
  SnapshotDiff diff = SnapshotDiff::Between(*a, *b);
  std::printf("== diff %s -> %s ==\n", path_a.c_str(), path_b.c_str());
  if (diff.empty()) {
    std::printf("  identical metric values.\n");
  } else {
    std::printf("%s", diff.ToText().c_str());
    std::printf("  (%zu metrics changed)\n", diff.changed.size());
  }
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: aurora_inspect [--check] [--storage] [--top N] [--traces N] "
      "<dump.json>\n"
      "       aurora_inspect --diff <a.json> <b.json>\n");
  return 2;
}

int Main(int argc, char** argv) {
  InspectOptions opts;
  std::vector<std::string> paths;
  bool diff = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--diff") == 0) {
      diff = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      opts.check = true;
    } else if (std::strcmp(argv[i], "--storage") == 0) {
      opts.storage = true;
    } else if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      opts.top_boxes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--traces") == 0 && i + 1 < argc) {
      opts.max_traces = std::atoi(argv[++i]);
    } else if (argv[i][0] == '-') {
      return Usage();
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (diff) {
    if (paths.size() != 2) return Usage();
    return Diff(paths[0], paths[1]);
  }
  if (paths.size() != 1) return Usage();
  return Inspect(paths[0], opts);
}

}  // namespace
}  // namespace aurora

int main(int argc, char** argv) { return aurora::Main(argc, argv); }
