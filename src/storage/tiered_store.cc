#include "storage/tiered_store.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>

#include "common/logging.h"
#include "obs/trace.h"
#include "tuple/serde.h"

namespace aurora {

namespace {

constexpr uint32_t kPageMagic = 0x61757250;  // "Pura"
constexpr uint32_t kMetaMagic = 0x6175724D;  // "Mura"
constexpr uint32_t kFormatVersion = 1;
constexpr char kMetaPath[] = "meta.bin";
/// Group-fsync threshold: Tick() syncs the active segment once at least
/// this many unsynced bytes have accumulated (it always syncs on seal).
constexpr size_t kGroupSyncBytes = 8 * 1024;

uint32_t Fnv1a32(const uint8_t* data, size_t n, uint32_t seed = 2166136261u) {
  uint32_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

/// Trailing zero-padded number of "aof/000007.log" / "page/000012.page".
uint64_t PathNumber(const std::string& path) {
  size_t slash = path.rfind('/');
  size_t dot = path.rfind('.');
  if (slash == std::string::npos || dot == std::string::npos || dot <= slash) {
    return 0;
  }
  uint64_t n = 0;
  for (size_t i = slash + 1; i < dot; ++i) {
    char c = path[i];
    if (c < '0' || c > '9') return 0;
    n = n * 10 + static_cast<uint64_t>(c - '0');
  }
  return n;
}

}  // namespace

TieredStore::TieredStore(StorageFs* fs, TieredStoreOptions opts)
    : fs_(fs), opts_(std::move(opts)) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  m_appends_ = reg.GetCounter("storage.aof.appends");
  m_append_bytes_ = reg.GetCounter("storage.aof.appended_bytes");
  m_fsyncs_ = reg.GetCounter("storage.aof.fsyncs");
  m_seals_ = reg.GetCounter("storage.aof.segments_sealed");
  m_compactions_ = reg.GetCounter("storage.compactions");
  m_compact_records_ = reg.GetCounter("storage.compaction.records");
  m_compact_dropped_ = reg.GetCounter("storage.compaction.dropped_records");
  m_pages_written_ = reg.GetCounter("storage.pages.written");
  m_reads_ = reg.GetCounter("storage.reads");
  m_read_records_ = reg.GetCounter("storage.reads.records");
  m_read_scanned_ = reg.GetCounter("storage.reads.records_scanned");
  m_read_bytes_ = reg.GetCounter("storage.reads.bytes");
  m_truncates_ = reg.GetCounter("storage.truncates");
  m_recovered_records_ = reg.GetCounter("storage.recovered.records");
  m_torn_bytes_ = reg.GetCounter("storage.recovered.torn_bytes");
  const std::string p = "storage." + opts_.scope + ".";
  g_mem_bytes_ = reg.GetGauge(p + "mem.bytes");
  g_mem_records_ = reg.GetGauge(p + "mem.records");
  g_aof_bytes_ = reg.GetGauge(p + "aof.bytes");
  g_aof_segments_ = reg.GetGauge(p + "aof.segments");
  g_page_bytes_ = reg.GetGauge(p + "page.bytes");
  g_page_files_ = reg.GetGauge(p + "page.files");
  g_read_amp_ = reg.GetGauge(p + "read_amp");
}

std::string TieredStore::SegmentPath(uint64_t n) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "aof/%06" PRIu64 ".log", n);
  return buf;
}

std::string TieredStore::PagePath(uint64_t n) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "page/%06" PRIu64 ".page", n);
  return buf;
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

uint64_t TieredStore::Append(const std::string& stream, int64_t timestamp_us,
                             const uint8_t* payload, size_t n) {
  StreamState& ss = streams_[stream];
  uint64_t seq = ss.next_seq++;
  AppendRecord(stream, seq, timestamp_us, payload, n);
  return seq;
}

Status TieredStore::AppendWithSeq(const std::string& stream, uint64_t seq,
                                  int64_t timestamp_us, const uint8_t* payload,
                                  size_t n) {
  StreamState& ss = streams_[stream];
  if (seq < ss.next_seq) {
    return Status::InvalidArgument("append seq " + std::to_string(seq) +
                                   " below stream '" + stream + "' next " +
                                   std::to_string(ss.next_seq));
  }
  ss.next_seq = seq + 1;
  AppendRecord(stream, seq, timestamp_us, payload, n);
  return Status::OK();
}

void TieredStore::AppendRecord(const std::string& stream, uint64_t seq,
                               int64_t ts_us, const uint8_t* payload,
                               size_t n) {
  // AOF frame: u32 body_len | u32 fnv1a(body) | body. The body carries the
  // stream name so one log serializes every stream's appends in arrival
  // order — exactly the total order recovery replays.
  Encoder body;
  body.PutString(stream);
  body.PutU64(seq);
  body.PutI64(ts_us);
  body.PutU32(static_cast<uint32_t>(n));
  Encoder frame;
  frame.PutU32(static_cast<uint32_t>(body.size() + n));
  // Chained FNV over header-then-payload equals one pass over the stored
  // contiguous frame body, which is what DecodeSegment verifies.
  uint32_t cksum = Fnv1a32(body.buffer().data(), body.size());
  cksum = Fnv1a32(payload, n, cksum);
  frame.PutU32(cksum);

  if (active_segment_ == 0) {
    active_segment_ = next_segment_++;
    active_segment_size_ = 0;
  }
  const std::string path = SegmentPath(active_segment_);
  Status st = fs_->Append(path, frame.buffer().data(), frame.size());
  if (st.ok()) st = fs_->Append(path, body.buffer().data(), body.size());
  if (st.ok() && n > 0) st = fs_->Append(path, payload, n);
  if (!st.ok()) {
    AURORA_LOG(Error) << "storage: AOF append failed: " << st.ToString();
  }
  size_t frame_bytes = frame.size() + body.size() + n;
  active_segment_size_ += frame_bytes;
  aof_bytes_ += frame_bytes;
  unsynced_bytes_ += frame_bytes;
  if (oldest_unsynced_us_ < 0) oldest_unsynced_us_ = ts_us;
  m_appends_->Add();
  m_append_bytes_->Add(frame_bytes);
  if (opts_.sync_every_append) {
    Status sync = fs_->Sync(path);
    if (sync.ok()) {
      unsynced_bytes_ = 0;
      oldest_unsynced_us_ = -1;
      m_fsyncs_->Add();
    }
  }

  MemStream& ms = mem_[stream];
  size_t mem_sz = n + sizeof(MemRecord);
  ms.records.push_back(
      MemRecord{seq, ts_us, std::vector<uint8_t>(payload, payload + n)});
  ms.bytes += mem_sz;
  mem_bytes_ += mem_sz;
  mem_records_++;
  if (opts_.mem_budget_bytes > 0 && mem_bytes_ > opts_.mem_budget_bytes) {
    EvictMemstore();
  }
  UpdateGauges();
}

void TieredStore::SyncActiveSegment(SimTime now) {
  if (active_segment_ == 0 || unsynced_bytes_ == 0) return;
  Status st = fs_->Sync(SegmentPath(active_segment_));
  if (!st.ok()) {
    // Fault hook (fsync loss): the bytes stay appended but volatile; a
    // crash before a later successful sync loses them, which is exactly
    // the durability window the recovery tests probe.
    AURORA_LOG(Warn) << "storage: fsync failed: " << st.ToString();
    return;
  }
  m_fsyncs_->Add();
  RecordSpan("storage:fsync",
             oldest_unsynced_us_ >= 0 ? oldest_unsynced_us_ : now.micros(),
             now.micros());
  unsynced_bytes_ = 0;
  oldest_unsynced_us_ = -1;
}

void TieredStore::SealActiveSegment() {
  if (active_segment_ == 0) return;
  compact_queue_.push_back(active_segment_);
  m_seals_->Add();
  active_segment_ = 0;
  active_segment_size_ = 0;
}

void TieredStore::Tick(SimTime now) {
  // Group fsync: amortize syncs over kGroupSyncBytes of appended data (a
  // full segment always syncs, so it can be sealed).
  if (unsynced_bytes_ >= kGroupSyncBytes ||
      (unsynced_bytes_ > 0 &&
       active_segment_size_ >= opts_.aof_segment_bytes)) {
    SyncActiveSegment(now);
  }
  if (active_segment_ != 0 && active_segment_size_ >= opts_.aof_segment_bytes &&
      unsynced_bytes_ == 0) {
    SealActiveSegment();
  }
  for (int i = 0; i < opts_.compactions_per_tick && !compact_queue_.empty();
       ++i) {
    CompactOneSegment(now);
  }
  // Dropper: page files wholly below their stream's floor are dead.
  for (auto& [stream, infos] : pages_) {
    const StreamState& ss = streams_[stream];
    while (!infos.empty() && infos.front().max_seq <= ss.floor) {
      page_bytes_ -= infos.front().bytes;
      (void)fs_->Remove(infos.front().path);
      infos.erase(infos.begin());
    }
  }
  if (opts_.mem_budget_bytes > 0 && mem_bytes_ > opts_.mem_budget_bytes) {
    EvictMemstore();
  }
  UpdateGauges();
}

Status TieredStore::Flush() {
  if (active_segment_ != 0 && unsynced_bytes_ > 0) {
    Status st = fs_->Sync(SegmentPath(active_segment_));
    if (!st.ok()) return st;
    m_fsyncs_->Add();
    unsynced_bytes_ = 0;
    oldest_unsynced_us_ = -1;
  }
  return Status::OK();
}

void TieredStore::CompactOneSegment(SimTime now) {
  uint64_t seg = compact_queue_.front();
  compact_queue_.pop_front();
  const std::string path = SegmentPath(seg);
  auto data = fs_->ReadFile(path);
  if (!data.ok()) {
    AURORA_LOG(Error) << "storage: compact read failed: "
                      << data.status().ToString();
    return;
  }
  // Preserve per-stream arrival order (== seq order) while grouping.
  std::map<std::string, std::vector<StoredRecord>> by_stream;
  DecodeSegment(*data, [&](StoredRecord rec) {
    by_stream[rec.stream].push_back(std::move(rec));
  });
  uint64_t kept = 0, dropped = 0;
  for (auto& [stream, records] : by_stream) {
    const StreamState& ss = streams_[stream];
    std::vector<StoredRecord*> live;
    live.reserve(records.size());
    for (auto& r : records) {
      if (RecordLive(ss, r.seq)) {
        live.push_back(&r);
      } else {
        dropped++;
      }
    }
    if (live.empty()) continue;
    kept += live.size();
    PageInfo info;
    info.stream = stream;
    info.count = static_cast<uint32_t>(live.size());
    info.min_seq = live.front()->seq;
    info.max_seq = live.back()->seq;
    info.min_ts = std::numeric_limits<int64_t>::max();
    info.max_ts = std::numeric_limits<int64_t>::min();
    for (const StoredRecord* r : live) {
      info.min_ts = std::min(info.min_ts, r->timestamp_us);
      info.max_ts = std::max(info.max_ts, r->timestamp_us);
    }
    Encoder enc;
    enc.PutU32(kPageMagic);
    enc.PutU32(kFormatVersion);
    enc.PutString(stream);
    enc.PutU32(info.count);
    enc.PutU64(info.min_seq);
    enc.PutU64(info.max_seq);
    enc.PutI64(info.min_ts);
    enc.PutI64(info.max_ts);
    for (const StoredRecord* r : live) {
      enc.PutU64(r->seq);
      enc.PutI64(r->timestamp_us);
      enc.PutU32(static_cast<uint32_t>(r->payload.size()));
      for (uint8_t b : r->payload) enc.PutU8(b);
    }
    info.path = PagePath(next_page_++);
    info.bytes = enc.size();
    Status st = fs_->WriteFileAtomic(info.path, enc.buffer());
    if (!st.ok()) {
      AURORA_LOG(Error) << "storage: page write failed: " << st.ToString();
      continue;
    }
    page_bytes_ += info.bytes;
    pages_[stream].push_back(info);
    m_pages_written_->Add();
  }
  aof_bytes_ -= std::min<size_t>(aof_bytes_, data->size());
  (void)fs_->Remove(path);
  m_compactions_->Add();
  m_compact_records_->Add(kept);
  m_compact_dropped_->Add(dropped);
  RecordSpan("storage:compact", now.micros(), now.micros());
}

void TieredStore::EvictMemstore() {
  while (mem_bytes_ > opts_.mem_budget_bytes && !mem_.empty()) {
    // Deterministic victim: the stream whose cached head is oldest
    // (timestamp, then name). Evicted records stay readable from the
    // AOF/page tiers — the memstore is purely a cache.
    auto victim = mem_.end();
    for (auto it = mem_.begin(); it != mem_.end(); ++it) {
      if (it->second.records.empty()) continue;
      if (victim == mem_.end() ||
          it->second.records.front().timestamp_us <
              victim->second.records.front().timestamp_us) {
        victim = it;
      }
    }
    if (victim == mem_.end()) break;
    MemStream& ms = victim->second;
    size_t sz = ms.records.front().payload.size() + sizeof(MemRecord);
    ms.records.pop_front();
    ms.bytes -= sz;
    mem_bytes_ -= sz;
    mem_records_--;
    if (ms.records.empty()) mem_.erase(victim);
  }
}

void TieredStore::Truncate(const std::string& stream, uint64_t upto) {
  StreamState& ss = streams_[stream];
  if (upto <= ss.floor) return;
  ss.floor = upto;
  if (ss.next_seq <= upto) ss.next_seq = upto + 1;
  auto it = mem_.find(stream);
  if (it != mem_.end()) {
    MemStream& ms = it->second;
    while (!ms.records.empty() && ms.records.front().seq <= upto) {
      size_t sz = ms.records.front().payload.size() + sizeof(MemRecord);
      ms.records.pop_front();
      ms.bytes -= sz;
      mem_bytes_ -= sz;
      mem_records_--;
    }
    if (ms.records.empty()) mem_.erase(it);
  }
  m_truncates_->Add();
  PersistMeta();
  UpdateGauges();
}

void TieredStore::PersistMeta() {
  // Tiny, rewritten atomically on every truncation: floors must survive a
  // crash (a recovered store must not resurrect confirmed HA log entries),
  // and next_seq must survive even when every record below it has been
  // truncated and compacted away (a sender restart that reused sequence
  // numbers would be silently deduplicated downstream).
  Encoder enc;
  enc.PutU32(kMetaMagic);
  enc.PutU32(static_cast<uint32_t>(streams_.size()));
  for (const auto& [stream, ss] : streams_) {
    enc.PutString(stream);
    enc.PutU64(ss.floor);
    enc.PutU64(ss.next_seq);
  }
  Status st = fs_->WriteFileAtomic(kMetaPath, enc.buffer());
  if (!st.ok()) {
    AURORA_LOG(Error) << "storage: meta write failed: " << st.ToString();
  }
}

void TieredStore::LoadMeta() {
  if (!fs_->Exists(kMetaPath)) return;
  auto data = fs_->ReadFile(kMetaPath);
  if (!data.ok()) return;
  Decoder dec(*data);
  auto magic = dec.GetU32();
  if (!magic.ok() || *magic != kMetaMagic) return;
  auto count = dec.GetU32();
  if (!count.ok()) return;
  for (uint32_t i = 0; i < *count; ++i) {
    auto stream = dec.GetString();
    auto floor = dec.GetU64();
    auto next = dec.GetU64();
    if (!stream.ok() || !floor.ok() || !next.ok()) return;
    StreamState& ss = streams_[*stream];
    ss.floor = std::max(ss.floor, *floor);
    ss.next_seq = std::max(ss.next_seq, *next);
  }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

size_t TieredStore::DecodeSegment(
    const std::vector<uint8_t>& data,
    const std::function<void(StoredRecord)>& fn) const {
  size_t pos = 0;
  while (data.size() - pos >= 8) {
    Decoder head(data.data() + pos, 8);
    uint32_t len = *head.GetU32();
    uint32_t cksum = *head.GetU32();
    if (len == 0 || data.size() - pos - 8 < len) break;  // torn tail
    const uint8_t* body = data.data() + pos + 8;
    if (Fnv1a32(body, len) != cksum) break;  // corrupt frame
    Decoder dec(body, len);
    auto stream = dec.GetString();
    auto seq = dec.GetU64();
    auto ts = dec.GetI64();
    auto payload_len = dec.GetU32();
    if (!stream.ok() || !seq.ok() || !ts.ok() || !payload_len.ok() ||
        dec.remaining() != *payload_len) {
      break;
    }
    std::span<const uint8_t> payload = *dec.GetBytes(*payload_len);
    StoredRecord rec;
    rec.stream = std::move(*stream);
    rec.seq = *seq;
    rec.timestamp_us = *ts;
    rec.payload.assign(payload.begin(), payload.end());
    fn(std::move(rec));
    pos += 8 + len;
  }
  return pos;
}

Result<TieredStore::PageInfo> TieredStore::ReadPageHeader(
    const std::string& path, std::vector<uint8_t>* data) const {
  auto bytes = fs_->ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  Decoder dec(*bytes);
  auto magic = dec.GetU32();
  auto version = dec.GetU32();
  if (!magic.ok() || *magic != kPageMagic || !version.ok()) {
    return Status::Internal("bad page header in '" + path + "'");
  }
  auto stream = dec.GetString();
  auto count = dec.GetU32();
  auto min_seq = dec.GetU64();
  auto max_seq = dec.GetU64();
  auto min_ts = dec.GetI64();
  auto max_ts = dec.GetI64();
  if (!stream.ok() || !count.ok() || !min_seq.ok() || !max_seq.ok() ||
      !min_ts.ok() || !max_ts.ok()) {
    return Status::Internal("truncated page header in '" + path + "'");
  }
  PageInfo info;
  info.path = path;
  info.stream = *stream;
  info.count = *count;
  info.min_seq = *min_seq;
  info.max_seq = *max_seq;
  info.min_ts = *min_ts;
  info.max_ts = *max_ts;
  info.bytes = bytes->size();
  if (data != nullptr) *data = std::move(*bytes);
  return info;
}

Status TieredStore::Open() {
  streams_.clear();
  mem_.clear();
  mem_bytes_ = mem_records_ = 0;
  compact_queue_.clear();
  pages_.clear();
  aof_bytes_ = page_bytes_ = 0;
  active_segment_ = 0;
  active_segment_size_ = 0;
  unsynced_bytes_ = 0;
  oldest_unsynced_us_ = -1;
  next_segment_ = 1;
  next_page_ = 1;

  LoadMeta();

  for (const std::string& path : fs_->List("page/")) {
    auto info = ReadPageHeader(path, nullptr);
    if (!info.ok()) {
      AURORA_LOG(Warn) << "storage: skipping bad page: "
                       << info.status().ToString();
      continue;
    }
    StreamState& ss = streams_[info->stream];
    ss.next_seq = std::max(ss.next_seq, info->max_seq + 1);
    page_bytes_ += info->bytes;
    pages_[info->stream].push_back(*info);
    next_page_ = std::max(next_page_, PathNumber(path) + 1);
  }
  for (auto& [stream, infos] : pages_) {
    std::sort(infos.begin(), infos.end(),
              [](const PageInfo& a, const PageInfo& b) {
                return a.min_seq < b.min_seq;
              });
  }

  // Every surviving AOF segment is sealed by recovery: its clean prefix is
  // re-queued for compaction; a torn tail (crash mid-append) is measured
  // and dropped when the segment compacts. Appends resume in a fresh
  // segment so recovery never writes into a possibly-torn file.
  for (const std::string& path : fs_->List("aof/")) {
    auto data = fs_->ReadFile(path);
    if (!data.ok()) continue;
    uint64_t recovered = 0;
    size_t clean = DecodeSegment(*data, [&](StoredRecord rec) {
      StreamState& ss = streams_[rec.stream];
      ss.next_seq = std::max(ss.next_seq, rec.seq + 1);
      recovered++;
    });
    m_recovered_records_->Add(recovered);
    if (clean < data->size()) m_torn_bytes_->Add(data->size() - clean);
    aof_bytes_ += data->size();
    compact_queue_.push_back(PathNumber(path));
    next_segment_ = std::max(next_segment_, PathNumber(path) + 1);
  }
  opened_ = true;
  UpdateGauges();
  return Status::OK();
}

void TieredStore::Crash() {
  fs_->Crash();
  streams_.clear();
  mem_.clear();
  mem_bytes_ = mem_records_ = 0;
  compact_queue_.clear();
  pages_.clear();
  aof_bytes_ = page_bytes_ = 0;
  active_segment_ = 0;
  active_segment_size_ = 0;
  unsynced_bytes_ = 0;
  oldest_unsynced_us_ = -1;
  opened_ = false;
  UpdateGauges();
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

Result<StoredRecord> TieredStore::Read(const std::string& stream,
                                       uint64_t seq) {
  m_reads_->Add();
  auto sit = streams_.find(stream);
  if (sit == streams_.end() || !RecordLive(sit->second, seq) ||
      seq >= sit->second.next_seq) {
    return Status::NotFound("storage: no live record " + std::to_string(seq) +
                            " on stream '" + stream + "'");
  }
  // Memstore fast path: a spilled queue tail is re-read oldest-first soon
  // after spilling, so the cache usually still covers it.
  auto mit = mem_.find(stream);
  if (mit != mem_.end() && !mit->second.records.empty() &&
      seq >= mit->second.records.front().seq) {
    const auto& records = mit->second.records;
    auto rit = std::lower_bound(
        records.begin(), records.end(), seq,
        [](const MemRecord& r, uint64_t s) { return r.seq < s; });
    if (rit != records.end() && rit->seq == seq) {
      m_read_records_->Add();
      m_read_scanned_->Add();
      StoredRecord rec;
      rec.stream = stream;
      rec.seq = rit->seq;
      rec.timestamp_us = rit->timestamp_us;
      rec.payload = rit->payload;
      UpdateGauges();
      return rec;
    }
  }
  StoredRecord found;
  bool have = false;
  ScanRange(stream, seq, seq, std::numeric_limits<int64_t>::min(),
            std::numeric_limits<int64_t>::max(), [&](const StoredRecord& r) {
              found = r;
              have = true;
            });
  if (!have) {
    return Status::NotFound("storage: record " + std::to_string(seq) +
                            " on stream '" + stream + "' unreadable");
  }
  return found;
}

size_t TieredStore::Scan(const std::string& stream, uint64_t min_seq,
                         uint64_t max_seq,
                         const std::function<void(const StoredRecord&)>& fn) {
  m_reads_->Add();
  return ScanRange(stream, min_seq, max_seq,
                   std::numeric_limits<int64_t>::min(),
                   std::numeric_limits<int64_t>::max(), fn);
}

size_t TieredStore::ScanAll(const std::string& stream,
                            const std::function<void(const StoredRecord&)>& fn) {
  return Scan(stream, 1, std::numeric_limits<uint64_t>::max(), fn);
}

size_t TieredStore::ScanTime(const std::string& stream, int64_t min_ts_us,
                             int64_t max_ts_us,
                             const std::function<void(const StoredRecord&)>& fn) {
  m_reads_->Add();
  return ScanRange(stream, 1, std::numeric_limits<uint64_t>::max(), min_ts_us,
                   max_ts_us, fn);
}

void TieredStore::EmitFromPages(
    const std::string& stream, uint64_t min_seq, uint64_t max_seq,
    int64_t min_ts, int64_t max_ts, uint64_t* last_emitted, size_t* emitted,
    const std::function<void(const StoredRecord&)>& fn) {
  auto pit = pages_.find(stream);
  if (pit == pages_.end()) return;
  const StreamState& ss = streams_[stream];
  for (const PageInfo& info : pit->second) {
    if (info.max_seq < min_seq || info.min_seq > max_seq) continue;
    if (info.max_ts < min_ts || info.min_ts > max_ts) continue;
    if (info.max_seq <= ss.floor) continue;
    auto data = fs_->ReadFile(info.path);
    if (!data.ok()) continue;
    m_read_bytes_->Add(data->size());
    std::vector<uint8_t> bytes = std::move(*data);
    Decoder dec(bytes);
    // Skip the header (already indexed).
    (void)dec.GetU32();
    (void)dec.GetU32();
    (void)dec.GetString();
    (void)dec.GetU32();
    (void)dec.GetU64();
    (void)dec.GetU64();
    (void)dec.GetI64();
    (void)dec.GetI64();
    for (uint32_t i = 0; i < info.count; ++i) {
      auto seq = dec.GetU64();
      auto ts = dec.GetI64();
      auto len = dec.GetU32();
      if (!seq.ok() || !ts.ok() || !len.ok() || dec.remaining() < *len) break;
      m_read_scanned_->Add();
      StoredRecord rec;
      rec.stream = stream;
      rec.seq = *seq;
      rec.timestamp_us = *ts;
      size_t off = bytes.size() - dec.remaining();
      rec.payload.assign(bytes.begin() + off, bytes.begin() + off + *len);
      // Advance past the payload.
      for (uint32_t b = 0; b < *len; ++b) (void)dec.GetU8();
      if (rec.seq <= *last_emitted || rec.seq < min_seq || rec.seq > max_seq ||
          !RecordLive(ss, rec.seq) || rec.timestamp_us < min_ts ||
          rec.timestamp_us > max_ts) {
        continue;
      }
      *last_emitted = rec.seq;
      (*emitted)++;
      m_read_records_->Add();
      fn(rec);
    }
  }
}

size_t TieredStore::ScanRange(
    const std::string& stream, uint64_t min_seq, uint64_t max_seq,
    int64_t min_ts, int64_t max_ts,
    const std::function<void(const StoredRecord&)>& fn) {
  auto sit = streams_.find(stream);
  if (sit == streams_.end()) return 0;
  const StreamState& ss = sit->second;
  min_seq = std::max(min_seq, ss.floor + 1);
  if (min_seq > max_seq) return 0;

  size_t emitted = 0;
  uint64_t last_emitted = min_seq == 0 ? 0 : min_seq - 1;

  // Memstore-only fast path: the cache covers the whole requested range.
  auto mit = mem_.find(stream);
  if (mit != mem_.end() && !mit->second.records.empty() &&
      min_seq >= mit->second.records.front().seq) {
    for (const MemRecord& r : mit->second.records) {
      if (r.seq < min_seq || r.seq > max_seq) continue;
      if (r.timestamp_us < min_ts || r.timestamp_us > max_ts) continue;
      m_read_scanned_->Add();
      m_read_records_->Add();
      StoredRecord rec;
      rec.stream = stream;
      rec.seq = r.seq;
      rec.timestamp_us = r.timestamp_us;
      rec.payload = r.payload;
      fn(rec);
      emitted++;
    }
    UpdateGauges();
    return emitted;
  }

  // Tiered merge, oldest tier first: pages hold the oldest live records,
  // sealed segments the middle, the active segment the newest. Per stream
  // the tiers are disjoint in seq (compaction removes a segment in the same
  // tick its pages appear); the last_emitted guard makes overlap harmless.
  EmitFromPages(stream, min_seq, max_seq, min_ts, max_ts, &last_emitted,
                &emitted, fn);

  std::vector<uint64_t> segments(compact_queue_.begin(), compact_queue_.end());
  if (active_segment_ != 0) segments.push_back(active_segment_);
  for (uint64_t seg : segments) {
    auto data = fs_->ReadFile(SegmentPath(seg));
    if (!data.ok()) continue;
    m_read_bytes_->Add(data->size());
    DecodeSegment(*data, [&](StoredRecord rec) {
      m_read_scanned_->Add();
      if (rec.stream != stream) return;
      if (rec.seq <= last_emitted || rec.seq < min_seq || rec.seq > max_seq) {
        return;
      }
      if (!RecordLive(ss, rec.seq)) return;
      if (rec.timestamp_us < min_ts || rec.timestamp_us > max_ts) return;
      last_emitted = rec.seq;
      emitted++;
      m_read_records_->Add();
      fn(rec);
    });
  }
  UpdateGauges();
  return emitted;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

uint64_t TieredStore::next_seq(const std::string& stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() ? 1 : it->second.next_seq;
}

uint64_t TieredStore::floor_seq(const std::string& stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() ? 0 : it->second.floor;
}

uint64_t TieredStore::live_records(const std::string& stream) const {
  auto it = streams_.find(stream);
  if (it == streams_.end()) return 0;
  // Assumes contiguous appends per stream (both assignment modes keep
  // sequence numbers dense in this codebase).
  return it->second.next_seq - 1 - it->second.floor;
}

size_t TieredStore::num_pages() const {
  size_t n = 0;
  for (const auto& [stream, infos] : pages_) n += infos.size();
  return n;
}

void TieredStore::UpdateGauges() {
  g_mem_bytes_->Set(static_cast<double>(mem_bytes_));
  g_mem_records_->Set(static_cast<double>(mem_records_));
  g_aof_bytes_->Set(static_cast<double>(aof_bytes_));
  g_aof_segments_->Set(static_cast<double>(compact_queue_.size() +
                                           (active_segment_ != 0 ? 1 : 0)));
  g_page_bytes_->Set(static_cast<double>(page_bytes_));
  g_page_files_->Set(static_cast<double>(num_pages()));
  uint64_t returned = m_read_records_->value();
  if (returned > 0) {
    g_read_amp_->Set(static_cast<double>(m_read_scanned_->value()) /
                     static_cast<double>(returned));
  }
}

void TieredStore::RecordSpan(const char* site, int64_t start_us,
                             int64_t end_us) {
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return;
  tracer.Record({0, SpanKind::kStorage, trace_node_, site, start_us, end_us});
}

}  // namespace aurora
