#ifndef AURORA_STREAM_CONNECTION_POINT_H_
#define AURORA_STREAM_CONNECTION_POINT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "storage/tiered_store.h"
#include "tuple/tuple.h"

namespace aurora {

/// Retention policy for the historical storage behind a connection point.
struct RetentionPolicy {
  /// Keep at most this many tuples (0 = unbounded by count).
  size_t max_tuples = 0;
  /// Keep tuples no older than this window (0 = unbounded by age).
  SimDuration max_age{};
};

/// \brief A predetermined arc in the flow graph where historical data is
/// stored and ad hoc queries may attach (paper §2.2).
///
/// Connection points are also the only places where the distributed layer
/// performs network transformations (paper §5.1): their choke/drain
/// protocol is implemented by the stabilization code in src/distributed.
///
/// History lives in one of two modes. Unbound (the default), every retained
/// tuple is held in memory, exactly the original behaviour. BindStorage
/// switches the point to tiered mode: every recorded tuple is written
/// through to a tiered-store stream, the in-memory deque becomes a cache of
/// the newest `mem_tuples` records, and QueryHistory serves older records
/// by reading them back from the store — so retained history can exceed RAM
/// and survives a crash (RecoverFromStorage rebuilds the point from the
/// durable tiers).
class ConnectionPoint {
 public:
  ConnectionPoint(std::string name, RetentionPolicy policy)
      : name_(std::move(name)), policy_(policy) {}

  const std::string& name() const { return name_; }
  const RetentionPolicy& policy() const { return policy_; }

  /// Switches to tiered mode, writing history through `store` (not owned)
  /// under stream `stream`. At most `mem_tuples` of the newest records stay
  /// cached in memory (0 = no extra cap beyond the retention policy);
  /// `schema` decodes read-back payloads (updated from recorded tuples, so
  /// a null schema heals on first Record).
  void BindStorage(TieredStore* store, std::string stream, size_t mem_tuples,
                   SchemaPtr schema);
  bool storage_bound() const { return store_ != nullptr; }

  /// Records a tuple passing through the point.
  void Record(const Tuple& t, SimTime now);

  /// The in-memory history tier, oldest first (all retained history when
  /// unbound; the newest cached suffix in tiered mode).
  const std::deque<Tuple>& history() const { return history_; }
  /// Logical retained records (memory + store tiers).
  size_t history_size() const {
    return storage_bound() ? durable_index_.size() : history_.size();
  }
  /// Bytes held by the in-memory tier.
  size_t history_bytes() const { return history_bytes_; }

  /// Runs an ad hoc query over retained history: every stored tuple matching
  /// the filter is passed to `sink`, oldest first. This is the "ad hoc query
  /// attached at a connection point" path. In tiered mode records older than
  /// the memory cache are read back from the store.
  size_t QueryHistory(const std::function<bool(const Tuple&)>& filter,
                      const std::function<void(const Tuple&)>& sink) const;

  using Subscriber = std::function<void(const Tuple&, SimTime)>;
  /// Subscribes a live listener: every tuple subsequently recorded at this
  /// point is delivered to it. Returns a token for Unsubscribe.
  int Subscribe(Subscriber subscriber);
  void Unsubscribe(int token);
  size_t num_subscribers() const;

  /// Choke control used by network stabilization: while choked, the engine
  /// holds tuples upstream of this point instead of forwarding them.
  void Choke() { choked_ = true; }
  void Unchoke() { choked_ = false; }
  bool choked() const { return choked_; }

  /// Handle snapshot of the in-memory history tier, oldest first; used when
  /// a connection point is split and a replica moves to another machine
  /// (paper §5.2). NOT a deep copy: since the COW tuple refactor the
  /// returned handles alias the stored bodies, and copy-on-write is what
  /// keeps later mutation of either side from corrupting the other.
  std::vector<Tuple> SnapshotHistory() const {
    return {history_.begin(), history_.end()};
  }
  /// Replaces retained history. In tiered mode the stream is logically
  /// truncated first, then the tuples are appended through the store.
  void LoadHistory(std::vector<Tuple> tuples);

  /// Drops the volatile tier (memory cache + durable index) — what a node
  /// crash loses. Meaningful in tiered mode; RecoverFromStorage rebuilds.
  void DropMemoryTier();
  /// Rebuilds the durable index and memory cache from the store (call on a
  /// recovered store after Open()), then re-applies retention at `now`.
  void RecoverFromStorage(SimTime now);

 private:
  void EnforceRetention(SimTime now);
  void AppendToStore(const Tuple& t);
  /// Trims the memory cache to `mem_tuples_` (tiered mode only).
  void TrimMemoryCache();

  std::string name_;
  RetentionPolicy policy_;
  /// Memory tier: all history when unbound, newest cached suffix when bound.
  std::deque<Tuple> history_;
  size_t history_bytes_ = 0;
  bool choked_ = false;
  std::vector<std::pair<int, Subscriber>> subscribers_;
  int next_token_ = 1;
  /// Reentrancy guard for Record(): while > 0, Unsubscribe defers the
  /// actual erase (a callback may unsubscribe itself or a peer) and newly
  /// subscribed listeners only see tuples recorded after the current one.
  int notify_depth_ = 0;
  std::vector<int> deferred_unsubs_;

  // Tiered mode state.
  TieredStore* store_ = nullptr;
  std::string stream_;
  size_t mem_tuples_ = 0;
  SchemaPtr schema_;
  /// Store seq of each cached tuple, parallel to history_ (bound only).
  std::deque<uint64_t> history_seqs_;
  /// (store seq, timestamp_us) of every live logical record, oldest first —
  /// the index QueryHistory walks across tiers. 16 bytes per record, so a
  /// deep history costs index entries in RAM, not tuple bodies.
  std::deque<std::pair<uint64_t, int64_t>> durable_index_;
  std::vector<uint8_t> encode_scratch_;
};

}  // namespace aurora

#endif  // AURORA_STREAM_CONNECTION_POINT_H_
