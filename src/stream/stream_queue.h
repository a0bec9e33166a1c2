#ifndef AURORA_STREAM_STREAM_QUEUE_H_
#define AURORA_STREAM_STREAM_QUEUE_H_

#include <cstdint>
#include <deque>

#include "common/logging.h"
#include "tuple/tuple.h"

namespace aurora {

/// \brief Destination for tuples a StreamQueue pushes out of memory.
///
/// Spill/unspill is strictly FIFO over the queue's spilled prefix: tuples
/// are handed over oldest-first and read back in the same order, so a sink
/// is just a durable FIFO (the StorageManager backs it with one tiered-store
/// stream per arc). DiscardSpilled drops the next `n` unread tuples (queue
/// Clear during load shedding or crash wipes).
class SpillSink {
 public:
  virtual ~SpillSink() = default;
  virtual void SpillTuple(const Tuple& t) = 0;
  virtual Tuple UnspillTuple() = 0;
  virtual void DiscardSpilled(size_t n) = 0;
};

/// \brief FIFO tuple queue sitting on an arc of the query network.
///
/// Tracks its memory footprint so the StorageManager can decide which queues
/// to spill when main memory runs out (paper §2.3). Without a SpillSink,
/// spilling is modeled: the oldest tuples are marked on-disk; they stay
/// accessible but popping one counts a disk read, which the engine charges
/// as extra processing cost. With a sink attached, Spill() actually moves
/// the tuple bodies out: each spilled slot keeps only a metadata stub
/// (timestamp/seq/trace_id, no values) and Pop() reconstructs the tuple by
/// reading it back through the sink — same byte accounting, same disk-read
/// charge, but the memory is genuinely released to the store's budget.
class StreamQueue {
 public:
  StreamQueue() = default;

  void Push(Tuple t) {
    bytes_ += t.WireSize();
    items_.push_back(std::move(t));
  }

  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }
  /// Total bytes queued (resident + spilled).
  size_t bytes() const { return bytes_; }

  const Tuple& Front() const {
    AURORA_DCHECK(!items_.empty());
    return items_.front();
  }

  Tuple Pop() {
    AURORA_DCHECK(!items_.empty());
    Tuple t = std::move(items_.front());
    items_.pop_front();
    size_t sz;
    if (spilled_count_ > 0) {
      // The popped tuple is part of the spilled prefix: charge a read. With
      // a sink the slot held only a stub; its original size was remembered
      // at spill time and the body is read back through the sink.
      if (sink_ != nullptr) {
        sz = spilled_sizes_.front();
        spilled_sizes_.pop_front();
        t = sink_->UnspillTuple();
      } else {
        sz = t.WireSize();
      }
      AURORA_DCHECK(spilled_bytes_ >= sz);
      spilled_count_--;
      spilled_bytes_ -= sz;
      unspill_reads_++;
    } else {
      sz = t.WireSize();
    }
    AURORA_DCHECK(bytes_ >= sz);
    bytes_ -= sz;
    return t;
  }

  void Clear() {
    if (sink_ != nullptr && spilled_count_ > 0) {
      sink_->DiscardSpilled(spilled_count_);
    }
    items_.clear();
    spilled_sizes_.clear();
    bytes_ = 0;
    spilled_count_ = 0;
    spilled_bytes_ = 0;
  }

  /// Marks the oldest `n` resident tuples as spilled to disk. Returns the
  /// number of bytes newly moved out of memory.
  size_t Spill(size_t n);

  /// Number of queued tuples currently marked on-disk.
  size_t spilled_count() const { return spilled_count_; }
  /// Bytes of queue content currently spilled (on-disk prefix).
  size_t spilled_bytes() const { return spilled_bytes_; }
  /// Bytes of queue content currently in memory (unspilled suffix).
  size_t resident_bytes() const { return bytes_ - spilled_bytes_; }
  /// Cumulative count of pops that had to read from disk.
  uint64_t unspill_reads() const { return unspill_reads_; }

  /// Attaches (or detaches, nullptr) the destination real spills write to.
  /// Must only change while nothing is spilled.
  void set_spill_sink(SpillSink* sink) {
    AURORA_DCHECK(spilled_count_ == 0);
    sink_ = sink;
  }

  /// Direct iteration for drain/inspection (HA output logs, stabilization).
  /// Spilled slots hold metadata stubs (seq/timestamp valid, no values).
  const std::deque<Tuple>& items() const { return items_; }

 private:
  std::deque<Tuple> items_;
  size_t bytes_ = 0;
  size_t spilled_count_ = 0;
  size_t spilled_bytes_ = 0;
  uint64_t unspill_reads_ = 0;
  SpillSink* sink_ = nullptr;
  /// Original WireSize of each spilled slot, FIFO-parallel to the spilled
  /// prefix (stub sizes differ from the bodies they stand in for).
  std::deque<size_t> spilled_sizes_;
};

}  // namespace aurora

#endif  // AURORA_STREAM_STREAM_QUEUE_H_
