#ifndef AURORA_TUPLE_TUPLE_H_
#define AURORA_TUPLE_TUPLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "tuple/schema.h"
#include "tuple/value.h"

namespace aurora {

/// Sequence number assigned by the transport when a tuple crosses a server
/// boundary; the basis of the HA queue-truncation protocol (paper §6.2).
/// Zero means "not yet assigned".
using SeqNo = uint64_t;
inline constexpr SeqNo kNoSeqNo = 0;

/// \brief One stream tuple: a 32-byte handle over a refcounted immutable
/// row of values, plus per-hop stream-processing metadata.
///
/// The row lives in one heap block: a 32-byte header (atomic refcount,
/// value count, cached wire size, the stream's SchemaPtr) followed by the
/// Values inline. Constructing a tuple is one allocation; copying or
/// dropping a handle is one atomic operation on that tuple's own block, so
/// threads moving different tuples of one stream never write a common
/// control block. Arc hops, ConnectionPoint fan-out, HA backup queues, and
/// transport trains all alias one block. Mutation (`SetValue`,
/// `MutableValues`) detaches a private copy first (copy-on-write), so
/// sharing is never observable.
///
/// Metadata carried per handle (NOT shared — each copy may be restamped):
///  - `timestamp`: creation time at the data source; drives latency QoS.
///  - `seq`: transport sequence number on the arc the tuple most recently
///    crossed (HA truncation protocol).
///  - `trace_id`: lineage id assigned by the engine when the process-wide
///    Tracer is enabled (src/obs/trace.h); 0 = untraced. Propagated to
///    derived tuples and across the wire so a tuple's spans can be stitched
///    across nodes.
/// The schema is shared by all tuples of a stream and held in the block, so
/// `schema()` returns a reference that lives as long as the block does: do
/// not hold it across a reassignment of the handle it came from.
class Tuple {
 public:
  Tuple() = default;
  /// Moves `values` into a new block.
  Tuple(SchemaPtr schema, std::vector<Value> values)
      : Tuple(std::move(schema), std::span<Value>(values)) {}
  /// Moves the values out of a caller-owned span into a new block. The
  /// caller's container keeps its storage (holding moved-from values), so a
  /// per-operator scratch vector can be cleared and refilled per output.
  Tuple(SchemaPtr schema, std::span<Value> values);

  Tuple(const Tuple& other) noexcept
      : body_(other.body_),
        timestamp_(other.timestamp_),
        seq_(other.seq_),
        trace_id_(other.trace_id_) {
    Retain(body_);
  }
  Tuple(Tuple&& other) noexcept
      : body_(std::exchange(other.body_, nullptr)),
        timestamp_(other.timestamp_),
        seq_(other.seq_),
        trace_id_(other.trace_id_) {}
  Tuple& operator=(const Tuple& other) noexcept {
    Retain(other.body_);  // before Release: safe under self-assignment
    Release(body_);
    body_ = other.body_;
    timestamp_ = other.timestamp_;
    seq_ = other.seq_;
    trace_id_ = other.trace_id_;
    return *this;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    if (this != &other) {
      Release(body_);
      body_ = std::exchange(other.body_, nullptr);
      timestamp_ = other.timestamp_;
      seq_ = other.seq_;
      trace_id_ = other.trace_id_;
    }
    return *this;
  }
  ~Tuple() { Release(body_); }

  /// The stream's schema; a null SchemaPtr for a default tuple.
  const SchemaPtr& schema() const {
    return body_ != nullptr ? body_->schema : kNoSchema;
  }
  size_t num_values() const { return body_ != nullptr ? body_->count : 0; }
  const Value& value(size_t i) const { return body_->values()[i]; }
  std::span<const Value> values() const {
    if (body_ == nullptr) return {};
    return {body_->values(), body_->count};
  }

  /// Replaces field `i`, detaching a private body copy if this handle
  /// shares one with other tuples.
  void SetValue(size_t i, Value v);

  /// Mutable access to the whole row; detaches a private body copy first.
  /// Setup/repair paths only — never on the per-tuple hot path.
  std::span<Value> MutableValues();

  /// Value of the named field; aborts if absent (operator wiring validates
  /// field presence at network-construction time). Setup/debug/sink paths
  /// only: per-tuple operator code must bind field indices once at box
  /// initialization (see Expr::Bind / Predicate::Bind) — a debug build
  /// DCHECK-fails if Get is reached inside an operator activation.
  const Value& Get(const std::string& field_name) const;

  SimTime timestamp() const { return timestamp_; }
  void set_timestamp(SimTime t) { timestamp_ = t; }

  SeqNo seq() const { return seq_; }
  void set_seq(SeqNo s) { seq_ = s; }

  uint64_t trace_id() const { return trace_id_; }
  void set_trace_id(uint64_t id) { trace_id_ = id; }

  /// Serialized size in bytes (values + fixed header); used by the transport
  /// to charge link bandwidth. O(1): the value-byte total is cached on the
  /// shared body.
  size_t WireSize() const;

  std::string ToString() const;

  bool ValuesEqual(const Tuple& other) const {
    if (body_ == other.body_) return true;
    return std::ranges::equal(values(), other.values());
  }

  /// True when both handles alias the same body allocation. Test/debug
  /// introspection for the copy-on-write contract.
  bool SharesBodyWith(const Tuple& other) const {
    return body_ != nullptr && body_ == other.body_;
  }

 private:
  /// The block header; `count` Values follow it inline.
  struct Body {
    /// Handles aliasing this block. Increments are relaxed, decrements
    /// acq_rel, and the last drop frees the block (shared_ptr's ordering).
    std::atomic<uint32_t> refs;
    uint32_t count;
    /// Cached sum of the values' wire bytes; kUnknownWire until the first
    /// WireSize() call. Relaxed: racing fillers on different threads
    /// compute the same value, so any interleaving stores the right size.
    std::atomic<size_t> wire_values;
    SchemaPtr schema;

    Value* values() { return reinterpret_cast<Value*>(this + 1); }
  };
  static constexpr size_t kUnknownWire = static_cast<size_t>(-1);
  /// What schema() returns for a default tuple. Constant-initialized, so
  /// reading it costs no function-local-static guard.
  static constinit inline const SchemaPtr kNoSchema{};

  /// Allocates a block for `n` values with refs = 1; the caller constructs
  /// the values.
  static Body* Allocate(SchemaPtr schema, size_t n);
  /// Destroys the values and schema and frees the block.
  static void Destroy(Body* body) noexcept;
  static void Retain(Body* body) noexcept {
    if (body != nullptr) body->refs.fetch_add(1, std::memory_order_relaxed);
  }
  static void Release(Body* body) noexcept {
    if (body != nullptr &&
        body->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Destroy(body);
    }
  }

  /// Ensures body_ is uniquely owned (deep-copies if shared), clears its
  /// cached wire size, and returns it.
  Body* DetachBody();

  Body* body_ = nullptr;
  SimTime timestamp_{};
  SeqNo seq_ = kNoSeqNo;
  uint64_t trace_id_ = 0;
};

/// \brief Debug guard marking the engine's per-tuple hot path.
///
/// The engine enters a section around operator activations; Tuple::Get
/// DCHECKs that it is never called inside one (field lookups by name must
/// be bound to indices at init time). Output callbacks and ad-hoc stream
/// subscribers are application code, so the engine suspends the section
/// around them with an Exemption. No-ops in release builds (the DCHECK
/// compiles out); the flag itself is two bool stores either way.
class TupleHotPathSection {
 public:
  TupleHotPathSection() : prev_(Active()) { Active() = true; }
  ~TupleHotPathSection() { Active() = prev_; }
  TupleHotPathSection(const TupleHotPathSection&) = delete;
  TupleHotPathSection& operator=(const TupleHotPathSection&) = delete;

  class Exemption {
   public:
    Exemption() : prev_(Active()) { Active() = false; }
    ~Exemption() { Active() = prev_; }
    Exemption(const Exemption&) = delete;
    Exemption& operator=(const Exemption&) = delete;

   private:
    bool prev_;
  };

  static bool InHotPath() { return Active(); }

 private:
  static bool& Active() {
    // Per-thread: each worker in the threaded engine tracks its own hot-path
    // section independently.
    static thread_local bool active = false;
    return active;
  }
  bool prev_;
};

/// Builder-style convenience for tests and examples:
///   MakeTuple(schema, {1, 2.5, "x"}).
Tuple MakeTuple(const SchemaPtr& schema, std::vector<Value> values);

}  // namespace aurora

#endif  // AURORA_TUPLE_TUPLE_H_
