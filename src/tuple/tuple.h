#ifndef AURORA_TUPLE_TUPLE_H_
#define AURORA_TUPLE_TUPLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <new>
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
/// Values inline. Constructing a tuple is one allocation, and `Builder`
/// constructs each value straight into the block; copying or dropping a
/// handle is one atomic operation on that tuple's own block, so
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
  class Builder;

  Tuple() = default;
  /// Moves `values` into a new block (a Builder loop); a convenience for
  /// code that already holds a vector.
  Tuple(SchemaPtr schema, std::vector<Value> values);

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

  /// Takes over a block that already holds its refcount of 1.
  explicit Tuple(Body* body) : body_(body) {}

  /// Allocates a block for `n` values with refs = 1; the caller constructs
  /// the values.
  static Body* Allocate(SchemaPtr schema, size_t n);
  /// Destroys the first `built` values and the schema and frees the block.
  static void Destroy(Body* body, size_t built) noexcept;
  static void Retain(Body* body) noexcept {
    if (body != nullptr) body->refs.fetch_add(1, std::memory_order_relaxed);
  }
  static void Release(Body* body) noexcept {
    if (body != nullptr &&
        body->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Destroy(body, body->count);
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

/// \brief Builds one tuple in place: the block is allocated once, at
/// construction, and each Append constructs the next value inside it, so
/// every value is constructed once, where it lives.
///
/// Exactly `n` values must be appended before Finish (a debug build
/// DCHECKs it). A builder destroyed before Finish destroys the values it
/// built and frees the block, so a row abandoned halfway (say, a Map whose
/// computed field divides by zero) leaks nothing.
class Tuple::Builder {
 public:
  Builder(SchemaPtr schema, size_t n) : body_(Allocate(std::move(schema), n)) {}
  ~Builder() {
    if (body_ != nullptr) Destroy(body_, built_);
  }
  Builder(const Builder&) = delete;
  Builder& operator=(const Builder&) = delete;

  /// Constructs the next value in place from `v`: a Value to copy or
  /// move, or anything a Value is constructed from (an int64_t, a string).
  template <typename V>
  void Append(V&& v) {
    new (Next()) Value(std::forward<V>(v));
    ++built_;
  }

  /// The finished tuple: timestamp, seq and trace id 0, wire size not yet
  /// computed. The builder is empty afterwards.
  Tuple Finish() {
    AURORA_DCHECK(body_ != nullptr && built_ == body_->count)
        << "a tuple builder must append exactly its declared value count";
    return Tuple(std::exchange(body_, nullptr));
  }

 private:
  Value* Next() {
    AURORA_DCHECK(built_ < body_->count) << "tuple builder overflow";
    return body_->values() + built_;
  }

  Body* body_;
  /// Values constructed so far, always a prefix of the block.
  uint32_t built_ = 0;
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
