#ifndef AURORA_TUPLE_TUPLE_BATCH_H_
#define AURORA_TUPLE_TUPLE_BATCH_H_

#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "tuple/tuple.h"

namespace aurora {

/// \brief One consumable train of tuples handed to Operator::ProcessBatch,
/// plus a lazily-built columnar scratch over it.
///
/// The engine fills a batch with up to `batch_size` tuples dequeued from one
/// arc, together with the per-tuple `now` each tuple would have been
/// processed under on the scalar path (the activation clock in the
/// single-threaded engine, the tuple's own timestamp in the threaded one).
/// Operators consume the batch front to back; emission order must match what
/// per-tuple Process calls would have produced, which is what the
/// batch-vs-scalar equivalence suite gates.
///
/// Columnar scratch: for an int64 field of a schema-uniform batch, I64Column
/// materializes the field as a contiguous array once per batch, so
/// Predicate::EvalBatch and Expr::EvalBatch loop over raw machine values
/// instead of re-dispatching through the Value variant per tuple. Columns are
/// built on first request (only fields an expression actually reads pay the
/// gather) and cached for the batch's lifetime; Clear() drops them but keeps
/// capacity, so a batch reused across activations stops allocating once
/// warm. Any other field (doubles, strings, nulls, mixed schemas) yields
/// nullptr and callers fall back to the per-tuple path.
class TupleBatch {
 public:
  TupleBatch() = default;

  TupleBatch(const TupleBatch&) = delete;
  TupleBatch& operator=(const TupleBatch&) = delete;

  void Reserve(size_t n) {
    tuples_.reserve(n);
    nows_.reserve(n);
  }

  void Push(Tuple t, SimTime now) {
    if (!tuples_.empty() &&
        t.schema().get() != tuples_.front().schema().get()) {
      uniform_ = false;
    }
    tuples_.push_back(std::move(t));
    nows_.push_back(now);
  }

  /// Drops tuples and invalidates columns; keeps all buffer capacity.
  void Clear();

  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  const Tuple& tuple(size_t i) const { return tuples_[i]; }
  Tuple& tuple(size_t i) { return tuples_[i]; }
  /// The scalar-path clock tuple `i` would have been processed under.
  SimTime now(size_t i) const { return nows_[i]; }

  /// All tuples share one schema object (pointer identity). Columns are
  /// only available on uniform batches; an arc's tuples are uniform in
  /// practice, so this mostly guards hand-built test batches.
  bool uniform_schema() const { return uniform_; }
  /// Schema of the first tuple; nullptr on an empty batch.
  const SchemaPtr& schema() const {
    static const SchemaPtr kNull;
    return tuples_.empty() ? kNull : tuples_.front().schema();
  }

  /// Contiguous int64 column for field `field`, one entry per tuple, or
  /// nullptr when the field is not int64 across the whole batch (or the
  /// batch is empty / not schema-uniform). Pointer valid until Clear().
  const int64_t* I64Column(size_t field);

 private:
  struct Column {
    bool built = false;
    bool ok = false;
    std::vector<int64_t> i64;
  };

  std::vector<Tuple> tuples_;
  std::vector<SimTime> nows_;
  std::vector<Column> cols_;
  bool uniform_ = true;
};

}  // namespace aurora

#endif  // AURORA_TUPLE_TUPLE_BATCH_H_
