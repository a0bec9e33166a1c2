#ifndef AURORA_OPS_MAP_OP_H_
#define AURORA_OPS_MAP_OP_H_

#include "ops/operator.h"

namespace aurora {

/// \brief Map: per-tuple projection/transformation (paper §2.2).
///
/// Each output field is a declarative Expr over the input tuple, so Map
/// boxes remain shippable by remote definition.
class MapOp : public Operator {
 public:
  explicit MapOp(OperatorSpec spec) : Operator(std::move(spec)) {}

 protected:
  Status InitImpl() override;
  Status ProcessImpl(int input, const Tuple& t, SimTime now,
                     Emitter* emitter) override;
  /// Vectorized: projections that Expr::EvalBatch can run columnar are
  /// computed once per batch; remaining projections evaluate per tuple in
  /// the assembly loop, so a single string column doesn't de-vectorize the
  /// integer ones.
  Status ProcessBatchImpl(int input, TupleBatch& batch,
                          BatchEmitter* emitter) override;

 private:
  /// Marks a row built without batch columns (the scalar path).
  static constexpr size_t kNoColumns = static_cast<size_t>(-1);

  /// Builds the output row for `t` straight into its block. When `bound`
  /// (t carries input_schema(0) itself), bare field references copy the
  /// field at their Init-bound index; when `col_row` names a batch row,
  /// columnar projections read it from col_scratch_; every other
  /// projection goes through Expr::Eval, which rebinds to t's schema. A
  /// failing projection abandons the row.
  Result<Tuple> Project(const Tuple& t, bool bound, size_t col_row);

  /// Per projection: the input_schema(0) index of a bare field reference,
  /// or -1 for a computed projection. Bound once at Init.
  std::vector<int> ident_;
  /// Per-batch scratch: one int64 column per vectorizable projection plus
  /// a flag vector saying which projections took the columnar path. Member
  /// to keep capacity warm across activations; a box instance never runs
  /// two activations concurrently.
  std::vector<std::vector<int64_t>> col_scratch_;
  std::vector<uint8_t> fast_;
};

}  // namespace aurora

#endif  // AURORA_OPS_MAP_OP_H_
