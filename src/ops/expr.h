#ifndef AURORA_OPS_EXPR_H_
#define AURORA_OPS_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "tuple/serde.h"
#include "tuple/tuple.h"
#include "tuple/tuple_batch.h"

namespace aurora {

/// Arithmetic operators for expression nodes.
enum class ArithOp : uint8_t { kAdd = 0, kSub, kMul, kDiv };

/// \brief Declarative scalar expression over a tuple, used by the Map
/// operator.
///
/// Like Predicate, expressions are data rather than closures so that Map
/// boxes can be shipped across participants by remote definition (§4.4).
/// Supported forms: field reference, constant, binary arithmetic.
class Expr {
 public:
  static Expr FieldRef(std::string field);
  static Expr Constant(Value v);
  static Expr Arith(ArithOp op, Expr lhs, Expr rhs);

  /// Resolves every field reference in this expression tree to an index in
  /// `input`, so Eval never does a per-tuple name lookup. Call once at box
  /// initialization; returns NotFound for a missing field. Eval also
  /// re-binds lazily when it sees a tuple whose schema differs from the
  /// bound one (ad-hoc evaluation, schema-changing rewires), so Bind is an
  /// eager error check plus a warm cache, never a correctness requirement.
  Status Bind(const SchemaPtr& input) const;

  Result<Value> Eval(const Tuple& t) const;

  /// Vectorized Eval for expression trees that are int64 end to end over
  /// this batch: fields read int64 columns, constants are int64, and
  /// arithmetic is add/sub/mul (which cannot error, so no per-tuple status
  /// channel is needed). Returns true and fills `out` with one result per
  /// tuple; returns false (out unspecified) for anything else — doubles,
  /// division, strings, non-uniform batches — and the caller falls back to
  /// per-tuple Eval. Uses only stack scratch, like Predicate::EvalBatch.
  bool EvalBatch(TupleBatch& batch, std::vector<int64_t>* out) const;

  /// Result type given an input schema (int64 arithmetic stays integral;
  /// division always yields double).
  Result<ValueType> ResultType(const Schema& input) const;

  /// True when this expression is a bare field reference; fills `name`.
  /// Used by the network optimizer to recognize identity projections.
  bool IsFieldRef(std::string* name) const;

  std::string ToString() const;
  void Encode(Encoder* enc) const;
  /// Fails with InvalidArgument past kMaxDecodeDepth nested levels.
  static Result<Expr> Decode(Decoder* dec);

 private:
  enum class Kind : uint8_t { kField = 0, kConst, kArith };

  static Result<Expr> DecodeAt(Decoder* dec, int depth);

  Expr() = default;

  Kind kind_ = Kind::kConst;
  std::string field_;
  Value constant_;
  ArithOp op_ = ArithOp::kAdd;
  std::vector<std::shared_ptr<const Expr>> children_;

  /// Bound-once field cache (kField only). Mutable because expression trees
  /// are shared through shared_ptr<const Expr>; the engine is
  /// single-threaded, so caching through const is safe. Holding the
  /// SchemaPtr (not a raw pointer) keeps the identity comparison in Eval
  /// immune to a freed schema's address being reused.
  mutable SchemaPtr bound_schema_;
  mutable size_t bound_index_ = 0;
};

}  // namespace aurora

#endif  // AURORA_OPS_EXPR_H_
