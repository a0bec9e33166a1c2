#ifndef AURORA_OPS_PREDICATE_H_
#define AURORA_OPS_PREDICATE_H_

#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "tuple/serde.h"
#include "tuple/tuple.h"
#include "tuple/tuple_batch.h"

namespace aurora {

/// Comparison operators for predicate leaves.
enum class CompareOp : uint8_t { kEq = 0, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpName(CompareOp op);

/// \brief Declarative, serializable predicate over tuple attributes.
///
/// Predicates must be *data*, not closures, for two of the paper's
/// mechanisms to work: remote definition (§4.4) ships predicates to another
/// participant, and box splitting (§5.1) synthesizes routing predicates at
/// run time (content-based, hash-partition, or rate-based choices — §5.2).
class Predicate {
 public:
  /// Always-true predicate (vacuous filter).
  static Predicate True();
  /// field <op> constant.
  static Predicate Compare(std::string field, CompareOp op, Value constant);
  static Predicate And(Predicate a, Predicate b);
  static Predicate Or(Predicate a, Predicate b);
  static Predicate Not(Predicate a);
  /// hash(field) % modulus == remainder — the "half of the available
  /// streams" style partitioning predicate from §5.2.
  static Predicate HashPartition(std::string field, uint32_t modulus,
                                 uint32_t remainder);

  /// Resolves every attribute this predicate reads to an index in `input`,
  /// so Eval never does a per-tuple name lookup. Call once at box
  /// initialization; returns NotFound for a missing field. Eval also
  /// re-binds lazily when it sees a tuple whose schema differs from the
  /// bound one (ad-hoc subscriptions, routing predicates applied before a
  /// box is wired), so Bind is an eager error check plus a warm cache, not
  /// a correctness requirement.
  Status Bind(const SchemaPtr& input) const;

  bool Eval(const Tuple& t) const;

  /// Vectorized Eval over a whole batch: fills `out` (sized to
  /// batch.size()) with 0/1 per tuple, matching per-tuple Eval bit for bit.
  /// One shape loops over the batch's columnar scratch: an int64 field
  /// compared with an int64 constant, the filter the benchmark runs.
  /// Everything else (and/or/not trees, hash partitions, double, string,
  /// bool and null constants, non-uniform or type-mixed columns) runs Eval
  /// per tuple here, so callers never need a scalar path of their own.
  void EvalBatch(TupleBatch& batch, std::vector<uint8_t>* out) const;

  /// Logical complement; used to route the "other" half after a box split.
  Predicate Negation() const { return Not(*this); }

  /// Adds every attribute name this predicate reads to `fields`. Used by
  /// the network optimizer to decide whether a filter commutes with an
  /// upstream box.
  void CollectFields(std::set<std::string>* fields) const;

  std::string ToString() const;

  void Encode(Encoder* enc) const;
  /// Fails with InvalidArgument past kMaxDecodeDepth nested levels.
  static Result<Predicate> Decode(Decoder* dec);

 private:
  enum class Kind : uint8_t { kTrue = 0, kCompare, kAnd, kOr, kNot, kHash };

  static Result<Predicate> DecodeAt(Decoder* dec, int depth);

  Predicate() = default;

  Kind kind_ = Kind::kTrue;
  // kCompare / kHash:
  std::string field_;
  CompareOp op_ = CompareOp::kEq;
  Value constant_;
  uint32_t modulus_ = 0;
  uint32_t remainder_ = 0;
  // kAnd / kOr / kNot children, held by value: a copy of the predicate (one
  // per box built from a spec) owns its whole tree.
  std::vector<Predicate> children_;

  /// The tuple's field value this leaf reads, via the bound-once index
  /// cache (kCompare / kHash only).
  const Value& FieldValue(const Tuple& t) const;

  /// Bound-once field cache (kCompare / kHash). Mutable so that Eval, which
  /// is const, can re-bind. Safe under the threaded engine because each box
  /// owns its predicate tree and a box runs on one thread at a time. Holding
  /// the SchemaPtr (not a raw pointer) keeps the identity comparison in Eval
  /// immune to a freed schema's address being reused.
  mutable SchemaPtr bound_schema_;
  mutable size_t bound_index_ = 0;
};

}  // namespace aurora

#endif  // AURORA_OPS_PREDICATE_H_
