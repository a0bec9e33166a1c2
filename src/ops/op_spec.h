#ifndef AURORA_OPS_OP_SPEC_H_
#define AURORA_OPS_OP_SPEC_H_

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "ops/expr.h"
#include "ops/predicate.h"
#include "tuple/serde.h"

namespace aurora {

/// \brief Declarative description of an operator instance.
///
/// Every operator in the system is constructible from its spec, and every
/// operator can report the spec it was built from. This is the foundation of
/// three paper mechanisms:
///  - *remote definition* (§4.4): a participant ships a spec, not a process;
///  - *box sliding* (§5.1): the slid box is re-instantiated from its spec on
///    the destination node;
///  - *box splitting* (§5.1): the splitter clones specs and synthesizes the
///    merge sub-network's specs.
struct OperatorSpec {
  /// Operator kind: "filter", "map", "union", "wsort", "tumble", "xsection",
  /// "slide", "join", "resample".
  std::string kind;
  /// Scalar parameters, keyed by name (e.g. "timeout_us", "agg", "n").
  std::map<std::string, Value> params;
  /// Attribute lists (sort attributes, groupby attributes), in order.
  std::vector<std::string> attrs;
  /// Filter/Join predicate, when the kind uses one.
  std::optional<Predicate> predicate;
  /// Map projections: output field name -> expression.
  std::vector<std::pair<std::string, Expr>> projections;

  /// Fetches a scalar param. Returns the fallback when absent.
  Value GetParam(const std::string& name, Value fallback) const;
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  std::string GetString(const std::string& name, std::string fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  OperatorSpec& SetParam(std::string name, Value v) {
    params[std::move(name)] = std::move(v);
    return *this;
  }

  std::string ToString() const;

  void Encode(Encoder* enc) const;
  static Result<OperatorSpec> Decode(Decoder* dec);

  bool operator==(const OperatorSpec& other) const {
    // Predicates/exprs compare via their string form; adequate for tests and
    // catalog dedup (specs are canonical data, not user input).
    return ToString() == other.ToString();
  }
};

/// Convenience constructors for the standard boxes.
OperatorSpec FilterSpec(Predicate p, bool two_way = false);
OperatorSpec MapSpec(std::vector<std::pair<std::string, Expr>> projections);
OperatorSpec UnionSpec(int n_inputs);
OperatorSpec WSortSpec(std::vector<std::string> sort_attrs, int64_t timeout_us,
                       int64_t max_buffer = 0);
OperatorSpec TumbleSpec(std::string agg, std::string agg_field,
                        std::vector<std::string> groupby_attrs,
                        std::string result_field = "Result");
OperatorSpec XSectionSpec(std::string agg, std::string agg_field,
                          int64_t window_size, int64_t advance,
                          std::vector<std::string> groupby_attrs = {},
                          std::string result_field = "Result");
OperatorSpec SlideSpec(std::string agg, std::string agg_field,
                       int64_t window_size,
                       std::vector<std::string> groupby_attrs = {},
                       std::string result_field = "Result");
OperatorSpec JoinSpec(std::string left_key, std::string right_key,
                      int64_t window_us, std::string right_prefix = "r_");
OperatorSpec ResampleSpec(std::string value_field, int64_t interval_us);

}  // namespace aurora

#endif  // AURORA_OPS_OP_SPEC_H_
