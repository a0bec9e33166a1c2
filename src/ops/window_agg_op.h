#ifndef AURORA_OPS_WINDOW_AGG_OP_H_
#define AURORA_OPS_WINDOW_AGG_OP_H_

#include <deque>
#include <memory>
#include <vector>

#include "ops/aggregate.h"
#include "ops/group_key.h"
#include "ops/operator.h"
#include "ops/wsort_op.h"

namespace aurora {

/// \brief XSection / Slide: overlapping count-based window aggregates
/// (the "two additional aggregate operators" of paper §2.2).
///
/// Per groupby key, maintains the last `window` tuples and applies the
/// aggregate to each window of `window` consecutive tuples, advancing the
/// window start by `advance` tuples between emissions:
///   - XSection: arbitrary advance (advance == window gives count-tumbling
///     cross-sections);
///   - Slide: advance == 1, one output per input once the window fills.
class WindowAggOp : public Operator {
 public:
  explicit WindowAggOp(OperatorSpec spec);

  bool HasState() const override { return true; }

 protected:
  Status InitImpl() override;
  Status ProcessImpl(int input, const Tuple& t, SimTime now,
                     Emitter* emitter) override;
  SeqNo StatefulDependency(int input) const override;

 private:
  struct GroupState {
    std::deque<Tuple> buffer;  // at most `window_` tuples
    uint64_t since_last_emit = 0;
    bool primed = false;  // first window emitted
  };

  /// Fills key_scratch_ with the tuple's groupby values (indices bound at
  /// init) and returns it; no per-tuple allocation once the scratch has
  /// capacity. Callers that store the key move key_scratch_ out.
  const std::vector<Value>& KeyOf(const Tuple& t);

  std::string agg_name_;
  size_t agg_index_ = 0;
  uint64_t window_ = 0;
  uint64_t advance_ = 1;
  std::vector<size_t> group_indices_;
  // Hash map: per-group state is only probed per tuple; the one iteration
  // (StatefulDependency's min over all buffered seqs) is order-independent.
  GroupKeyMap<GroupState> groups_;
  std::vector<Value> key_scratch_;
  std::unique_ptr<AggregateFunction> proto_agg_;
};

}  // namespace aurora

#endif  // AURORA_OPS_WINDOW_AGG_OP_H_
