#ifndef AURORA_OPS_WSORT_OP_H_
#define AURORA_OPS_WSORT_OP_H_

#include <map>
#include <optional>
#include <vector>

#include "ops/operator.h"

namespace aurora {

/// Lexicographic comparison of sort-key value vectors.
struct ValueVectorLess {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const;
};

/// \brief WSort: time-bounded windowed sort (paper §2.2).
///
/// Buffers incoming tuples and emits them in ascending order of the sort
/// attributes, with at least one tuple emitted per timeout period. WSort is
/// *lossy*: a tuple that arrives after some tuple following it in sort order
/// has already been emitted is discarded (counted in dropped()).
///
/// timeout_us == 0 means "large enough timeout" (the assumption in the
/// paper's Tumble-split example): nothing is emitted until Drain or until
/// the optional max_buffer bound forces the smallest tuple out.
class WSortOp : public Operator {
 public:
  explicit WSortOp(OperatorSpec spec);

  bool HasState() const override { return true; }
  void OnTick(SimTime now, Emitter* emitter) override;
  void Drain(Emitter* emitter) override;

  uint64_t dropped() const { return dropped_; }
  size_t buffered() const { return buffer_.size(); }

 protected:
  Status InitImpl() override;
  Status ProcessImpl(int input, const Tuple& t, SimTime now,
                     Emitter* emitter) override;
  SeqNo StatefulDependency(int input) const override;

 private:
  /// Fills key_scratch_ with the tuple's sort-key values (indices bound at
  /// init) and returns it; late (dropped) tuples then cost no allocation,
  /// and buffered ones move the scratch into the buffer entry.
  const std::vector<Value>& KeyOf(const Tuple& t);
  void EmitSmallest(Emitter* emitter);

  SimDuration timeout_{};
  size_t max_buffer_ = 0;
  std::vector<size_t> sort_indices_;
  std::vector<Value> key_scratch_;
  // The ordered buffer IS the sort — this one stays a tree.
  std::multimap<std::vector<Value>, Tuple, ValueVectorLess> buffer_;
  std::optional<std::vector<Value>> watermark_;
  SimTime last_emit_{};
  bool emitted_any_ = false;
  uint64_t dropped_ = 0;
};

}  // namespace aurora

#endif  // AURORA_OPS_WSORT_OP_H_
