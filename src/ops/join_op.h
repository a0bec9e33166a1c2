#ifndef AURORA_OPS_JOIN_OP_H_
#define AURORA_OPS_JOIN_OP_H_

#include <deque>

#include "ops/operator.h"

namespace aurora {

/// \brief Join: symmetric windowed equi-join over two streams (paper §2.2).
///
/// Matches a left tuple with every buffered right tuple (and vice versa)
/// whose join key is equal and whose timestamp is within `window_us`. The
/// output concatenates left and right attributes, with right attribute
/// names prefixed by `right_prefix` on collision. Selectivity can exceed 1,
/// the property the paper uses to motivate sliding a box *downstream*
/// (§5.1: "produces more data than the input, e.g. a join").
class JoinOp : public Operator {
 public:
  explicit JoinOp(OperatorSpec spec);

  int num_inputs() const override { return 2; }
  bool HasState() const override { return true; }

 protected:
  Status InitImpl() override;
  Status ProcessImpl(int input, const Tuple& t, SimTime now,
                     Emitter* emitter) override;
  SeqNo StatefulDependency(int input) const override;

 private:
  void ExpireOld(SimTime now);
  void EmitJoined(const Tuple& left, const Tuple& right, Emitter* emitter);

  std::string left_key_;
  std::string right_key_;
  size_t left_key_index_ = 0;
  size_t right_key_index_ = 0;
  SimDuration window_{};
  std::deque<Tuple> left_buffer_;
  std::deque<Tuple> right_buffer_;
};

}  // namespace aurora

#endif  // AURORA_OPS_JOIN_OP_H_
