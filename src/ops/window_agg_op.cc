#include "ops/window_agg_op.h"

namespace aurora {

WindowAggOp::WindowAggOp(OperatorSpec spec) : Operator(std::move(spec)) {
  agg_name_ = spec_.GetString("agg", "cnt");
  window_ = static_cast<uint64_t>(spec_.GetInt("window", 0));
  advance_ = static_cast<uint64_t>(spec_.GetInt("advance", 1));
}

Status WindowAggOp::InitImpl() {
  AURORA_ASSIGN_OR_RETURN(proto_agg_, MakeAggregate(agg_name_));
  if (window_ == 0) {
    return Status::InvalidArgument(kind() + " requires window > 0");
  }
  if (advance_ == 0 || advance_ > window_) {
    return Status::InvalidArgument(kind() + " requires 0 < advance <= window");
  }
  std::string agg_field = spec_.GetString("agg_field", "");
  if (agg_field.empty()) {
    return Status::InvalidArgument(kind() + " requires an agg_field");
  }
  AURORA_ASSIGN_OR_RETURN(agg_index_, input_schema(0)->IndexOf(agg_field));
  for (const auto& attr : spec_.attrs) {
    AURORA_ASSIGN_OR_RETURN(size_t idx, input_schema(0)->IndexOf(attr));
    group_indices_.push_back(idx);
  }
  std::vector<Field> fields;
  for (size_t idx : group_indices_) fields.push_back(input_schema(0)->field(idx));
  ValueType result_type =
      AggResultType(agg_name_, input_schema(0)->field(agg_index_).type);
  fields.push_back(Field{spec_.GetString("result_field", "Result"), result_type});
  SetOutputSchema(0, Schema::Make(std::move(fields)));
  return Status::OK();
}

const std::vector<Value>& WindowAggOp::KeyOf(const Tuple& t) {
  key_scratch_.clear();
  key_scratch_.reserve(group_indices_.size());
  for (size_t idx : group_indices_) key_scratch_.push_back(t.value(idx));
  return key_scratch_;
}

Status WindowAggOp::ProcessImpl(int, const Tuple& t, SimTime, Emitter* emitter) {
  const std::vector<Value>& key = KeyOf(t);
  auto it = groups_.find(key);
  if (it == groups_.end()) {
    // Moving the scratch donates its buffer to the stored key; KeyOf
    // rebuilds it next call.
    it = groups_.emplace(std::move(key_scratch_), GroupState{}).first;
  }
  GroupState& g = it->second;
  g.buffer.push_back(t);
  if (g.buffer.size() > window_) g.buffer.pop_front();
  if (!g.primed) {
    if (g.buffer.size() < window_) return Status::OK();
  } else {
    g.since_last_emit++;
    if (g.since_last_emit < advance_) return Status::OK();
  }
  // Window full and aligned with the advance stride: aggregate and emit.
  auto agg = proto_agg_->Clone();
  agg->Reset();
  for (const auto& buffered : g.buffer) agg->Update(buffered.value(agg_index_));
  // it->first, not `key`: the scratch behind `key` may have been moved into
  // the map when this group was created.
  Tuple::Builder row(output_schema(0), it->first.size() + 1);
  for (const Value& v : it->first) row.Append(v);
  row.Append(agg->Final());
  Tuple out = row.Finish();
  out.set_timestamp(g.buffer.front().timestamp());
  SeqNo min_seq = kNoSeqNo;
  for (const auto& buffered : g.buffer) {
    if (buffered.seq() == kNoSeqNo) continue;
    if (min_seq == kNoSeqNo || buffered.seq() < min_seq) min_seq = buffered.seq();
  }
  out.set_seq(min_seq);
  emitter->Emit(0, std::move(out));
  g.primed = true;
  g.since_last_emit = 0;
  return Status::OK();
}

SeqNo WindowAggOp::StatefulDependency(int) const {
  SeqNo min_seq = kNoSeqNo;
  for (const auto& [key, g] : groups_) {
    for (const auto& t : g.buffer) {
      if (t.seq() == kNoSeqNo) continue;
      if (min_seq == kNoSeqNo || t.seq() < min_seq) min_seq = t.seq();
    }
  }
  return min_seq;
}

}  // namespace aurora
