#include "ops/join_op.h"

namespace aurora {

JoinOp::JoinOp(OperatorSpec spec) : Operator(std::move(spec)) {
  left_key_ = spec_.GetString("left_key", "");
  right_key_ = spec_.GetString("right_key", "");
  window_ = SimDuration::Micros(spec_.GetInt("window_us", 0));
}

Status JoinOp::InitImpl() {
  if (left_key_.empty() || right_key_.empty()) {
    return Status::InvalidArgument("join requires left_key and right_key");
  }
  if (window_.micros() <= 0) {
    return Status::InvalidArgument("join requires window_us > 0");
  }
  AURORA_ASSIGN_OR_RETURN(left_key_index_, input_schema(0)->IndexOf(left_key_));
  AURORA_ASSIGN_OR_RETURN(right_key_index_, input_schema(1)->IndexOf(right_key_));
  std::string prefix = spec_.GetString("right_prefix", "r_");
  std::vector<Field> fields = input_schema(0)->fields();
  for (const auto& f : input_schema(1)->fields()) {
    std::string name = f.name;
    if (input_schema(0)->HasField(name)) name = prefix + name;
    fields.push_back(Field{std::move(name), f.type});
  }
  SetOutputSchema(0, Schema::Make(std::move(fields)));
  return Status::OK();
}

void JoinOp::ExpireOld(SimTime now) {
  auto expire = [&](std::deque<Tuple>* buf) {
    while (!buf->empty() && buf->front().timestamp() + window_ < now) {
      buf->pop_front();
    }
  };
  expire(&left_buffer_);
  expire(&right_buffer_);
}

void JoinOp::EmitJoined(const Tuple& left, const Tuple& right,
                        Emitter* emitter) {
  Tuple::Builder row(output_schema(0), left.num_values() + right.num_values());
  for (const Value& v : left.values()) row.Append(v);
  for (const Value& v : right.values()) row.Append(v);
  Tuple out = row.Finish();
  out.set_timestamp(std::min(left.timestamp(), right.timestamp()));
  // Lineage is well-defined only when both sides share a sequence space
  // (same upstream server); otherwise leave it unset — the HA manager
  // treats such nodes conservatively (§6.2 "special care").
  if (left.seq() != kNoSeqNo && right.seq() != kNoSeqNo) {
    out.set_seq(std::min(left.seq(), right.seq()));
  }
  emitter->Emit(0, std::move(out));
}

Status JoinOp::ProcessImpl(int input, const Tuple& t, SimTime now,
                           Emitter* emitter) {
  ExpireOld(now);
  if (input == 0) {
    const Value& key = t.value(left_key_index_);
    for (const auto& r : right_buffer_) {
      if (r.value(right_key_index_) == key &&
          // The probe also honours the time window against buffered tuples.
          r.timestamp() + window_ >= t.timestamp() &&
          t.timestamp() + window_ >= r.timestamp()) {
        EmitJoined(t, r, emitter);
      }
    }
    left_buffer_.push_back(t);
  } else {
    const Value& key = t.value(right_key_index_);
    for (const auto& l : left_buffer_) {
      if (l.value(left_key_index_) == key &&
          l.timestamp() + window_ >= t.timestamp() &&
          t.timestamp() + window_ >= l.timestamp()) {
        EmitJoined(l, t, emitter);
      }
    }
    right_buffer_.push_back(t);
  }
  return Status::OK();
}

Status JoinOp::ProcessBatchImpl(int input, TupleBatch& batch,
                                BatchEmitter* emitter) {
  if (input < 0 || input > 1) {
    return Status::InvalidArgument("bad join input " + std::to_string(input));
  }
  const size_t probe_key = input == 0 ? left_key_index_ : right_key_index_;
  const size_t build_key = input == 0 ? right_key_index_ : left_key_index_;
  std::deque<Tuple>& own = input == 0 ? left_buffer_ : right_buffer_;
  std::deque<Tuple>& other = input == 0 ? right_buffer_ : left_buffer_;
  bool memo_valid = false;
  Value memo_key;
  SimTime memo_ts{};
  SimTime memo_now{};
  match_scratch_.clear();
  for (size_t i = 0; i < batch.size(); ++i) {
    const Tuple& t = batch.tuple(i);
    NoteBatchTupleIn(input, t);
    emitter->SetCurrent(t);
    SimTime now = batch.now(i);
    // Expire every tuple, exactly like the scalar loop. When `now` repeats,
    // this can only pop tuples appended to `own` since the memo scan — the
    // opposite buffer was already expired at this `now`, so the memoized
    // positions stay valid.
    ExpireOld(now);
    const Value& key = t.value(probe_key);
    bool reuse = memo_valid && now == memo_now && t.timestamp() == memo_ts &&
                 key == memo_key;
    if (!reuse) {
      match_scratch_.clear();
      for (size_t b = 0; b < other.size(); ++b) {
        const Tuple& o = other[b];
        if (o.value(build_key) == key &&
            o.timestamp() + window_ >= t.timestamp() &&
            t.timestamp() + window_ >= o.timestamp()) {
          match_scratch_.push_back(b);
        }
      }
      memo_valid = true;
      memo_key = key;
      memo_ts = t.timestamp();
      memo_now = now;
    }
    for (size_t b : match_scratch_) {
      if (input == 0) {
        EmitJoined(t, other[b], emitter);
      } else {
        EmitJoined(other[b], t, emitter);
      }
    }
    own.push_back(t);
  }
  return Status::OK();
}

SeqNo JoinOp::StatefulDependency(int input) const {
  const std::deque<Tuple>& buf = input == 0 ? left_buffer_ : right_buffer_;
  SeqNo min_seq = kNoSeqNo;
  for (const auto& t : buf) {
    if (t.seq() == kNoSeqNo) continue;
    if (min_seq == kNoSeqNo || t.seq() < min_seq) min_seq = t.seq();
  }
  return min_seq;
}

}  // namespace aurora
