#include "tuple/tuple_batch.h"

namespace aurora {

void TupleBatch::Clear() {
  tuples_.clear();
  nows_.clear();
  for (Column& c : cols_) {
    c.built = false;
    c.ok = false;
  }
  uniform_ = true;
}

const int64_t* TupleBatch::I64Column(size_t field) {
  if (tuples_.empty() || !uniform_ || schema() == nullptr) return nullptr;
  if (field >= tuples_.front().num_values()) return nullptr;
  if (cols_.size() <= field) cols_.resize(field + 1);
  Column& c = cols_[field];
  if (c.built) return c.ok ? c.i64.data() : nullptr;
  c.built = true;
  c.i64.clear();
  c.i64.reserve(tuples_.size());
  for (const Tuple& t : tuples_) {
    const Value& v = t.value(field);
    if (v.type() != ValueType::kInt64) return nullptr;  // ok stays false
    c.i64.push_back(v.AsInt());
  }
  c.ok = true;
  return c.i64.data();
}

}  // namespace aurora
