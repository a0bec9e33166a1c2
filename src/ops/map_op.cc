#include "ops/map_op.h"

namespace aurora {

Status MapOp::InitImpl() {
  if (spec_.projections.empty()) {
    return Status::InvalidArgument("map requires at least one projection");
  }
  std::vector<Field> fields;
  ident_.clear();
  for (const auto& [name, expr] : spec_.projections) {
    AURORA_ASSIGN_OR_RETURN(ValueType type, expr.ResultType(*input_schema(0)));
    // Resolve field names to indices once; ProcessImpl never looks up a name.
    AURORA_RETURN_NOT_OK(expr.Bind(input_schema(0)));
    std::string field;
    int index = -1;
    if (expr.IsFieldRef(&field)) {
      AURORA_ASSIGN_OR_RETURN(size_t idx, input_schema(0)->IndexOf(field));
      index = static_cast<int>(idx);
    }
    ident_.push_back(index);
    fields.push_back(Field{name, type});
  }
  SetOutputSchema(0, Schema::Make(std::move(fields)));
  return Status::OK();
}

Result<Tuple> MapOp::Project(const Tuple& t, bool bound, size_t col_row) {
  Tuple::Builder row(output_schema(0), ident_.size());
  for (size_t j = 0; j < ident_.size(); ++j) {
    if (bound && ident_[j] >= 0) {
      // A bound field ref cannot error, so copying it keeps the scalar
      // error semantics.
      row.Append(t.value(static_cast<size_t>(ident_[j])));
    } else if (col_row != kNoColumns && fast_[j]) {
      row.Append(col_scratch_[j][col_row]);
    } else {
      AURORA_ASSIGN_OR_RETURN(Value v, spec_.projections[j].second.Eval(t));
      row.Append(std::move(v));
    }
  }
  Tuple out = row.Finish();
  out.set_timestamp(t.timestamp());
  return out;
}

Status MapOp::ProcessImpl(int, const Tuple& t, SimTime, Emitter* emitter) {
  AURORA_ASSIGN_OR_RETURN(
      Tuple out, Project(t, t.schema() == input_schema(0), kNoColumns));
  emitter->Emit(0, std::move(out));
  return Status::OK();
}

Status MapOp::ProcessBatchImpl(int input, TupleBatch& batch,
                               BatchEmitter* emitter) {
  const size_t nproj = ident_.size();
  const bool bound =
      batch.uniform_schema() && batch.schema() == input_schema(0);
  col_scratch_.resize(nproj);
  fast_.assign(nproj, 0);
  for (size_t j = 0; j < nproj; ++j) {
    if (bound && ident_[j] >= 0) continue;
    fast_[j] =
        spec_.projections[j].second.EvalBatch(batch, &col_scratch_[j]) ? 1 : 0;
  }
  Status first = Status::OK();
  for (size_t i = 0; i < batch.size(); ++i) {
    const Tuple& t = batch.tuple(i);
    NoteBatchTupleIn(input, t);
    emitter->SetCurrent(t);
    Result<Tuple> out = Project(t, bound, i);
    if (!out.ok()) {
      // Scalar semantics: the failing tuple emits nothing, the error
      // surfaces to the engine (which defers it and keeps going).
      if (first.ok()) first = out.status();
      continue;
    }
    emitter->Emit(0, std::move(out).ValueUnsafe());
  }
  return first;
}

}  // namespace aurora
