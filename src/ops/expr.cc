#include "ops/expr.h"

namespace aurora {

Expr Expr::FieldRef(std::string field) {
  Expr e;
  e.kind_ = Kind::kField;
  e.field_ = std::move(field);
  return e;
}

Expr Expr::Constant(Value v) {
  Expr e;
  e.kind_ = Kind::kConst;
  e.constant_ = std::move(v);
  return e;
}

Expr Expr::Arith(ArithOp op, Expr lhs, Expr rhs) {
  Expr e;
  e.kind_ = Kind::kArith;
  e.op_ = op;
  e.children_.push_back(std::move(lhs));
  e.children_.push_back(std::move(rhs));
  return e;
}

Status Expr::Bind(const SchemaPtr& input) const {
  switch (kind_) {
    case Kind::kField: {
      if (input == nullptr) return Status::InvalidArgument("null schema");
      AURORA_ASSIGN_OR_RETURN(size_t idx, input->IndexOf(field_));
      bound_index_ = idx;
      bound_schema_ = input;
      return Status::OK();
    }
    case Kind::kConst:
      return Status::OK();
    case Kind::kArith:
      AURORA_RETURN_NOT_OK(children_[0].Bind(input));
      return children_[1].Bind(input);
  }
  return Status::Internal("bad expr kind");
}

Result<Value> Expr::Eval(const Tuple& t) const {
  switch (kind_) {
    case Kind::kField: {
      if (t.schema().get() != bound_schema_.get()) {
        AURORA_RETURN_NOT_OK(Bind(t.schema()));
      }
      return t.value(bound_index_);
    }
    case Kind::kConst:
      return constant_;
    case Kind::kArith: {
      AURORA_ASSIGN_OR_RETURN(Value l, children_[0].Eval(t));
      AURORA_ASSIGN_OR_RETURN(Value r, children_[1].Eval(t));
      bool ints = l.type() == ValueType::kInt64 && r.type() == ValueType::kInt64;
      if (op_ == ArithOp::kDiv) {
        double rv = r.AsNumeric();
        if (rv == 0.0) return Status::InvalidArgument("division by zero");
        return Value(l.AsNumeric() / rv);
      }
      if (ints) {
        int64_t a = l.AsInt(), b = r.AsInt();
        switch (op_) {
          case ArithOp::kAdd:
            return Value(a + b);
          case ArithOp::kSub:
            return Value(a - b);
          case ArithOp::kMul:
            return Value(a * b);
          case ArithOp::kDiv:
            break;
        }
      }
      double a = l.AsNumeric(), b = r.AsNumeric();
      switch (op_) {
        case ArithOp::kAdd:
          return Value(a + b);
        case ArithOp::kSub:
          return Value(a - b);
        case ArithOp::kMul:
          return Value(a * b);
        case ArithOp::kDiv:
          break;
      }
      return Status::Internal("unreachable arith op");
    }
  }
  return Status::Internal("bad expr kind");
}

bool Expr::EvalBatch(TupleBatch& batch, std::vector<int64_t>* out) const {
  const size_t n = batch.size();
  switch (kind_) {
    case Kind::kField: {
      if (!batch.uniform_schema() || batch.schema() == nullptr) return false;
      if (batch.schema().get() != bound_schema_.get()) {
        if (!Bind(batch.schema()).ok()) return false;
      }
      const int64_t* col = batch.I64Column(bound_index_);
      if (col == nullptr) return false;
      out->assign(col, col + n);
      return true;
    }
    case Kind::kConst:
      if (constant_.type() != ValueType::kInt64) return false;
      out->assign(n, constant_.AsInt());
      return true;
    case Kind::kArith: {
      if (op_ == ArithOp::kDiv) return false;  // always double, may error
      std::vector<int64_t> rhs;
      if (!children_[0].EvalBatch(batch, out)) return false;
      if (!children_[1].EvalBatch(batch, &rhs)) return false;
      int64_t* a = out->data();
      const int64_t* b = rhs.data();
      switch (op_) {
        case ArithOp::kAdd:
          for (size_t i = 0; i < n; ++i) a[i] += b[i];
          break;
        case ArithOp::kSub:
          for (size_t i = 0; i < n; ++i) a[i] -= b[i];
          break;
        case ArithOp::kMul:
          for (size_t i = 0; i < n; ++i) a[i] *= b[i];
          break;
        case ArithOp::kDiv:
          return false;
      }
      return true;
    }
  }
  return false;
}

Result<ValueType> Expr::ResultType(const Schema& input) const {
  switch (kind_) {
    case Kind::kField: {
      AURORA_ASSIGN_OR_RETURN(size_t idx, input.IndexOf(field_));
      return input.field(idx).type;
    }
    case Kind::kConst:
      return constant_.type();
    case Kind::kArith: {
      if (op_ == ArithOp::kDiv) return ValueType::kDouble;
      AURORA_ASSIGN_OR_RETURN(ValueType l, children_[0].ResultType(input));
      AURORA_ASSIGN_OR_RETURN(ValueType r, children_[1].ResultType(input));
      if (l == ValueType::kInt64 && r == ValueType::kInt64) {
        return ValueType::kInt64;
      }
      return ValueType::kDouble;
    }
  }
  return Status::Internal("bad expr kind");
}

bool Expr::IsFieldRef(std::string* name) const {
  if (kind_ != Kind::kField) return false;
  if (name != nullptr) *name = field_;
  return true;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kField:
      return field_;
    case Kind::kConst:
      return constant_.ToString();
    case Kind::kArith: {
      const char* op = op_ == ArithOp::kAdd   ? "+"
                       : op_ == ArithOp::kSub ? "-"
                       : op_ == ArithOp::kMul ? "*"
                                              : "/";
      return "(" + children_[0].ToString() + " " + op + " " +
             children_[1].ToString() + ")";
    }
  }
  return "?";
}

void Expr::Encode(Encoder* enc) const {
  enc->PutU8(static_cast<uint8_t>(kind_));
  switch (kind_) {
    case Kind::kField:
      enc->PutString(field_);
      break;
    case Kind::kConst:
      enc->PutValue(constant_);
      break;
    case Kind::kArith:
      enc->PutU8(static_cast<uint8_t>(op_));
      children_[0].Encode(enc);
      children_[1].Encode(enc);
      break;
  }
}

Result<Expr> Expr::Decode(Decoder* dec) { return DecodeAt(dec, 0); }

Result<Expr> Expr::DecodeAt(Decoder* dec, int depth) {
  if (depth > kMaxDecodeDepth) {
    return Status::InvalidArgument("expr nested deeper than " +
                                   std::to_string(kMaxDecodeDepth));
  }
  AURORA_ASSIGN_OR_RETURN(uint8_t tag, dec->GetU8());
  switch (static_cast<Kind>(tag)) {
    case Kind::kField: {
      AURORA_ASSIGN_OR_RETURN(std::string field, dec->GetString());
      return FieldRef(std::move(field));
    }
    case Kind::kConst: {
      AURORA_ASSIGN_OR_RETURN(Value v, dec->GetValue());
      return Constant(std::move(v));
    }
    case Kind::kArith: {
      AURORA_ASSIGN_OR_RETURN(uint8_t op, dec->GetU8());
      if (op > static_cast<uint8_t>(ArithOp::kDiv)) {
        return Status::InvalidArgument("bad arith op tag");
      }
      AURORA_ASSIGN_OR_RETURN(Expr lhs, DecodeAt(dec, depth + 1));
      AURORA_ASSIGN_OR_RETURN(Expr rhs, DecodeAt(dec, depth + 1));
      return Arith(static_cast<ArithOp>(op), std::move(lhs), std::move(rhs));
    }
  }
  return Status::InvalidArgument("bad expr tag " + std::to_string(tag));
}

}  // namespace aurora
