#include "ops/predicate.h"

#include "common/logging.h"

namespace aurora {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

Predicate Predicate::True() { return Predicate(); }

Predicate Predicate::Compare(std::string field, CompareOp op, Value constant) {
  Predicate p;
  p.kind_ = Kind::kCompare;
  p.field_ = std::move(field);
  p.op_ = op;
  p.constant_ = std::move(constant);
  return p;
}

Predicate Predicate::And(Predicate a, Predicate b) {
  Predicate p;
  p.kind_ = Kind::kAnd;
  p.children_.push_back(std::move(a));
  p.children_.push_back(std::move(b));
  return p;
}

Predicate Predicate::Or(Predicate a, Predicate b) {
  Predicate p;
  p.kind_ = Kind::kOr;
  p.children_.push_back(std::move(a));
  p.children_.push_back(std::move(b));
  return p;
}

Predicate Predicate::Not(Predicate a) {
  Predicate p;
  p.kind_ = Kind::kNot;
  p.children_.push_back(std::move(a));
  return p;
}

Predicate Predicate::HashPartition(std::string field, uint32_t modulus,
                                   uint32_t remainder) {
  Predicate p;
  p.kind_ = Kind::kHash;
  p.field_ = std::move(field);
  p.modulus_ = modulus;
  p.remainder_ = remainder;
  return p;
}

Status Predicate::Bind(const SchemaPtr& input) const {
  switch (kind_) {
    case Kind::kTrue:
      return Status::OK();
    case Kind::kCompare:
    case Kind::kHash: {
      if (input == nullptr) return Status::InvalidArgument("null schema");
      AURORA_ASSIGN_OR_RETURN(size_t idx, input->IndexOf(field_));
      bound_index_ = idx;
      bound_schema_ = input;
      return Status::OK();
    }
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot:
      for (const Predicate& child : children_) {
        AURORA_RETURN_NOT_OK(child.Bind(input));
      }
      return Status::OK();
  }
  return Status::Internal("bad predicate kind");
}

const Value& Predicate::FieldValue(const Tuple& t) const {
  if (t.schema().get() != bound_schema_.get()) {
    // Missing fields abort, exactly like the Tuple::Get this replaces:
    // operator wiring validates field presence at network-construction time.
    Status bound = Bind(t.schema());
    AURORA_CHECK(bound.ok()) << bound.ToString();
  }
  return t.value(bound_index_);
}

bool Predicate::Eval(const Tuple& t) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kCompare: {
      int c = FieldValue(t).Compare(constant_);
      switch (op_) {
        case CompareOp::kEq:
          return c == 0;
        case CompareOp::kNe:
          return c != 0;
        case CompareOp::kLt:
          return c < 0;
        case CompareOp::kLe:
          return c <= 0;
        case CompareOp::kGt:
          return c > 0;
        case CompareOp::kGe:
          return c >= 0;
      }
      return false;
    }
    case Kind::kAnd:
      return children_[0].Eval(t) && children_[1].Eval(t);
    case Kind::kOr:
      return children_[0].Eval(t) || children_[1].Eval(t);
    case Kind::kNot:
      return !children_[0].Eval(t);
    case Kind::kHash:
      return modulus_ != 0 && FieldValue(t).Hash() % modulus_ == remainder_;
  }
  return false;
}

namespace {

// The one columnar kernel shape: an int64 column against an int64 constant.
// Value::Compare orders two int64 values as plain integers, so each C++
// comparison gives Eval's verdict.
void FillCompareI64(const int64_t* col, int64_t c, size_t n, CompareOp op,
                    uint8_t* out) {
  switch (op) {
    case CompareOp::kEq:
      for (size_t i = 0; i < n; ++i) out[i] = col[i] == c;
      break;
    case CompareOp::kNe:
      for (size_t i = 0; i < n; ++i) out[i] = col[i] != c;
      break;
    case CompareOp::kLt:
      for (size_t i = 0; i < n; ++i) out[i] = col[i] < c;
      break;
    case CompareOp::kLe:
      for (size_t i = 0; i < n; ++i) out[i] = col[i] <= c;
      break;
    case CompareOp::kGt:
      for (size_t i = 0; i < n; ++i) out[i] = col[i] > c;
      break;
    case CompareOp::kGe:
      for (size_t i = 0; i < n; ++i) out[i] = col[i] >= c;
      break;
  }
}

}  // namespace

void Predicate::EvalBatch(TupleBatch& batch, std::vector<uint8_t>* out) const {
  const size_t n = batch.size();
  out->resize(n);
  if (n == 0) return;
  if (kind_ == Kind::kCompare && constant_.type() == ValueType::kInt64 &&
      batch.uniform_schema() && batch.schema() != nullptr) {
    if (batch.schema().get() != bound_schema_.get()) {
      // Same lazy rebind (and same abort on a missing field) as FieldValue.
      Status bound = Bind(batch.schema());
      AURORA_CHECK(bound.ok()) << bound.ToString();
    }
    if (const int64_t* col = batch.I64Column(bound_index_)) {
      FillCompareI64(col, constant_.AsInt(), n, op_, out->data());
      return;
    }
  }
  for (size_t i = 0; i < n; ++i) (*out)[i] = Eval(batch.tuple(i)) ? 1 : 0;
}

void Predicate::CollectFields(std::set<std::string>* fields) const {
  switch (kind_) {
    case Kind::kTrue:
      break;
    case Kind::kCompare:
    case Kind::kHash:
      fields->insert(field_);
      break;
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot:
      for (const Predicate& child : children_) child.CollectFields(fields);
      break;
  }
}

std::string Predicate::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "true";
    case Kind::kCompare:
      return field_ + " " + CompareOpName(op_) + " " + constant_.ToString();
    case Kind::kAnd:
      return "(" + children_[0].ToString() + " && " + children_[1].ToString() +
             ")";
    case Kind::kOr:
      return "(" + children_[0].ToString() + " || " + children_[1].ToString() +
             ")";
    case Kind::kNot:
      return "!(" + children_[0].ToString() + ")";
    case Kind::kHash:
      return "hash(" + field_ + ") % " + std::to_string(modulus_) +
             " == " + std::to_string(remainder_);
  }
  return "?";
}

void Predicate::Encode(Encoder* enc) const {
  enc->PutU8(static_cast<uint8_t>(kind_));
  switch (kind_) {
    case Kind::kTrue:
      break;
    case Kind::kCompare:
      enc->PutString(field_);
      enc->PutU8(static_cast<uint8_t>(op_));
      enc->PutValue(constant_);
      break;
    case Kind::kAnd:
    case Kind::kOr:
      children_[0].Encode(enc);
      children_[1].Encode(enc);
      break;
    case Kind::kNot:
      children_[0].Encode(enc);
      break;
    case Kind::kHash:
      enc->PutString(field_);
      enc->PutU32(modulus_);
      enc->PutU32(remainder_);
      break;
  }
}

Result<Predicate> Predicate::Decode(Decoder* dec) { return DecodeAt(dec, 0); }

Result<Predicate> Predicate::DecodeAt(Decoder* dec, int depth) {
  if (depth > kMaxDecodeDepth) {
    return Status::InvalidArgument("predicate nested deeper than " +
                                   std::to_string(kMaxDecodeDepth));
  }
  AURORA_ASSIGN_OR_RETURN(uint8_t tag, dec->GetU8());
  switch (static_cast<Kind>(tag)) {
    case Kind::kTrue:
      return True();
    case Kind::kCompare: {
      AURORA_ASSIGN_OR_RETURN(std::string field, dec->GetString());
      AURORA_ASSIGN_OR_RETURN(uint8_t op, dec->GetU8());
      if (op > static_cast<uint8_t>(CompareOp::kGe)) {
        return Status::InvalidArgument("bad compare op tag");
      }
      AURORA_ASSIGN_OR_RETURN(Value constant, dec->GetValue());
      return Compare(std::move(field), static_cast<CompareOp>(op),
                     std::move(constant));
    }
    case Kind::kAnd: {
      AURORA_ASSIGN_OR_RETURN(Predicate a, DecodeAt(dec, depth + 1));
      AURORA_ASSIGN_OR_RETURN(Predicate b, DecodeAt(dec, depth + 1));
      return And(std::move(a), std::move(b));
    }
    case Kind::kOr: {
      AURORA_ASSIGN_OR_RETURN(Predicate a, DecodeAt(dec, depth + 1));
      AURORA_ASSIGN_OR_RETURN(Predicate b, DecodeAt(dec, depth + 1));
      return Or(std::move(a), std::move(b));
    }
    case Kind::kNot: {
      AURORA_ASSIGN_OR_RETURN(Predicate a, DecodeAt(dec, depth + 1));
      return Not(std::move(a));
    }
    case Kind::kHash: {
      AURORA_ASSIGN_OR_RETURN(std::string field, dec->GetString());
      AURORA_ASSIGN_OR_RETURN(uint32_t modulus, dec->GetU32());
      AURORA_ASSIGN_OR_RETURN(uint32_t remainder, dec->GetU32());
      if (modulus == 0) {
        return Status::InvalidArgument("hash predicate modulus must be > 0");
      }
      return HashPartition(std::move(field), modulus, remainder);
    }
  }
  return Status::InvalidArgument("bad predicate tag " + std::to_string(tag));
}

}  // namespace aurora
