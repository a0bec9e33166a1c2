#include "tuple/tuple.h"

#include <memory>
#include <new>

#include "common/logging.h"

namespace aurora {

static_assert(sizeof(Tuple) == 32,
              "a Tuple handle is one pointer and three words");

Tuple::Body* Tuple::Allocate(SchemaPtr schema, size_t n) {
  static_assert(sizeof(Body) == 32, "the block header is 32 bytes");
  static_assert(alignof(Value) <= alignof(Body) &&
                    sizeof(Body) % alignof(Value) == 0,
                "values start aligned right after the header");
  AURORA_CHECK(n <= UINT32_MAX) << "too many values for one tuple";
  void* raw = ::operator new(sizeof(Body) + n * sizeof(Value));
  return new (raw) Body{{1}, static_cast<uint32_t>(n), {kUnknownWire},
                        std::move(schema)};
}

void Tuple::Destroy(Body* body, size_t built) noexcept {
  std::destroy_n(body->values(), built);
  body->~Body();
  ::operator delete(body);
}

Tuple::Tuple(SchemaPtr schema, std::vector<Value> values) {
  Builder row(std::move(schema), values.size());
  for (Value& v : values) row.Append(std::move(v));
  *this = row.Finish();
}

const Value& Tuple::Get(const std::string& field_name) const {
  AURORA_DCHECK(!TupleHotPathSection::InHotPath())
      << "Tuple::Get(\"" << field_name
      << "\") inside an operator activation — bind the field index at box "
         "initialization instead (Expr::Bind / Predicate::Bind / "
         "Schema::IndexOf at InitImpl)";
  AURORA_CHECK(schema() != nullptr) << "tuple has no schema";
  auto idx = schema()->IndexOf(field_name);
  AURORA_CHECK(idx.ok()) << idx.status().ToString();
  return body_->values()[*idx];
}

Tuple::Body* Tuple::DetachBody() {
  AURORA_CHECK(body_ != nullptr) << "tuple has no values";
  // Acquire pairs with the release half of other handles' drops, so their
  // reads of the values happen before this handle writes them in place.
  if (body_->refs.load(std::memory_order_acquire) != 1) {
    Builder copy(body_->schema, body_->count);
    for (const Value& v : values()) copy.Append(v);
    Tuple fresh = copy.Finish();
    std::swap(body_, fresh.body_);  // `fresh` drops this handle's share
  }
  body_->wire_values.store(kUnknownWire, std::memory_order_relaxed);
  return body_;
}

void Tuple::SetValue(size_t i, Value v) {
  Body* body = DetachBody();
  AURORA_CHECK(i < body->count) << "value index out of range";
  body->values()[i] = std::move(v);
}

std::span<Value> Tuple::MutableValues() {
  Body* body = DetachBody();
  return {body->values(), body->count};
}

size_t Tuple::WireSize() const {
  // 8-byte timestamp + 8-byte seq + 8-byte trace id + 2-byte value count.
  size_t size = 26;
  if (body_ == nullptr) return size;
  size_t cached = body_->wire_values.load(std::memory_order_relaxed);
  if (cached == kUnknownWire) {
    size_t values_size = 0;
    for (const Value& v : values()) values_size += v.WireSize();
    body_->wire_values.store(values_size, std::memory_order_relaxed);
    cached = values_size;
  }
  return size + cached;
}

std::string Tuple::ToString() const {
  std::string out = "(";
  const std::span<const Value> vals = values();
  const SchemaPtr& s = schema();
  for (size_t i = 0; i < vals.size(); ++i) {
    if (i > 0) out += ", ";
    if (s && i < s->num_fields()) {
      out += s->field(i).name;
      out += "=";
    }
    out += vals[i].ToString();
  }
  out += ")";
  return out;
}

Tuple MakeTuple(const SchemaPtr& schema, std::vector<Value> values) {
  AURORA_CHECK(schema == nullptr || schema->num_fields() == values.size())
      << "value count does not match schema " << schema->ToString();
  return Tuple(schema, std::move(values));
}

}  // namespace aurora
