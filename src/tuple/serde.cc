#include "tuple/serde.h"

#include <algorithm>
#include <cstring>

namespace aurora {

void Encoder::PutU16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void Encoder::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Encoder::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Encoder::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Encoder::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  PutBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

void Encoder::PutValue(const Value& v) {
  PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      PutU8(v.AsBool() ? 1 : 0);
      break;
    case ValueType::kInt64:
      PutI64(v.AsInt());
      break;
    case ValueType::kDouble:
      PutDouble(v.AsDouble());
      break;
    case ValueType::kString:
      PutString(v.AsString());
      break;
  }
}

void Encoder::PutTuple(const Tuple& t) {
  PutI64(t.timestamp().micros());
  PutU64(t.seq());
  PutU64(t.trace_id());
  PutU16(static_cast<uint16_t>(t.num_values()));
  for (size_t i = 0; i < t.num_values(); ++i) PutValue(t.value(i));
}

void Encoder::PutSchema(const Schema& s) {
  PutU16(static_cast<uint16_t>(s.num_fields()));
  for (const auto& f : s.fields()) {
    PutString(f.name);
    PutU8(static_cast<uint8_t>(f.type));
  }
}

Status Decoder::Need(size_t n) const {
  if (n > size_ - pos_) {
    return Status::OutOfRange("decode past end of buffer (need " +
                              std::to_string(n) + " bytes, have " +
                              std::to_string(size_ - pos_) + ")");
  }
  return Status::OK();
}

Result<uint8_t> Decoder::GetU8() {
  AURORA_RETURN_NOT_OK(Need(1));
  return data_[pos_++];
}

Result<uint16_t> Decoder::GetU16() {
  AURORA_RETURN_NOT_OK(Need(2));
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<uint32_t> Decoder::GetU32() {
  AURORA_RETURN_NOT_OK(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<uint64_t> Decoder::GetU64() {
  AURORA_RETURN_NOT_OK(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Result<int64_t> Decoder::GetI64() {
  AURORA_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<double> Decoder::GetDouble() {
  AURORA_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

Result<std::string> Decoder::GetString() {
  AURORA_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  AURORA_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes, GetBytes(len));
  return std::string(reinterpret_cast<const char*>(bytes.data()), len);
}

Result<std::span<const uint8_t>> Decoder::GetBytes(size_t n) {
  AURORA_RETURN_NOT_OK(Need(n));
  std::span<const uint8_t> bytes(data_ + pos_, n);
  pos_ += n;
  return bytes;
}

Result<Value> Decoder::GetValue() {
  AURORA_ASSIGN_OR_RETURN(uint8_t tag, GetU8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      AURORA_ASSIGN_OR_RETURN(uint8_t b, GetU8());
      return Value(b != 0);
    }
    case ValueType::kInt64: {
      AURORA_ASSIGN_OR_RETURN(int64_t v, GetI64());
      return Value(v);
    }
    case ValueType::kDouble: {
      AURORA_ASSIGN_OR_RETURN(double v, GetDouble());
      return Value(v);
    }
    case ValueType::kString: {
      AURORA_ASSIGN_OR_RETURN(std::string v, GetString());
      return Value(std::move(v));
    }
  }
  return Status::InvalidArgument("bad value tag " + std::to_string(tag));
}

Result<Tuple> Decoder::GetTuple(const SchemaPtr& schema) {
  AURORA_ASSIGN_OR_RETURN(int64_t ts, GetI64());
  AURORA_ASSIGN_OR_RETURN(uint64_t seq, GetU64());
  AURORA_ASSIGN_OR_RETURN(uint64_t trace_id, GetU64());
  AURORA_ASSIGN_OR_RETURN(uint16_t count, GetU16());
  // Every value takes at least its 1-byte tag, so no honest count exceeds
  // the bytes left; a hostile one must not size the allocation.
  AURORA_RETURN_NOT_OK(Need(count));
  Tuple::Builder row(schema, count);
  for (uint16_t i = 0; i < count; ++i) {
    AURORA_ASSIGN_OR_RETURN(Value v, GetValue());
    row.Append(std::move(v));
  }
  Tuple t = row.Finish();
  t.set_timestamp(SimTime::Micros(ts));
  t.set_seq(seq);
  t.set_trace_id(trace_id);
  return t;
}

Result<SchemaPtr> Decoder::GetSchema() {
  AURORA_ASSIGN_OR_RETURN(uint16_t count, GetU16());
  std::vector<Field> fields;
  fields.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    AURORA_ASSIGN_OR_RETURN(std::string name, GetString());
    AURORA_ASSIGN_OR_RETURN(uint8_t tag, GetU8());
    if (tag > static_cast<uint8_t>(ValueType::kString)) {
      return Status::InvalidArgument("bad field type tag " + std::to_string(tag));
    }
    fields.push_back(Field{std::move(name), static_cast<ValueType>(tag)});
  }
  return Schema::Make(std::move(fields));
}

std::vector<uint8_t> SerializeTuples(const std::vector<Tuple>& tuples) {
  std::vector<uint8_t> out;
  SerializeTuplesInto(tuples, &out);
  return out;
}

void SerializeTuplesInto(const Tuple* tuples, size_t n,
                         std::vector<uint8_t>* out) {
  Encoder enc(std::move(*out));
  enc.PutU32(static_cast<uint32_t>(n));
  for (size_t i = 0; i < n; ++i) enc.PutTuple(tuples[i]);
  *out = enc.TakeBuffer();
}

void SerializeTuplesInto(const std::vector<Tuple>& tuples,
                         std::vector<uint8_t>* out) {
  SerializeTuplesInto(tuples.data(), tuples.size(), out);
}

Result<std::vector<Tuple>> DeserializeTuples(const std::vector<uint8_t>& buf,
                                             const SchemaPtr& schema) {
  std::vector<Tuple> tuples;
  AURORA_RETURN_NOT_OK(DeserializeTuplesInto(buf, schema, &tuples));
  return tuples;
}

Status DeserializeTuplesInto(const std::vector<uint8_t>& buf,
                             const SchemaPtr& schema,
                             std::vector<Tuple>* out) {
  out->clear();
  Decoder dec(buf);
  AURORA_ASSIGN_OR_RETURN(uint32_t count, dec.GetU32());
  // Every encoded tuple takes at least one byte, so no honest count exceeds
  // the bytes left; a hostile one must not size the allocation.
  out->reserve(std::min<size_t>(count, dec.remaining()));
  for (uint32_t i = 0; i < count; ++i) {
    AURORA_ASSIGN_OR_RETURN(Tuple t, dec.GetTuple(schema));
    out->push_back(std::move(t));
  }
  if (!dec.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after tuple batch");
  }
  return Status::OK();
}

}  // namespace aurora
