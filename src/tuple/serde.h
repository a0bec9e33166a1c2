#ifndef AURORA_TUPLE_SERDE_H_
#define AURORA_TUPLE_SERDE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "tuple/tuple.h"

namespace aurora {

/// \brief Append-only binary encoder for the inter-node wire format.
///
/// Fixed-width little-endian integers; strings are length-prefixed (u32).
/// The format is deliberately simple: the paper's transport argument is
/// about connection multiplexing and scheduling, not encoding efficiency,
/// but every message that crosses a simulated link is genuinely encoded and
/// decoded so that bandwidth accounting reflects real byte counts.
class Encoder {
 public:
  Encoder() = default;
  /// Takes over `reuse`'s storage (cleared, capacity kept) so repeated
  /// encodes on a hot path can recycle one buffer instead of regrowing.
  explicit Encoder(std::vector<uint8_t>&& reuse) : buf_(std::move(reuse)) {
    buf_.clear();
  }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  void PutString(const std::string& s);
  /// Appends `n` raw bytes (no length prefix).
  void PutBytes(const uint8_t* data, size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }

  void PutValue(const Value& v);
  void PutTuple(const Tuple& t);
  void PutSchema(const Schema& s);

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Deepest nesting the recursive decoders (Expr, Predicate) accept, so
/// hostile bytes cannot recurse the stack away. The system's own
/// expressions nest a few levels at most.
inline constexpr int kMaxDecodeDepth = 64;

/// \brief Bounds-checked decoder over a byte buffer.
///
/// Every accessor returns Result so that a corrupted or truncated message is
/// surfaced as a Status instead of undefined behaviour.
class Decoder {
 public:
  Decoder(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Decoder(const std::vector<uint8_t>& buf)
      : Decoder(buf.data(), buf.size()) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<std::string> GetString();
  /// The next `n` raw bytes, as a view into the decoded buffer.
  Result<std::span<const uint8_t>> GetBytes(size_t n);

  Result<Value> GetValue();
  /// Decodes a tuple; the schema is attached but not re-validated per tuple.
  /// A value count larger than the bytes left fails with OutOfRange before
  /// anything is allocated.
  Result<Tuple> GetTuple(const SchemaPtr& schema);
  Result<SchemaPtr> GetSchema();

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  Status Need(size_t n) const;

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Round-trip helpers used by tests and the transport layer.
std::vector<uint8_t> SerializeTuples(const std::vector<Tuple>& tuples);
Result<std::vector<Tuple>> DeserializeTuples(const std::vector<uint8_t>& buf,
                                             const SchemaPtr& schema);

/// Scratch-reusing variants for per-message hot paths: `out` is cleared but
/// keeps its capacity, so steady-state encode/decode does not reallocate.
/// The span form lets chunked batch emissions serialize straight out of an
/// emission buffer without materializing a vector.
void SerializeTuplesInto(const Tuple* tuples, size_t n,
                         std::vector<uint8_t>* out);
void SerializeTuplesInto(const std::vector<Tuple>& tuples,
                         std::vector<uint8_t>* out);
Status DeserializeTuplesInto(const std::vector<uint8_t>& buf,
                             const SchemaPtr& schema,
                             std::vector<Tuple>* out);

}  // namespace aurora

#endif  // AURORA_TUPLE_SERDE_H_
