#ifndef AURORA_TUPLE_SCHEMA_H_
#define AURORA_TUPLE_SCHEMA_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "tuple/value.h"

namespace aurora {

/// A named, typed attribute of a stream schema.
struct Field {
  std::string name;
  ValueType type;

  bool operator==(const Field& other) const = default;
};

/// \brief Ordered collection of fields describing the tuples of a stream.
///
/// Schemas are immutable and shared (shared_ptr) between the tuples of a
/// stream, the catalog, and operators. Field lookup by name is linear —
/// stream schemas are small (the paper's examples have 2–3 attributes).
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  static std::shared_ptr<Schema> Make(std::vector<Field> fields) {
    return std::make_shared<Schema>(std::move(fields));
  }

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the field with the given name, or NotFound.
  Result<size_t> IndexOf(const std::string& name) const;
  bool HasField(const std::string& name) const;

  /// Same object, or the same fields in the same order. The identity test
  /// comes first: every pushed tuple is checked against its port's schema,
  /// and it almost always carries that very object.
  bool Equals(const Schema& other) const {
    return this == &other || fields_ == other.fields_;
  }

  /// Schema with `extra` appended; used by aggregate operators that emit
  /// (groupby attrs..., Result).
  std::shared_ptr<Schema> AddField(Field extra) const;

  /// Schema containing only the named fields, in the given order.
  Result<std::shared_ptr<Schema>> Project(
      const std::vector<std::string>& names) const;

  std::string ToString() const;

 private:
  std::vector<Field> fields_;
};

using SchemaPtr = std::shared_ptr<Schema>;

}  // namespace aurora

#endif  // AURORA_TUPLE_SCHEMA_H_
