#ifndef AURORA_ENGINE_CATALOG_H_
#define AURORA_ENGINE_CATALOG_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "ops/op_spec.h"
#include "tuple/schema.h"

namespace aurora {

/// Node identifier within the overlay (defined here to avoid a dependency
/// cycle with src/net).
using NodeId = int;

/// Catalog entry for a registered stream (paper §4.1–4.2): its schema and
/// the (possibly stale) physical locations where its events are available.
struct StreamInfo {
  std::string name;
  SchemaPtr schema;
  std::vector<NodeId> locations;
};

/// Catalog entry for one running piece of a query: which boxes run where.
struct QueryPieceInfo {
  NodeId node = -1;
  std::vector<std::string> box_names;
};

struct QueryInfo {
  std::string name;
  std::vector<QueryPieceInfo> pieces;
};

/// \brief Intra-participant catalog (paper §4.1).
///
/// Holds definitions of schemas, streams, named operators (the "pre-defined
/// set" offered for remote definition), and the content/location of running
/// query pieces. Every node owned by a participant has access to the full
/// intra-participant catalog; the inter-participant (global) catalog is the
/// DHT-backed DhtCatalog in src/dht.
class Catalog {
 public:
  Status DefineSchema(const std::string& name, SchemaPtr schema);
  Result<SchemaPtr> GetSchema(const std::string& name) const;

  Status DefineStream(StreamInfo info);
  Result<StreamInfo> GetStream(const std::string& name) const;
  /// Updates stream locations after load sharing moves or partitions data.
  Status SetStreamLocations(const std::string& name, std::vector<NodeId> locs);

  /// Registers an operator definition other participants (or the splitter)
  /// may instantiate by name.
  Status DefineOperator(const std::string& name, OperatorSpec spec);
  Result<OperatorSpec> GetOperator(const std::string& name) const;
  std::vector<std::string> ListOperators() const;

  Status DefineQuery(QueryInfo info);
  Result<QueryInfo> GetQuery(const std::string& name) const;
  Status SetQueryPieces(const std::string& name,
                        std::vector<QueryPieceInfo> pieces);

 private:
  std::map<std::string, SchemaPtr> schemas_;
  std::map<std::string, StreamInfo> streams_;
  std::map<std::string, OperatorSpec> operators_;
  std::map<std::string, QueryInfo> queries_;
};

}  // namespace aurora

#endif  // AURORA_ENGINE_CATALOG_H_
