#ifndef AURORA_DHT_DHT_CATALOG_H_
#define AURORA_DHT_DHT_CATALOG_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "dht/consistent_hash.h"

namespace aurora {

/// Global name in the single shared namespace of §4.1: every entity name
/// begins with the name of the participant who defined it.
struct QualifiedName {
  std::string participant;
  std::string entity;

  std::string Key() const { return participant + "/" + entity; }
  static QualifiedName Parse(const std::string& key);
};

/// One entry in the inter-participant catalog: what the entity is and where
/// pieces of it currently live.
struct DhtEntry {
  /// "stream", "schema", "operator", "query_piece".
  std::string kind;
  /// Serialized description (schema bytes, OperatorSpec bytes, ...).
  std::vector<uint8_t> payload;
  /// Current locations (nodes) where the entity is available/running.
  std::vector<NodeId> locations;
};

/// \brief Inter-participant catalog implemented as a replicated DHT
/// (paper §4.1).
///
/// Keys are qualified entity names; each entry is stored on the key's
/// `replication` successor nodes on the ring. Reads succeed as long as one
/// replica node is alive, and every Get reports the Chord hop count the
/// lookup would traverse — the quantity bench_dht sweeps against ring size.
class DhtCatalog {
 public:
  DhtCatalog(int vnodes = 8, size_t replication = 2)
      : ring_(vnodes), replication_(replication) {}

  Status AddNode(NodeId node, const std::string& name);
  /// Removes a node (crash or departure); entries it held survive on their
  /// other replicas and are re-replicated to the new successor set.
  Status RemoveNode(NodeId node);
  size_t num_nodes() const { return ring_.num_nodes(); }
  const ConsistentHashRing& ring() const { return ring_; }

  Status Put(const QualifiedName& name, DhtEntry entry);
  /// Adds/refreshes locations on an existing entry (load sharing moved a
  /// stream or query piece, §4.2).
  Status UpdateLocations(const QualifiedName& name,
                         std::vector<NodeId> locations);

  struct GetResult {
    DhtEntry entry;
    int hops = 0;
    NodeId served_by = -1;
  };
  /// Looks the entry up starting from `from`'s position on the ring.
  Result<GetResult> Get(NodeId from, const QualifiedName& name) const;

  Status Remove(const QualifiedName& name);

  /// Number of entries physically stored on the node (replicas included).
  size_t StoredOn(NodeId node) const;

 private:
  void Replicate(const std::string& key);

  ConsistentHashRing ring_;
  size_t replication_;
  std::map<std::string, DhtEntry> entries_;
  /// key -> nodes currently holding a replica.
  std::map<std::string, std::vector<NodeId>> placement_;
};

}  // namespace aurora

#endif  // AURORA_DHT_DHT_CATALOG_H_
