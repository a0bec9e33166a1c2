#ifndef AURORA_DHT_CONSISTENT_HASH_H_
#define AURORA_DHT_CONSISTENT_HASH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/catalog.h"  // NodeId

namespace aurora {

/// Stable 64-bit string hash (FNV-1a finished with a mixer) used to place
/// both nodes and keys on the identifier ring.
uint64_t DhtHash(const std::string& s);

/// \brief Consistent-hashing identifier ring with Chord-style finger
/// tables (paper §4.1; [6], [14] in its references).
///
/// Nodes are placed at hash(name + vnode#) positions; a key is owned by its
/// successor. Lookup(from, key) walks finger tables exactly as Chord does
/// and reports the hop count, which bench_dht uses to reproduce the
/// "efficiently locate nodes ... scale with the number of nodes" claim
/// (O(log N) hops).
class ConsistentHashRing {
 public:
  /// vnodes > 1 smooths the load distribution (classic consistent-hashing
  /// result, measured in bench_dht).
  explicit ConsistentHashRing(int vnodes = 1) : vnodes_(vnodes) {}

  Status AddNode(NodeId node, const std::string& name);
  Status RemoveNode(NodeId node);
  size_t num_nodes() const { return node_names_.size(); }

  /// Owner of a key: the first virtual node at or after hash(key).
  Result<NodeId> Owner(const std::string& key) const;
  Result<NodeId> OwnerOfPosition(uint64_t position) const;

  /// The `count` distinct nodes succeeding the key's position — the replica
  /// set used by DhtCatalog.
  Result<std::vector<NodeId>> Successors(const std::string& key,
                                         size_t count) const;

  struct LookupResult {
    NodeId owner = -1;
    int hops = 0;
  };
  /// Chord-style lookup from `from`'s ring position: greedily forwards to
  /// the closest preceding finger until the owner is reached, counting
  /// overlay hops.
  Result<LookupResult> Lookup(NodeId from, const std::string& key) const;

  /// Fraction of the ring each node owns (for load-evenness measurements).
  std::map<NodeId, double> OwnershipShares() const;

 private:
  /// First ring position >= pos (wrapping), as an iterator into ring_.
  std::map<uint64_t, NodeId>::const_iterator SuccessorIt(uint64_t pos) const;
  /// Ring distance a -> b going clockwise.
  static uint64_t Clockwise(uint64_t a, uint64_t b) { return b - a; }

  int vnodes_;
  std::map<uint64_t, NodeId> ring_;  // position -> node
  std::map<NodeId, std::string> node_names_;
  std::map<NodeId, uint64_t> primary_position_;
};

}  // namespace aurora

#endif  // AURORA_DHT_CONSISTENT_HASH_H_
