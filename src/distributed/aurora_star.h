#ifndef AURORA_DISTRIBUTED_AURORA_STAR_H_
#define AURORA_DISTRIBUTED_AURORA_STAR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "distributed/stream_node.h"
#include "engine/catalog.h"

namespace aurora {

struct StarOptions {
  EngineOptions engine;
  TransportOptions transport;
};

/// \brief Aurora*: multiple single-node Aurora servers in one
/// administrative domain, cooperating to run a query network (paper §3.1).
///
/// Owns the StreamNodes, the shared intra-participant Catalog, and the
/// remote-arc plumbing. Box sliding, splitting, and the load-share daemon
/// operate on this object.
class AuroraStarSystem {
 public:
  AuroraStarSystem(Simulation* sim, OverlayNetwork* net, StarOptions opts);

  Simulation* sim() { return sim_; }
  OverlayNetwork* net() { return net_; }
  Catalog& catalog() { return catalog_; }
  const StarOptions& options() const { return opts_; }

  /// Adds an overlay node plus its Aurora server, started.
  Result<NodeId> AddNode(NodeOptions node_opts);
  /// Same, with node-specific engine options.
  Result<NodeId> AddNode(NodeOptions node_opts, EngineOptions engine_opts);
  StreamNode& node(NodeId id) { return *nodes_[id]; }
  size_t num_nodes() const { return nodes_.size(); }

  /// Creates a remote arc: output port `src_output` on `src` flows into
  /// input port `dst_input` on `dst` under a fresh globally-unique stream
  /// name (returned). Both ports must already exist.
  Result<std::string> ConnectRemote(NodeId src, const std::string& src_output,
                                    NodeId dst, const std::string& dst_input,
                                    double weight = 1.0);

  /// Registers an application sink on a node's engine output.
  Status CollectOutput(NodeId node, const std::string& output_name,
                       AuroraEngine::OutputCallback cb);

  /// All (source node, output name) bindings that feed the named engine
  /// input on `dst` — the upstream side of a remote arc.
  std::vector<std::pair<NodeId, std::string>> BindingsInto(
      NodeId dst, const std::string& remote_input) const;

  /// Fresh unique name for plumbing ports/streams created at run time.
  std::string FreshName(const std::string& prefix) {
    return prefix + "#" + std::to_string(next_name_++);
  }

 private:
  Simulation* sim_;
  OverlayNetwork* net_;
  StarOptions opts_;
  Catalog catalog_;
  std::vector<std::unique_ptr<StreamNode>> nodes_;
  uint64_t next_name_ = 0;
};

}  // namespace aurora

#endif  // AURORA_DISTRIBUTED_AURORA_STAR_H_
