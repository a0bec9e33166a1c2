#ifndef AURORA_DISTRIBUTED_DEPLOYMENT_H_
#define AURORA_DISTRIBUTED_DEPLOYMENT_H_

#include <map>
#include <string>
#include <vector>

#include "distributed/aurora_star.h"
#include "ops/op_spec.h"

namespace aurora {

class ThreadedEngine;

/// \brief Node-agnostic description of an Aurora query network: named
/// inputs, named boxes, named outputs, and arcs between them.
///
/// A GlobalQuery is written once and then *partitioned* onto nodes by a
/// placement map (paper §3.1: "programs will continue to be written in much
/// the same way that they are with single-node Aurora, except that they
/// will now run in a distributed fashion").
class GlobalQuery {
 public:
  struct InputDef {
    std::string name;
    SchemaPtr schema;
  };
  struct BoxDef {
    std::string name;
    OperatorSpec spec;
  };
  struct ArcDef {
    enum class FromKind { kInput, kBox };
    enum class ToKind { kBox, kOutput };
    FromKind from_kind;
    std::string from;
    int from_index = 0;
    ToKind to_kind;
    std::string to;
    int to_index = 0;
  };

  Status AddInput(const std::string& name, SchemaPtr schema);
  Status AddBox(const std::string& name, OperatorSpec spec);
  Status AddOutput(const std::string& name);
  Status ConnectInputToBox(const std::string& input, const std::string& box,
                           int in_index = 0);
  Status ConnectBoxes(const std::string& from, int out_index,
                      const std::string& to, int in_index);
  Status ConnectBoxToOutput(const std::string& box, int out_index,
                            const std::string& output);

  const std::vector<InputDef>& inputs() const { return inputs_; }
  const std::vector<BoxDef>& boxes() const { return boxes_; }
  const std::vector<std::string>& outputs() const { return outputs_; }
  const std::vector<ArcDef>& arcs() const { return arcs_; }

  bool HasBox(const std::string& name) const;
  bool HasInput(const std::string& name) const;
  bool HasOutput(const std::string& name) const;

 private:
  std::vector<InputDef> inputs_;
  std::vector<BoxDef> boxes_;
  std::vector<std::string> outputs_;
  std::vector<ArcDef> arcs_;
};

/// Handle to a deployed (partitioned) query: where every named piece lives.
struct DeployedQuery {
  struct PlacedBox {
    NodeId node = -1;
    BoxId box = -1;
  };
  std::map<std::string, PlacedBox> boxes;
  /// Global input name -> (node, engine input name). Sources inject here.
  std::map<std::string, std::pair<NodeId, std::string>> inputs;
  /// Global output name -> (node, engine output name).
  std::map<std::string, std::pair<NodeId, std::string>> outputs;
  /// Stream names of the remote arcs created, keyed by "<from>-><to>".
  std::map<std::string, std::string> remote_streams;
};

/// Partitions the query across nodes per `placement` (box name -> node),
/// creating local arcs within a node and remote arcs (engine ports +
/// transport streams) across nodes. "As simple as running everything on one
/// node" is placement with a single value (§3.1).
Result<DeployedQuery> DeployQuery(AuroraStarSystem* system,
                                  const GlobalQuery& query,
                                  const std::map<std::string, NodeId>& placement);

/// Materializes the whole query inside one standalone engine — the oracle
/// deployment model-checking runs diff a distributed deployment against
/// (src/check). Same progressive wiring discipline as DeployQuery, but all
/// arcs are local and no transport streams exist. The threaded runtime
/// takes the identical wiring (call Start afterwards).
Status DeployQueryLocal(AuroraEngine* engine, const GlobalQuery& query);
Status DeployQueryLocal(ThreadedEngine* engine, const GlobalQuery& query);

}  // namespace aurora

#endif  // AURORA_DISTRIBUTED_DEPLOYMENT_H_
