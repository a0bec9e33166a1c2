#ifndef AURORA_ENGINE_QUERY_NETWORK_H_
#define AURORA_ENGINE_QUERY_NETWORK_H_

#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/topology.h"
#include "ops/operator.h"

namespace aurora {

/// \brief The query network both engines execute (§2.1, Fig. 3): named input
/// ports, boxes, named output ports, and the arcs between them.
///
/// A pure model: endpoint validation on Connect, schema propagation
/// (InitializeBoxes), lookups, and every box's distance to the nearest
/// output. It holds no queues, rings, callbacks, or scheduler state —
/// AuroraEngine and ThreadedEngine keep their runtime state beside the model
/// in arrays indexed by the same BoxId / ArcId / PortId. Removal leaves a
/// tombstone (`removed`), so ids are never reused and those arrays stay
/// aligned with the model.
class QueryNetwork {
 public:
  /// Distance of a box from which no output port is reachable.
  static constexpr int kNoOutput = 1 << 20;

  struct InputPort {
    std::string name;
    SchemaPtr schema;
    std::vector<ArcId> out_arcs;
  };
  struct OutputPort {
    std::string name;
    std::vector<ArcId> in_arcs;
  };
  struct Box {
    OperatorSpec spec;
    OperatorPtr op;
    bool initialized = false;
    bool removed = false;
    /// Arc into each input index (-1 = unconnected).
    std::vector<ArcId> in_arcs;
    /// Arcs out of each output index (fan-out allowed).
    std::vector<std::vector<ArcId>> out_arcs;
    /// Fewest box hops to an output port (0 = feeds one directly).
    int distance_to_output = kNoOutput;
  };
  struct Arc {
    Endpoint from;
    Endpoint to;
    bool removed = false;
  };

  // ---- Construction and reconfiguration --------------------------------

  Result<PortId> AddInput(const std::string& name, SchemaPtr schema);
  Result<PortId> AddOutput(const std::string& name);
  /// Instantiates the operator; it is initialized by InitializeBoxes.
  Result<BoxId> AddBox(const OperatorSpec& spec);
  /// Adds an already-initialized operator (schemas and state intact).
  Result<BoxId> AdoptBox(OperatorPtr op);
  /// Validates both endpoints and adds an arc. At most one arc may enter a
  /// given (box, input index); sources fan out freely. Arcs never leave an
  /// output port or enter an input port. When the destination box already
  /// knows its input schema (an adopted box), the source's schema must match.
  Result<ArcId> Connect(Endpoint from, Endpoint to);
  /// Unlinks a live arc from both endpoints and tombstones it.
  Status Disconnect(ArcId arc);
  /// Tombstones a box with no connected arcs and hands back its operator.
  Result<OperatorPtr> RemoveBox(BoxId box);
  /// Initializes every not-yet-initialized box whose input schemas are
  /// known, to a fixed point. The network is loop-free (§2.1), so with
  /// `require_all` this fails only on an unconnected input or a cycle; without
  /// it, boxes that cannot be initialized yet are left for a later call.
  Status InitializeBoxes(bool require_all = true);

  // ---- Lookup ------------------------------------------------------------

  /// Live (not removed) box / arc.
  bool HasBox(BoxId box) const;
  bool HasArc(ArcId arc) const;
  bool IsBoxInitialized(BoxId box) const;
  /// Checks that `t` may enter input port `input` (valid port, matching
  /// schema) — the admission rule both engines' PushInput apply.
  Status CheckInputTuple(PortId input, const Tuple& t) const;
  /// Schema of the tuples leaving an input port or a box output.
  Result<SchemaPtr> EndpointOutputSchema(const Endpoint& e) const;
  Result<PortId> FindInput(const std::string& name) const;
  Result<PortId> FindOutput(const std::string& name) const;
  /// Arc entering (box, input index), or NotFound.
  Result<ArcId> FindArcInto(BoxId box, int input_index) const;
  /// Arcs leaving an input port or box output (empty for anything else).
  /// The span is invalidated by the next topology change.
  std::span<const ArcId> ArcsFrom(const Endpoint& from) const;
  /// Arcs entering an output port.
  std::span<const ArcId> ArcsInto(PortId output) const;
  /// Live boxes, in id order.
  std::vector<BoxId> BoxIds() const;

  // ---- Raw access (ids must be in range) ---------------------------------

  size_t num_inputs() const { return inputs_.size(); }
  size_t num_outputs() const { return outputs_.size(); }
  /// Box / arc slots, tombstones included — the size of a parallel array.
  size_t num_box_slots() const { return boxes_.size(); }
  size_t num_arc_slots() const { return arcs_.size(); }
  const InputPort& input(PortId p) const { return inputs_[p]; }
  const OutputPort& output(PortId p) const { return outputs_[p]; }
  const Box& box(BoxId b) const { return boxes_[b]; }
  const Arc& arc(ArcId a) const { return arcs_[a]; }

 private:
  BoxId PushBox(OperatorSpec spec, OperatorPtr op, bool initialized);
  /// Reverse BFS from the output ports over box-to-box arcs.
  void ComputeOutputDistances();

  std::vector<InputPort> inputs_;
  std::vector<OutputPort> outputs_;
  std::vector<Box> boxes_;
  std::vector<Arc> arcs_;
};

}  // namespace aurora

#endif  // AURORA_ENGINE_QUERY_NETWORK_H_
