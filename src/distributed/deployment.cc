#include "distributed/deployment.h"

#include <algorithm>

#include "engine/threaded_engine.h"

namespace aurora {

Status GlobalQuery::AddInput(const std::string& name, SchemaPtr schema) {
  if (HasInput(name)) {
    return Status::AlreadyExists("input '" + name + "' already defined");
  }
  if (schema == nullptr) return Status::InvalidArgument("null schema");
  inputs_.push_back(InputDef{name, std::move(schema)});
  return Status::OK();
}

Status GlobalQuery::AddBox(const std::string& name, OperatorSpec spec) {
  if (HasBox(name)) {
    return Status::AlreadyExists("box '" + name + "' already defined");
  }
  boxes_.push_back(BoxDef{name, std::move(spec)});
  return Status::OK();
}

Status GlobalQuery::AddOutput(const std::string& name) {
  if (HasOutput(name)) {
    return Status::AlreadyExists("output '" + name + "' already defined");
  }
  outputs_.push_back(name);
  return Status::OK();
}

Status GlobalQuery::ConnectInputToBox(const std::string& input,
                                      const std::string& box, int in_index) {
  if (!HasInput(input)) return Status::NotFound("no input '" + input + "'");
  if (!HasBox(box)) return Status::NotFound("no box '" + box + "'");
  arcs_.push_back(ArcDef{ArcDef::FromKind::kInput, input, 0,
                         ArcDef::ToKind::kBox, box, in_index});
  return Status::OK();
}

Status GlobalQuery::ConnectBoxes(const std::string& from, int out_index,
                                 const std::string& to, int in_index) {
  if (!HasBox(from)) return Status::NotFound("no box '" + from + "'");
  if (!HasBox(to)) return Status::NotFound("no box '" + to + "'");
  arcs_.push_back(ArcDef{ArcDef::FromKind::kBox, from, out_index,
                         ArcDef::ToKind::kBox, to, in_index});
  return Status::OK();
}

Status GlobalQuery::ConnectBoxToOutput(const std::string& box, int out_index,
                                       const std::string& output) {
  if (!HasBox(box)) return Status::NotFound("no box '" + box + "'");
  if (!HasOutput(output)) return Status::NotFound("no output '" + output + "'");
  arcs_.push_back(ArcDef{ArcDef::FromKind::kBox, box, out_index,
                         ArcDef::ToKind::kOutput, output, 0});
  return Status::OK();
}

bool GlobalQuery::HasBox(const std::string& name) const {
  return std::any_of(boxes_.begin(), boxes_.end(),
                     [&](const BoxDef& b) { return b.name == name; });
}
bool GlobalQuery::HasInput(const std::string& name) const {
  return std::any_of(inputs_.begin(), inputs_.end(),
                     [&](const InputDef& i) { return i.name == name; });
}
bool GlobalQuery::HasOutput(const std::string& name) const {
  return std::find(outputs_.begin(), outputs_.end(), name) != outputs_.end();
}

namespace {

// The schema an arc's source produces, if determinable yet.
Result<SchemaPtr> ArcSourceSchema(AuroraStarSystem* system,
                                  const GlobalQuery& query,
                                  const DeployedQuery& deployed,
                                  const GlobalQuery::ArcDef& arc) {
  if (arc.from_kind == GlobalQuery::ArcDef::FromKind::kInput) {
    for (const auto& in : query.inputs()) {
      if (in.name == arc.from) return in.schema;
    }
    return Status::NotFound("no input '" + arc.from + "'");
  }
  const auto& placed = deployed.boxes.at(arc.from);
  AuroraEngine& engine = system->node(placed.node).engine();
  if (!engine.IsBoxInitialized(placed.box)) {
    return Status::FailedPrecondition("source box not initialized yet");
  }
  AURORA_ASSIGN_OR_RETURN(Operator * op, engine.BoxOp(placed.box));
  return op->output_schema(arc.from_index);
}

}  // namespace

Result<DeployedQuery> DeployQuery(
    AuroraStarSystem* system, const GlobalQuery& query,
    const std::map<std::string, NodeId>& placement) {
  DeployedQuery deployed;

  // 1. Create boxes at their assigned nodes.
  for (const auto& box : query.boxes()) {
    auto it = placement.find(box.name);
    if (it == placement.end()) {
      return Status::InvalidArgument("box '" + box.name + "' has no placement");
    }
    NodeId node = it->second;
    if (node < 0 || node >= static_cast<int>(system->num_nodes())) {
      return Status::InvalidArgument("bad node for box '" + box.name + "'");
    }
    if (!system->net()->NodeSupports(node, box.spec.kind)) {
      return Status::FailedPrecondition(
          "node " + std::to_string(node) + " does not support operator kind '" +
          box.spec.kind + "'");
    }
    AURORA_ASSIGN_OR_RETURN(BoxId id,
                            system->node(node).engine().AddBox(box.spec));
    deployed.boxes[box.name] = DeployedQuery::PlacedBox{node, id};
  }

  // 2. Home each global input at the node of its first consumer box.
  for (const auto& in : query.inputs()) {
    NodeId home = -1;
    for (const auto& arc : query.arcs()) {
      if (arc.from_kind == GlobalQuery::ArcDef::FromKind::kInput &&
          arc.from == in.name &&
          arc.to_kind == GlobalQuery::ArcDef::ToKind::kBox) {
        home = deployed.boxes.at(arc.to).node;
        break;
      }
    }
    if (home < 0) home = 0;
    AURORA_RETURN_NOT_OK(
        system->node(home).engine().AddInput(in.name, in.schema).status());
    deployed.inputs[in.name] = {home, in.name};
  }

  // 3. Wire arcs progressively: an arc can be wired once its source schema
  //    is known (global inputs immediately; box outputs once the box is
  //    initialized). After every pass, initialize whatever became ready.
  std::vector<bool> wired(query.arcs().size(), false);
  size_t remaining = query.arcs().size();
  while (remaining > 0) {
    size_t progressed = 0;
    for (size_t i = 0; i < query.arcs().size(); ++i) {
      if (wired[i]) continue;
      const auto& arc = query.arcs()[i];
      auto schema = ArcSourceSchema(system, query, deployed, arc);
      if (!schema.ok()) continue;

      // Resolve the source endpoint and node.
      NodeId src_node;
      Endpoint src_ep;
      if (arc.from_kind == GlobalQuery::ArcDef::FromKind::kInput) {
        auto [home, input_name] = deployed.inputs.at(arc.from);
        src_node = home;
        AURORA_ASSIGN_OR_RETURN(
            PortId port, system->node(home).engine().FindInput(input_name));
        src_ep = Endpoint::InputPort(port);
      } else {
        const auto& placed = deployed.boxes.at(arc.from);
        src_node = placed.node;
        src_ep = Endpoint::BoxPort(placed.box, arc.from_index);
      }

      if (arc.to_kind == GlobalQuery::ArcDef::ToKind::kOutput) {
        AuroraEngine& engine = system->node(src_node).engine();
        auto port = engine.FindOutput(arc.to);
        PortId out_port;
        if (port.ok()) {
          out_port = *port;
        } else {
          AURORA_ASSIGN_OR_RETURN(out_port, engine.AddOutput(arc.to));
        }
        AURORA_RETURN_NOT_OK(
            engine.Connect(src_ep, Endpoint::OutputPort(out_port)).status());
        deployed.outputs[arc.to] = {src_node, arc.to};
      } else {
        const auto& to_placed = deployed.boxes.at(arc.to);
        if (to_placed.node == src_node) {
          AURORA_RETURN_NOT_OK(
              system->node(src_node)
                  .engine()
                  .Connect(src_ep, Endpoint::BoxPort(to_placed.box, arc.to_index))
                  .status());
        } else {
          // Cross-node arc: relay output port at the source, fresh input
          // port at the destination, transport stream between them.
          AuroraEngine& src_engine = system->node(src_node).engine();
          AuroraEngine& dst_engine = system->node(to_placed.node).engine();
          std::string xname = system->FreshName("xarc");
          AURORA_ASSIGN_OR_RETURN(PortId out_port, src_engine.AddOutput(xname));
          AURORA_RETURN_NOT_OK(
              src_engine.Connect(src_ep, Endpoint::OutputPort(out_port))
                  .status());
          AURORA_ASSIGN_OR_RETURN(PortId in_port,
                                  dst_engine.AddInput(xname, *schema));
          AURORA_RETURN_NOT_OK(
              dst_engine
                  .Connect(Endpoint::InputPort(in_port),
                           Endpoint::BoxPort(to_placed.box, arc.to_index))
                  .status());
          AURORA_ASSIGN_OR_RETURN(
              std::string stream,
              system->ConnectRemote(src_node, xname, to_placed.node, xname));
          deployed.remote_streams[arc.from + "->" + arc.to] = stream;
        }
      }
      wired[i] = true;
      ++progressed;
      --remaining;
    }
    // Initialize whatever became fully wired.
    for (size_t n = 0; n < system->num_nodes(); ++n) {
      AURORA_RETURN_NOT_OK(system->node(static_cast<NodeId>(n))
                               .engine()
                               .InitializeBoxes(/*require_all=*/false));
    }
    if (progressed == 0) {
      return Status::FailedPrecondition(
          "deployment stuck: query has a cycle or a box input depends on an "
          "unconnected source");
    }
  }
  // Final strict pass: everything must now be initialized.
  for (size_t n = 0; n < system->num_nodes(); ++n) {
    AURORA_RETURN_NOT_OK(
        system->node(static_cast<NodeId>(n)).engine().InitializeBoxes());
  }
  return deployed;
}

namespace {

/// The one local-deployment body; both engines expose the same topology
/// surface over their QueryNetwork.
template <typename Engine>
Status DeployLocal(Engine* engine, const GlobalQuery& query) {
  for (const auto& in : query.inputs()) {
    AURORA_RETURN_NOT_OK(engine->AddInput(in.name, in.schema).status());
  }
  std::map<std::string, BoxId> boxes;
  for (const auto& box : query.boxes()) {
    AURORA_ASSIGN_OR_RETURN(BoxId id, engine->AddBox(box.spec));
    boxes[box.name] = id;
  }
  for (const auto& out : query.outputs()) {
    AURORA_RETURN_NOT_OK(engine->AddOutput(out).status());
  }
  // Progressive wiring, as in DeployQuery: an arc out of a box can only be
  // connected once the box is initialized (its output schema is known).
  std::vector<bool> wired(query.arcs().size(), false);
  size_t remaining = query.arcs().size();
  while (remaining > 0) {
    size_t progressed = 0;
    for (size_t i = 0; i < query.arcs().size(); ++i) {
      if (wired[i]) continue;
      const auto& arc = query.arcs()[i];
      Endpoint src_ep;
      if (arc.from_kind == GlobalQuery::ArcDef::FromKind::kInput) {
        AURORA_ASSIGN_OR_RETURN(PortId port, engine->FindInput(arc.from));
        src_ep = Endpoint::InputPort(port);
      } else {
        BoxId box = boxes.at(arc.from);
        if (!engine->IsBoxInitialized(box)) continue;
        src_ep = Endpoint::BoxPort(box, arc.from_index);
      }
      Endpoint dst_ep;
      if (arc.to_kind == GlobalQuery::ArcDef::ToKind::kOutput) {
        AURORA_ASSIGN_OR_RETURN(PortId port, engine->FindOutput(arc.to));
        dst_ep = Endpoint::OutputPort(port);
      } else {
        dst_ep = Endpoint::BoxPort(boxes.at(arc.to), arc.to_index);
      }
      AURORA_RETURN_NOT_OK(engine->Connect(src_ep, dst_ep).status());
      wired[i] = true;
      ++progressed;
      --remaining;
    }
    AURORA_RETURN_NOT_OK(engine->InitializeBoxes(/*require_all=*/false));
    if (progressed == 0 && remaining > 0) {
      return Status::FailedPrecondition(
          "local deployment stuck: query has a cycle or a box input depends "
          "on an unconnected source");
    }
  }
  return engine->InitializeBoxes();
}

}  // namespace

Status DeployQueryLocal(AuroraEngine* engine, const GlobalQuery& query) {
  return DeployLocal(engine, query);
}

Status DeployQueryLocal(ThreadedEngine* engine, const GlobalQuery& query) {
  return DeployLocal(engine, query);
}

}  // namespace aurora
