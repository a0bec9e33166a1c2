#include "engine/query_network.h"

#include <algorithm>
#include <deque>
#include <utility>

namespace aurora {

// ---------------------------------------------------------------------------
// Construction and reconfiguration
// ---------------------------------------------------------------------------

Result<PortId> QueryNetwork::AddInput(const std::string& name,
                                      SchemaPtr schema) {
  if (schema == nullptr) {
    return Status::InvalidArgument("input '" + name + "' needs a schema");
  }
  if (FindInput(name).ok()) {
    return Status::AlreadyExists("input '" + name + "' already exists");
  }
  inputs_.push_back(InputPort{name, std::move(schema), {}});
  return static_cast<PortId>(inputs_.size() - 1);
}

Result<PortId> QueryNetwork::AddOutput(const std::string& name) {
  if (FindOutput(name).ok()) {
    return Status::AlreadyExists("output '" + name + "' already exists");
  }
  outputs_.push_back(OutputPort{name, {}});
  return static_cast<PortId>(outputs_.size() - 1);
}

Result<BoxId> QueryNetwork::AddBox(const OperatorSpec& spec) {
  AURORA_ASSIGN_OR_RETURN(OperatorPtr op, CreateOperator(spec));
  return PushBox(spec, std::move(op), /*initialized=*/false);
}

Result<BoxId> QueryNetwork::AdoptBox(OperatorPtr op) {
  if (op == nullptr) return Status::InvalidArgument("null operator");
  // An adopted operator arrives with its schemas and state intact.
  OperatorSpec spec = op->spec();
  return PushBox(std::move(spec), std::move(op), /*initialized=*/true);
}

BoxId QueryNetwork::PushBox(OperatorSpec spec, OperatorPtr op,
                            bool initialized) {
  Box box;
  box.spec = std::move(spec);
  box.in_arcs.assign(static_cast<size_t>(op->num_inputs()), -1);
  box.out_arcs.assign(static_cast<size_t>(op->num_outputs()), {});
  box.op = std::move(op);
  box.initialized = initialized;
  boxes_.push_back(std::move(box));
  return static_cast<BoxId>(boxes_.size() - 1);
}

Result<ArcId> QueryNetwork::Connect(Endpoint from, Endpoint to) {
  switch (from.kind) {
    case Endpoint::Kind::kInputPort:
      if (from.id < 0 || from.id >= static_cast<int>(inputs_.size())) {
        return Status::InvalidArgument("bad input port " + from.ToString());
      }
      break;
    case Endpoint::Kind::kBox:
      if (!HasBox(from.id)) {
        return Status::InvalidArgument("bad source box " + from.ToString());
      }
      if (from.index < 0 || from.index >= boxes_[from.id].op->num_outputs()) {
        return Status::InvalidArgument("bad box output " + from.ToString());
      }
      break;
    case Endpoint::Kind::kOutputPort:
      return Status::InvalidArgument("cannot connect from an output port");
  }
  switch (to.kind) {
    case Endpoint::Kind::kInputPort:
      return Status::InvalidArgument("cannot connect into an input port");
    case Endpoint::Kind::kBox: {
      if (!HasBox(to.id)) {
        return Status::InvalidArgument("bad destination box " + to.ToString());
      }
      const Box& b = boxes_[to.id];
      if (to.index < 0 || to.index >= b.op->num_inputs()) {
        return Status::InvalidArgument("bad box input " + to.ToString());
      }
      if (b.in_arcs[to.index] >= 0) {
        return Status::AlreadyExists("box input " + to.ToString() +
                                     " already connected");
      }
      // When both endpoints already know their schemas (e.g. an adopted
      // box), verify compatibility now instead of at InitializeBoxes.
      if (b.initialized) {
        auto from_schema = EndpointOutputSchema(from);
        if (from_schema.ok() &&
            !(*from_schema)->Equals(*b.op->input_schema(to.index))) {
          return Status::InvalidArgument(
              "schema mismatch on arc: " + (*from_schema)->ToString() +
              " vs " + b.op->input_schema(to.index)->ToString());
        }
      }
      break;
    }
    case Endpoint::Kind::kOutputPort:
      if (to.id < 0 || to.id >= static_cast<int>(outputs_.size())) {
        return Status::InvalidArgument("bad output port " + to.ToString());
      }
      break;
  }

  ArcId id = static_cast<ArcId>(arcs_.size());
  arcs_.push_back(Arc{from, to, false});
  if (from.kind == Endpoint::Kind::kInputPort) {
    inputs_[from.id].out_arcs.push_back(id);
  } else {
    boxes_[from.id].out_arcs[from.index].push_back(id);
  }
  if (to.kind == Endpoint::Kind::kBox) {
    boxes_[to.id].in_arcs[to.index] = id;
  } else {
    outputs_[to.id].in_arcs.push_back(id);
  }
  ComputeOutputDistances();
  return id;
}

Status QueryNetwork::Disconnect(ArcId arc) {
  if (!HasArc(arc)) return Status::InvalidArgument("bad arc id");
  Arc& a = arcs_[arc];
  auto erase_from = [arc](std::vector<ArcId>* list) {
    list->erase(std::remove(list->begin(), list->end(), arc), list->end());
  };
  if (a.from.kind == Endpoint::Kind::kInputPort) {
    erase_from(&inputs_[a.from.id].out_arcs);
  } else {
    erase_from(&boxes_[a.from.id].out_arcs[a.from.index]);
  }
  if (a.to.kind == Endpoint::Kind::kBox) {
    boxes_[a.to.id].in_arcs[a.to.index] = -1;
  } else {
    erase_from(&outputs_[a.to.id].in_arcs);
  }
  a.removed = true;
  ComputeOutputDistances();
  return Status::OK();
}

Result<OperatorPtr> QueryNetwork::RemoveBox(BoxId box) {
  if (!HasBox(box)) return Status::InvalidArgument("bad box id");
  Box& b = boxes_[box];
  for (ArcId arc : b.in_arcs) {
    if (arc >= 0) {
      return Status::FailedPrecondition("box still has a connected input arc");
    }
  }
  for (const auto& outs : b.out_arcs) {
    if (!outs.empty()) {
      return Status::FailedPrecondition("box still has a connected output arc");
    }
  }
  b.removed = true;
  return std::move(b.op);
}

Status QueryNetwork::InitializeBoxes(bool require_all) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (Box& box : boxes_) {
      if (box.removed || box.initialized) continue;
      std::vector<SchemaPtr> schemas;
      bool ready = true;
      for (ArcId arc : box.in_arcs) {
        if (arc < 0) {
          ready = false;
          break;
        }
        auto schema = EndpointOutputSchema(arcs_[arc].from);
        if (!schema.ok()) {
          ready = false;
          break;
        }
        schemas.push_back(*schema);
      }
      if (!ready) continue;
      AURORA_RETURN_NOT_OK(box.op->Init(std::move(schemas)));
      box.initialized = true;
      progress = true;
    }
  }
  if (!require_all) return Status::OK();
  for (size_t i = 0; i < boxes_.size(); ++i) {
    const Box& box = boxes_[i];
    if (box.removed || box.initialized) continue;
    for (size_t in = 0; in < box.in_arcs.size(); ++in) {
      if (box.in_arcs[in] < 0) {
        return Status::FailedPrecondition(
            "box " + std::to_string(i) + " (" + box.spec.kind + ") input " +
            std::to_string(in) + " is unconnected");
      }
    }
    return Status::FailedPrecondition(
        "box " + std::to_string(i) + " (" + box.spec.kind +
        ") could not be initialized (cycle in the network?)");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

bool QueryNetwork::HasBox(BoxId box) const {
  return box >= 0 && box < static_cast<int>(boxes_.size()) &&
         !boxes_[box].removed;
}

bool QueryNetwork::HasArc(ArcId arc) const {
  return arc >= 0 && arc < static_cast<int>(arcs_.size()) &&
         !arcs_[arc].removed;
}

bool QueryNetwork::IsBoxInitialized(BoxId box) const {
  return HasBox(box) && boxes_[box].initialized;
}

Status QueryNetwork::CheckInputTuple(PortId input, const Tuple& t) const {
  if (input < 0 || input >= static_cast<int>(inputs_.size())) {
    return Status::InvalidArgument("bad input port");
  }
  if (t.schema() == nullptr) {
    return Status::InvalidArgument("tuple has no schema");
  }
  const SchemaPtr& schema = inputs_[input].schema;
  if (!t.schema()->Equals(*schema)) {
    return Status::InvalidArgument("tuple schema " + t.schema()->ToString() +
                                   " does not match input schema " +
                                   schema->ToString());
  }
  return Status::OK();
}

Result<SchemaPtr> QueryNetwork::EndpointOutputSchema(const Endpoint& e) const {
  switch (e.kind) {
    case Endpoint::Kind::kInputPort:
      return inputs_[e.id].schema;
    case Endpoint::Kind::kBox: {
      const Box& b = boxes_[e.id];
      if (!b.initialized) {
        return Status::FailedPrecondition("box " + std::to_string(e.id) +
                                          " not initialized yet");
      }
      return b.op->output_schema(e.index);
    }
    case Endpoint::Kind::kOutputPort:
      return Status::InvalidArgument("output ports have no schema");
  }
  return Status::Internal("bad endpoint kind");
}

Result<PortId> QueryNetwork::FindInput(const std::string& name) const {
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (inputs_[i].name == name) return static_cast<PortId>(i);
  }
  return Status::NotFound("no input named '" + name + "'");
}

Result<PortId> QueryNetwork::FindOutput(const std::string& name) const {
  for (size_t i = 0; i < outputs_.size(); ++i) {
    if (outputs_[i].name == name) return static_cast<PortId>(i);
  }
  return Status::NotFound("no output named '" + name + "'");
}

Result<ArcId> QueryNetwork::FindArcInto(BoxId box, int input_index) const {
  if (!HasBox(box)) return Status::InvalidArgument("bad box id");
  const Box& b = boxes_[box];
  if (input_index < 0 || input_index >= static_cast<int>(b.in_arcs.size()) ||
      b.in_arcs[input_index] < 0) {
    return Status::NotFound("no arc into box input");
  }
  return b.in_arcs[input_index];
}

std::span<const ArcId> QueryNetwork::ArcsFrom(const Endpoint& from) const {
  if (from.kind == Endpoint::Kind::kInputPort && from.id >= 0 &&
      from.id < static_cast<int>(inputs_.size())) {
    return inputs_[from.id].out_arcs;
  }
  if (from.kind == Endpoint::Kind::kBox && HasBox(from.id) &&
      from.index >= 0 &&
      from.index < static_cast<int>(boxes_[from.id].out_arcs.size())) {
    return boxes_[from.id].out_arcs[from.index];
  }
  return {};
}

std::span<const ArcId> QueryNetwork::ArcsInto(PortId output) const {
  if (output < 0 || output >= static_cast<int>(outputs_.size())) return {};
  return outputs_[output].in_arcs;
}

std::vector<BoxId> QueryNetwork::BoxIds() const {
  std::vector<BoxId> ids;
  for (size_t i = 0; i < boxes_.size(); ++i) {
    if (!boxes_[i].removed) ids.push_back(static_cast<BoxId>(i));
  }
  return ids;
}

void QueryNetwork::ComputeOutputDistances() {
  for (Box& box : boxes_) box.distance_to_output = kNoOutput;
  std::deque<std::pair<BoxId, int>> frontier;
  for (const OutputPort& out : outputs_) {
    for (ArcId arc : out.in_arcs) {
      if (arcs_[arc].from.is_box()) frontier.emplace_back(arcs_[arc].from.id, 0);
    }
  }
  while (!frontier.empty()) {
    auto [box_id, dist] = frontier.front();
    frontier.pop_front();
    Box& box = boxes_[box_id];
    if (box.removed || box.distance_to_output <= dist) continue;
    box.distance_to_output = dist;
    for (ArcId arc : box.in_arcs) {
      if (arc >= 0 && arcs_[arc].from.is_box()) {
        frontier.emplace_back(arcs_[arc].from.id, dist + 1);
      }
    }
  }
}

}  // namespace aurora
