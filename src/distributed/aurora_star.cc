#include "distributed/aurora_star.h"

namespace aurora {

AuroraStarSystem::AuroraStarSystem(Simulation* sim, OverlayNetwork* net,
                                   StarOptions opts)
    : sim_(sim), net_(net), opts_(opts) {}

Result<NodeId> AuroraStarSystem::AddNode(NodeOptions node_opts) {
  return AddNode(std::move(node_opts), opts_.engine);
}

Result<NodeId> AuroraStarSystem::AddNode(NodeOptions node_opts,
                                         EngineOptions engine_opts) {
  NodeId id = net_->AddNode(std::move(node_opts));
  if (id != static_cast<NodeId>(nodes_.size())) {
    return Status::Internal(
        "overlay and star node ids diverged; add all nodes through "
        "AuroraStarSystem");
  }
  nodes_.push_back(std::make_unique<StreamNode>(sim_, net_, id, engine_opts,
                                                opts_.transport));
  nodes_.back()->Start();
  return id;
}

Result<std::string> AuroraStarSystem::ConnectRemote(
    NodeId src, const std::string& src_output, NodeId dst,
    const std::string& dst_input, double weight) {
  if (src < 0 || src >= static_cast<int>(nodes_.size()) || dst < 0 ||
      dst >= static_cast<int>(nodes_.size())) {
    return Status::InvalidArgument("bad node id");
  }
  std::string stream = FreshName("stream:" + std::to_string(src) + ">" +
                                 std::to_string(dst));
  AURORA_RETURN_NOT_OK(nodes_[src]->BindRemoteOutput(
      src_output, nodes_[dst].get(), dst_input, stream, weight));
  return stream;
}

std::vector<std::pair<NodeId, std::string>> AuroraStarSystem::BindingsInto(
    NodeId dst, const std::string& remote_input) const {
  std::vector<std::pair<NodeId, std::string>> refs;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (const auto& [output_name, binding] : nodes_[i]->bindings()) {
      if (binding.dst->id() == dst && binding.remote_input == remote_input) {
        refs.emplace_back(static_cast<NodeId>(i), output_name);
      }
    }
  }
  return refs;
}

Status AuroraStarSystem::CollectOutput(NodeId node,
                                       const std::string& output_name,
                                       AuroraEngine::OutputCallback cb) {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) {
    return Status::InvalidArgument("bad node id");
  }
  AURORA_ASSIGN_OR_RETURN(PortId port,
                          nodes_[node]->engine().FindOutput(output_name));
  nodes_[node]->engine().SetOutputCallback(port, std::move(cb));
  return Status::OK();
}

}  // namespace aurora
