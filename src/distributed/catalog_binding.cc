#include "distributed/catalog_binding.h"

#include "tuple/serde.h"

namespace aurora {

Status CatalogBinding::RegisterDeployment(const std::string& query_name,
                                          const GlobalQuery& query,
                                          const DeployedQuery& deployed) {
  // Streams: payload = (engine input name, schema); location = home node.
  for (const auto& in : query.inputs()) {
    auto it = deployed.inputs.find(in.name);
    if (it == deployed.inputs.end()) continue;
    Encoder enc;
    enc.PutString(it->second.second);
    enc.PutSchema(*in.schema);
    DhtEntry entry;
    entry.kind = "stream";
    entry.payload = enc.TakeBuffer();
    entry.locations = {it->second.first};
    AURORA_RETURN_NOT_OK(catalog_->Put(StreamName(in.name), entry));
  }
  // Query pieces: payload = serialized OperatorSpec; location = host node.
  for (const auto& box : query.boxes()) {
    auto it = deployed.boxes.find(box.name);
    if (it == deployed.boxes.end()) continue;
    Encoder enc;
    box.spec.Encode(&enc);
    DhtEntry entry;
    entry.kind = "query_piece";
    entry.payload = enc.TakeBuffer();
    entry.locations = {it->second.node};
    AURORA_RETURN_NOT_OK(catalog_->Put(PieceName(query_name, box.name), entry));
  }
  return Status::OK();
}

Status CatalogBinding::UpdateBoxLocation(const std::string& query_name,
                                         const std::string& box_name,
                                         NodeId node) {
  return catalog_->UpdateLocations(PieceName(query_name, box_name), {node});
}

Result<std::vector<NodeId>> CatalogBinding::LookupBox(
    const std::string& query_name, const std::string& box_name,
    NodeId from) const {
  AURORA_ASSIGN_OR_RETURN(auto got,
                          catalog_->Get(from, PieceName(query_name, box_name)));
  return got.entry.locations;
}

Status CatalogBinding::RouteSourceTuple(NodeId at,
                                        const std::string& stream_name,
                                        Tuple t) {
  lookups_++;
  AURORA_ASSIGN_OR_RETURN(auto got, catalog_->Get(at, StreamName(stream_name)));
  if (got.entry.locations.empty()) {
    return Status::Unavailable("stream '" + stream_name + "' has no location");
  }
  Decoder dec(got.entry.payload);
  AURORA_ASSIGN_OR_RETURN(std::string input_name, dec.GetString());
  // §4.2: "streams may be partitioned across several nodes for load
  // balancing" — with multiple registered locations, events are hash-
  // partitioned on the tuple's first attribute so each location sees a
  // consistent subset.
  NodeId home;
  if (got.entry.locations.size() == 1) {
    home = got.entry.locations.front();
  } else {
    uint64_t h = t.num_values() > 0 ? t.value(0).Hash() : 0;
    home = got.entry.locations[h % got.entry.locations.size()];
  }
  if (home == at) {
    direct_deliveries_++;
    return system_->node(at).Inject(input_name, std::move(t));
  }
  // Forward over the overlay, charging bandwidth and latency for the hop.
  forwards_++;
  Message msg;
  msg.kind = "route:tuple";
  msg.stream = input_name;
  msg.payload = SerializeTuples({t});
  StreamNode* dst = &system_->node(home);
  return system_->net()->Send(at, home, std::move(msg),
                              dst->liveness().Guard([dst](const Message& m) {
                                dst->OnRemoteTuples(m.stream, m.payload);
                              }));
}

}  // namespace aurora
