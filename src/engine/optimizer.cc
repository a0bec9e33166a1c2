#include "engine/optimizer.h"

#include <set>

namespace aurora {

bool NetworkOptimizer::ArcIdle(ArcId arc) const {
  return engine_->ArcQueueSize(arc) == 0 && engine_->HeldTupleCount(arc) == 0;
}

bool NetworkOptimizer::SingleConsumer(BoxId box, int index) const {
  return engine_->ArcsFrom(Endpoint::BoxPort(box, index)).size() == 1;
}

Result<int> NetworkOptimizer::Optimize() {
  int changes = 0;
  // Bounded fixpoint: each rule strictly improves the plan, and the
  // network is finite, so a generous bound suffices.
  for (int round = 0; round < 64; ++round) {
    AURORA_ASSIGN_OR_RETURN(bool changed, OnePass());
    if (!changed) break;
    ++changes;
  }
  return changes;
}

Result<bool> NetworkOptimizer::OnePass() {
  for (BoxId filter : engine_->BoxIds()) {
    AURORA_ASSIGN_OR_RETURN(const OperatorSpec* spec, engine_->BoxSpec(filter));
    if (spec->kind != "filter" || spec->GetBool("two_way", false)) continue;
    if (!engine_->IsBoxInitialized(filter)) continue;
    auto in_arc = engine_->FindArcInto(filter, 0);
    if (!in_arc.ok()) continue;
    Endpoint from = engine_->ArcFrom(*in_arc);
    if (!from.is_box()) continue;
    AURORA_ASSIGN_OR_RETURN(const OperatorSpec* up_spec,
                            engine_->BoxSpec(from.id));
    if (!SingleConsumer(from.id, from.index)) continue;
    if (up_spec->kind == "map") {
      AURORA_ASSIGN_OR_RETURN(bool did, TryPushOverMap(filter, *in_arc, from.id));
      if (did) return true;
    } else if (up_spec->kind == "union") {
      AURORA_ASSIGN_OR_RETURN(bool did,
                              TryPushOverUnion(filter, *in_arc, from.id));
      if (did) return true;
    } else if (up_spec->kind == "filter" &&
               !up_spec->GetBool("two_way", false)) {
      AURORA_ASSIGN_OR_RETURN(bool did,
                              TryReorderFilters(filter, *in_arc, from.id));
      if (did) return true;
    }
  }
  return false;
}

Result<bool> NetworkOptimizer::TryPushOverMap(BoxId filter, ArcId in_arc,
                                              BoxId map) {
  // The filter commutes with the map only when every attribute it reads is
  // an identity projection (same name, bare field reference).
  AURORA_ASSIGN_OR_RETURN(const OperatorSpec* f_spec, engine_->BoxSpec(filter));
  AURORA_ASSIGN_OR_RETURN(const OperatorSpec* m_spec, engine_->BoxSpec(map));
  if (!f_spec->predicate.has_value()) return false;
  std::set<std::string> fields;
  f_spec->predicate->CollectFields(&fields);
  for (const std::string& field : fields) {
    bool identity = false;
    for (const auto& [name, expr] : m_spec->projections) {
      std::string src;
      if (name == field && expr.IsFieldRef(&src) && src == field) {
        identity = true;
        break;
      }
    }
    if (!identity) return false;
  }

  auto map_in = engine_->FindArcInto(map, 0);
  if (!map_in.ok()) return false;
  auto out_span = engine_->ArcsFrom(Endpoint::BoxPort(filter, 0));
  std::vector<ArcId> out_arcs(out_span.begin(), out_span.end());
  if (!ArcIdle(in_arc) || !ArcIdle(*map_in)) return false;
  for (ArcId arc : out_arcs) {
    if (!ArcIdle(arc)) return false;
  }

  Endpoint source = engine_->ArcFrom(*map_in);
  std::vector<Endpoint> dests;
  for (ArcId arc : out_arcs) dests.push_back(engine_->ArcTo(arc));
  OperatorSpec filter_spec = *f_spec;

  // X -> M -> F -> dests   becomes   X -> F' -> M -> dests.
  AURORA_RETURN_NOT_OK(engine_->DisconnectArc(*map_in));
  AURORA_RETURN_NOT_OK(engine_->DisconnectArc(in_arc));
  for (ArcId arc : out_arcs) AURORA_RETURN_NOT_OK(engine_->DisconnectArc(arc));
  AURORA_RETURN_NOT_OK(engine_->RemoveBox(filter));
  // The filter is re-instantiated because its input schema changes (it now
  // sees the map's input); filters are stateless so nothing is lost.
  AURORA_ASSIGN_OR_RETURN(BoxId new_filter, engine_->AddBox(filter_spec));
  AURORA_RETURN_NOT_OK(
      engine_->Connect(source, Endpoint::BoxPort(new_filter, 0)).status());
  AURORA_RETURN_NOT_OK(engine_->Connect(Endpoint::BoxPort(new_filter, 0),
                                        Endpoint::BoxPort(map, 0))
                           .status());
  for (const Endpoint& d : dests) {
    AURORA_RETURN_NOT_OK(
        engine_->Connect(Endpoint::BoxPort(map, 0), d).status());
  }
  AURORA_RETURN_NOT_OK(engine_->InitializeBoxes(/*require_all=*/false));
  map_pushdowns_++;
  return true;
}

Result<bool> NetworkOptimizer::TryPushOverUnion(BoxId filter, ArcId in_arc,
                                                BoxId union_box) {
  AURORA_ASSIGN_OR_RETURN(const OperatorSpec* f_spec, engine_->BoxSpec(filter));
  AURORA_ASSIGN_OR_RETURN(Operator * union_op, engine_->BoxOp(union_box));
  const int n = union_op->num_inputs();
  std::vector<ArcId> union_ins(n);
  for (int i = 0; i < n; ++i) {
    AURORA_ASSIGN_OR_RETURN(union_ins[i], engine_->FindArcInto(union_box, i));
    if (!ArcIdle(union_ins[i])) return false;
  }
  auto out_span = engine_->ArcsFrom(Endpoint::BoxPort(filter, 0));
  std::vector<ArcId> out_arcs(out_span.begin(), out_span.end());
  if (!ArcIdle(in_arc)) return false;
  for (ArcId arc : out_arcs) {
    if (!ArcIdle(arc)) return false;
  }

  OperatorSpec filter_spec = *f_spec;
  std::vector<Endpoint> sources(n);
  for (int i = 0; i < n; ++i) sources[i] = engine_->ArcFrom(union_ins[i]);
  std::vector<Endpoint> dests;
  for (ArcId arc : out_arcs) dests.push_back(engine_->ArcTo(arc));

  // srcs -> U -> F -> dests   becomes   srcs -> F_i -> U -> dests.
  for (int i = 0; i < n; ++i) {
    AURORA_RETURN_NOT_OK(engine_->DisconnectArc(union_ins[i]));
  }
  AURORA_RETURN_NOT_OK(engine_->DisconnectArc(in_arc));
  for (ArcId arc : out_arcs) AURORA_RETURN_NOT_OK(engine_->DisconnectArc(arc));
  AURORA_RETURN_NOT_OK(engine_->RemoveBox(filter));
  for (int i = 0; i < n; ++i) {
    AURORA_ASSIGN_OR_RETURN(BoxId f_i, engine_->AddBox(filter_spec));
    AURORA_RETURN_NOT_OK(
        engine_->Connect(sources[i], Endpoint::BoxPort(f_i, 0)).status());
    AURORA_RETURN_NOT_OK(engine_->Connect(Endpoint::BoxPort(f_i, 0),
                                          Endpoint::BoxPort(union_box, i))
                             .status());
  }
  for (const Endpoint& d : dests) {
    AURORA_RETURN_NOT_OK(
        engine_->Connect(Endpoint::BoxPort(union_box, 0), d).status());
  }
  AURORA_RETURN_NOT_OK(engine_->InitializeBoxes(/*require_all=*/false));
  union_pushdowns_++;
  return true;
}

Result<bool> NetworkOptimizer::TryReorderFilters(BoxId second, ArcId in_arc,
                                                 BoxId first) {
  AURORA_ASSIGN_OR_RETURN(Operator * first_op, engine_->BoxOp(first));
  AURORA_ASSIGN_OR_RETURN(Operator * second_op, engine_->BoxOp(second));
  // Reorder only with measured evidence: the downstream filter must be
  // decisively more selective than the upstream one.
  constexpr uint64_t kMinEvidence = 64;
  if (first_op->tuples_in() < kMinEvidence ||
      second_op->tuples_in() < kMinEvidence) {
    return false;
  }
  if (second_op->selectivity() >= first_op->selectivity() * 0.9) return false;

  auto first_in = engine_->FindArcInto(first, 0);
  if (!first_in.ok()) return false;
  auto out_span = engine_->ArcsFrom(Endpoint::BoxPort(second, 0));
  std::vector<ArcId> out_arcs(out_span.begin(), out_span.end());
  if (!ArcIdle(*first_in) || !ArcIdle(in_arc)) return false;
  for (ArcId arc : out_arcs) {
    if (!ArcIdle(arc)) return false;
  }

  Endpoint source = engine_->ArcFrom(*first_in);
  std::vector<Endpoint> dests;
  for (ArcId arc : out_arcs) dests.push_back(engine_->ArcTo(arc));

  // X -> F1 -> F2 -> dests becomes X -> F2 -> F1 -> dests. Both filters
  // are pass-through (identical schemas), so the live operator instances
  // are rewired in place — measured statistics survive the swap.
  AURORA_RETURN_NOT_OK(engine_->DisconnectArc(*first_in));
  AURORA_RETURN_NOT_OK(engine_->DisconnectArc(in_arc));
  for (ArcId arc : out_arcs) AURORA_RETURN_NOT_OK(engine_->DisconnectArc(arc));
  AURORA_RETURN_NOT_OK(
      engine_->Connect(source, Endpoint::BoxPort(second, 0)).status());
  AURORA_RETURN_NOT_OK(engine_->Connect(Endpoint::BoxPort(second, 0),
                                        Endpoint::BoxPort(first, 0))
                           .status());
  for (const Endpoint& d : dests) {
    AURORA_RETURN_NOT_OK(
        engine_->Connect(Endpoint::BoxPort(first, 0), d).status());
  }
  filter_reorders_++;
  return true;
}

}  // namespace aurora
