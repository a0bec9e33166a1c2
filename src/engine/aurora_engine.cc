#include "engine/aurora_engine.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "engine/activation.h"
#include "obs/trace.h"

namespace aurora {

AuroraEngine::AuroraEngine(EngineOptions opts)
    : opts_(opts), storage_(opts.memory_budget_bytes), shedder_(opts.shedder) {
  if (opts_.batch_size < 1) opts_.batch_size = 1;
  MetricsRegistry& reg = MetricsRegistry::Global();
  m_tuples_in_ = reg.GetCounter("engine.tuples_in");
  m_tuples_shed_ = reg.GetCounter("engine.tuples_shed");
  m_tuples_blocked_ = reg.GetCounter("engine.tuples_blocked_upstream");
  m_ingest_blocked_ = reg.GetGauge("engine.ingest.blocked");
  m_activations_ = reg.GetCounter("engine.activations");
  m_sched_decisions_ = reg.GetCounter("engine.sched.decisions");
  m_box_exec_us_ = reg.GetHistogram("engine.box_exec_us");
  m_queue_wait_ms_ = reg.GetHistogram("engine.queue_wait_ms");
  m_queue_depth_ = reg.GetGauge("engine.queue_depth");
  m_batch_chunks_ = reg.GetCounter("engine.batch.emitted_chunks");
  m_batch_chunk_tuples_ = reg.GetCounter("engine.batch.emitted_tuples");
  m_batch_fanout_tuples_ = reg.GetCounter("engine.batch.fanout_tuples");
  m_batch_chunk_enqueued_ = reg.GetCounter("engine.batch.chunk_enqueued");
  m_batch_chunk_delivered_ = reg.GetCounter("engine.batch.chunk_delivered");
  m_batch_chunk_held_ = reg.GetCounter("engine.batch.chunk_held");
}

// ---------------------------------------------------------------------------
// Topology construction
// ---------------------------------------------------------------------------

Result<PortId> AuroraEngine::AddInput(const std::string& name,
                                      SchemaPtr schema) {
  return net_.AddInput(name, std::move(schema));
}

Result<PortId> AuroraEngine::AddOutput(const std::string& name) {
  AURORA_ASSIGN_OR_RETURN(PortId id, net_.AddOutput(name));
  output_callbacks_.emplace_back();
  return id;
}

Result<BoxId> AuroraEngine::AddBox(const OperatorSpec& spec) {
  AURORA_ASSIGN_OR_RETURN(BoxId id, net_.AddBox(spec));
  boxes_.emplace_back();
  return id;
}

Result<ArcId> AuroraEngine::Connect(Endpoint from, Endpoint to) {
  AURORA_ASSIGN_OR_RETURN(ArcId id, net_.Connect(from, to));
  arcs_.emplace_back();
  return id;
}

bool AuroraEngine::IsBoxInitialized(BoxId box) const {
  return net_.IsBoxInitialized(box);
}

Status AuroraEngine::InitializeBoxes(bool require_all) {
  return net_.InitializeBoxes(require_all);
}

Status AuroraEngine::MakeConnectionPoint(ArcId arc, const std::string& name,
                                         RetentionPolicy policy) {
  ArcRt* a = LiveArc(arc);
  if (a == nullptr) return Status::InvalidArgument("bad arc id");
  if (connection_points_.count(name)) {
    return Status::AlreadyExists("connection point '" + name + "' exists");
  }
  a->cp = std::make_unique<ConnectionPoint>(name, policy);
  connection_points_[name] = arc;
  if (durable_store_ != nullptr) BindConnectionPointStorage(arc);
  return Status::OK();
}

void AuroraEngine::AttachDurableStore(TieredStore* store) {
  durable_store_ = store;
  storage_.AttachStore(store);
  for (const auto& [name, arc] : connection_points_) {
    BindConnectionPointStorage(arc);
  }
}

void AuroraEngine::BindConnectionPointStorage(ArcId arc) {
  ArcRt& a = arcs_[arc];
  if (!net_.HasArc(arc) || a.cp == nullptr || a.cp->storage_bound()) return;
  SchemaPtr schema;
  auto s = net_.EndpointOutputSchema(net_.arc(arc).from);
  if (s.ok()) schema = *s;
  a.cp->BindStorage(durable_store_, "cp/" + a.cp->name(),
                    opts_.cp_cache_tuples, std::move(schema));
}

void AuroraEngine::WipeVolatileStorage() {
  // Disconnecting an arc drops its connection point, so only live arcs
  // carry one.
  for (auto& a : arcs_) {
    if (a.cp != nullptr) a.cp->DropMemoryTier();
  }
}

void AuroraEngine::RecoverDurableState(SimTime now) {
  for (auto& a : arcs_) {
    if (a.cp != nullptr && a.cp->storage_bound()) {
      a.cp->RecoverFromStorage(now);
    }
  }
}

Result<ConnectionPoint*> AuroraEngine::GetConnectionPoint(
    const std::string& name) {
  auto it = connection_points_.find(name);
  if (it == connection_points_.end()) {
    return Status::NotFound("connection point '" + name + "' not found");
  }
  return arcs_[it->second].cp.get();
}

Result<int> AuroraEngine::AttachAdHocQuery(const std::string& cp_name,
                                           Predicate predicate,
                                           OutputCallback sink) {
  AURORA_ASSIGN_OR_RETURN(ConnectionPoint * cp, GetConnectionPoint(cp_name));
  if (!sink) return Status::InvalidArgument("ad hoc query needs a sink");
  // Replay history first, then go live — the attachment point in time is
  // well-defined because both happen atomically w.r.t. tuple flow.
  auto shared_pred = std::make_shared<Predicate>(std::move(predicate));
  cp->QueryHistory(
      [&](const Tuple& t) { return shared_pred->Eval(t); },
      [&](const Tuple& t) { sink(t, t.timestamp()); });
  return cp->Subscribe(
      [shared_pred, sink = std::move(sink)](const Tuple& t, SimTime now) {
        if (shared_pred->Eval(t)) sink(t, now);
      });
}

Status AuroraEngine::DetachAdHocQuery(const std::string& cp_name, int token) {
  AURORA_ASSIGN_OR_RETURN(ConnectionPoint * cp, GetConnectionPoint(cp_name));
  cp->Unsubscribe(token);
  return Status::OK();
}

ConnectionPoint* AuroraEngine::ArcConnectionPoint(ArcId arc) {
  ArcRt* a = LiveArc(arc);
  return a == nullptr ? nullptr : a->cp.get();
}

// ---------------------------------------------------------------------------
// Dynamic reconfiguration
// ---------------------------------------------------------------------------

Status AuroraEngine::ChokeArc(ArcId arc) {
  ArcRt* a = LiveArc(arc);
  if (a == nullptr) return Status::InvalidArgument("bad arc id");
  a->choked = true;
  if (a->cp) a->cp->Choke();
  return Status::OK();
}

Status AuroraEngine::UnchokeArc(ArcId arc) {
  ArcRt* a = LiveArc(arc);
  if (a == nullptr) return Status::InvalidArgument("bad arc id");
  a->choked = false;
  if (a->cp) a->cp->Unchoke();
  // Held arrivals flow back in arrival order, ahead of any new traffic.
  for (auto& [t, us] : a->hold) ArcEnqueueChunk(arc, &t, 1, us, true);
  a->hold.clear();
  return Status::OK();
}

bool AuroraEngine::ArcChoked(ArcId arc) const {
  return arc >= 0 && arc < static_cast<int>(arcs_.size()) && arcs_[arc].choked;
}

Result<std::vector<Tuple>> AuroraEngine::TakeHeldTuples(ArcId arc) {
  ArcRt* a = LiveArc(arc);
  if (a == nullptr) return Status::InvalidArgument("bad arc id");
  std::vector<Tuple> out;
  out.reserve(a->hold.size());
  for (auto& [t, us] : a->hold) out.push_back(std::move(t));
  a->hold.clear();
  return out;
}

size_t AuroraEngine::HeldTupleCount(ArcId arc) const {
  if (arc < 0 || arc >= static_cast<int>(arcs_.size())) return 0;
  return arcs_[arc].hold.size();
}

Result<OperatorPtr> AuroraEngine::ExtractBoxOperator(BoxId box) {
  return net_.RemoveBox(box);
}

Result<BoxId> AuroraEngine::AdoptBoxOperator(OperatorPtr op) {
  AURORA_ASSIGN_OR_RETURN(BoxId id, net_.AdoptBox(std::move(op)));
  boxes_.emplace_back();
  return id;
}

Status AuroraEngine::DisconnectArc(ArcId arc) {
  ArcRt* a = LiveArc(arc);
  if (a == nullptr) return Status::InvalidArgument("bad arc id");
  if (!a->queue.empty()) {
    return Status::FailedPrecondition(
        "arc queue not empty (" + std::to_string(a->queue.size()) +
        " tuples); TakeArcQueue first");
  }
  if (!a->hold.empty()) {
    return Status::FailedPrecondition("arc has held tuples; TakeHeldTuples first");
  }
  AURORA_RETURN_NOT_OK(net_.Disconnect(arc));
  for (auto it = connection_points_.begin(); it != connection_points_.end();) {
    it = (it->second == arc) ? connection_points_.erase(it) : std::next(it);
  }
  a->cp.reset();
  return Status::OK();
}

Status AuroraEngine::RemoveBox(BoxId box) {
  return net_.RemoveBox(box).status();  // the operator is destroyed here
}

Result<std::vector<Tuple>> AuroraEngine::TakeArcQueue(ArcId arc) {
  ArcRt* a = LiveArc(arc);
  if (a == nullptr) return Status::InvalidArgument("bad arc id");
  std::vector<Tuple> out;
  out.reserve(a->queue.size());
  while (!a->queue.empty()) out.push_back(a->queue.Pop());
  a->enqueue_us.clear();
  return out;
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

Result<const OperatorSpec*> AuroraEngine::BoxSpec(BoxId box) const {
  if (!net_.HasBox(box)) return Status::InvalidArgument("bad box id");
  return &net_.box(box).spec;
}

Result<Operator*> AuroraEngine::BoxOp(BoxId box) {
  if (!net_.HasBox(box)) return Status::InvalidArgument("bad box id");
  return net_.box(box).op.get();
}

size_t AuroraEngine::ArcQueueSize(ArcId arc) const {
  if (arc < 0 || arc >= static_cast<int>(arcs_.size())) return 0;
  return arcs_[arc].queue.size();
}

SeqNo AuroraEngine::ArcQueueMinSeq(ArcId arc) const {
  if (!net_.HasArc(arc)) return kNoSeqNo;
  SeqNo min_seq = kNoSeqNo;
  auto consider = [&min_seq](SeqNo s) {
    if (s == kNoSeqNo) return;
    if (min_seq == kNoSeqNo || s < min_seq) min_seq = s;
  };
  for (const auto& t : arcs_[arc].queue.items()) consider(t.seq());
  for (const auto& [t, us] : arcs_[arc].hold) consider(t.seq());
  return min_seq;
}

AuroraEngine::OutputCallback AuroraEngine::GetOutputCallback(
    PortId output) const {
  if (output < 0 || output >= static_cast<int>(output_callbacks_.size())) {
    return nullptr;
  }
  return output_callbacks_[output];
}

AuroraEngine::ArcRt* AuroraEngine::LiveArc(ArcId arc) {
  return net_.HasArc(arc) ? &arcs_[arc] : nullptr;
}

// ---------------------------------------------------------------------------
// QoS
// ---------------------------------------------------------------------------

Status AuroraEngine::SetOutputQoS(PortId output, QoSSpec spec) {
  if (output < 0 || output >= static_cast<int>(net_.num_outputs())) {
    return Status::InvalidArgument("bad output port");
  }
  qos_.SetSpec(output, std::move(spec));
  return Status::OK();
}

void AuroraEngine::WalkArc(ArcId arc, double cost_so_far_us,
                           std::map<PortId, double>* outputs_cost) const {
  const Endpoint to = net_.arc(arc).to;
  if (to.kind == Endpoint::Kind::kOutputPort) {
    auto it = outputs_cost->find(to.id);
    // Keep the most stringent (largest) accumulated time over paths.
    if (it == outputs_cost->end() || it->second < cost_so_far_us) {
      (*outputs_cost)[to.id] = cost_so_far_us;
    }
    return;
  }
  const Operator& op = *net_.box(to.id).op;
  double measured_ms = qos_.BoxTbMs(to.id);
  double t_b_us = measured_ms > 0.0 ? measured_ms * 1000.0
                                    : op.cost_micros_per_tuple();
  for (int k = 0; k < op.num_outputs(); ++k) {
    for (ArcId next : net_.ArcsFrom(Endpoint::BoxPort(to.id, k))) {
      WalkArc(next, cost_so_far_us + t_b_us, outputs_cost);
    }
  }
}

Result<QoSSpec> AuroraEngine::InferArcQoS(ArcId arc) const {
  if (!net_.HasArc(arc)) return Status::InvalidArgument("bad arc id");
  std::map<PortId, double> outputs_cost;
  WalkArc(arc, 0.0, &outputs_cost);
  std::vector<QoSSpec> candidates;
  for (const auto& [port, cost_us] : outputs_cost) {
    const QoSSpec* spec = qos_.GetSpec(port);
    if (spec == nullptr) continue;
    candidates.push_back(InferThroughBox(*spec, cost_us / 1000.0));
  }
  if (candidates.empty()) {
    return Status::NotFound("no QoS-bearing output reachable from arc");
  }
  if (candidates.size() == 1) return candidates[0];
  return CombineSpecs(candidates);
}

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

void AuroraEngine::RouteChunk(const Endpoint& from, Tuple* tuples, size_t n,
                              SimTime now, std::vector<BoxId>* touched) {
  route_counts_.chunks++;
  route_counts_.tuples += n;
  // Connection-point subscribers and output callbacks are application code
  // that may rewire the network, so the out-arc list is walked by index and
  // re-read after every callback, and no model or arc reference outlives
  // one.
  std::span<const ArcId> fan = net_.ArcsFrom(from);
  for (size_t k = 0; k < fan.size(); ++k) {
    const ArcId id = fan[k];
    const Endpoint to = net_.arc(id).to;
    if (arcs_[id].cp) {
      // Subscriber callbacks are application code, free to use Get(name).
      TupleHotPathSection::Exemption allow_get;
      for (size_t i = 0; i < n; ++i) arcs_[id].cp->Record(tuples[i], now);
      fan = net_.ArcsFrom(from);
    }
    // Each arc's fan-out share is counted together with its destination,
    // so a publish from inside a callback still reconciles.
    route_counts_.fanout += n;
    ArcRt& a = arcs_[id];
    if (a.choked) {
      route_counts_.held += n;
      const int64_t us = now.micros();
      for (size_t i = 0; i < n; ++i) a.hold.emplace_back(tuples[i], us);
      continue;
    }
    if (to.kind == Endpoint::Kind::kOutputPort) {
      route_counts_.delivered += n;
      for (size_t i = 0; i < n; ++i) DeliverToOutput(to.id, tuples[i], now);
      fan = net_.ArcsFrom(from);
      continue;
    }
    route_counts_.enqueued += n;
    const bool last_arc = k + 1 == fan.size();
    ArcEnqueueChunk(id, tuples, n, now.micros(), last_arc);
    if (touched != nullptr &&
        std::find(touched->begin(), touched->end(), to.id) == touched->end()) {
      touched->push_back(to.id);
    }
  }
}

void AuroraEngine::PublishRouteCounts() {
  const RouteCounts c = std::exchange(route_counts_, RouteCounts{});
  if (c.chunks == 0) return;
  m_batch_chunks_->Add(c.chunks);
  m_batch_chunk_tuples_->Add(c.tuples);
  if (c.fanout > 0) m_batch_fanout_tuples_->Add(c.fanout);
  if (c.enqueued > 0) m_batch_chunk_enqueued_->Add(c.enqueued);
  if (c.delivered > 0) m_batch_chunk_delivered_->Add(c.delivered);
  if (c.held > 0) m_batch_chunk_held_->Add(c.held);
}

void AuroraEngine::DeliverToOutput(PortId port, const Tuple& t, SimTime now) {
  double latency_ms = std::max(0.0, (now - t.timestamp()).millis());
  // Record the delivery span *before* telling the QoS monitor, so the
  // attributor's stage breakdown for this very tuple is ready and a QoS
  // violation can name its bottleneck stage.
  Tracer& tracer = Tracer::Global();
  const StageBreakdown* attr = nullptr;
  if (tracer.enabled() && t.trace_id() != 0) {
    tracer.Record({t.trace_id(), SpanKind::kDelivery, trace_node_,
                   "out:" + net_.output(port).name, now.micros(),
                   now.micros()});
    const StageBreakdown* last = tracer.attribution().last_delivery();
    if (last != nullptr && last->trace_id == t.trace_id()) attr = last;
  }
  qos_.RecordDelivery(port, latency_ms, attr, now.micros());
  if (output_callbacks_[port]) {
    // Output callbacks are application code, free to use Get(name).
    TupleHotPathSection::Exemption allow_get;
    output_callbacks_[port](t, now);
  }
}

Status AuroraEngine::PushInput(PortId input, Tuple t, SimTime now,
                               bool gate_ingest) {
  AURORA_RETURN_NOT_OK(net_.CheckInputTuple(input, t));
  const QueryNetwork::InputPort& port = net_.input(input);
  m_tuples_in_->Add();
  if (shedder_.ShouldDrop(input, t, now)) {
    m_tuples_shed_->Add();
    // Remote tuples arrive with lineage already attached; close it out so
    // the attributor stops tracking a tuple that will never deliver.
    Tracer& tracer = Tracer::Global();
    if (tracer.enabled() && t.trace_id() != 0) {
      tracer.Record({t.trace_id(), SpanKind::kShed, trace_node_,
                     "shed:in:" + port.name, now.micros(),
                     now.micros()});
    }
    AttributeInputDrop(input);
    return Status::OK();
  }
  // The gate comes *after* the shedder so its arrival estimator keeps
  // seeing true offered load while the node is back-pressured.
  if (gate_ingest && ingest_blocked_) {
    m_tuples_blocked_->Add();
    AttributeInputDrop(input);
    return Status::Unavailable("blocked upstream: out of downstream credit");
  }
  if (t.timestamp().micros() == 0) t.set_timestamp(now);
  Tracer& tracer = Tracer::Global();
  if (tracer.enabled()) {
    // Source tuples draw a (sampled) lineage id here; tuples arriving over
    // the wire keep the id their origin node assigned.
    if (t.trace_id() == 0) t.set_trace_id(tracer.NewTrace());
    if (t.trace_id() != 0) {
      tracer.Record({t.trace_id(), SpanKind::kEnqueue, trace_node_,
                     "in:" + port.name, now.micros(), now.micros()});
    }
  }
  RouteChunk(Endpoint::InputPort(input), &t, 1, now, nullptr);
  PublishRouteCounts();
  EnforceStorageBudget();
  return Status::OK();
}

void AuroraEngine::AttributeInputDrop(PortId input) {
  for (const auto& info : shedder_.inputs()) {
    if (info.input != input) continue;
    for (PortId out : info.outputs) qos_.RecordDrop(out);
    return;
  }
}

Status AuroraEngine::PushInputByName(const std::string& name, Tuple t,
                                     SimTime now) {
  AURORA_ASSIGN_OR_RETURN(PortId port, FindInput(name));
  return PushInput(port, std::move(t), now);
}

void AuroraEngine::SetOutputCallback(PortId output, OutputCallback cb) {
  AURORA_CHECK(output >= 0 &&
               output < static_cast<int>(output_callbacks_.size()));
  output_callbacks_[output] = std::move(cb);
}

Status AuroraEngine::EmitToOutputPort(PortId output, const Tuple& t,
                                      SimTime now) {
  if (output < 0 || output >= static_cast<int>(net_.num_outputs())) {
    return Status::InvalidArgument("bad output port");
  }
  DeliverToOutput(output, t, now);
  return Status::OK();
}

Status AuroraEngine::EnqueueOnArc(ArcId arc, Tuple t, SimTime now) {
  if (!net_.HasArc(arc)) return Status::InvalidArgument("bad arc id");
  const Endpoint to = net_.arc(arc).to;
  if (to.kind == Endpoint::Kind::kOutputPort) {
    DeliverToOutput(to.id, t, now);
    return Status::OK();
  }
  ArcEnqueueChunk(arc, &t, 1, now.micros(), true);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

bool AuroraEngine::BoxReady(BoxId box) const {
  const QueryNetwork::Box& b = net_.box(box);
  if (b.removed || !b.initialized) return false;
  for (ArcId arc : b.in_arcs) {
    if (arc >= 0 && !arcs_[arc].queue.empty()) return true;
  }
  return false;
}

size_t AuroraEngine::QueuedTuples(BoxId box) const {
  size_t n = 0;
  for (ArcId arc : net_.box(box).in_arcs) {
    if (arc >= 0) n += arcs_[arc].queue.size();
  }
  return n;
}

bool AuroraEngine::HasWork() const {
  for (size_t i = 0; i < boxes_.size(); ++i) {
    if (BoxReady(static_cast<BoxId>(i))) return true;
  }
  return false;
}

void AuroraEngine::ArcEnqueueChunk(ArcId arc_id, Tuple* tuples, size_t n,
                                   int64_t enqueue_us, bool may_move) {
  ArcRt& arc = arcs_[arc_id];
  for (size_t i = 0; i < n; ++i) {
    if (may_move) {
      arc.queue.Push(std::move(tuples[i]));
    } else {
      Tuple copy = tuples[i];
      arc.queue.Push(std::move(copy));
    }
    arc.enqueue_us.push_back(enqueue_us);
  }
}

void AuroraEngine::RefreshQoSDeadlines() {
  for (size_t i = 0; i < boxes_.size(); ++i) {
    const QueryNetwork::Box& model = net_.box(static_cast<BoxId>(i));
    if (model.removed || !model.initialized) continue;
    double& deadline_ms = boxes_[i].deadline_ms;
    deadline_ms = 1e18;
    for (ArcId arc : model.in_arcs) {
      if (arc < 0) continue;
      auto spec = InferArcQoS(arc);
      if (!spec.ok() || spec->latency.empty()) continue;
      deadline_ms = std::min(deadline_ms, spec->latency.CriticalX(0.5));
    }
  }
}

double AuroraEngine::PickKey(BoxId box, SimTime now) const {
  switch (opts_.scheduler) {
    case SchedulerPolicy::kLongestQueue:
      return static_cast<double>(QueuedTuples(box));
    case SchedulerPolicy::kMinOutputDistance:
      return -static_cast<double>(net_.box(box).distance_to_output);
    case SchedulerPolicy::kQoSSlack: {
      // Most urgent first: the smallest slack, deadline minus the age of the
      // oldest queued tuple.
      double oldest_ms = 0.0;
      for (ArcId arc : net_.box(box).in_arcs) {
        if (arc < 0 || arcs_[arc].queue.empty()) continue;
        oldest_ms = std::max(
            oldest_ms, (now - arcs_[arc].queue.Front().timestamp()).millis());
      }
      return -(boxes_[box].deadline_ms - oldest_ms);
    }
    case SchedulerPolicy::kRoundRobin:
    case SchedulerPolicy::kTupleAtATime:
      break;
  }
  return 0.0;
}

Result<BoxId> AuroraEngine::PickBox(SimTime now) {
  const size_t n = boxes_.size();
  const bool round_robin = opts_.scheduler == SchedulerPolicy::kRoundRobin ||
                           opts_.scheduler == SchedulerPolicy::kTupleAtATime;
  const size_t start = round_robin ? static_cast<size_t>(rr_next_box_) : 0;
  BoxId best = -1;
  double best_key = 0.0;
  for (size_t step = 0; step < n; ++step) {
    size_t i = start + step;
    if (i >= n) i -= n;
    const BoxId box = static_cast<BoxId>(i);
    if (!BoxReady(box)) continue;
    const double key = PickKey(box, now);
    if (best < 0 || key > best_key) {
      best = box;
      best_key = key;
    }
  }
  if (best < 0) return Status::NotFound("no ready box");
  if (round_robin) rr_next_box_ = static_cast<int>((best + 1) % n);
  return best;
}

void AuroraEngine::EnsureBoxProfile(BoxId box_id) {
  BoxRt* box = &boxes_[box_id];
  MetricsRegistry& reg = MetricsRegistry::Global();
  const std::string base = "engine.box.n" + std::to_string(trace_node_) + "." +
                           std::to_string(box_id) + ":" +
                           net_.box(box_id).spec.kind + ".";
  box->prof_activations = reg.GetCounter(base + "activations");
  box->prof_tuples = reg.GetCounter(base + "tuples");
  box->prof_self_us = reg.GetCounter(base + "self_us");
  box->prof_tuple_cost_us = reg.GetHistogram(base + "tuple_cost_us");
}

double AuroraEngine::ActivateBox(BoxId box_id, SimTime now,
                                 std::vector<BoxId>* touched) {
  if (boxes_[box_id].prof_activations == nullptr) EnsureBoxProfile(box_id);
  // The operator never moves; the model and the runtime arrays may, so
  // `take` and the cursor re-index them on every turn (see RunActivation).
  Operator* op = net_.box(box_id).op.get();
  const int budget = opts_.scheduler == SchedulerPolicy::kTupleAtATime
                         ? 1
                         : opts_.train_size;
  double cost_us = 0.0;
  double wait_sum_ms = 0.0;
  BoxEmitter emitter(box_id, [&](const Endpoint& from, Tuple* t, size_t n) {
    RouteChunk(from, t, n, now, touched);
  });
  Tracer& tracer = Tracer::Global();
  // Pops one chunk off the input's arc with its per-tuple accounting:
  // consecutive equal histogram samples collapse into one RecordN call
  // (RecordN is defined to be bit-identical to the per-call sequence). Runs
  // are flushed in arrival order, so even the floating sum inside each
  // histogram accumulates in tuple order.
  auto take = [&](int in, int want, TupleBatch& batch) {
    const ArcId arc_id = net_.box(box_id).in_arcs[in];
    if (arc_id < 0) return 0;
    ArcRt& a = arcs_[arc_id];
    LatencyHistogram* tuple_cost_hist = boxes_[box_id].prof_tuple_cost_us;
    double run_wait_ms = 0.0, run_cost_us = 0.0;
    uint64_t run_wait_n = 0, run_cost_n = 0;
    const bool tracing = tracer.enabled();
    int got = 0;
    while (got < want && !a.queue.empty()) {
      uint64_t reads_before = a.queue.unspill_reads();
      int64_t enq_us = a.enqueue_us.front();
      Tuple t = a.queue.Pop();
      a.enqueue_us.pop_front();
      double wait_ms = static_cast<double>(now.micros() - enq_us) / 1000.0;
      wait_sum_ms += wait_ms;
      if (run_wait_n > 0 && wait_ms != run_wait_ms) {
        m_queue_wait_ms_->RecordN(run_wait_ms, run_wait_n);
        run_wait_n = 0;
      }
      run_wait_ms = wait_ms;
      run_wait_n++;
      double tuple_cost_us = op->cost_micros_per_tuple();
      tuple_cost_us += static_cast<double>(a.queue.unspill_reads() -
                                           reads_before) *
                       opts_.spill_read_cost_us;
      cost_us += tuple_cost_us;
      if (run_cost_n > 0 && tuple_cost_us != run_cost_us) {
        tuple_cost_hist->RecordN(run_cost_us, run_cost_n);
        run_cost_n = 0;
      }
      run_cost_us = tuple_cost_us;
      run_cost_n++;
      if (tracing && t.trace_id() != 0) {
        tracer.Record({t.trace_id(), SpanKind::kBoxExec, trace_node_,
                       "box:" + net_.box(box_id).spec.kind, now.micros(),
                       now.micros() + static_cast<int64_t>(tuple_cost_us)});
      }
      batch.Push(std::move(t), now);
      got++;
    }
    if (run_wait_n > 0) m_queue_wait_ms_->RecordN(run_wait_ms, run_wait_n);
    if (run_cost_n > 0) tuple_cost_hist->RecordN(run_cost_us, run_cost_n);
    return got;
  };
  // Output callbacks run inside ProcessBatch emissions and are free to
  // re-enter the engine, so only the outermost activation borrows the
  // member scratch (its capacity then amortizes across activations); a
  // nested one uses its own.
  TupleBatch nested_batch;
  TupleBatch& batch =
      activation_depth_++ == 0 ? batch_scratch_ : nested_batch;
  const int processed = RunActivation(
      op, op->num_inputs(), budget, opts_.batch_size, batch, &emitter,
      [&]() -> int& { return boxes_[box_id].rr_next_input; }, take,
      &deferred_error_);
  activation_depth_--;
  if (processed > 0) {
    double t_b_ms = wait_sum_ms / processed +
                    (cost_us / processed) / 1000.0;
    qos_.RecordBoxWork(box_id, t_b_ms, processed);
    total_activations_++;
    m_activations_->Add();
    m_box_exec_us_->Record(cost_us);
    BoxRt& box = boxes_[box_id];
    box.prof_activations->Add();
    box.prof_tuples->Add(static_cast<uint64_t>(processed));
    box.prof_self_us->Add(static_cast<uint64_t>(cost_us));
  }
  return cost_us;
}

Result<double> AuroraEngine::RunOneStep(SimTime now) {
  if (!deferred_error_.ok()) {
    Status err = deferred_error_;
    deferred_error_ = Status::OK();
    return err;
  }
  auto pick = PickBox(now);
  if (!pick.ok()) return 0.0;
  m_sched_decisions_->Add();
  std::vector<BoxId> touched;
  double cost_us = ActivateBox(*pick, now, &touched);
  // Push the train toward the output (train_depth > 1): activate the boxes
  // that just received tuples, layer by layer.
  for (int depth = 1; depth < opts_.train_depth && !touched.empty(); ++depth) {
    std::vector<BoxId> next;
    for (BoxId b : touched) {
      if (BoxReady(b)) cost_us += ActivateBox(b, now, &next);
    }
    touched = std::move(next);
  }
  PublishRouteCounts();
  EnforceStorageBudget();
  total_cpu_micros_ += cost_us;
  m_queue_depth_->Set(static_cast<double>(TotalQueuedTuples()));
  if (!deferred_error_.ok()) {
    Status err = deferred_error_;
    deferred_error_ = Status::OK();
    return err;
  }
  return cost_us;
}

Status AuroraEngine::RunUntilQuiescent(SimTime now, int max_steps) {
  for (int i = 0; i < max_steps; ++i) {
    if (!HasWork()) return Status::OK();
    auto cost = RunOneStep(now);
    AURORA_RETURN_NOT_OK(cost.status());
  }
  return Status::ResourceExhausted("network did not quiesce within step limit");
}

void AuroraEngine::Tick(SimTime now) {
  for (size_t i = 0; i < boxes_.size(); ++i) {
    const BoxId id = static_cast<BoxId>(i);
    if (!net_.IsBoxInitialized(id)) continue;
    BoxEmitter emitter(id, [&](const Endpoint& from, Tuple* t, size_t n) {
      RouteChunk(from, t, n, now, nullptr);
    });
    net_.box(id).op->OnTick(now, &emitter);
  }
  PublishRouteCounts();
  // The tiered store's dropper (group fsync, segment seal, compaction) runs
  // on the same deterministic tick cadence as the operators.
  if (durable_store_ != nullptr) durable_store_->Tick(now);
}

Status AuroraEngine::DrainBoxState(BoxId box, SimTime now) {
  if (!net_.HasBox(box)) return Status::InvalidArgument("bad box id");
  BoxEmitter emitter(box, [&](const Endpoint& from, Tuple* t, size_t n) {
    RouteChunk(from, t, n, now, nullptr);
  });
  net_.box(box).op->Drain(&emitter);
  PublishRouteCounts();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Support
// ---------------------------------------------------------------------------

void AuroraEngine::EnforceStorageBudget() {
  if (storage_.budget() == 0) return;  // unbounded: nothing to spill
  std::vector<SpillableQueue> queues;
  queues.reserve(arcs_.size());
  for (size_t i = 0; i < arcs_.size(); ++i) {
    const QueryNetwork::Arc& a = net_.arc(static_cast<ArcId>(i));
    if (!a.removed && a.to.kind == Endpoint::Kind::kBox) {
      queues.push_back(SpillableQueue{&arcs_[i].queue, static_cast<int>(i)});
    }
  }
  storage_.EnforceBudget(queues);
}

size_t AuroraEngine::TotalQueuedTuples() const {
  // Removed arcs were emptied before Disconnect, so they add nothing.
  size_t total = 0;
  for (const auto& a : arcs_) total += a.queue.size();
  return total;
}

void AuroraEngine::SetIngestBlocked(bool blocked) {
  ingest_blocked_ = blocked;
  m_ingest_blocked_->Set(blocked ? 1.0 : 0.0);
}

size_t AuroraEngine::InputBacklogBytes(PortId input) const {
  if (input < 0 || input >= static_cast<int>(net_.num_inputs())) return 0;
  size_t bytes = 0;
  for (ArcId arc : net_.input(input).out_arcs) {
    const ArcRt& a = arcs_[arc];
    bytes += a.queue.bytes();
    for (const auto& [t, us] : a.hold) bytes += t.WireSize();
  }
  return bytes;
}

void AuroraEngine::RebuildShedderModel() {
  // Expected downstream CPU cost of one tuple entering `endpoint`, using
  // measured selectivities where available.
  std::function<double(const Endpoint&)> cost_from =
      [&](const Endpoint& from) -> double {
    double total = 0.0;
    for (ArcId arc : net_.ArcsFrom(from)) {
      const Endpoint to = net_.arc(arc).to;
      if (to.kind != Endpoint::Kind::kBox) continue;
      const QueryNetwork::Box& box = net_.box(to.id);
      if (!box.initialized) continue;
      double c = box.op->cost_micros_per_tuple();
      double sel = box.op->selectivity();
      double downstream = 0.0;
      for (int k = 0; k < box.op->num_outputs(); ++k) {
        downstream += cost_from(Endpoint::BoxPort(to.id, k));
      }
      total += c + sel * downstream;
    }
    return total;
  };

  std::vector<LoadShedder::InputInfo> infos;
  for (size_t i = 0; i < net_.num_inputs(); ++i) {
    const SchemaPtr& schema = net_.input(static_cast<PortId>(i)).schema;
    LoadShedder::InputInfo info;
    info.input = static_cast<PortId>(i);
    info.downstream_cost_us =
        std::max(0.1, cost_from(Endpoint::InputPort(static_cast<int>(i))));
    std::map<PortId, double> outputs_cost;
    for (ArcId arc : net_.ArcsFrom(Endpoint::InputPort(static_cast<int>(i)))) {
      WalkArc(arc, 0.0, &outputs_cost);
    }
    double slope = 0.0;
    for (const auto& [port, cost] : outputs_cost) {
      info.outputs.push_back(port);
      const QoSSpec* spec = qos_.GetSpec(port);
      if (spec != nullptr && !spec->loss.empty()) {
        slope += (spec->loss.Eval(1.0) - spec->loss.Eval(0.5)) / 0.5;
      } else {
        slope += 1.0;
      }
      // Semantic shedding uses the first downstream value-based graph
      // whose attribute exists on this input's schema.
      if (spec != nullptr && !spec->value.empty() &&
          info.value_graph.empty() &&
          schema->HasField(spec->value_field)) {
        info.value_field = spec->value_field;
        info.value_graph = spec->value;
        // Resolve the field index once here so the per-tuple shedding
        // decision is an array access, not a field-name scan.
        auto idx = schema->IndexOf(spec->value_field);
        if (idx.ok()) info.value_index = static_cast<int>(*idx);
      }
    }
    info.utility_slope = std::max(1e-6, slope);
    infos.push_back(std::move(info));
  }
  shedder_.SetInputs(std::move(infos));
}

}  // namespace aurora
