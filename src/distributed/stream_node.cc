#include "distributed/stream_node.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tuple/serde.h"

namespace aurora {

namespace {
constexpr double kUtilizationWindowS = 0.25;
/// Period of the engine tick (WSort timeouts, credit re-grants, flushes).
constexpr SimDuration kTickInterval = SimDuration::Millis(10);
}  // namespace

StreamNode::StreamNode(Simulation* sim, OverlayNetwork* net, NodeId id,
                       EngineOptions engine_opts,
                       TransportOptions transport_opts)
    : sim_(sim),
      net_(net),
      id_(id),
      engine_(engine_opts),
      transport_opts_(transport_opts) {
  engine_.set_trace_node(static_cast<int>(id));
  MetricsRegistry& reg = MetricsRegistry::Global();
  m_tuples_sent_ = reg.GetCounter("node.tuples_sent");
  m_msgs_sent_ = reg.GetCounter("node.msgs_sent");
  m_dup_dropped_ = reg.GetCounter("node.stream.dup_dropped");
  m_crash_lost_ = reg.GetCounter("node.crash.tuples_lost");
  m_flow_grants_ = reg.GetCounter("net.flow.credit_grants");
  m_flow_granted_bytes_ = reg.GetCounter("net.flow.granted_bytes");
  m_halog_appends_ = reg.GetCounter("storage.halog.appends");
  m_halog_replayed_ = reg.GetCounter("storage.halog.replayed");
}

void StreamNode::AttachDurableStorage(TieredStore* store) {
  store_ = store;
  store_->set_trace_node(static_cast<int>(id_));
  engine_.AttachDurableStore(store);
}

Status StreamNode::RecoverDurableState() {
  if (store_ == nullptr) {
    return Status::FailedPrecondition("no durable store attached");
  }
  AURORA_RETURN_NOT_OK(store_->Open());
  engine_.RecoverDurableState(sim_->Now());
  for (auto& [name, binding] : bindings_) {
    if (!binding.retain_log) continue;
    const std::string stream = "halog/" + binding.stream;
    binding.output_log.clear();
    std::vector<Tuple> replay;
    store_->ScanAll(stream, [&](const StoredRecord& rec) {
      Decoder dec(rec.payload);
      auto t = dec.GetTuple(binding.log_schema);
      if (!t.ok()) {
        AURORA_LOG(Error) << "node " << id_ << ": halog decode failed: "
                          << t.status().ToString();
        return;
      }
      auto lineage = dec.GetU64();
      binding.output_log.push_back(
          LogEntry{*t, lineage.ok() ? static_cast<SeqNo>(*lineage) : kNoSeqNo});
      replay.push_back(std::move(*t));
    });
    // next_seq survives in the store meta even when the whole log has been
    // truncated away — reusing sequence numbers after a restart would make
    // downstream dedup silently drop every fresh tuple.
    binding.next_seq =
        std::max(binding.next_seq, static_cast<SeqNo>(store_->next_seq(stream)));
    if (replay.empty()) continue;
    // Replay the restored log downstream with the original sequence
    // numbers; the receiver's dedup watermark suppresses what it already
    // processed, so replay is idempotent.
    m_halog_replayed_->Add(replay.size());
    Status st =
        binding.transport->Send(binding.stream, replay.data(), replay.size());
    if (!st.ok()) {
      AURORA_LOG(Error) << "node " << id_
                        << ": halog replay send failed: " << st.ToString();
    }
  }
  Kick();
  return Status::OK();
}

void StreamNode::Start() {
  if (started_) return;
  started_ = true;
  window_start_ = sim_->Now();
  sim_->SchedulePeriodic(kTickInterval, liveness_.Guard([this]() {
    if (!up_) return true;  // keep the timer; skip while down
    engine_.Tick(sim_->Now());
    if (flow_enabled()) {
      // The input backlog drains without any new arrival, so credit must
      // also be re-granted on the clock, not just on data delivery.
      for (auto& [stream, in] : incoming_) {
        MaybeGrantCredit(stream, in, /*force=*/false);
      }
      UpdateFlowBlocked();
    }
    FlushPending();
    Kick();
    return true;
  }));
}

Transport* StreamNode::TransportTo(StreamNode* dst) {
  auto it = transports_.find(dst->id());
  if (it != transports_.end()) return it->second.get();
  auto transport = std::make_unique<Transport>(sim_, net_, id_, dst->id(),
                                               transport_opts_);
  // Delivery executes logically at the destination node.
  transport->SetDeliveryHandler(dst->liveness_.Guard(
      [dst](const std::string& stream, const Message& msg) {
        dst->OnRemoteMessage(stream, msg);
      }));
  transport->SetFlowProbeHandler(dst->liveness_.Guard(
      [dst](const std::string& stream, uint64_t sent_offset) {
        dst->OnFlowProbe(stream, sent_offset);
      }));
  Transport* raw = transport.get();
  transports_[dst->id()] = std::move(transport);
  return raw;
}

Status StreamNode::BindRemoteOutput(const std::string& output_name,
                                    StreamNode* dst,
                                    const std::string& remote_input,
                                    const std::string& stream_name,
                                    double weight) {
  if (bindings_.count(output_name)) {
    return Status::AlreadyExists("output '" + output_name +
                                 "' already bound remotely");
  }
  // Two bindings sharing a name would both number their tuples from 1 into
  // one dedup watermark, which drops the second binding's as duplicates.
  if (BindingForStream(stream_name) != nullptr ||
      dst->incoming_.count(stream_name)) {
    return Status::AlreadyExists("stream '" + stream_name +
                                 "' is already bound");
  }
  AURORA_ASSIGN_OR_RETURN(PortId port, engine_.FindOutput(output_name));
  // Destination input must exist (remote definition creates it first).
  AURORA_ASSIGN_OR_RETURN(PortId input_port,
                          dst->engine().FindInput(remote_input));
  Transport* transport = TransportTo(dst);
  AURORA_RETURN_NOT_OK(transport->RegisterStream(stream_name, weight));
  RemoteBinding binding;
  binding.output_port = port;
  binding.dst = dst;
  binding.transport = transport;
  binding.remote_input = remote_input;
  binding.stream = stream_name;
  binding.weight = weight;
  binding.retain_log = retain_logs_;
  dst->incoming_.emplace(
      stream_name,
      IncomingStream{
          .input_port = input_port,
          .src = this,
          .granted_limit = dst->transport_opts_.credit_window_bytes});
  // Map nodes do not move, and UnbindRemoteOutput clears the callback before
  // it erases the binding.
  RemoteBinding* bound =
      &bindings_.emplace(output_name, std::move(binding)).first->second;
  engine_.SetOutputCallback(port, [bound](const Tuple& t, SimTime) {
    bound->pending.push_back(t);
  });
  return Status::OK();
}

Result<std::string> StreamNode::BindingNameForOutputPort(PortId port) const {
  for (const auto& [name, binding] : bindings_) {
    if (binding.output_port == port) return name;
  }
  return Status::NotFound("no binding on output port " + std::to_string(port));
}

Result<StreamNode::BindingContinuity> StreamNode::SnapshotBindingContinuity(
    const std::string& output_name) const {
  auto it = bindings_.find(output_name);
  if (it == bindings_.end()) {
    return Status::NotFound("output '" + output_name + "' is not bound");
  }
  BindingContinuity continuity;
  continuity.output_log = it->second.output_log;
  continuity.next_seq = it->second.next_seq;
  return continuity;
}

Status StreamNode::RestoreBindingContinuity(const std::string& output_name,
                                            BindingContinuity continuity) {
  auto it = bindings_.find(output_name);
  if (it == bindings_.end()) {
    return Status::NotFound("output '" + output_name + "' is not bound");
  }
  it->second.output_log = std::move(continuity.output_log);
  it->second.next_seq = continuity.next_seq;
  return Status::OK();
}

Status StreamNode::UnbindRemoteOutput(const std::string& output_name) {
  auto it = bindings_.find(output_name);
  if (it == bindings_.end()) {
    return Status::NotFound("output '" + output_name + "' is not bound");
  }
  engine_.SetOutputCallback(it->second.output_port, nullptr);
  bindings_.erase(it);
  return Status::OK();
}

void StreamNode::OnRemoteMessage(const std::string& stream,
                                 const Message& msg) {
  if (!up_) return;
  auto it = incoming_.find(stream);
  if (it == incoming_.end()) {
    AURORA_LOG(Warn) << "node " << id_ << ": tuples on unregistered stream '"
                     << stream << "'";
    return;
  }
  IncomingStream& in = it->second;
  if (flow_enabled()) {
    in.received_offset = std::max(in.received_offset, msg.flow_offset);
  }
  DeliverTuples(in.input_port, &*it, msg.payload);
  if (flow_enabled()) MaybeGrantCredit(stream, in, /*force=*/false);
}

void StreamNode::OnFlowProbe(const std::string& stream, uint64_t sent_offset) {
  if (!up_ || !flow_enabled()) return;
  auto it = incoming_.find(stream);
  if (it == incoming_.end()) return;
  it->second.received_offset =
      std::max(it->second.received_offset, sent_offset);
  // Force a (re)grant: the probe means the sender is stalled, so either the
  // previous grant was lost or data beyond our watermark was — both heal by
  // restating the current limit.
  MaybeGrantCredit(stream, it->second, /*force=*/true);
}

void StreamNode::MaybeGrantCredit(const std::string& stream, IncomingStream& in,
                                  bool force) {
  // Free window = credit budget minus what is already queued locally: the
  // sender may have at most the window in flight beyond what we've seen.
  uint64_t window = transport_opts_.credit_window_bytes;
  uint64_t backlog = engine_.InputBacklogBytes(in.input_port);
  uint64_t free = backlog >= window ? 0 : window - backlog;
  uint64_t limit = in.received_offset + free;
  if (limit <= in.granted_limit && !force) return;
  if (limit < in.granted_limit) limit = in.granted_limit;  // never shrink
  uint64_t newly = limit - in.granted_limit;
  in.granted_limit = limit;
  m_flow_grants_->Add();
  if (newly > 0) m_flow_granted_bytes_->Add(newly);
  Message grant;
  grant.kind = "flow_grant";
  grant.stream = stream;
  grant.flow_offset = limit;
  StreamNode* src = in.src;
  Status sent = net_->Send(
      id_, src->id(), std::move(grant),
      src->liveness_.Guard([src, stream](const Message& m) {
        src->OnFlowGrant(stream, m.flow_offset);
      }));
  if (!sent.ok()) {
    AURORA_LOG(Warn) << "node " << id_
                     << ": credit grant send failed: " << sent.ToString();
  }
}

void StreamNode::OnFlowGrant(const std::string& stream, uint64_t limit) {
  if (!up_ || !flow_enabled()) return;
  if (RemoteBinding* binding = MutableBindingForStream(stream)) {
    binding->transport->GrantCredit(stream, limit);
  }
  UpdateFlowBlocked();
  FlushPending();
  Kick();
}

void StreamNode::UpdateFlowBlocked() {
  bool blocked = false;
  if (flow_enabled()) {
    for (const auto& [name, binding] : bindings_) {
      if (binding.transport->StreamBlocked(binding.stream)) {
        blocked = true;
        break;
      }
    }
  }
  flow_blocked_ = blocked;
  engine_.SetIngestBlocked(blocked);
}

void StreamNode::OnRemoteTuples(const std::string& input_name,
                                const std::vector<uint8_t>& payload) {
  if (!up_) return;
  auto port = engine_.FindInput(input_name);
  if (!port.ok()) {
    AURORA_LOG(Warn) << "node " << id_ << ": dropping tuples for unknown input '"
                     << input_name << "'";
    return;
  }
  DeliverTuples(*port, nullptr, payload);
}

void StreamNode::DeliverTuples(PortId port, IncomingEntry* stream,
                               const std::vector<uint8_t>& payload) {
  Status decoded = DeserializeTuplesInto(payload, engine_.input_schema(port),
                                         &decode_scratch_);
  if (!decoded.ok()) {
    AURORA_LOG(Error) << "node " << id_ << ": bad tuple batch: "
                      << decoded.ToString();
    return;
  }
  Tracer& tracer = Tracer::Global();
  for (auto& t : decode_scratch_) {
    if (stream != nullptr && t.seq() != kNoSeqNo) {
      SeqNo& last = stream->second.last_seq;
      // Streams are FIFO per transport connection, so a sequence number at
      // or below the watermark is a duplicate (chaos duplication) or an
      // overtaken copy (chaos reorder) — suppressing it keeps delivery
      // at-most-once per stream.
      if (transport_opts_.stream_dedup && t.seq() <= last) {
        dup_tuples_dropped_++;
        m_dup_dropped_->Add();
        if (delivery_probe_) delivery_probe_(id_, stream->first, t, true);
        continue;
      }
      last = std::max(last, t.seq());
    }
    if (delivery_probe_ && stream != nullptr) {
      delivery_probe_(id_, stream->first, t, false);
    }
    if (tracer.enabled() && t.trace_id() != 0) {
      // Recorded at the receiver: the hop is complete once the batch lands.
      tracer.Record({t.trace_id(), SpanKind::kTransportHop,
                     static_cast<int>(id_),
                     "stream:" + engine_.input_name(port),
                     sim_->Now().micros(), sim_->Now().micros()});
    }
    // Remote arrivals bypass the ingestion gate: they already consumed
    // transport credit, so dropping them here would lose accepted data.
    Status st = engine_.PushInput(port, std::move(t), sim_->Now(),
                                  /*gate_ingest=*/false);
    if (!st.ok()) {
      AURORA_LOG(Error) << "node " << id_ << ": push failed: " << st.ToString();
    }
  }
  FlushPending();
  Kick();
}

Status StreamNode::Inject(const std::string& input_name, Tuple t) {
  if (!up_) return Status::Unavailable("node is down");
  if (t.timestamp().micros() == 0) t.set_timestamp(sim_->Now());
  AURORA_RETURN_NOT_OK(engine_.PushInputByName(input_name, std::move(t),
                                               sim_->Now()));
  // Relay arcs (input port -> output port) deliver synchronously; flush so
  // their tuples do not wait for the next engine step.
  FlushPending();
  Kick();
  return Status::OK();
}

void StreamNode::Kick() {
  // While out of downstream credit the node stops consuming: its input
  // backlog grows, which in turn stops its own credit grants — that is how
  // back-pressure cascades upstream toward the sources.
  if (!up_ || flow_blocked_ || step_scheduled_ || !engine_.HasWork()) return;
  ScheduleStep();
}

void StreamNode::ScheduleStep() {
  step_scheduled_ = true;
  // Never start a step while the CPU is still charged with earlier work.
  SimTime at = std::max(sim_->Now() + SimDuration::Micros(1), busy_until_);
  sim_->ScheduleAt(at, liveness_.Guard([this]() { Step(); }));
}

void StreamNode::Step() {
  step_scheduled_ = false;
  if (!up_) return;
  auto cost = engine_.RunOneStep(sim_->Now());
  if (!cost.ok()) {
    AURORA_LOG(Error) << "node " << id_ << ": " << cost.status().ToString();
    return;
  }
  steps_executed_++;
  FlushPending();
  double scaled_us = *cost / std::max(1e-6, speed());
  busy_until_ = sim_->Now() + SimDuration::Micros(std::max<int64_t>(
                                  1, static_cast<int64_t>(scaled_us)));
  // Utilization window bookkeeping.
  busy_us_in_window_ += scaled_us;
  double elapsed_s = (sim_->Now() - window_start_).seconds();
  if (elapsed_s >= kUtilizationWindowS) {
    utilization_ = std::min(1.0, busy_us_in_window_ / (elapsed_s * 1e6));
    busy_us_in_window_ = 0.0;
    window_start_ = sim_->Now();
  }
  if (engine_.HasWork()) {
    ScheduleStep();
  }
}

void StreamNode::FlushPending() {
  // With flow control on, a pending buffer held through a blocked spell is
  // sent in window/4-byte chunks with a credit re-check between them, so
  // the transport queue overshoots the credit window by at most one chunk.
  // Flow off keeps the legacy one-message-per-flush batching.
  const size_t chunk_cap =
      flow_enabled()
          ? std::max<size_t>(1, transport_opts_.credit_window_bytes / 4)
          : SIZE_MAX;
  for (auto& [name, binding] : bindings_) {
    while (!binding.pending.empty()) {
      if (flow_enabled() && binding.transport->StreamBlocked(binding.stream)) {
        // Out of credit: hold the batch (sequence numbers are assigned at
        // send time, so holding is transparent to dedup and HA logs).
        if (binding.blocked_since_us < 0) {
          binding.blocked_since_us = sim_->Now().micros();
        }
        break;
      }
      size_t n = 0, bytes = 0;
      while (n < binding.pending.size() && (n == 0 || bytes < chunk_cap)) {
        bytes += binding.pending[n].WireSize();
        ++n;
      }
      std::span<Tuple> batch(binding.pending.data(), n);
      if (binding.blocked_since_us >= 0) {
        // These tuples sat out a credit-blocked spell before getting on the
        // wire; attribute the wait to each traced tuple's lineage.
        Tracer& tracer = Tracer::Global();
        if (tracer.enabled()) {
          for (const Tuple& t : batch) {
            if (t.trace_id() == 0) continue;
            tracer.Record({t.trace_id(), SpanKind::kCreditWait, id_,
                           "credit:" + binding.stream,
                           binding.blocked_since_us, sim_->Now().micros()});
          }
        }
        binding.blocked_since_us = -1;
      }
      for (auto& t : batch) {
        SeqNo lineage = t.seq();  // in the incoming stream's space
        t.set_seq(binding.next_seq++);
        if (binding.retain_log) {
          binding.output_log.push_back(LogEntry{t, lineage});
          if (store_ != nullptr) {
            // Mirror the retained entry to the durable halog stream, keyed
            // by the binding's own sequence number (AppendWithSeq), so a
            // recovered node can rebuild and replay this exact log.
            if (t.schema() != nullptr) binding.log_schema = t.schema();
            Encoder enc(std::move(halog_scratch_));
            enc.PutTuple(t);
            enc.PutU64(lineage);
            Status st = store_->AppendWithSeq(
                "halog/" + binding.stream, t.seq(), t.timestamp().micros(),
                enc.buffer().data(), enc.size());
            halog_scratch_ = enc.TakeBuffer();
            if (st.ok()) {
              m_halog_appends_->Add();
            } else {
              AURORA_LOG(Error) << "node " << id_ << ": halog append failed: "
                                << st.ToString();
            }
          }
        }
      }
      binding.tuples_sent += batch.size();
      binding.messages_sent++;
      m_tuples_sent_->Add(batch.size());
      m_msgs_sent_->Add();
      // Span Send: the whole chunk serializes into one train sub-message
      // with a single flow/queue update.
      Status st = binding.transport->Send(binding.stream, batch.data(), n);
      if (!st.ok()) {
        AURORA_LOG(Error) << "node " << id_
                          << ": send failed: " << st.ToString();
      }
      binding.pending.erase(binding.pending.begin(),
                            binding.pending.begin() + n);
    }
  }
  if (flow_enabled()) UpdateFlowBlocked();
}

void StreamNode::SetUp(bool up) {
  up_ = up;
  net_->SetNodeUp(id_, up);
  if (up) Kick();
}

size_t StreamNode::Crash() {
  SetUp(false);
  size_t lost = 0;
  for (auto& [name, binding] : bindings_) {
    lost += binding.pending.size();
    lost += binding.output_log.size();
    binding.pending.clear();
    binding.output_log.clear();
  }
  // Receiver-side stream state is volatile too: sequence watermarks and
  // flow offsets restart at zero. The senders' cumulative offsets survive on
  // their side, so their next credit probes walk our flow watermark forward
  // again (see FLOW_CONTROL.md).
  for (auto& [stream, in] : incoming_) {
    in.received_offset = 0;
    in.granted_limit = transport_opts_.credit_window_bytes;
    in.last_seq = kNoSeqNo;
  }
  flow_blocked_ = false;
  engine_.SetIngestBlocked(false);
  if (store_ != nullptr) {
    // Volatile storage state dies with the process: connection points lose
    // their memory tier and index, the store loses unsynced bytes. The
    // durable remainder is what RecoverDurableState() rebuilds from.
    engine_.WipeVolatileStorage();
    store_->Crash();
  }
  if (lost > 0) m_crash_lost_->Add(lost);
  FlightRecorder::Global().Trigger(
      "node_crash",
      "node=" + std::to_string(id_) + " lost=" + std::to_string(lost),
      sim_->Now().micros());
  AURORA_LOG(Debug) << "node " << id_ << ": crashed, lost " << lost
                    << " buffered tuples";
  return lost;
}

void StreamNode::RetainOutputLogs(bool retain) {
  retain_logs_ = retain;
  for (auto& [name, binding] : bindings_) binding.retain_log = retain;
}

const StreamNode::RemoteBinding* StreamNode::BindingForStream(
    const std::string& stream) const {
  for (const auto& [name, binding] : bindings_) {
    if (binding.stream == stream) return &binding;
  }
  return nullptr;
}

StreamNode::RemoteBinding* StreamNode::MutableBindingForStream(
    const std::string& stream) {
  for (auto& [name, binding] : bindings_) {
    if (binding.stream == stream) return &binding;
  }
  return nullptr;
}

size_t StreamNode::TruncateOutputLog(const std::string& stream, SeqNo upto) {
  RemoteBinding* binding = MutableBindingForStream(stream);
  if (binding == nullptr) return 0;
  size_t discarded = 0;
  while (!binding->output_log.empty() &&
         binding->output_log.front().tuple.seq() <= upto) {
    binding->output_log.pop_front();
    ++discarded;
  }
  if (store_ != nullptr && discarded > 0) {
    // Confirmed entries are dead durably too (§6.2 queue truncation).
    store_->Truncate("halog/" + stream, upto);
  }
  return discarded;
}

std::vector<Tuple> StreamNode::OutputLogSnapshot(
    const std::string& stream) const {
  std::vector<Tuple> out;
  if (const RemoteBinding* binding = BindingForStream(stream)) {
    out.reserve(binding->output_log.size());
    for (const auto& e : binding->output_log) out.push_back(e.tuple);
  }
  return out;
}

SeqNo StreamNode::UnconfirmedOutputMinLineage() const {
  SeqNo min_seq = kNoSeqNo;
  auto consider = [&min_seq](SeqNo s) {
    if (s == kNoSeqNo) return;
    if (min_seq == kNoSeqNo || s < min_seq) min_seq = s;
  };
  for (const auto& [name, binding] : bindings_) {
    for (const auto& e : binding.output_log) consider(e.lineage);
    for (const auto& t : binding.pending) consider(t.seq());
  }
  return min_seq;
}

size_t StreamNode::OutputLogSize(const std::string& stream) const {
  const RemoteBinding* binding = BindingForStream(stream);
  return binding == nullptr ? 0 : binding->output_log.size();
}

SeqNo StreamNode::LastReceivedSeq(const std::string& stream) const {
  auto it = incoming_.find(stream);
  return it == incoming_.end() ? kNoSeqNo : it->second.last_seq;
}

}  // namespace aurora
