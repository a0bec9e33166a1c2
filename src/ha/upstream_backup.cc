#include "ha/upstream_backup.h"

#include <algorithm>
#include <deque>

#include "obs/trace.h"

namespace aurora {

Status HaManager::Protect(DeployedQuery* deployed, const GlobalQuery* query) {
  if (protected_) return Status::FailedPrecondition("already protecting");
  deployed_ = deployed;
  query_ = query;
  protected_ = true;
  for (size_t i = 0; i < system_->num_nodes(); ++i) {
    system_->node(static_cast<NodeId>(i)).RetainOutputLogs(true);
  }
  StartTimers();
  return Status::OK();
}

void HaManager::StartTimers() {
  Simulation* sim = system_->sim();
  sim->SchedulePeriodic(opts_.checkpoint_interval, liveness_.Guard([this]() {
    RunCheckpointRound();
    return true;
  }));
  sim->SchedulePeriodic(opts_.heartbeat_interval, liveness_.Guard([this]() {
    HeartbeatRound();
    CheckFailures();
    return true;
  }));
}

std::vector<HaManager::BindingRef> HaManager::BindingsInto(NodeId dst) const {
  std::vector<BindingRef> refs;
  for (size_t i = 0; i < system_->num_nodes(); ++i) {
    NodeId id = static_cast<NodeId>(i);
    for (const auto& [output_name, binding] : system_->node(id).bindings()) {
      if (binding.dst->id() == dst) {
        refs.push_back(BindingRef{id, output_name});
      }
    }
  }
  return refs;
}

SeqNo HaManager::ComputeEarliestNeeded(StreamNode& node,
                                       const std::string& input_name) const {
  AuroraEngine& engine = node.engine();
  auto port = engine.FindInput(input_name);
  if (!port.ok()) return kNoSeqNo;
  SeqNo min_seq = kNoSeqNo;
  auto consider = [&min_seq](SeqNo s) {
    if (s == kNoSeqNo) return;
    if (min_seq == kNoSeqNo || s < min_seq) min_seq = s;
  };
  // Walk the box graph downstream of the input: queued/held tuples on arcs
  // and per-box earliest dependencies (the flow-message traversal of §6.2).
  std::set<BoxId> visited;
  std::deque<Endpoint> frontier;
  frontier.push_back(Endpoint::InputPort(*port));
  while (!frontier.empty()) {
    Endpoint ep = frontier.front();
    frontier.pop_front();
    for (ArcId arc : engine.ArcsFrom(ep)) {
      consider(engine.ArcQueueMinSeq(arc));
      Endpoint to = engine.ArcTo(arc);
      if (to.kind != Endpoint::Kind::kBox || visited.count(to.id)) continue;
      visited.insert(to.id);
      auto op = engine.BoxOp(to.id);
      if (op.ok()) {
        std::vector<SeqNo> deps = (*op)->Dependencies();
        if (to.index < static_cast<int>(deps.size())) consider(deps[to.index]);
        for (int k = 0; k < (*op)->num_outputs(); ++k) {
          frontier.push_back(Endpoint::BoxPort(to.id, k));
        }
      }
    }
  }
  // The node's own unconfirmed outputs cascade the dependency (§6.2:
  // "directly or indirectly"): a tuple is needed until everything derived
  // from it is confirmed safe at the next level.
  consider(node.UnconfirmedOutputMinLineage());
  return min_seq;
}

void HaManager::RunCheckpointRound() {
  for (size_t i = 0; i < system_->num_nodes(); ++i) {
    NodeId src = static_cast<NodeId>(i);
    StreamNode& src_node = system_->node(src);
    if (!src_node.up()) continue;
    for (const auto& [output_name, binding] : src_node.bindings()) {
      if (!binding.retain_log) continue;
      StreamNode& dst_node = *binding.dst;
      if (!dst_node.up()) continue;
      // `needed` is per input, a minimum over every stream that feeds it;
      // each binding numbers its own stream from 1, so the receiver's
      // watermark for this stream caps what may be discarded.
      SeqNo needed = ComputeEarliestNeeded(dst_node, binding.remote_input);
      SeqNo last = dst_node.LastReceivedSeq(binding.stream);
      SeqNo upto = (needed == kNoSeqNo) ? last : std::min(needed - 1, last);
      if (upto == 0) continue;
      std::string stream = binding.stream;
      // Charge protocol messages on the overlay. Flow messages: one back-
      // channel report. Seq arrays: the upstream queries, the downstream
      // responds.
      int msgs = opts_.method == TruncationMethod::kFlowMessages ? 1 : 2;
      checkpoint_messages_ += static_cast<uint64_t>(msgs);
      Message report;
      report.kind = "ha:truncate";
      report.payload.resize(12);  // stream id + 8-byte seq, modeled
      NodeId dst = dst_node.id();
      auto apply =
          liveness_.Guard([this, src, stream, upto](const Message&) {
            truncated_tuples_ +=
                system_->node(src).TruncateOutputLog(stream, upto);
          });
      if (opts_.method == TruncationMethod::kFlowMessages) {
        (void)system_->net()->Send(dst, src, std::move(report), apply);
      } else {
        Message query;
        query.kind = "ha:query_seq_array";
        query.payload.resize(8);
        (void)system_->net()->Send(
            src, dst, std::move(query),
            liveness_.Guard([this, src, dst, report = std::move(report),
                             apply](const Message&) mutable {
              (void)system_->net()->Send(dst, src, std::move(report), apply);
            }));
      }
    }
  }
}

void HaManager::HeartbeatRound() {
  // Each server heartbeats its *upstream* neighbours (§6.3): for every
  // binding src -> dst, dst reports liveness to src.
  for (size_t i = 0; i < system_->num_nodes(); ++i) {
    NodeId src = static_cast<NodeId>(i);
    if (!system_->node(src).up()) continue;  // dead watchers hear nothing
    for (const auto& [output_name, binding] : system_->node(src).bindings()) {
      StreamNode& dst_node = *binding.dst;
      if (!dst_node.up()) continue;  // a dead node sends nothing
      heartbeat_messages_++;
      Message hb;
      hb.kind = "ha:heartbeat";
      hb.payload.resize(8);
      NodeId dst = dst_node.id();
      (void)system_->net()->Send(
          dst, src, std::move(hb),
          liveness_.Guard([this, src, dst](const Message&) {
            if (system_->node(src).up()) {
              detector_.RecordHeartbeat(src, dst, system_->sim()->Now());
            }
          }));
    }
  }
}

void HaManager::CheckFailures() {
  SimTime now = system_->sim()->Now();
  // Maintain the armed pair set: only live watchers may judge (a dead
  // watcher's own silence must not convict its live neighbours), and a
  // freshly seen binding gets a full timeout's grace on arming.
  for (size_t i = 0; i < system_->num_nodes(); ++i) {
    NodeId watcher = static_cast<NodeId>(i);
    if (!system_->node(watcher).up()) {
      detector_.ForgetWatcher(watcher);
      continue;
    }
    for (const auto& [output_name, binding] :
         system_->node(watcher).bindings()) {
      NodeId watched = binding.dst->id();
      if (known_failed_.count(watched)) continue;
      detector_.Arm(watcher, watched, now);
    }
  }
  for (const auto& s : detector_.CheckSilence(now)) {
    if (known_failed_.count(s.watched)) continue;
    known_failed_.insert(s.watched);
    failures_detected_++;
    Tracer& tracer = Tracer::Global();
    if (tracer.enabled()) {
      tracer.Record({0, SpanKind::kFault, s.watcher,
                     "detect:node" + std::to_string(s.watched),
                     s.last_heard.micros(), now.micros()});
    }
    if (on_failure_) on_failure_(s.watched, s.watcher, now);
    if (opts_.auto_recover) {
      // The detecting upstream neighbour acts as the backup (Fig. 8).
      Status st = RecoverNode(s.watched, s.watcher);
      if (!st.ok()) {
        AURORA_LOG(Error) << "recovery of node " << s.watched
                          << " failed: " << st.ToString();
      }
    }
  }
}

void HaManager::CrashNode(NodeId node) { system_->node(node).SetUp(false); }

Status HaManager::RecoverNode(NodeId failed, NodeId backup) {
  if (deployed_ == nullptr || query_ == nullptr) {
    return Status::FailedPrecondition("Protect() was not called");
  }
  if (failed == backup) return Status::InvalidArgument("backup == failed");
  known_failed_.insert(failed);
  // Clean shutdown of the failed node's detector state: it neither watches
  // nor is watched any more, so no stale pair can raise a late suspicion.
  detector_.ForgetWatched(failed);
  detector_.ForgetWatcher(failed);
  StreamNode& b_node = system_->node(backup);
  StreamNode& f_node = system_->node(failed);
  AuroraEngine& be = b_node.engine();
  // The failed node's engine is inspected as *catalog information*: the
  // intra-participant catalog records the content of every running query
  // piece (§4.1), which we model by reading the (dead) engine's topology.
  AuroraEngine& fe = f_node.engine();
  SimTime now = system_->sim()->Now();

  // Boxes to re-instantiate, with a reverse map from the failed engine's
  // box ids to query box names.
  std::map<std::string, OperatorSpec> specs;
  std::map<BoxId, std::string> failed_box_name;
  for (const auto& [name, placed] : deployed_->boxes) {
    if (placed.node != failed) continue;
    for (const auto& box : query_->boxes()) {
      if (box.name == name) {
        specs[name] = box.spec;
        failed_box_name[placed.box] = name;
      }
    }
  }
  if (specs.empty()) {
    return Status::NotFound("failed node hosts no recoverable query boxes");
  }
  std::map<std::string, BoxId> new_ids;
  for (const auto& [name, spec] : specs) {
    if (!system_->net()->NodeSupports(backup, spec.kind)) {
      return Status::FailedPrecondition("backup cannot run '" + spec.kind + "'");
    }
    AURORA_ASSIGN_OR_RETURN(BoxId id, be.AddBox(spec));
    new_ids[name] = id;
  }

  // Internal arcs among the recovered boxes.
  for (const auto& arc : query_->arcs()) {
    if (arc.from_kind != GlobalQuery::ArcDef::FromKind::kBox ||
        arc.to_kind != GlobalQuery::ArcDef::ToKind::kBox)
      continue;
    if (!specs.count(arc.from) || !specs.count(arc.to)) continue;
    AURORA_RETURN_NOT_OK(
        be.Connect(Endpoint::BoxPort(new_ids[arc.from], arc.from_index),
                   Endpoint::BoxPort(new_ids[arc.to], arc.to_index))
            .status());
  }

  // Redirect every binding that pointed at the failed node, replaying its
  // output log into the recovered boxes.
  struct Replay {
    NodeId via_node;
    PortId via_port;            // output port to re-emit through (remote case)
    std::vector<ArcId> arcs;    // local arcs to enqueue on (local case)
    std::vector<Tuple> log;
  };
  std::vector<Replay> replays;
  std::set<std::pair<std::string, int>> wired_inputs;
  for (const BindingRef& ref : BindingsInto(failed)) {
    StreamNode& z_node = system_->node(ref.src);
    if (!z_node.up()) {
      // A dead upstream cannot replay its log; its traffic is protected by
      // *its* upstream, whose own recovery re-routes around it.
      continue;
    }
    AuroraEngine& ze = z_node.engine();
    const auto& binding = z_node.bindings().at(ref.output_name);
    std::string stream = binding.stream;
    std::string remote_input = binding.remote_input;
    PortId out_port = binding.output_port;
    double weight = binding.weight;
    std::vector<Tuple> log = z_node.OutputLogSnapshot(stream);

    // Which failed-engine boxes did this stream feed?
    std::vector<std::pair<std::string, int>> consumers;  // (box name, input)
    SchemaPtr in_schema;
    auto fport = fe.FindInput(remote_input);
    if (fport.ok()) {
      in_schema = fe.input_schema(*fport);
      for (ArcId arc : fe.ArcsFrom(Endpoint::InputPort(*fport))) {
        Endpoint to = fe.ArcTo(arc);
        if (to.kind != Endpoint::Kind::kBox) continue;
        auto name_it = failed_box_name.find(to.id);
        if (name_it == failed_box_name.end()) {
          AURORA_LOG(Warn) << "recovery skips non-query consumer box";
          continue;
        }
        consumers.emplace_back(name_it->second, to.index);
      }
    }
    AURORA_RETURN_NOT_OK(z_node.UnbindRemoteOutput(ref.output_name));

    Replay replay;
    replay.via_node = ref.src;
    replay.via_port = -1;
    replay.log = std::move(log);
    if (ref.src == backup) {
      // Local takeover: wire the original source endpoints straight into
      // the recovered boxes.
      for (ArcId feed : ze.ArcsInto(out_port)) {
        Endpoint src_ep = ze.ArcFrom(feed);
        for (const auto& [cname, cidx] : consumers) {
          if (!wired_inputs.insert({cname, cidx}).second) {
            AURORA_LOG(Warn) << "recovery: consumer " << cname
                             << " already wired; skipping extra feeder";
            continue;
          }
          AURORA_ASSIGN_OR_RETURN(
              ArcId new_arc,
              ze.Connect(src_ep, Endpoint::BoxPort(new_ids[cname], cidx)));
          replay.arcs.push_back(new_arc);
        }
      }
    } else {
      // Remote: rebind the same output port to the backup node.
      std::string iname = system_->FreshName("recover_in");
      AURORA_ASSIGN_OR_RETURN(PortId in_port, be.AddInput(iname, in_schema));
      for (const auto& [cname, cidx] : consumers) {
        if (!wired_inputs.insert({cname, cidx}).second) {
          AURORA_LOG(Warn) << "recovery: consumer " << cname
                           << " already wired; skipping extra feeder";
          continue;
        }
        AURORA_RETURN_NOT_OK(
            be.Connect(Endpoint::InputPort(in_port),
                       Endpoint::BoxPort(new_ids[cname], cidx))
                .status());
      }
      AURORA_RETURN_NOT_OK(z_node.BindRemoteOutput(
          ref.output_name, &b_node, iname,
          system_->FreshName("recover_stream"), weight));
      replay.via_port = out_port;
    }
    replays.push_back(std::move(replay));
  }

  // Recreate the failed node's outgoing bindings from the recovered boxes.
  for (const auto& [oname, fbind] : f_node.bindings()) {
    for (ArcId feed : fe.ArcsInto(fbind.output_port)) {
      Endpoint from = fe.ArcFrom(feed);
      if (from.kind != Endpoint::Kind::kBox) continue;
      auto name_it = failed_box_name.find(from.id);
      if (name_it == failed_box_name.end()) continue;
      std::string out2 = system_->FreshName("recover_out");
      AURORA_ASSIGN_OR_RETURN(PortId port2, be.AddOutput(out2));
      AURORA_RETURN_NOT_OK(
          be.Connect(Endpoint::BoxPort(new_ids[name_it->second], from.index),
                     Endpoint::OutputPort(port2))
              .status());
      AURORA_RETURN_NOT_OK(b_node.BindRemoteOutput(
          out2, fbind.dst, fbind.remote_input,
          system_->FreshName("recover_stream"), fbind.weight));
    }
  }

  // Recreate application outputs that lived on the failed node.
  for (auto& [gname, where] : deployed_->outputs) {
    if (where.first != failed) continue;
    auto fport = fe.FindOutput(where.second);
    if (!fport.ok()) continue;
    AuroraEngine::OutputCallback cb = fe.GetOutputCallback(*fport);
    AURORA_ASSIGN_OR_RETURN(PortId port2, be.AddOutput(gname));
    for (ArcId feed : fe.ArcsInto(*fport)) {
      Endpoint from = fe.ArcFrom(feed);
      if (from.kind != Endpoint::Kind::kBox) continue;
      auto name_it = failed_box_name.find(from.id);
      if (name_it == failed_box_name.end()) continue;
      AURORA_RETURN_NOT_OK(
          be.Connect(Endpoint::BoxPort(new_ids[name_it->second], from.index),
                     Endpoint::OutputPort(port2))
              .status());
    }
    if (cb) be.SetOutputCallback(port2, cb);
    where = {backup, gname};
  }

  AURORA_RETURN_NOT_OK(be.InitializeBoxes(/*require_all=*/false));
  for (const auto& [name, id] : new_ids) {
    if (!be.IsBoxInitialized(id)) {
      return Status::Internal("recovered box '" + name +
                              "' failed to initialize");
    }
    deployed_->boxes[name] = DeployedQuery::PlacedBox{backup, id};
  }

  // Replay the retained logs: "the back-up server immediately starts
  // processing the tuples in its output log" (§6.3).
  for (const Replay& replay : replays) {
    StreamNode& via = system_->node(replay.via_node);
    for (const Tuple& t : replay.log) {
      if (replay.via_port >= 0) {
        AURORA_RETURN_NOT_OK(
            via.engine().EmitToOutputPort(replay.via_port, t, now));
      } else {
        for (ArcId arc : replay.arcs) {
          AURORA_RETURN_NOT_OK(via.engine().EnqueueOnArc(arc, t, now));
        }
      }
      replayed_tuples_++;
    }
    via.Flush();
    via.Kick();
  }
  b_node.Kick();
  recoveries_++;
  Tracer& tracer = Tracer::Global();
  if (tracer.enabled()) {
    tracer.Record({0, SpanKind::kFault, backup,
                   "recover:node" + std::to_string(failed), now.micros(),
                   system_->sim()->Now().micros()});
  }
  if (on_recovery_) on_recovery_(failed, backup, system_->sim()->Now());
  return Status::OK();
}

size_t HaManager::TotalRetainedTuples() const {
  size_t total = 0;
  for (size_t i = 0; i < system_->num_nodes(); ++i) {
    for (const auto& [name, binding] :
         system_->node(static_cast<NodeId>(i)).bindings()) {
      total += binding.output_log.size();
    }
  }
  return total;
}

}  // namespace aurora
