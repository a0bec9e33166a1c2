#include "check/invariants.h"

#include <sstream>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace aurora {

namespace {

constexpr int kMaxReportsPerInvariant = 20;
const SimDuration kCheckInterval = SimDuration::Millis(25);
const SimDuration kHeartbeatInterval = SimDuration::Millis(50);

}  // namespace

InvariantMonitor::InvariantMonitor(Simulation* sim, OverlayNetwork* net,
                                   AuroraStarSystem* system,
                                   const ScenarioSpec& spec)
    : sim_(sim), net_(net), system_(system), spec_(spec) {}

void InvariantMonitor::Install() {
  for (size_t i = 0; i < system_->num_nodes(); ++i) {
    system_->node(static_cast<NodeId>(i))
        .SetDeliveryProbe(liveness_.Guard(
            [this](NodeId node, const std::string& stream, const Tuple& t,
                   bool duplicate) {
              OnDelivery(node, stream, t, duplicate);
            }));
  }
  sim_->SchedulePeriodic(kCheckInterval, liveness_.Guard([this] {
    PeriodicCheck();
    return true;
  }));
  if (system_->num_nodes() > 1) {
    sim_->SchedulePeriodic(kHeartbeatInterval, liveness_.Guard([this] {
      HeartbeatTick();
      return true;
    }));
  }
}

void InvariantMonitor::Report(const std::string& invariant,
                              const std::string& detail) {
  int& count = reported_[invariant];
  if (count >= kMaxReportsPerInvariant) return;
  ++count;
  violations_.push_back(Violation{sim_->Now(), invariant, detail});
  FlightRecorder::Global().Trigger("invariant", invariant + ": " + detail,
                                   sim_->Now().micros());
}

void InvariantMonitor::OnDelivery(NodeId node, const std::string& stream,
                                  const Tuple& t, bool duplicate) {
  StreamView& view = streams_[{node, stream}];
  std::ostringstream where;
  where << "node " << node << " stream '" << stream << "' seq " << t.seq();
  if (duplicate) {
    // The receiver suppressed it; exactly-once still holds downstream.
    ++view.duplicates;
    ++duplicates_;
    return;
  }
  if (view.seen.count(t.seq()) > 0) {
    Report("duplicate_delivery",
           where.str() + " delivered twice (dedup missed it)");
  } else if (t.seq() < view.last) {
    Report("fifo_reorder", where.str() + " arrived after seq " +
                               std::to_string(view.last));
  }
  view.seen.insert(t.seq());
  if (t.seq() > view.last) view.last = t.seq();
  ++view.delivered;
  ++delivered_;
}

size_t InvariantMonitor::QueueAllowance(size_t streams) const {
  // Per stream: a full credit window of unsent backlog, one flush chunk
  // (window/4) in excess while the window closes, and slack for a tuple
  // batch straddling the chunk boundary.
  return streams * static_cast<size_t>(spec_.flow_window +
                                       spec_.flow_window / 4 + 512);
}

void InvariantMonitor::PeriodicCheck() {
  if (spec_.flow_window == 0) return;
  for (size_t i = 0; i < system_->num_nodes(); ++i) {
    StreamNode& node = system_->node(static_cast<NodeId>(i));
    // Streams per peer, from the sender's bindings.
    std::map<NodeId, size_t> streams_to;
    for (const auto& [name, binding] : node.bindings()) {
      ++streams_to[binding.dst->id()];
    }
    for (const auto& [name, binding] : node.bindings()) {
      const Transport* tx = binding.transport;
      size_t allowance = QueueAllowance(streams_to[binding.dst->id()]);
      if (tx->queued_payload_bytes() > allowance) {
        Report("queue_bound",
               "node " + std::to_string(i) + " -> " +
                   std::to_string(binding.dst->id()) + " queued payload " +
                   std::to_string(tx->queued_payload_bytes()) +
                   " bytes exceeds credit allowance " +
                   std::to_string(allowance));
      }
      uint64_t sent = tx->sent_offset(binding.stream);
      uint64_t limit = tx->credit_limit(binding.stream);
      // Allowance past the grant covers only the documented oversized-head
      // exception (a single message larger than the whole window).
      if (sent > limit + spec_.flow_window + 1024) {
        Report("credit_overdraft",
               "stream '" + binding.stream + "' sent " + std::to_string(sent) +
                   " bytes against credit limit " + std::to_string(limit));
      }
      auto key = std::make_pair(
          std::make_pair(static_cast<NodeId>(i), binding.dst->id()),
          binding.stream);
      auto [it, inserted] = credit_seen_.emplace(key, limit);
      if (!inserted) {
        if (limit < it->second) {
          Report("credit_shrink",
                 "stream '" + binding.stream + "' credit limit shrank from " +
                     std::to_string(it->second) + " to " +
                     std::to_string(limit));
        }
        it->second = limit;
      }
    }
  }
}

void InvariantMonitor::HeartbeatTick() {
  SimTime now = sim_->Now();
  size_t n = system_->num_nodes();
  for (size_t w = 0; w < n; ++w) {
    NodeId watcher = static_cast<NodeId>(w);
    if (!system_->node(watcher).up()) {
      // A dead watcher's stale silence must not convict live peers; it
      // re-arms (with fresh grace) after restart.
      detector_.ForgetWatcher(watcher);
      continue;
    }
    for (size_t d = 0; d < n; ++d) {
      if (d == w) continue;
      detector_.Arm(watcher, static_cast<NodeId>(d), now);
    }
  }
  for (size_t s = 0; s < n; ++s) {
    NodeId sender = static_cast<NodeId>(s);
    if (!system_->node(sender).up()) continue;
    for (size_t r = 0; r < n; ++r) {
      if (r == s) continue;
      NodeId receiver = static_cast<NodeId>(r);
      Message hb;
      hb.kind = "hb";
      net_->Send(sender, receiver, std::move(hb),
                 liveness_.Guard([this, receiver, sender](const Message&) {
                   if (!system_->node(receiver).up()) return;
                   detector_.RecordHeartbeat(receiver, sender, sim_->Now());
                 }));
    }
  }
  detector_.CheckSilence(now);
}

bool InvariantMonitor::Quiescent() const {
  for (size_t i = 0; i < system_->num_nodes(); ++i) {
    const StreamNode& node =
        const_cast<AuroraStarSystem*>(system_)->node(static_cast<NodeId>(i));
    if (!node.up()) return false;
    if (node.engine().HasWork()) return false;
    if (node.flow_blocked()) return false;
    for (const auto& [name, binding] : node.bindings()) {
      if (!binding.pending.empty()) return false;
    }
    for (size_t j = 0; j < system_->num_nodes(); ++j) {
      const Transport* tx = node.PeerTransport(static_cast<NodeId>(j));
      if (tx != nullptr && tx->queued_messages() > 0) return false;
    }
  }
  return true;
}

bool InvariantMonitor::Converged() const {
  for (size_t i = 0; i < system_->num_nodes(); ++i) {
    NodeId id = static_cast<NodeId>(i);
    bool down = !const_cast<AuroraStarSystem*>(system_)->node(id).up();
    if (detector_.IsSuspected(id) != down) return false;
  }
  return true;
}

void InvariantMonitor::Finalize(bool drained) {
  bool healthy = spec_.faults.EndsHealthy();
  if (healthy && !drained) {
    Report("drain",
           "fault plan ends healthy but the system did not quiesce");
  }
  if (!drained) return;

  // Tuple conservation per remote binding: everything the sender handed to
  // the transport arrived (exactly once), unless the plan is allowed to
  // lose data, in which case arrivals can only be fewer.
  bool lossy = spec_.Lossy();
  uint64_t sent_total = 0;
  uint64_t dup_dropped_total = 0;
  for (size_t i = 0; i < system_->num_nodes(); ++i) {
    StreamNode& node = system_->node(static_cast<NodeId>(i));
    dup_dropped_total += node.duplicate_tuples_dropped();
    for (const auto& [name, binding] : node.bindings()) {
      sent_total += binding.tuples_sent;
      auto it = streams_.find({binding.dst->id(), binding.stream});
      uint64_t arrived = it == streams_.end() ? 0 : it->second.delivered;
      std::string where = "stream '" + binding.stream + "' (node " +
                          std::to_string(i) + " -> " +
                          std::to_string(binding.dst->id()) + ")";
      if (!lossy && arrived != binding.tuples_sent) {
        Report("conservation",
               where + " sent " + std::to_string(binding.tuples_sent) +
                   " tuples but " + std::to_string(arrived) + " arrived");
      } else if (lossy && arrived > binding.tuples_sent) {
        Report("conservation",
               where + " delivered " + std::to_string(arrived) +
                   " tuples, more than the " +
                   std::to_string(binding.tuples_sent) + " sent");
      }
      if (spec_.flow_window > 0) {
        std::map<NodeId, size_t> streams_to;
        for (const auto& [n2, b2] : node.bindings()) {
          ++streams_to[b2.dst->id()];
        }
        size_t allowance = QueueAllowance(streams_to[binding.dst->id()]);
        const Transport* tx = binding.transport;
        if (tx->peak_queued_payload_bytes() > allowance) {
          Report("queue_bound",
                 where + " peak queued payload " +
                     std::to_string(tx->peak_queued_payload_bytes()) +
                     " bytes exceeded credit allowance " +
                     std::to_string(allowance));
        }
      }
    }
  }

  // Reconcile ground truth against the obs metrics registry: the counters
  // dashboards read must agree with what actually happened.
  MetricsRegistry& reg = MetricsRegistry::Global();
  uint64_t obs_sent = reg.CounterValue("node.tuples_sent");
  if (obs_sent != sent_total) {
    Report("obs_reconcile",
           "registry node.tuples_sent=" + std::to_string(obs_sent) +
               " but bindings sent " + std::to_string(sent_total));
  }
  uint64_t obs_dups = reg.CounterValue("node.stream.dup_dropped");
  if (obs_dups != dup_dropped_total) {
    Report("obs_reconcile",
           "registry node.stream.dup_dropped=" + std::to_string(obs_dups) +
               " but nodes dropped " + std::to_string(dup_dropped_total));
  }
  if (dup_dropped_total != duplicates_) {
    Report("obs_reconcile",
           "delivery probes saw " + std::to_string(duplicates_) +
               " suppressed duplicates but nodes counted " +
               std::to_string(dup_dropped_total));
  }

  // Storage reconcile: a tuple can only be read back from spill after it
  // was spilled, so the unspill counter may never run ahead of the spill
  // counter no matter how crashes interleave with budget enforcement.
  uint64_t spilled = reg.CounterValue("engine.storage.spill.tuples");
  uint64_t unspilled = reg.CounterValue("engine.storage.unspill.tuples");
  if (unspilled > spilled) {
    Report("storage_reconcile",
           "registry engine.storage.unspill.tuples=" +
               std::to_string(unspilled) + " exceeds spill.tuples=" +
               std::to_string(spilled));
  }

  if (healthy && system_->num_nodes() > 1 && !Converged()) {
    Report("detector_divergence",
           "failure detector suspicions do not match node up/down state "
           "after all faults healed");
  }
}

}  // namespace aurora
