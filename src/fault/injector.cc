#include "fault/injector.h"

#include "common/logging.h"
#include "obs/trace.h"

namespace aurora {

Injector::Injector(AuroraStarSystem* system, FaultPlan plan,
                   InjectorOptions opts)
    : system_(system), plan_(std::move(plan)), opts_(opts) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  m_crashes_ = reg.GetCounter("fault.crashes");
  m_restarts_ = reg.GetCounter("fault.restarts");
  m_partitions_ = reg.GetCounter("fault.partitions");
  m_heals_ = reg.GetCounter("fault.heals");
  m_perturbations_ = reg.GetCounter("fault.perturbations");
  m_slowdowns_ = reg.GetCounter("fault.slowdowns");
  m_tuples_lost_ = reg.GetCounter("fault.tuples_lost");
  m_mttd_ms_ = reg.GetHistogram("fault.mttd_ms");
  m_mttr_ms_ = reg.GetHistogram("fault.mttr_ms");
}

Status Injector::Arm() {
  if (armed_) return Status::FailedPrecondition("already armed");
  armed_ = true;
  system_->net()->SeedPerturbations(opts_.seed);
  if (opts_.ha != nullptr) {
    opts_.ha->SetFailureObserver(liveness_.Guard(
        [this](NodeId failed, NodeId /*watcher*/, SimTime detected_at) {
          auto it = crash_time_.find(failed);
          if (it == crash_time_.end()) return;  // not one of ours
          double ms = (detected_at - it->second).seconds() * 1e3;
          mttd_ms_.push_back(ms);
          m_mttd_ms_->Record(ms);
        }));
    opts_.ha->SetRecoveryObserver(liveness_.Guard(
        [this](NodeId failed, NodeId /*backup*/, SimTime recovered_at) {
          auto it = crash_time_.find(failed);
          if (it == crash_time_.end()) return;
          double ms = (recovered_at - it->second).seconds() * 1e3;
          mttr_ms_.push_back(ms);
          m_mttr_ms_->Record(ms);
        }));
  }
  Simulation* sim = system_->sim();
  for (const FaultEvent& ev : plan_.events()) {
    if (ev.at < sim->Now()) {
      return Status::InvalidArgument("fault event scheduled in the past");
    }
    sim->ScheduleAt(ev.at, liveness_.Guard([this, ev]() { Apply(ev); }));
  }
  return Status::OK();
}

void Injector::RecordFaultSpan(const FaultEvent& ev) {
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return;
  int node = ev.node >= 0 ? ev.node : ev.a;
  std::string site = std::string("inject:") + FaultEventKindName(ev.kind);
  if (ev.node >= 0) {
    site += ":" + std::to_string(ev.node);
  } else {
    site += ":" + std::to_string(ev.a) + "-" + std::to_string(ev.b);
  }
  SimTime now = system_->sim()->Now();
  tracer.Record({0, SpanKind::kFault, node, site, now.micros(), now.micros()});
}

void Injector::Apply(const FaultEvent& ev) {
  OverlayNetwork* net = system_->net();
  switch (ev.kind) {
    case FaultEventKind::kCrash: {
      size_t lost = system_->node(ev.node).Crash();
      tuples_lost_ += lost;
      if (lost > 0) m_tuples_lost_->Add(lost);
      crash_time_[ev.node] = system_->sim()->Now();
      crashes_++;
      m_crashes_->Add();
      break;
    }
    case FaultEventKind::kRestart: {
      StreamNode& node = system_->node(ev.node);
      node.SetUp(true);
      if (node.has_durable_storage()) {
        Status st = node.RecoverDurableState();
        if (!st.ok()) {
          AURORA_LOG(Error) << "fault restart " << ev.node
                            << ": durable recovery failed: " << st.ToString();
        }
      }
      restarts_++;
      m_restarts_->Add();
      break;
    }
    case FaultEventKind::kPartition:
    case FaultEventKind::kHeal: {
      bool up = ev.kind == FaultEventKind::kHeal;
      Status st1 = net->SetLinkUp(ev.a, ev.b, up);
      Status st2 = net->SetLinkUp(ev.b, ev.a, up);
      if (!st1.ok() || !st2.ok()) {
        AURORA_LOG(Error) << "fault " << FaultEventKindName(ev.kind) << " "
                          << ev.a << "<->" << ev.b << ": "
                          << (st1.ok() ? st2 : st1).ToString();
        return;
      }
      if (up) {
        heals_++;
        m_heals_->Add();
      } else {
        partitions_++;
        m_partitions_->Add();
      }
      break;
    }
    case FaultEventKind::kPerturbLink: {
      LinkPerturbation pert;
      pert.drop_p = ev.drop_p;
      pert.dup_p = ev.dup_p;
      pert.reorder_p = ev.reorder_p;
      pert.reorder_delay = ev.reorder_delay;
      Status st1 = net->SetLinkPerturbation(ev.a, ev.b, pert);
      Status st2 = net->SetLinkPerturbation(ev.b, ev.a, pert);
      if (!st1.ok() || !st2.ok()) {
        AURORA_LOG(Error) << "fault perturb " << ev.a << "<->" << ev.b << ": "
                          << (st1.ok() ? st2 : st1).ToString();
        return;
      }
      perturbations_++;
      m_perturbations_->Add();
      break;
    }
    case FaultEventKind::kSlowNode:
      net->SetNodeSpeed(ev.node, net->node(ev.node).speed * ev.speed_factor);
      slowdowns_++;
      m_slowdowns_->Add();
      break;
  }
  RecordFaultSpan(ev);
}

}  // namespace aurora
