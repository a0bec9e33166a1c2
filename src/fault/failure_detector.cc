#include "fault/failure_detector.h"

namespace aurora {

void HeartbeatFailureDetector::Arm(EndpointId watcher, EndpointId watched,
                                   SimTime now) {
  auto key = std::make_pair(watcher, watched);
  if (pairs_.count(key)) return;
  pairs_[key] = PairState{now, 0};
}

void HeartbeatFailureDetector::Disarm(EndpointId watcher, EndpointId watched) {
  pairs_.erase({watcher, watched});
}

void HeartbeatFailureDetector::ForgetWatched(EndpointId watched) {
  for (auto it = pairs_.begin(); it != pairs_.end();) {
    if (it->first.second == watched) {
      it = pairs_.erase(it);
    } else {
      ++it;
    }
  }
  suspected_.erase(watched);
}

void HeartbeatFailureDetector::ForgetWatcher(EndpointId watcher) {
  for (auto it = pairs_.begin(); it != pairs_.end();) {
    if (it->first.first == watcher) {
      it = pairs_.erase(it);
    } else {
      ++it;
    }
  }
}

void HeartbeatFailureDetector::RecordHeartbeat(EndpointId watcher,
                                               EndpointId watched,
                                               SimTime now) {
  PairState& state = pairs_[{watcher, watched}];
  state.last_heard = now;
  state.silent_checks = 0;
  suspected_.erase(watched);
}

std::vector<HeartbeatFailureDetector::Suspicion>
HeartbeatFailureDetector::CheckSilence(SimTime now) {
  std::vector<Suspicion> fresh;
  std::set<EndpointId> reported_this_round;
  for (auto& [key, state] : pairs_) {
    const auto& [watcher, watched] = key;
    if (now - state.last_heard <= opts_.timeout) {
      state.silent_checks = 0;
      continue;
    }
    state.silent_checks++;
    if (state.silent_checks < opts_.suspicion_threshold) continue;
    if (suspected_.count(watched) || reported_this_round.count(watched)) {
      continue;
    }
    reported_this_round.insert(watched);
    fresh.push_back(Suspicion{watcher, watched, state.last_heard});
  }
  for (const Suspicion& s : fresh) {
    suspected_.insert(s.watched);
    suspicions_raised_++;
  }
  return fresh;
}

Result<SimTime> HeartbeatFailureDetector::LastHeard(EndpointId watcher,
                                                    EndpointId watched) const {
  auto it = pairs_.find({watcher, watched});
  if (it == pairs_.end()) return Status::NotFound("pair is not armed");
  return it->second.last_heard;
}

}  // namespace aurora
