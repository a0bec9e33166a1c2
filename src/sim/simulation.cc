#include "sim/simulation.h"

#include "common/logging.h"

namespace aurora {

void Simulation::ScheduleAt(SimTime when, std::function<void()> fn) {
  AURORA_CHECK(when >= now_) << "event scheduled in the past: " << when.micros()
                             << " < " << now_.micros();
  queue_.push(Event{when, next_seq_++, std::move(fn)});
}

void Simulation::SchedulePeriodic(SimDuration interval,
                                  std::function<bool()> fn) {
  Schedule(interval, [this, interval, fn = std::move(fn)]() {
    if (fn()) SchedulePeriodic(interval, fn);
  });
}

bool Simulation::RunOne() {
  if (queue_.empty()) return false;
  // std::priority_queue::top is const; move out via const_cast, standard
  // practice for heap-of-move-only payloads.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = ev.when;
  events_executed_++;
  ev.fn();
  return true;
}

void Simulation::RunUntil(SimTime until) {
  while (!queue_.empty() && queue_.top().when <= until) {
    RunOne();
  }
  if (now_ < until) now_ = until;
}

void Simulation::RunAll() {
  while (RunOne()) {
  }
}

bool Simulation::RunUntilIdle(SimTime deadline, SimDuration slice,
                              const std::function<bool()>& idle) {
  while (true) {
    if (idle()) return true;
    if (now_ >= deadline) return false;
    SimTime next = now_ + slice;
    if (deadline < next) next = deadline;
    RunUntil(next);
  }
}

}  // namespace aurora
