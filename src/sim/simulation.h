#ifndef AURORA_SIM_SIMULATION_H_
#define AURORA_SIM_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/sim_time.h"

namespace aurora {

/// \brief RAII cancellation handle for a periodic schedule.
///
/// Returned by Simulation::SchedulePeriodicCancelable; destroying (or
/// Cancel()-ing) the handle stops future firings. Subsystems with a shorter
/// lifetime than the simulation (HA managers, fault injectors) hold one per
/// timer so their periodic callbacks can never run after destruction.
class PeriodicTimer {
 public:
  PeriodicTimer() = default;
  explicit PeriodicTimer(std::shared_ptr<bool> alive)
      : alive_(std::move(alive)) {}
  PeriodicTimer(PeriodicTimer&&) = default;
  PeriodicTimer& operator=(PeriodicTimer&& other) {
    Cancel();
    alive_ = std::move(other.alive_);
    return *this;
  }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;
  ~PeriodicTimer() { Cancel(); }

  /// Stops future firings (idempotent). The already-queued next event still
  /// runs but becomes a no-op and does not reschedule.
  void Cancel() {
    if (alive_) {
      *alive_ = false;
      alive_.reset();
    }
  }
  bool active() const { return alive_ != nullptr && *alive_; }

 private:
  std::shared_ptr<bool> alive_;
};

/// \brief Tells one-shot events whether their owner still exists.
///
/// An object whose scheduled events or network callbacks capture `this`
/// holds one as a member; each such callback also captures token() and
/// does nothing once the token has expired, i.e. once the owner is
/// destroyed. Neither copyable nor movable: the events are bound to this
/// object's address.
class Liveness {
 public:
  Liveness() = default;
  Liveness(const Liveness&) = delete;
  Liveness& operator=(const Liveness&) = delete;

  std::weak_ptr<const bool> token() const { return alive_; }

 private:
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

/// \brief Deterministic discrete-event simulation kernel.
///
/// The distributed substrate (overlay links, node CPUs, failure timers,
/// heartbeats) runs entirely on this kernel, which makes every experiment
/// in the repository reproducible bit-for-bit. Events at equal times fire
/// in scheduling order.
class Simulation {
 public:
  Simulation() = default;

  SimTime Now() const { return now_; }

  /// Schedules `fn` to run `delay` from now.
  void Schedule(SimDuration delay, std::function<void()> fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at an absolute time (>= Now()).
  void ScheduleAt(SimTime when, std::function<void()> fn);

  /// Schedules `fn` every `interval`, starting one interval from now, until
  /// it returns false.
  void SchedulePeriodic(SimDuration interval, std::function<bool()> fn);

  /// Like SchedulePeriodic, but the returned handle cancels the timer when
  /// destroyed — use when the callback's owner may die before the sim.
  [[nodiscard]] PeriodicTimer SchedulePeriodicCancelable(
      SimDuration interval, std::function<bool()> fn);

  /// Runs the earliest pending event. Returns false when none remain.
  bool RunOne();

  /// Runs all events with time <= `until`; leaves Now() == `until`.
  void RunUntil(SimTime until);
  void RunFor(SimDuration d) { RunUntil(now_ + d); }

  /// Runs until the event queue is empty.
  void RunAll();

  /// Runs in `slice`-sized increments until `idle()` reports true between
  /// slices, or `deadline` passes. For systems with self-rescheduling
  /// periodic timers (node ticks, heartbeats) RunAll never returns; this is
  /// the bounded drain primitive such systems quiesce with. Returns whether
  /// idleness was observed before the deadline.
  bool RunUntilIdle(SimTime deadline, SimDuration slice,
                    const std::function<bool()>& idle);

  size_t pending() const { return queue_.size(); }
  uint64_t events_executed() const { return events_executed_; }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  SimTime now_{};
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace aurora

#endif  // AURORA_SIM_SIMULATION_H_
