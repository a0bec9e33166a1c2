#ifndef AURORA_SIM_SIMULATION_H_
#define AURORA_SIM_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/sim_time.h"

namespace aurora {

/// \brief Scopes callbacks to the lifetime of the object they point at.
///
/// The one lifetime rule for simulated callbacks: an object whose kernel
/// events, overlay deliveries or stored handlers capture `this` (or a
/// pointer to itself) holds a Liveness member and wraps each such callback
/// in Guard(). The wrapped callback runs only while its owner exists; once
/// the owner is destroyed it does nothing and returns a default value
/// (false for a SchedulePeriodic callback, which stops that timer). Events
/// whose owner died still fire, so event order and counts never depend on
/// lifetimes. Guarded callbacks run from the event loop, never inside the
/// owner's destructor, so the member may sit anywhere in the class. Neither
/// copyable nor movable: callbacks are bound to the owner's address.
class Liveness {
 public:
  Liveness() = default;
  Liveness(const Liveness&) = delete;
  Liveness& operator=(const Liveness&) = delete;

  /// Returns a callable with `fn`'s signature that runs `fn` while this
  /// object exists and returns a value-initialized result afterwards. It
  /// holds `fn`'s captures plus one weak reference.
  template <typename Fn>
  auto Guard(Fn fn) const {
    return [alive = std::weak_ptr<const bool>(alive_),
            fn = std::move(fn)](auto&&... args) mutable {
      using R = std::invoke_result_t<Fn&, decltype(args)...>;
      if (alive.expired()) return R();
      return fn(std::forward<decltype(args)>(args)...);
    };
  }

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
  /// it returns false. A timer whose owner may die before the simulation
  /// passes `owner.Guard(fn)`, which returns false once the owner is gone.
  void SchedulePeriodic(SimDuration interval, std::function<bool()> fn);

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
