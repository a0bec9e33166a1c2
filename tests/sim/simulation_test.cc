#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace aurora {
namespace {

TEST(SimulationTest, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(SimDuration::Millis(30), [&]() { order.push_back(3); });
  sim.Schedule(SimDuration::Millis(10), [&]() { order.push_back(1); });
  sim.Schedule(SimDuration::Millis(20), [&]() { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), SimTime::Millis(30));
}

TEST(SimulationTest, EqualTimesFifoBySchedulingOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(SimTime::Millis(7), [&order, i]() { order.push_back(i); });
  }
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulationTest, RunUntilStopsAndAdvancesClock) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(SimDuration::Millis(10), [&]() { fired++; });
  sim.Schedule(SimDuration::Millis(50), [&]() { fired++; });
  sim.RunUntil(SimTime::Millis(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), SimTime::Millis(20));
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(SimulationTest, EventsMayScheduleMoreEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 10) sim.Schedule(SimDuration::Millis(1), recurse);
  };
  sim.Schedule(SimDuration::Millis(1), recurse);
  sim.RunAll();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.Now(), SimTime::Millis(10));
}

TEST(SimulationTest, PeriodicRunsUntilFalse) {
  Simulation sim;
  int ticks = 0;
  sim.SchedulePeriodic(SimDuration::Millis(5), [&]() { return ++ticks < 4; });
  sim.RunAll();
  EXPECT_EQ(ticks, 4);
  EXPECT_EQ(sim.Now(), SimTime::Millis(20));
}

// An event guarded by an owner that dies before it fires still leaves the
// queue and is counted, but does nothing.
TEST(LivenessTest, GuardedEventOfDestroyedOwnerIsCountedButInert) {
  Simulation sim;
  int fired = 0;
  auto owner = std::make_unique<Liveness>();
  sim.Schedule(SimDuration::Millis(1), owner->Guard([&]() { fired++; }));
  sim.Schedule(SimDuration::Millis(2), owner->Guard([&]() { fired++; }));
  sim.RunOne();
  EXPECT_EQ(fired, 1);
  owner.reset();
  sim.RunAll();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(sim.pending(), 0u);
}

// A guarded periodic callback returns false once its owner is gone, which
// stops the timer: nothing re-arms and the tick count freezes.
TEST(LivenessTest, GuardedPeriodicStopsWhenOwnerDies) {
  Simulation sim;
  int ticks = 0;
  auto owner = std::make_unique<Liveness>();
  sim.SchedulePeriodic(SimDuration::Millis(5), owner->Guard([&]() {
    ++ticks;
    return true;
  }));
  sim.RunUntil(SimTime::Millis(12));
  EXPECT_EQ(ticks, 2);
  EXPECT_EQ(sim.pending(), 1u);
  owner.reset();
  sim.RunUntil(SimTime::Millis(100));
  EXPECT_EQ(ticks, 2);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 3u);  // the last armed tick still pops
}

// Guard keeps the callback's signature: arguments pass through while the
// owner lives; afterwards a value-returning callback yields a
// value-initialized result and a void one does nothing.
TEST(LivenessTest, GuardPassesArgumentsThroughWhileOwnerLives) {
  auto owner = std::make_unique<Liveness>();
  std::string seen;
  std::function<bool(const std::string&, int)> check =
      owner->Guard([&](const std::string& s, int n) {
        seen = s;
        return n > 0;
      });
  std::function<void(const std::string&)> record =
      owner->Guard([&](const std::string& s) { seen += s; });
  EXPECT_TRUE(check("x", 1));
  EXPECT_FALSE(check("y", 0));
  EXPECT_EQ(seen, "y");
  record("z");
  EXPECT_EQ(seen, "yz");
  owner.reset();
  EXPECT_FALSE(check("w", 1));
  record("w");
  EXPECT_EQ(seen, "yz");
}

TEST(SimTimeTest, ArithmeticAndConversions) {
  EXPECT_EQ(SimTime::Seconds(1.5).micros(), 1'500'000);
  EXPECT_EQ(SimTime::Millis(2).micros(), 2'000);
  EXPECT_EQ((SimTime::Millis(5) + SimTime::Millis(3)).millis(), 8.0);
  EXPECT_EQ((SimTime::Millis(5) - SimTime::Millis(3)).millis(), 2.0);
  EXPECT_LT(SimTime::Millis(1), SimTime::Millis(2));
}

}  // namespace
}  // namespace aurora
