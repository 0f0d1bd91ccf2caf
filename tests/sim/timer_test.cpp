#include "sim/timer.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace telea {
namespace {

TEST(Timer, OneShotFiresOnce) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.set_callback([&] { ++fired; });
  t.start_one_shot(100);
  EXPECT_TRUE(t.running());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.running());
}

TEST(Timer, PeriodicFiresRepeatedly) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.set_callback([&] { ++fired; });
  t.start_periodic(10);
  sim.run_until(55);
  EXPECT_EQ(fired, 5);
  EXPECT_TRUE(t.running());
}

TEST(Timer, PeriodicWithInitialDelay) {
  Simulator sim;
  Timer t(sim);
  std::vector<SimTime> at;
  t.set_callback([&] { at.push_back(sim.now()); });
  t.start_periodic_at(3, 10);
  sim.run_until(35);
  ASSERT_EQ(at.size(), 4u);
  EXPECT_EQ(at[0], 3u);
  EXPECT_EQ(at[1], 13u);
  EXPECT_EQ(at[3], 33u);
}

TEST(Timer, StopPreventsFiring) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.set_callback([&] { ++fired; });
  t.start_one_shot(10);
  t.stop();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, RestartRearms) {
  Simulator sim;
  Timer t(sim);
  std::vector<SimTime> at;
  t.set_callback([&] { at.push_back(sim.now()); });
  t.start_one_shot(100);
  sim.run_until(50);
  t.start_one_shot(100);  // re-arm from t=50
  sim.run();
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0], 150u);
}

TEST(Timer, RearmingALiveOneShotOrdersAsStopThenStart) {
  // Re-arm a pending one-shot to a time already holding an event scheduled
  // before it, and schedule another there after it. An in-place re-arm
  // must fire between the two, exactly as stop() then start_one_shot().
  auto order = [](bool stop_first) {
    Simulator sim;
    std::vector<char> fired;
    Timer t(sim);
    t.set_callback([&] { fired.push_back('T'); });
    t.start_one_shot(50);
    sim.schedule_in(20, [&] { fired.push_back('a'); });
    sim.run_until(5);
    if (stop_first) t.stop();
    t.start_one_shot(15);  // from 50 to 20: earlier, tied with 'a'
    sim.schedule_in(15, [&] { fired.push_back('b'); });
    sim.run();
    return fired;
  };
  EXPECT_EQ(order(false), (std::vector<char>{'a', 'T', 'b'}));
  EXPECT_EQ(order(true), order(false));
}

TEST(Timer, InPlaceRearmMatchesStopThenStartUnderRandomOperations) {
  // Two identical worlds of timers and plain events; one re-arms armed
  // timers in place, the other stops them first. Every firing, in order
  // and time, must agree.
  struct World {
    Simulator sim;
    std::vector<std::unique_ptr<Timer>> timers;
    std::vector<std::pair<SimTime, int>> fired;
  };
  constexpr int kTimers = 6;
  auto run = [](bool stop_first) {
    World w;
    for (int i = 0; i < kTimers; ++i) {
      w.timers.push_back(std::make_unique<Timer>(w.sim));
      w.timers.back()->set_callback(
          [&w, i] { w.fired.emplace_back(w.sim.now(), i); });
    }
    Pcg32 rng(99, 3);
    int rearms = 0;
    for (int op = 0; op < 3000; ++op) {
      Timer& t = *w.timers[rng.uniform(kTimers)];
      const SimTime delay = rng.uniform(8);  // few distinct times: many ties
      switch (rng.uniform(5)) {
        case 0:
        case 1:
          if (t.running()) ++rearms;
          if (stop_first) t.stop();
          t.start_one_shot(delay);
          break;
        case 2:
          if (t.running()) ++rearms;
          if (stop_first) t.stop();
          t.start_periodic_at(delay, 1 + rng.uniform(8));
          break;
        case 3:
          w.sim.schedule_in(delay,
                            [&w] { w.fired.emplace_back(w.sim.now(), -1); });
          break;
        default:
          w.sim.run_until(w.sim.now() + rng.uniform(3));
      }
    }
    for (auto& t : w.timers) t->stop();
    w.sim.run();
    EXPECT_GT(rearms, 500);
    return w.fired;
  };
  const auto in_place = run(false);
  EXPECT_GT(in_place.size(), 1000u);
  EXPECT_EQ(in_place, run(true));
}

TEST(Timer, DestructionCancels) {
  Simulator sim;
  int fired = 0;
  {
    Timer t(sim);
    t.set_callback([&] { ++fired; });
    t.start_one_shot(10);
  }
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, CallbackMayRestartItself) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.set_callback([&] {
    if (++fired < 3) t.start_one_shot(10);
  });
  t.start_one_shot(10);
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Timer, StopInsideCallbackStopsPeriodic) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.set_callback([&] {
    if (++fired == 2) t.stop();
  });
  t.start_periodic(10);
  sim.run_until(100);
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace telea
