#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "harness/network.hpp"
#include "radio/medium.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace telea {
namespace {

TEST(SimProfiling, OffByDefaultAndCostsNothing) {
  Simulator sim;
  sim.schedule_in(10, [] {}, "work");
  sim.run();
  EXPECT_FALSE(sim.profiling());
  EXPECT_EQ(sim.profile().events_dispatched, 0u);
  EXPECT_TRUE(sim.profile().by_kind.empty());
}

TEST(SimProfiling, CountsEventsByTag) {
  Simulator sim;
  sim.set_profiling(true);
  for (int i = 0; i < 3; ++i) sim.schedule_in(10 + i, [] {}, "alpha");
  sim.schedule_in(5, [] {}, "beta");
  sim.schedule_in(7, [] {});  // untagged
  sim.run();

  const SimProfile& p = sim.profile();
  EXPECT_EQ(p.events_dispatched, 5u);
  ASSERT_TRUE(p.by_kind.contains("alpha"));
  EXPECT_EQ(p.by_kind.at("alpha").count, 3u);
  EXPECT_EQ(p.by_kind.at("beta").count, 1u);
  EXPECT_EQ(p.by_kind.at("(untagged)").count, 1u);
  EXPECT_GE(p.by_kind.at("alpha").wall_seconds, 0.0);
}

TEST(SimProfiling, TracksMaxQueueDepth) {
  Simulator sim;
  sim.set_profiling(true);
  for (int i = 0; i < 8; ++i) sim.schedule_in(10 + i, [] {}, "w");
  sim.run();
  // Depth is sampled before each pop: the first pop sees all 8 pending.
  EXPECT_EQ(sim.profile().max_queue_depth, 8u);
}

TEST(SimProfiling, CancelledEventsDoNotCount) {
  Simulator sim;
  sim.set_profiling(true);
  auto h = sim.schedule_in(10, [] {}, "doomed");
  sim.schedule_in(20, [] {}, "kept");
  sim.cancel(h);
  sim.run();
  EXPECT_EQ(sim.profile().events_dispatched, 1u);
  EXPECT_FALSE(sim.profile().by_kind.contains("doomed"));
}

TEST(SimProfiling, TimersCarryTheirTag) {
  Simulator sim;
  sim.set_profiling(true);
  int fired = 0;
  Timer t(sim);
  t.set_tag("test.timer");
  t.set_callback([&fired] { ++fired; });
  t.start_one_shot(50);
  sim.run_until(100);
  EXPECT_EQ(fired, 1);
  ASSERT_TRUE(sim.profile().by_kind.contains("test.timer"));
  EXPECT_EQ(sim.profile().by_kind.at("test.timer").count, 1u);
}

/// A MAC stand-in that acknowledges every frame.
class AckingRadio final : public MediumListener {
 public:
  AckDecision on_frame(const Frame&, double) override {
    return AckDecision::kAcceptAndAck;
  }
  void on_tx_done(bool, NodeId) override {}
};

TEST(SimProfiling, MediumEventsCarryTheirTags) {
  Simulator sim;
  sim.set_profiling(true);
  PathLossConfig pl;
  pl.shadowing_sigma_db = 0.0;
  const LinkGainTable gains({{0.0, 0.0}, {5.0, 0.0}}, pl, 1);
  const CpmNoiseModel noise(std::vector<std::int8_t>(200, -98), 2);
  MediumConfig cfg;
  cfg.tx_power_dbm = 0.0;
  RadioMedium medium(sim, gains, noise, cfg, 7);
  AckingRadio radios[2];
  for (NodeId id = 0; id < 2; ++id) {
    medium.attach(id, radios[id]);
    medium.set_listening(id, true);
  }
  Frame frame;
  frame.src = 0;
  frame.dst = 1;
  frame.link_seq = 1;
  frame.payload = msg::CtpData{};
  medium.transmit(0, frame);
  sim.run();

  const SimProfile& p = sim.profile();
  ASSERT_TRUE(p.by_kind.contains("radio.finish_tx"));
  ASSERT_TRUE(p.by_kind.contains("radio.ack_window"));
  EXPECT_EQ(p.by_kind.at("radio.finish_tx").count, 1u);
  EXPECT_EQ(p.by_kind.at("radio.ack_window").count, 1u);
  EXPECT_FALSE(p.by_kind.contains("(untagged)"));
}

// Every event a running network schedules names its layer: a short boot of
// the paper's tight grid, and the indoor testbed on channel 19 (WiFi on)
// carrying remote-control commands, profiled from construction on.
TEST(SimProfiling, NoUntaggedEventsOnTheGridBoot) {
  NetworkConfig cfg;
  cfg.topology = make_tight_grid(1);
  cfg.seed = 1;
  cfg.protocol = ControlProtocol::kReTele;
  Network net(std::move(cfg));
  net.sim().set_profiling(true);
  net.start();
  net.sim().run_until(2 * kSecond);
  const SimProfile& p = net.sim().profile();
  EXPECT_GT(p.events_dispatched, 0u);
  EXPECT_FALSE(p.by_kind.contains("(untagged)")) << p.render();
}

TEST(SimProfiling, NoUntaggedEventsOnIndoorCh19WithCommands) {
  NetworkConfig cfg;
  cfg.topology = make_indoor_testbed(1);
  cfg.seed = 1;
  cfg.protocol = ControlProtocol::kReTele;
  cfg.wifi_interference = true;
  Network net(std::move(cfg));
  net.sim().set_profiling(true);
  net.start();
  net.start_data_collection(20 * kSecond);
  net.sim().run_until(4 * kMinute);
  TeleAdjusting& sink = *net.sink().tele();
  Pcg32 rng(7, 0x1D00);
  const auto last = static_cast<std::uint32_t>(net.size() - 1);
  int sent = 0;
  for (int k = 0; k < 6; ++k) {
    const auto dest = static_cast<NodeId>(rng.uniform_in(1, last));
    const TeleAdjusting& tele = *net.node(dest).tele();
    if (tele.addressing().has_code()) {
      (void)sink.send_control(dest, tele.addressing().code(),
                              static_cast<std::uint16_t>(k));
      ++sent;
    }
    net.sim().run_until(net.sim().now() + 10 * kSecond);
  }
  EXPECT_GT(sent, 0);
  const SimProfile& p = net.sim().profile();
  EXPECT_TRUE(p.by_kind.contains("tele.beacon")) << p.render();
  EXPECT_TRUE(p.by_kind.contains("harness.data")) << p.render();
  EXPECT_FALSE(p.by_kind.contains("(untagged)")) << p.render();
}

TEST(SimProfiling, EqualTagTextFromTwoPointersSharesARow) {
  // Rows are looked up by tag pointer; the same text behind another
  // pointer (a copy, not the literal) must still land in the same row.
  const std::string copy = "radio.ack_window";
  Simulator sim;
  sim.set_profiling(true);
  sim.schedule_in(1, [] {}, "radio.ack_window");
  sim.schedule_in(2, [] {}, copy.c_str());
  sim.schedule_in(3, [] {}, "radio.ack_window");
  sim.run();
  ASSERT_EQ(sim.profile().by_kind.size(), 1u);
  EXPECT_EQ(sim.profile().by_kind.at("radio.ack_window").count, 3u);

  // Clearing drops the rows; the next events start fresh ones.
  sim.clear_profile();
  sim.schedule_in(1, [] {}, copy.c_str());
  sim.run();
  ASSERT_EQ(sim.profile().by_kind.size(), 1u);
  EXPECT_EQ(sim.profile().by_kind.at("radio.ack_window").count, 1u);
}

TEST(SimProfiling, RenderAndClear) {
  Simulator sim;
  sim.set_profiling(true);
  sim.schedule_in(1, [] {}, "phase.a");
  sim.run();
  const std::string text = sim.profile().render();
  EXPECT_NE(text.find("phase.a"), std::string::npos);
  EXPECT_NE(text.find("1 event"), std::string::npos);

  sim.clear_profile();
  EXPECT_EQ(sim.profile().events_dispatched, 0u);
  EXPECT_TRUE(sim.profile().by_kind.empty());

  sim.reset();  // reset() also clears the profile
  sim.set_profiling(true);
  sim.schedule_in(1, [] {}, "x");
  sim.run();
  EXPECT_EQ(sim.profile().events_dispatched, 1u);
}

}  // namespace
}  // namespace telea
