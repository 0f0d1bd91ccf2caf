// Cross-commit behaviour pin: exact simulated outcomes of four short,
// fully seeded runs, compared against constants recorded from an earlier
// build. Unlike the determinism tests (two runs of one binary), these fail
// when a change to the simulator moves a single event, transmission or
// random draw. Duty cycles are compared with ==, not a tolerance.
//
// A deliberate behaviour change must re-record the constants (set
// TELEA_PIN_PRINT=1 to print the measured values) and say why in CHANGES.md.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/faults.hpp"
#include "harness/network.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace telea {
namespace {

struct Outcome {
  std::uint64_t events = 0;
  std::uint64_t transmissions = 0;
  double duty_cycle = 0.0;
  double coverage = 0.0;
  int delivered = -1;  // commands delivered; -1 when the run sends none
};

void print_if_asked(const char* name, const Outcome& o) {
  const char* env = std::getenv("TELEA_PIN_PRINT");
  if (env == nullptr || std::string(env) != "1") return;
  std::printf("%s: events=%llu transmissions=%llu duty_cycle=%.17g "
              "coverage=%.17g delivered=%d\n",
              name, static_cast<unsigned long long>(o.events),
              static_cast<unsigned long long>(o.transmissions), o.duty_cycle,
              o.coverage, o.delivered);
}

Outcome measure(Network& net, std::uint64_t events) {
  Outcome o;
  o.events = events;
  o.transmissions = net.medium().total_transmissions();
  o.duty_cycle = net.average_duty_cycle();
  o.coverage = net.code_coverage();
  return o;
}

std::uint64_t run(Network& net, SimTime duration) {
  return net.sim().run_until(net.sim().now() + duration);
}

// The paper's 225-node tight grid through its boot-time beacon storm: the
// dense-medium path (many overlapping frames per reception).
TEST(BehaviourPin, TightGridBoot) {
  NetworkConfig cfg;
  cfg.topology = make_tight_grid(1);
  cfg.seed = 1;
  cfg.protocol = ControlProtocol::kReTele;
  Network net(std::move(cfg));
  net.start();
  const std::uint64_t events = run(net, 4 * kSecond);
  const Outcome o = measure(net, events);
  print_if_asked("TightGridBoot", o);
  EXPECT_EQ(o.events, 606768u);
  EXPECT_EQ(o.transmissions, 129723u);
  EXPECT_EQ(o.duty_cycle, 0.89232278222222183);
  EXPECT_EQ(o.coverage, 0.0);
}

// The 40-node indoor testbed on channel 19 (WiFi interferer on), with
// remote-control commands from the sink once codes exist.
TEST(BehaviourPin, IndoorCh19WithCommands) {
  NetworkConfig cfg;
  cfg.topology = make_indoor_testbed(1);
  cfg.seed = 1;
  cfg.protocol = ControlProtocol::kReTele;
  cfg.wifi_interference = true;
  Network net(std::move(cfg));
  net.start();
  std::uint64_t events = run(net, 4 * kMinute);

  int delivered = 0;
  for (std::size_t i = 1; i < net.size(); ++i) {
    net.node(static_cast<NodeId>(i)).tele()->on_control_delivered =
        [&delivered](const msg::ControlPacket&, bool) { ++delivered; };
  }
  TeleAdjusting& sink = *net.sink().tele();
  Pcg32 rng(7, 0x1D00);
  const auto last = static_cast<std::uint32_t>(net.size() - 1);
  for (int k = 0; k < 12; ++k) {
    const auto dest = static_cast<NodeId>(rng.uniform_in(1, last));
    const TeleAdjusting& tele = *net.node(dest).tele();
    if (tele.addressing().has_code()) {
      (void)sink.send_control(dest, tele.addressing().code(),
                              static_cast<std::uint16_t>(k));
    }
    events += run(net, 10 * kSecond);
  }
  events += run(net, 30 * kSecond);
  for (std::size_t i = 1; i < net.size(); ++i) {
    net.node(static_cast<NodeId>(i)).tele()->on_control_delivered = nullptr;
  }

  Outcome o = measure(net, events);
  o.delivered = delivered;
  print_if_asked("IndoorCh19WithCommands", o);
  EXPECT_EQ(o.events, 1046202u);
  EXPECT_EQ(o.transmissions, 220731u);
  EXPECT_EQ(o.duty_cycle, 0.092536583205128212);
  EXPECT_EQ(o.coverage, 1.0);
  EXPECT_EQ(o.delivered, 12);
}

// Link-loss offsets and injected noise: the medium's fault paths
// (effective-loss cutoff, offset RSSI, extra noise in SINR, ack and CCA).
TEST(BehaviourPin, LinkAndNoiseFaults) {
  NetworkConfig cfg;
  cfg.topology = make_connected_random(24, 90.0, 1);
  cfg.seed = 1;
  cfg.protocol = ControlProtocol::kReTele;
  Network net(std::move(cfg));
  FaultPlan plan;
  plan.degrade_link(30 * kSecond, 60 * kSecond, 0, 1, 6.0)
      .degrade_link(40 * kSecond, 90 * kSecond, 2, 3, 12.0)
      .blackout_link(50 * kSecond, 60 * kSecond, 0, 4)
      .noise_burst(60 * kSecond, 45 * kSecond, {5, 6, 7}, -80.0)
      .noise_burst(100 * kSecond, 30 * kSecond, {1, 2}, -85.0);
  plan.apply(net);
  net.start();
  net.start_data_collection(20 * kSecond);
  const std::uint64_t events = run(net, 3 * kMinute);
  const Outcome o = measure(net, events);
  print_if_asked("LinkAndNoiseFaults", o);
  EXPECT_EQ(o.events, 1761258u);
  EXPECT_EQ(o.transmissions, 563662u);
  EXPECT_EQ(o.duty_cycle, 0.40581382592592602);
  EXPECT_EQ(o.coverage, 1.0);
}

// A 300-node connected random field at the soak's density (24 nodes per
// 90 m square): a network above the medium's per-link power memo cutoff
// (256 nodes), so its interference and CCA sums take the uncached path.
TEST(BehaviourPin, FieldAboveMemoCutoffBoot) {
  NetworkConfig cfg;
  cfg.topology = make_connected_random(300, 318.0, 1);
  cfg.seed = 1;
  cfg.protocol = ControlProtocol::kReTele;
  Network net(std::move(cfg));
  net.start();
  const std::uint64_t events = run(net, 2 * kSecond);
  const Outcome o = measure(net, events);
  print_if_asked("FieldAboveMemoCutoffBoot", o);
  EXPECT_EQ(o.events, 423840u);
  EXPECT_EQ(o.transmissions, 57636u);
  EXPECT_EQ(o.duty_cycle, 0.94014527166666706);
  EXPECT_EQ(o.coverage, 0.0);
}

}  // namespace
}  // namespace telea
