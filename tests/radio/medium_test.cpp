#include "radio/medium.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "radio/phy.hpp"
#include "util/dbm.hpp"

namespace telea {
namespace {

/// A scripted MAC stand-in recording everything the medium reports.
class FakeListener final : public MediumListener {
 public:
  AckDecision decision = AckDecision::kAccept;
  std::vector<Frame> received;
  std::vector<double> rssi;
  int tx_done_count = 0;
  bool last_acked = false;
  NodeId last_acker = kInvalidNode;

  /// Runs inside on_frame, after the frame is recorded (a MAC reacting
  /// synchronously, e.g. sending when its CCA is clear).
  std::function<void()> on_receive;

  AckDecision on_frame(const Frame& frame, double rssi_dbm) override {
    received.push_back(frame);
    rssi.push_back(rssi_dbm);
    if (on_receive) on_receive();
    return decision;
  }
  void on_tx_done(bool acked, NodeId acker) override {
    ++tx_done_count;
    last_acked = acked;
    last_acker = acker;
  }
};

/// Quiet, flat noise floor so reception outcomes are deterministic.
CpmNoiseModel quiet_noise() {
  std::vector<std::int8_t> trace(200, -98);
  return CpmNoiseModel(trace, 2);
}

class MediumTest : public ::testing::Test {
 protected:
  /// Nodes on a line with `spacing` meters, no shadowing, 0 dBm tx.
  void build(int nodes, double spacing) {
    std::vector<Position> pos;
    for (int i = 0; i < nodes; ++i) pos.push_back({i * spacing, 0.0});
    build_at(pos);
  }

  /// Nodes at `pos`, no shadowing, 0 dBm tx.
  void build_at(const std::vector<Position>& pos) {
    const auto nodes = static_cast<int>(pos.size());
    PathLossConfig pl;
    pl.exponent = 4.0;
    pl.loss_at_reference_db = 40.0;
    pl.shadowing_sigma_db = 0.0;
    gains_ = std::make_unique<LinkGainTable>(pos, pl, 1);
    noise_ = std::make_unique<CpmNoiseModel>(
        heavy_noise_ ? CpmNoiseModel(generate_heavy_noise_trace({}, 3), 3)
                     : quiet_noise());
    MediumConfig cfg;
    cfg.tx_power_dbm = 0.0;
    medium_ = std::make_unique<RadioMedium>(sim_, *gains_, *noise_, cfg, 7);
    listeners_.clear();
    for (int i = 0; i < nodes; ++i) {
      listeners_.push_back(std::make_unique<FakeListener>());
      medium_->attach(static_cast<NodeId>(i), *listeners_.back());
    }
  }

  Frame beacon_frame(NodeId src) {
    Frame f;
    f.src = src;
    f.dst = kBroadcastNode;
    f.link_seq = next_seq_++;
    f.payload = msg::CtpBeacon{};
    return f;
  }

  Frame data_frame(NodeId src, NodeId dst) {
    Frame f;
    f.src = src;
    f.dst = dst;
    f.link_seq = next_seq_++;
    f.payload = msg::CtpData{};
    return f;
  }

  Simulator sim_;
  bool heavy_noise_ = false;  // build with bursty CPM noise, not a flat floor
  std::unique_ptr<LinkGainTable> gains_;
  std::unique_ptr<CpmNoiseModel> noise_;
  std::unique_ptr<RadioMedium> medium_;
  std::vector<std::unique_ptr<FakeListener>> listeners_;
  std::uint32_t next_seq_ = 1;
};

TEST_F(MediumTest, BroadcastReachesListeningNeighbor) {
  build(2, 5.0);  // 5 m at 0 dBm: very strong link
  medium_->set_listening(1, true);
  medium_->transmit(0, beacon_frame(0));
  sim_.run();
  ASSERT_EQ(listeners_[1]->received.size(), 1u);
  EXPECT_EQ(listeners_[1]->received[0].src, 0);
  EXPECT_EQ(listeners_[0]->tx_done_count, 1);
  EXPECT_FALSE(listeners_[0]->last_acked);  // broadcasts are unacked
}

TEST_F(MediumTest, SleepingRadioMissesFrame) {
  build(2, 5.0);
  medium_->set_listening(1, false);
  medium_->transmit(0, beacon_frame(0));
  sim_.run();
  EXPECT_TRUE(listeners_[1]->received.empty());
}

TEST_F(MediumTest, WakingMidFrameMissesIt) {
  build(2, 5.0);
  medium_->set_listening(1, false);
  medium_->transmit(0, beacon_frame(0));
  // Wake 100 us into the transmission: the lock was taken at tx start.
  sim_.schedule_in(100, [this] { medium_->set_listening(1, true); });
  sim_.run();
  EXPECT_TRUE(listeners_[1]->received.empty());
}

TEST_F(MediumTest, SleepMidFrameAbortsReception) {
  build(2, 5.0);
  medium_->set_listening(1, true);
  medium_->transmit(0, beacon_frame(0));
  sim_.schedule_in(100, [this] { medium_->set_listening(1, false); });
  sim_.run();
  EXPECT_TRUE(listeners_[1]->received.empty());
}

TEST_F(MediumTest, UnicastAckedByReceiver) {
  build(2, 5.0);
  medium_->set_listening(1, true);
  listeners_[1]->decision = AckDecision::kAcceptAndAck;
  medium_->transmit(0, data_frame(0, 1));
  sim_.run();
  EXPECT_EQ(listeners_[0]->tx_done_count, 1);
  EXPECT_TRUE(listeners_[0]->last_acked);
  EXPECT_EQ(listeners_[0]->last_acker, 1);
}

TEST_F(MediumTest, UnicastWithoutAckDecisionReportsNoAck) {
  build(2, 5.0);
  medium_->set_listening(1, true);
  listeners_[1]->decision = AckDecision::kAccept;
  medium_->transmit(0, data_frame(0, 1));
  sim_.run();
  EXPECT_TRUE(listeners_[0]->tx_done_count == 1 && !listeners_[0]->last_acked);
}

TEST_F(MediumTest, AnycastControlPacketClaimedByNonAddressee) {
  build(3, 5.0);
  medium_->set_listening(1, true);
  medium_->set_listening(2, false);
  listeners_[1]->decision = AckDecision::kAcceptAndAck;
  Frame f;
  f.src = 0;
  f.dst = kBroadcastNode;  // anycast
  f.link_seq = next_seq_++;
  msg::ControlPacket cp;
  cp.mode = msg::ControlMode::kOpportunistic;
  f.payload = cp;
  EXPECT_TRUE(RadioMedium::frame_wants_ack(f));
  medium_->transmit(0, f);
  sim_.run();
  EXPECT_TRUE(listeners_[0]->last_acked);
  EXPECT_EQ(listeners_[0]->last_acker, 1);
}

TEST_F(MediumTest, DirectControlIsPlainUnicast) {
  Frame f;
  f.dst = 5;
  msg::ControlPacket cp;
  cp.mode = msg::ControlMode::kDirect;
  f.payload = cp;
  EXPECT_TRUE(RadioMedium::frame_wants_ack(f));
  f.dst = kBroadcastNode;
  cp.mode = msg::ControlMode::kDirect;
  f.payload = cp;
  EXPECT_FALSE(RadioMedium::frame_wants_ack(f));
}

TEST_F(MediumTest, OutOfRangeNodeNeverReceives) {
  build(2, 200.0);  // 200 m at exponent 4: far below sensitivity
  medium_->set_listening(1, true);
  for (int i = 0; i < 20; ++i) {
    medium_->transmit(0, beacon_frame(0));
    sim_.run();
  }
  EXPECT_TRUE(listeners_[1]->received.empty());
}

TEST_F(MediumTest, ChannelEnergyRisesDuringTransmission) {
  build(2, 5.0);
  medium_->set_listening(1, true);
  const double idle = medium_->channel_energy_dbm(1);
  EXPECT_LT(idle, -90.0);
  medium_->transmit(0, beacon_frame(0));
  // Signal at 5 m, exponent 4, PL0 40 dB: loss 68 dB -> about -68 dBm.
  const double busy = medium_->channel_energy_dbm(1);
  EXPECT_GT(busy, -70.0);
  sim_.run();
}

TEST_F(MediumTest, LinkOffsetBypassesThePowerMemo) {
  // A short line keeps the per-link power memo; 300 nodes is above its
  // 256-node cutoff and computes every link afresh. On both, an offset must
  // show in CCA right away and vanish exactly once it is undone: a memo that
  // cached the faulted power would still read low afterwards.
  for (const int nodes : {4, 300}) {
    SCOPED_TRACE(nodes);
    build(nodes, 5.0);
    medium_->set_listening(1, true);
    medium_->transmit(0, beacon_frame(0));
    const double clean = medium_->channel_energy_dbm(1);
    medium_->add_link_loss_db(0, 1, 20.0);
    const double faulted = medium_->channel_energy_dbm(1);
    // Signal -68 dBm -> -88 dBm over the -98 dBm floor: about 19.6 dB down.
    EXPECT_NEAR(clean - faulted, 20.0, 1.0);
    medium_->add_link_loss_db(0, 1, -20.0);
    EXPECT_EQ(medium_->channel_energy_dbm(1), clean);
    sim_.run();

    // The same link read faulted before it is ever read clean.
    build(nodes, 5.0);
    medium_->set_listening(1, true);
    medium_->add_link_loss_db(0, 1, 20.0);
    medium_->transmit(0, beacon_frame(0));
    EXPECT_EQ(medium_->channel_energy_dbm(1), faulted);
    medium_->add_link_loss_db(0, 1, -20.0);
    EXPECT_EQ(medium_->channel_energy_dbm(1), clean);
    sim_.run();
  }
}

TEST_F(MediumTest, CollisionDegradesMiddleReceiver) {
  // Nodes 0 and 2 transmit simultaneously; node 1 sits between them at equal
  // distance, so SINR ~ 0 dB -> reception must essentially always fail.
  build(3, 5.0);
  medium_->set_listening(1, true);
  int received = 0;
  for (int i = 0; i < 50; ++i) {
    medium_->transmit(0, beacon_frame(0));
    medium_->transmit(2, beacon_frame(2));
    sim_.run();
    received += static_cast<int>(listeners_[1]->received.size());
    listeners_[1]->received.clear();
  }
  EXPECT_LE(received, 2);
}

TEST_F(MediumTest, CaptureWhenInterfererIsWeak) {
  // Interferer is 4x farther: SINR is high, reception should survive.
  std::vector<Position> pos{{0, 0}, {5, 0}, {25, 0}};
  PathLossConfig pl;
  pl.exponent = 4.0;
  pl.loss_at_reference_db = 40.0;
  pl.shadowing_sigma_db = 0.0;
  gains_ = std::make_unique<LinkGainTable>(pos, pl, 1);
  noise_ = std::make_unique<CpmNoiseModel>(quiet_noise());
  MediumConfig cfg;
  cfg.tx_power_dbm = 0.0;
  medium_ = std::make_unique<RadioMedium>(sim_, *gains_, *noise_, cfg, 7);
  listeners_.clear();
  for (int i = 0; i < 3; ++i) {
    listeners_.push_back(std::make_unique<FakeListener>());
    medium_->attach(static_cast<NodeId>(i), *listeners_.back());
  }
  medium_->set_listening(1, true);
  int received = 0;
  for (int i = 0; i < 20; ++i) {
    medium_->transmit(0, beacon_frame(0));
    medium_->transmit(2, beacon_frame(2));
    sim_.run();
    received += static_cast<int>(listeners_[1]->received.size());
    listeners_[1]->received.clear();
  }
  EXPECT_GE(received, 18);  // locked onto 0 first, 2 is 40 dB weaker
}

TEST_F(MediumTest, TransmitHookSeesEveryCopy) {
  build(2, 5.0);
  int copies = 0;
  medium_->set_transmit_hook(
      [&copies](NodeId, const Frame&, SimTime) { ++copies; });
  medium_->transmit(0, beacon_frame(0));
  sim_.run();
  medium_->transmit(0, beacon_frame(0));
  sim_.run();
  EXPECT_EQ(copies, 2);
  EXPECT_EQ(medium_->total_transmissions(), 2u);
}

TEST_F(MediumTest, TransmitterCannotReceiveWhileSending) {
  build(2, 5.0);
  medium_->set_listening(0, true);
  medium_->set_listening(1, true);
  medium_->transmit(0, beacon_frame(0));
  medium_->transmit(1, beacon_frame(1));
  sim_.run();
  // Both were transmitting through each other's frames: neither receives.
  EXPECT_TRUE(listeners_[0]->received.empty());
  EXPECT_TRUE(listeners_[1]->received.empty());
}

TEST_F(MediumTest, ReceivingStateIsVisible) {
  build(2, 5.0);
  medium_->set_listening(1, true);
  EXPECT_FALSE(medium_->receiving(1));
  medium_->transmit(0, beacon_frame(0));
  EXPECT_TRUE(medium_->receiving(1));
  sim_.run();
  EXPECT_FALSE(medium_->receiving(1));
}

TEST_F(MediumTest, TransmitFromOnFrameKeepsTheFinishingFrameValid) {
  // Node 1 answers node 0's frame from inside on_frame, before node 2 has
  // been resolved: the medium records a new transmission while it is still
  // delivering the old one, which must stay intact for node 2.
  build(3, 5.0);
  medium_->set_listening(1, true);
  medium_->set_listening(2, true);
  listeners_[1]->on_receive = [this] { medium_->transmit(1, beacon_frame(1)); };
  medium_->transmit(0, beacon_frame(0));
  sim_.run();
  ASSERT_EQ(listeners_[1]->received.size(), 1u);
  ASSERT_EQ(listeners_[2]->received.size(), 1u);
  EXPECT_EQ(listeners_[2]->received[0].src, 0);
  EXPECT_EQ(listeners_[2]->received[0].link_seq, 1u);
  EXPECT_EQ(listeners_[0]->tx_done_count, 1);
  EXPECT_EQ(listeners_[1]->tx_done_count, 1);
}

TEST_F(MediumTest, FinishedShortFrameStillCorruptsOverlappingLongFrame) {
  // Node 0 sends a long frame to listener 1 (10 m: clean on its own). Node 2,
  // 2 m from the listener, sends a short frame that starts after the long
  // one and finishes before it. The short frame is history by the time the
  // long one is resolved, but it overlapped it and must still count.
  auto long_frame = [this] {
    Frame f = data_frame(0, kBroadcastNode);
    auto& data = std::get<msg::CtpData>(f.payload);
    data.is_control_ack = true;
    data.has_health = true;
    return f;
  };
  const SimTime long_air = Cc2420Phy::airtime(wire_size_bytes(long_frame()));
  const SimTime short_air = Cc2420Phy::airtime(wire_size_bytes(beacon_frame(2)));
  const SimTime delay = 100 * kMicrosecond;
  ASSERT_LT(delay + short_air, long_air);

  for (const bool interfere : {false, true}) {
    build_at({{0.0, 0.0}, {10.0, 0.0}, {12.0, 0.0}});
    medium_->set_listening(1, true);
    medium_->transmit(0, long_frame());
    if (interfere) {
      sim_.schedule_in(delay, [this] { medium_->transmit(2, beacon_frame(2)); });
    }
    sim_.run();
    EXPECT_EQ(listeners_[1]->received.size(), interfere ? 0u : 1u)
        << (interfere ? "with" : "without") << " the short frame";
  }
}

TEST_F(MediumTest, LocksIdleCandidatesInAscendingIdOrder) {
  // 150 nodes over three 64-bit words of the candidate rows: a cluster
  // within 10 m of node 0, and ten nodes (100-109) far out of range.
  std::vector<Position> pos;
  for (int i = 0; i < 150; ++i) {
    const bool far = i >= 100 && i < 110;
    pos.push_back(far ? Position{1000.0 + i, 0.0}
                      : Position{(i % 10) * 0.8, (i / 10) * 0.5});
  }
  build_at(pos);
  std::vector<NodeId> heard;
  for (int i = 1; i < 150; ++i) {
    if (i % 7 != 3) medium_->set_listening(static_cast<NodeId>(i), true);
    listeners_[static_cast<std::size_t>(i)]->on_receive = [&heard, i] {
      heard.push_back(static_cast<NodeId>(i));
    };
  }
  medium_->add_link_loss_db(0, 70, RadioMedium::kBlackoutLossDb);
  medium_->add_link_loss_db(0, 71, 5.0);  // weaker, still within the cutoff
  medium_->transmit(0, beacon_frame(0));

  std::vector<NodeId> expected;
  for (int i = 1; i < 150; ++i) {
    const auto id = static_cast<NodeId>(i);
    const bool locks = i % 7 != 3 && (i < 100 || i >= 110) && i != 70;
    EXPECT_EQ(medium_->receiving(id), locks) << "node " << i;
    if (locks) expected.push_back(id);
  }
  sim_.run();
  EXPECT_EQ(heard, expected);
}

TEST_F(MediumTest, NodesLockedElsewhereOrInAnAckWindowDoNotLock) {
  // Node 1 is locked to node 2's frame (1 m away) when node 0 (10 m away)
  // starts: it keeps the first lock and decodes node 2 over node 0.
  build_at({{0.0, 0.0}, {10.0, 0.0}, {11.0, 0.0}});
  medium_->set_listening(1, true);
  medium_->transmit(2, beacon_frame(2));
  medium_->transmit(0, beacon_frame(0));
  sim_.run();
  ASSERT_EQ(listeners_[1]->received.size(), 1u);
  EXPECT_EQ(listeners_[1]->received[0].src, 2);

  // A unicast sender waits out its ack window after the frame; a frame
  // starting then does not lock it, one starting after the window does.
  medium_->set_listening(2, true);
  const Frame unicast = data_frame(1, 2);
  const SimTime air = Cc2420Phy::airtime(wire_size_bytes(unicast));
  medium_->transmit(1, unicast);
  sim_.run_until(sim_.now() + air);
  ASSERT_TRUE(medium_->transmitting(1));
  medium_->transmit(0, beacon_frame(0));
  EXPECT_FALSE(medium_->receiving(1));
  sim_.run();
  EXPECT_FALSE(medium_->transmitting(1));
  medium_->transmit(0, beacon_frame(0));
  EXPECT_TRUE(medium_->receiving(1));
  sim_.run();
}

TEST_F(MediumTest, CcaDuringOnFrameSeesOnlyFramesInFlight) {
  // Node 1 answers node 0's frame from on_frame; node 2, half a metre from
  // node 1, is resolved next. Node 1's frame starts as node 0's ends, so it
  // must not corrupt node 2's copy, yet it is on air for node 2's CCA.
  // Node 0's finished frame no longer counts for anyone's CCA.
  build_at({{0.0, 0.0}, {10.0, 0.0}, {10.5, 0.0}});
  medium_->set_listening(1, true);
  medium_->set_listening(2, true);
  const double idle = medium_->channel_energy_dbm(1);
  double cca1 = 0.0;
  double cca2 = 0.0;
  listeners_[1]->on_receive = [&] {
    cca1 = medium_->channel_energy_dbm(1);
    medium_->transmit(1, beacon_frame(1));
  };
  listeners_[2]->on_receive = [&] { cca2 = medium_->channel_energy_dbm(2); };
  medium_->transmit(0, beacon_frame(0));
  sim_.run();
  ASSERT_EQ(listeners_[2]->received.size(), 1u);
  EXPECT_EQ(listeners_[2]->received[0].src, 0);
  EXPECT_EQ(cca1, idle);  // flat noise floor, nothing in flight
  EXPECT_GT(cca2, -45.0);  // node 1's frame at 0.5 m
}

TEST_F(MediumTest, CcaEqualsTheFullNoisePath) {
  // Bursty CPM noise; nodes 0 and 2 send a beacon every 2 ms (node 2
  // 0.25 ms later), node 1 one every 8 ms, and node 1's CCA is checked
  // every 0.25 ms against the noise floor plus each other node's frame in
  // flight, in start order. Five 80 ms phases: plain, injected noise at
  // node 1, WiFi, WiFi plus injected noise, plain again. Every shortcut
  // (no WiFi, WiFi off; with or without a frame in flight) and every full
  // path (WiFi on, injected noise) must give the same bits.
  heavy_noise_ = true;
  build(3, 5.0);
  const SimTime beacon_air =
      Cc2420Phy::airtime(wire_size_bytes(beacon_frame(0)));
  ASSERT_LT(beacon_air, 1500 * kMicrosecond);
  WifiInterferer wifi({}, 3, 11);
  // Checks per (WiFi absent/off/on, injected noise, other frames in flight).
  int seen[3][2][2] = {};
  int only_own_frame = 0;
  int mismatches = 0;
  for (SimTime t = 0; t < 400 * kMillisecond; t += 250 * kMicrosecond) {
    sim_.run_until(t);
    if (t == 80 * kMillisecond) medium_->set_extra_noise_dbm(1, -85.0);
    if (t == 160 * kMillisecond) {
      medium_->clear_extra_noise(1);
      medium_->set_interferer(&wifi);
    }
    if (t == 240 * kMillisecond) medium_->set_extra_noise_dbm(1, -85.0);
    if (t == 320 * kMillisecond) {
      medium_->clear_extra_noise(1);
      medium_->set_interferer(nullptr);
    }
    const SimTime phase = t % (2 * kMillisecond);
    if (phase == 0) medium_->transmit(0, beacon_frame(0));
    if (phase == 250 * kMicrosecond) medium_->transmit(2, beacon_frame(2));
    if (t % (8 * kMillisecond) == 1750 * kMicrosecond) {
      medium_->transmit(1, beacon_frame(1));
    }
    double mw = dbm_to_mw(medium_->noise_dbm(1));
    int others = 0;
    for (const NodeId src : {NodeId{0}, NodeId{2}}) {
      if (medium_->transmitting(src)) {
        mw += dbm_to_mw(gains_->rssi_dbm(src, 1, 0.0));
        ++others;
      }
    }
    if (medium_->channel_energy_dbm(1) != mw_to_dbm(mw)) ++mismatches;
    const bool wifi_attached =
        t >= 160 * kMillisecond && t < 320 * kMillisecond;
    const int wifi_state = !wifi_attached ? 0 : wifi.on_at(t) ? 2 : 1;
    const bool extra = (t >= 80 * kMillisecond && t < 160 * kMillisecond) ||
                       (t >= 240 * kMillisecond && t < 320 * kMillisecond);
    ++seen[wifi_state][extra ? 1 : 0][others > 0 ? 1 : 0];
    if (others == 0 && medium_->transmitting(1)) ++only_own_frame;
  }
  EXPECT_EQ(mismatches, 0);
  for (int w = 0; w < 3; ++w) {
    for (int e = 0; e < 2; ++e) {
      for (int b = 0; b < 2; ++b) {
        EXPECT_GT(seen[w][e][b], 0) << "wifi " << w << " extra " << e
                                    << " busy " << b;
      }
    }
  }
  EXPECT_GT(only_own_frame, 0);
}

}  // namespace
}  // namespace telea
