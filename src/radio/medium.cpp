#include "radio/medium.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

#include "radio/phy.hpp"
#include "util/dbm.hpp"
#include "util/logging.hpp"

namespace telea {

namespace {

/// Largest N x N per-link power memo the medium keeps: N <= 256, 512 KiB of
/// doubles, which covers every paper topology. The cutoff is a memory
/// bound, not a reuse one. The first simulated second of a 1000-node field
/// sums ~80M terms over its 999,000 links, ~80 reads per link, and a dense
/// 8 MB memo there cut that boot's wall time by two thirds (1.85 -> 0.64 s)
/// but raised its peak RSS from 21.6 to 29.2 MB (+35%). A capped hashed
/// cache hit only 12-55% of lookups at 2^16-2^19 entries.
constexpr std::size_t kLinkMemoMaxEntries = 65536;

/// A CCA's noise floor, dbm_to_mw(noise_dbm()) with no injected noise, for
/// one interferer state at each CPM reading, and that floor back in dBm: the
/// CCA result when no other node's frame is in flight.
struct CcaFloor {
  std::array<double, 256> mw;
  std::array<double, 256> dbm;
};

/// Powers of the 256 possible CPM readings, indexed by reading + 128.
struct NoiseTables {
  std::array<double, 256> mw;  // dbm_to_mw(reading)
  CcaFloor no_wifi;            // no interferer
  CcaFloor wifi_off;           // an interferer, off: its floor adds in
};

NoiseTables make_noise_tables() {
  NoiseTables t{};
  const double wifi_off_mw = dbm_to_mw(WifiInterferer::kOffFloorDbm);
  for (std::size_t i = 0; i < 256; ++i) {
    t.mw[i] = dbm_to_mw(static_cast<double>(static_cast<int>(i) - 128));
    // noise_dbm()'s sum (CPM + no injected noise [+ interferer]), round
    // tripped through dBm.
    t.no_wifi.mw[i] = dbm_to_mw(mw_to_dbm(t.mw[i] + 0.0));
    t.wifi_off.mw[i] = dbm_to_mw(mw_to_dbm(t.mw[i] + 0.0 + wifi_off_mw));
    t.no_wifi.dbm[i] = mw_to_dbm(t.no_wifi.mw[i]);
    t.wifi_off.dbm[i] = mw_to_dbm(t.wifi_off.mw[i]);
  }
  return t;
}

const NoiseTables kNoiseTables = make_noise_tables();

std::size_t reading_index(std::int8_t reading) noexcept {
  return static_cast<std::size_t>(reading + 128);
}

/// Node id of the lowest set bit in word `w` of a node bit set.
NodeId lowest_node(std::size_t w, std::uint64_t bits) noexcept {
  return static_cast<NodeId>(
      w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
}

}  // namespace

RadioMedium::RadioMedium(Simulator& sim, const LinkGainTable& gains,
                         const CpmNoiseModel& noise, const MediumConfig& config,
                         std::uint64_t seed)
    : sim_(&sim),
      gains_(&gains),
      config_(config),
      nodes_(gains.node_count()),
      rng_(seed, /*stream=*/0x4D454449ULL) {
  noise_.reserve(gains.node_count());
  for (std::size_t i = 0; i < gains.node_count(); ++i) {
    noise_.push_back(noise.make_generator(seed ^ (i * 0x9E3779B97F4A7C15ULL),
                                          /*stream=*/i + 1));
  }
  if (config_.max_loss_db <= 0.0) {
    config_.max_loss_db = config_.tx_power_dbm - Cc2420Phy::kSensitivityDbm +
                          config_.cutoff_margin_db;
  }
  const std::size_t n = gains.node_count();
  const double cutoff = config_.max_loss_db;
  words_ = (n + 63) / 64;
  rx_rows_.assign(n * words_, 0);
  lockable_.assign(words_, 0);
  for (NodeId tx = 0; tx < n; ++tx) {
    std::uint64_t* row = &rx_rows_[tx * words_];
    for (NodeId rx = 0; rx < n; ++rx) {
      if (rx != tx && gains.loss_db(tx, rx) <= cutoff) {
        row[rx / 64] |= std::uint64_t{1} << (rx % 64);
      }
    }
  }
  if (n * n <= kLinkMemoMaxEntries) link_mw_.assign(n * n, kLinkMwUnset);
}

std::vector<NodeId> RadioMedium::neighbors_within(NodeId tx) const {
  std::vector<NodeId> out;
  for (std::size_t w = 0; w < words_; ++w) {
    for (std::uint64_t bits = rx_rows_[tx * words_ + w]; bits != 0;
         bits &= bits - 1) {
      out.push_back(lowest_node(w, bits));
    }
  }
  return out;
}

void RadioMedium::attach(NodeId id, MediumListener& listener) {
  assert(id < nodes_.size());
  nodes_[id].listener = &listener;
}

double RadioMedium::effective_loss_db(NodeId tx, NodeId rx) const {
  double loss = gains_->loss_db(tx, rx);
  if (!link_offsets_.empty()) {
    const auto it = link_offsets_.find(link_key(tx, rx));
    if (it != link_offsets_.end()) loss += it->second;
  }
  return loss;
}

double RadioMedium::rssi_dbm(NodeId tx, NodeId rx) const {
  double rssi = gains_->rssi_dbm(tx, rx, config_.tx_power_dbm);
  if (!link_offsets_.empty()) {
    const auto it = link_offsets_.find(link_key(tx, rx));
    if (it != link_offsets_.end()) rssi -= it->second;
  }
  return rssi;
}

void RadioMedium::add_link_loss_db(NodeId a, NodeId b, double extra_db) {
  if (a >= nodes_.size() || b >= nodes_.size() || a == b) return;
  const double offset = (link_offsets_[link_key(a, b)] += extra_db);
  // Drop neutralized entries so the hot-path empty() check recovers.
  if (offset > -1e-9 && offset < 1e-9) link_offsets_.erase(link_key(a, b));
}

double RadioMedium::link_loss_offset_db(NodeId a, NodeId b) const {
  const auto it = link_offsets_.find(link_key(a, b));
  return it == link_offsets_.end() ? 0.0 : it->second;
}

void RadioMedium::set_extra_noise_dbm(NodeId id, double dbm) {
  if (id >= nodes_.size()) return;
  if (extra_noise_mw_.empty()) extra_noise_mw_.assign(nodes_.size(), 0.0);
  extra_noise_mw_[id] = dbm_to_mw(dbm);
}

void RadioMedium::clear_extra_noise(NodeId id) {
  if (id < extra_noise_mw_.size()) extra_noise_mw_[id] = 0.0;
}

void RadioMedium::set_listening(NodeId id, bool listening) {
  NodeState& st = nodes_[id];
  if (st.listening == listening) return;
  st.listening = listening;
  if (!listening) st.locked_tx = 0;  // sleeping aborts any in-flight reception
  refresh(id);
}

bool RadioMedium::frame_wants_ack(const Frame& frame) noexcept {
  if (!frame.is_broadcast()) return true;
  if (const auto* cp = std::get_if<msg::ControlPacket>(&frame.payload)) {
    // Opportunistic control packets are link-layer anycast: broadcast
    // addressing, but any eligible overhearer claims them with an ack.
    return cp->mode == msg::ControlMode::kOpportunistic;
  }
  // Group control packets and ORPL downward data are always anycast.
  return std::holds_alternative<msg::GroupControlPacket>(frame.payload) ||
         std::holds_alternative<msg::OrplData>(frame.payload);
}

void RadioMedium::transmit(NodeId src, Frame frame) {
  NodeState& st = nodes_[src];
  assert(st.listener != nullptr && "transmit() before attach()");
  assert(!st.txing && "MAC started a transmission while one is in flight");
  st.txing = true;
  st.locked_tx = 0;  // transmitting aborts any in-flight reception
  refresh(src);

  const std::size_t mpdu = wire_size_bytes(frame);
  const SimTime airtime = Cc2420Phy::airtime(mpdu);
  const SimTime start = sim_->now();
  const std::uint64_t id = next_tx_id_++;

  ++total_transmissions_;
  for (const auto& hook : transmit_hooks_) hook(src, frame, airtime);

  ActiveTx* tx = nullptr;
  if (free_txs_.empty()) {
    tx = &tx_pool_.emplace_back();
  } else {
    tx = free_txs_.back();
    free_txs_.pop_back();
  }
  tx->id = id;
  tx->src = src;
  tx->start = start;
  tx->end = start + airtime;
  tx->frame = std::move(frame);
  tx->receivers.clear();

  // Lock every in-range idle listener to this transmission. Nodes already
  // locked to an earlier frame keep that lock; this frame only interferes.
  const std::uint64_t* row = &rx_rows_[src * words_];
  for (std::size_t w = 0; w < words_; ++w) {
    for (std::uint64_t bits = row[w] & lockable_[w]; bits != 0;
         bits &= bits - 1) {
      const NodeId nb = lowest_node(w, bits);
      // An injected link fault can push a statically-in-range link below
      // the cutoff: such a receiver never even locks onto the preamble.
      if (!link_offsets_.empty() &&
          effective_loss_db(src, nb) > config_.max_loss_db) {
        continue;
      }
      nodes_[nb].locked_tx = id;
      refresh(nb);
      tx->receivers.push_back(nb);
    }
  }

  history_.push_back(tx);
  in_flight_.push_back(tx);
  sim_->schedule_at(tx->end, [this, tx] { finish_tx(*tx); },
                    "radio.finish_tx");
}

void RadioMedium::collect_overlaps(const ActiveTx& tx) {
  overlaps_.clear();
  const double duration = static_cast<double>(tx.end - tx.start);
  if (duration <= 0) return;
  for (const ActiveTx* other : history_) {
    if (other == &tx) continue;
    const SimTime ov_start = std::max(tx.start, other->start);
    const SimTime ov_end = std::min(tx.end, other->end);
    if (ov_end <= ov_start) continue;
    overlaps_.push_back(
        Overlap{other->src, static_cast<double>(ov_end - ov_start) / duration});
  }
}

double RadioMedium::cpm_noise_mw(NodeId id) {
  return kNoiseTables.mw[reading_index(noise_[id].noise_dbm(sim_->now()))];
}

void RadioMedium::finish_tx(ActiveTx& tx) {
  in_flight_.erase(std::find(in_flight_.begin(), in_flight_.end(), &tx));
  const SimTime now = sim_->now();
  const std::size_t mpdu = wire_size_bytes(tx.frame);

  // Resolve reception at every receiver still locked to this transmission.
  // `tx` is stable storage: on_frame may transmit (growing the pool and the
  // history) without moving it. A frame sent from on_frame starts at
  // tx.end and so overlaps nothing here: the overlap list, built at the
  // first receiver, holds for all of them.
  bool overlaps_listed = false;
  struct Acker {
    NodeId id;
    double rssi_at_src_dbm;
  };
  std::vector<Acker> ackers;
  for (const NodeId rx_id : tx.receivers) {
    NodeState& rx = nodes_[rx_id];
    if (rx.locked_tx != tx.id) continue;  // slept or transmitted since
    rx.locked_tx = 0;
    refresh(rx_id);
    if (!overlaps_listed) {
      collect_overlaps(tx);
      overlaps_listed = true;
    }

    const double signal_dbm = rssi_dbm(tx.src, rx_id);
    double noise_mw = cpm_noise_mw(rx_id) + extra_noise_mw(rx_id);
    if (interferer_ != nullptr) {
      noise_mw += interferer_->power_mw_at(rx_id, now);
    }
    // Mean interference power over tx's airtime from every other frame.
    double interf_mw = 0.0;
    for (const Overlap& o : overlaps_) {
      if (o.src != rx_id) interf_mw += link_mw(o.src, rx_id) * o.frac;
    }
    const double sinr = signal_dbm - mw_to_dbm(noise_mw + interf_mw);
    // Capture model: interference-limited receptions need to clear the
    // co-channel rejection threshold (see MediumConfig).
    if (interf_mw > noise_mw && sinr < config_.capture_threshold_db) continue;
    const double prr =
        Cc2420Phy::packet_reception_ratio(sinr, signal_dbm, mpdu);
    if (!rng_.chance(prr)) continue;

    const AckDecision decision = rx.listener->on_frame(tx.frame, signal_dbm);
    if (decision == AckDecision::kAcceptAndAck) {
      ackers.push_back(Acker{rx_id, rssi_dbm(rx_id, tx.src)});
    }
  }

  const NodeId src = tx.src;
  if (!frame_wants_ack(tx.frame)) {
    nodes_[src].txing = false;
    refresh(src);
    nodes_[src].listener->on_tx_done(false, kInvalidNode);
    prune_history();
    return;
  }

  // Acknowledgement window: turnaround + ack airtime. Multiple simultaneous
  // ackers collide; the strongest captures only if it clears the sum of the
  // others by the capture threshold, then must still pass the PRR draw.
  bool acked = false;
  NodeId acker_id = kInvalidNode;
  if (!ackers.empty()) {
    auto strongest = std::max_element(
        ackers.begin(), ackers.end(), [](const Acker& a, const Acker& b) {
          return a.rssi_at_src_dbm < b.rssi_at_src_dbm;
        });
    double others_mw = 0.0;
    for (const auto& a : ackers) {
      if (a.id != strongest->id) others_mw += dbm_to_mw(a.rssi_at_src_dbm);
    }
    double floor_mw = cpm_noise_mw(src) + extra_noise_mw(src);
    if (interferer_ != nullptr) {
      floor_mw += interferer_->power_mw_at(src, now);
    }
    const bool captured =
        others_mw <= 0.0 ||
        strongest->rssi_at_src_dbm - mw_to_dbm(others_mw) >=
            config_.ack_capture_db;
    if (captured) {
      const double sinr =
          strongest->rssi_at_src_dbm - mw_to_dbm(floor_mw + others_mw);
      const double prr = Cc2420Phy::packet_reception_ratio(
          sinr, strongest->rssi_at_src_dbm, Cc2420Phy::kAckMpduBytes);
      if (rng_.chance(prr)) {
        acked = true;
        acker_id = strongest->id;
      }
    }
  }

  const SimTime ack_window =
      Cc2420Phy::kTurnaroundTime + Cc2420Phy::ack_airtime();
  sim_->schedule_in(
      ack_window,
      [this, src, acked, acker_id] {
        nodes_[src].txing = false;
        refresh(src);
        nodes_[src].listener->on_tx_done(acked, acker_id);
      },
      "radio.ack_window");
  prune_history();
}

void RadioMedium::prune_history() {
  // A reception window is the airtime of a frame in flight (or of a future
  // frame, starting no earlier than now), so a finished frame that ended at
  // or before the oldest in-flight start overlaps none of them. Frames from
  // the oldest in-flight one on started at or after that horizon and stay.
  const bool airborne = !in_flight_.empty();
  const auto oldest =
      airborne ? std::find(history_.begin(), history_.end(), in_flight_.front())
               : history_.end();
  const SimTime horizon = airborne ? in_flight_.front()->start : sim_->now();
  const auto kept = std::remove_if(
      history_.begin(), oldest, [this, horizon](ActiveTx* tx) {
        if (tx->end > horizon) return false;
        free_txs_.push_back(tx);
        return true;
      });
  history_.erase(kept, oldest);
}

double RadioMedium::noise_dbm(NodeId id) {
  double mw = cpm_noise_mw(id) + extra_noise_mw(id);
  if (interferer_ != nullptr) mw += interferer_->power_mw_at(id, sim_->now());
  return mw_to_dbm(mw);
}

double RadioMedium::channel_energy_dbm(NodeId id) {
  const SimTime now = sim_->now();
  // With no injected noise and no interferer on, the noise floor comes from
  // a table; with no other frame in flight, so does the result.
  const CcaFloor* floor = nullptr;
  if (extra_noise_mw(id) == 0.0) {
    if (interferer_ == nullptr) {
      floor = &kNoiseTables.no_wifi;
    } else if (!interferer_->on_at(now)) {
      floor = &kNoiseTables.wifi_off;
    }
  }
  std::size_t reading = 0;
  double mw = 0.0;
  if (floor != nullptr) {
    reading = reading_index(noise_[id].noise_dbm(now));
    mw = floor->mw[reading];
  } else {
    mw = dbm_to_mw(noise_dbm(id));
  }
  bool busy = false;
  for (const ActiveTx* tx : in_flight_) {
    if (tx->src != id) {
      mw += link_mw(tx->src, id);
      busy = true;
    }
  }
  return floor != nullptr && !busy ? floor->dbm[reading] : mw_to_dbm(mw);
}

}  // namespace telea
