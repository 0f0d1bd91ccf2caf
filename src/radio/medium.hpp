#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "radio/interferer.hpp"
#include "radio/noise.hpp"
#include "radio/packet.hpp"
#include "radio/propagation.hpp"
#include "sim/simulator.hpp"
#include "util/dbm.hpp"

namespace telea {

/// What a node that decoded a frame copy wants to do with it. TeleAdjusting's
/// opportunistic forwarding hinges on kAcceptAndAck from nodes that are *not*
/// the link-layer addressee (anycast): any eligible overhearer may claim the
/// packet by acknowledging (paper Sec. III-C2).
enum class AckDecision : std::uint8_t {
  kIgnore,        // drop silently (still overheard it; caller already acted)
  kAccept,        // consume, no acknowledgement (broadcast receptions)
  kAcceptAndAck,  // consume and acknowledge the transmitter
};

/// Per-node interface the MAC implements to talk to the shared medium.
class MediumListener {
 public:
  virtual ~MediumListener() = default;

  /// A frame copy was decoded at this node. `rssi_dbm` is the received
  /// power. The return value drives link-layer acknowledgement.
  virtual AckDecision on_frame(const Frame& frame, double rssi_dbm) = 0;

  /// This node's own transmission copy (and its ack window) completed.
  /// `acked` is true when an acknowledgement was successfully decoded;
  /// `acker` identifies who claimed the frame (valid only when acked).
  virtual void on_tx_done(bool acked, NodeId acker) = 0;
};

struct MediumConfig {
  double tx_power_dbm = -28.0;  // CC2420 PA level 2 (paper's testbed setting)
  /// Candidate-receiver cutoff: links lossier than this are never considered
  /// (guaranteed below sensitivity even at zero noise).
  double max_loss_db = 0.0;  // 0 means derive from tx power and sensitivity
  /// Extra margin (dB) past sensitivity for the neighbor cutoff derivation.
  double cutoff_margin_db = 3.0;
  /// Capture threshold for colliding acknowledgements: the strongest acker
  /// must clear the sum of the others by this much to be decodable.
  double ack_capture_db = 3.0;
  /// Co-channel rejection: when structured interference (concurrent 802.15.4
  /// transmissions) dominates the noise floor, the signal must clear the
  /// floor by this margin or reception fails outright. The analytic DSSS BER
  /// formula alone is far too forgiving for collisions (~0.9 PRR at 0 dB
  /// SINR); the CC2420 datasheet puts co-channel rejection near 3 dB.
  double capture_threshold_db = 3.0;
};

/// The shared wireless channel: packet-granularity SINR arbitration in the
/// style of TOSSIM. A transmission locks every in-range listening radio at
/// its start; at its end, each locked receiver samples CPM noise, sums the
/// power of all overlapping transmissions (energy-weighted by overlap) plus
/// WiFi interference, and draws reception from the CC2420 PRR curve.
///
/// Cost structure. Each node's candidate receivers (links within the loss
/// cutoff) are one bit row, built once; the medium also keeps the set of
/// nodes that could lock right now (listening, not transmitting, not
/// locked), updated wherever one of those three changes. A transmission
/// locks the set bits of its row AND that set, in ascending id, and
/// records them, so finishing it visits only them. The transmission
/// history holds the frames in flight plus the finished ones that still
/// overlap one: a finished frame is dropped once its end is at or before
/// the start of the oldest frame in flight, since no present or future
/// reception window can overlap it. The history stays in start order.
/// Finishing a frame lists its overlapping frames (source, overlap
/// fraction) once, in history order, and each receiver sums that list, so
/// every interference sum adds the same terms in the same order as a walk
/// over the unpruned history would. CCA sums only the frames in flight,
/// kept in their own start-ordered list.
///
/// Link power memo. The interference and CCA sums add one milliwatt power
/// per overlapping frame, and a boot storm evaluates the same link's power
/// thousands of times (about 2,800 on the 225-node grid). For networks of
/// at most 256 nodes the medium keeps an N x N table of each link's static
/// received power in mW, filled on first use by the same dbm_to_mw
/// expression, so sums read bit-identical values without calling pow.
/// Links carrying an injected offset bypass the table and are computed
/// afresh. Larger networks go without, to bound memory: a 1000-node field's
/// first second reads each of its 999,000 links ~80 times, so a dense 8 MB
/// table would be reused and would cut that boot's wall time by two thirds,
/// but it would raise the boot's peak RSS by a third.
///
/// Noise tables. CPM readings are int8 dBm, so their power in mW is read
/// from a 256-entry table filled by the same dbm_to_mw expression, and the
/// WiFi interferer's power comes in mW from the interferer itself. A CCA at
/// a node with no injected noise whose interferer is absent or off reads its
/// noise floor, the round trip through noise_dbm(), from one of two more
/// such tables (one per interferer state); with no other node's frame in
/// flight it returns that floor's dBm value from a table too, so it calls
/// no libm function. Any other CCA (WiFi on, injected noise) takes the full
/// path.
///
/// Re-entrancy. Listener callbacks (on_frame, on_tx_done) may call
/// transmit() and set_listening() synchronously. A lock broken that way
/// (the receiver slept or started sending) is honoured: finishing a frame
/// checks each recorded receiver's lock before resolving it. Transmission
/// records live in stable storage, so a transmit() from inside on_frame
/// never moves the frame being delivered.
class RadioMedium {
 public:
  RadioMedium(Simulator& sim, const LinkGainTable& gains,
              const CpmNoiseModel& noise, const MediumConfig& config,
              std::uint64_t seed);

  RadioMedium(const RadioMedium&) = delete;
  RadioMedium& operator=(const RadioMedium&) = delete;

  /// Registers the MAC for `id`. Must be called for every node before use.
  void attach(NodeId id, MediumListener& listener);

  /// Optional bursty interferer (WiFi on the paper's channel 19).
  void set_interferer(WifiInterferer* interferer) { interferer_ = interferer; }

  /// Radio on/off (LPL wake/sleep). A radio that turns on mid-transmission
  /// misses that copy — exactly why LPL senders repeat.
  void set_listening(NodeId id, bool listening);
  [[nodiscard]] bool is_listening(NodeId id) const {
    return nodes_[id].listening;
  }

  /// Starts transmitting `frame` from `src`. The MAC must not call this again
  /// for `src` until its on_tx_done fires. Unicast/anycast frames include an
  /// acknowledgement window after the frame airtime.
  void transmit(NodeId src, Frame frame);

  /// True while `src` is mid-transmission (including the ack window).
  [[nodiscard]] bool transmitting(NodeId src) const {
    return nodes_[src].txing;
  }

  /// True while `id`'s radio is locked onto an in-flight frame.
  [[nodiscard]] bool receiving(NodeId id) const {
    return nodes_[id].locked_tx != 0;
  }

  /// Instantaneous channel energy at `id` (noise + all active transmissions
  /// + interferer) for CCA.
  [[nodiscard]] double channel_energy_dbm(NodeId id);

  /// Noise + interference only (no transmissions) — receiver noise floor.
  [[nodiscard]] double noise_dbm(NodeId id);

  /// Whether an acknowledgement window follows this frame (unicast frames
  /// and opportunistic control packets; plain broadcasts are unacked).
  [[nodiscard]] static bool frame_wants_ack(const Frame& frame) noexcept;

  using TransmitHook =
      std::function<void(NodeId src, const Frame& frame, SimTime airtime)>;
  /// Stats hook invoked once per transmitted copy. Replaces all hooks.
  void set_transmit_hook(TransmitHook hook) {
    transmit_hooks_.clear();
    if (hook) transmit_hooks_.push_back(std::move(hook));
  }
  /// Adds a hook alongside any existing ones (tracing + metrics coexist).
  void add_transmit_hook(TransmitHook hook) {
    if (hook) transmit_hooks_.push_back(std::move(hook));
  }

  [[nodiscard]] std::uint64_t total_transmissions() const noexcept {
    return total_transmissions_;
  }

  // --- fault injection (harness) -------------------------------------------
  /// Attenuation guaranteed to put any link below the reception cutoff —
  /// `add_link_loss_db(a, b, kBlackoutLossDb)` severs a link outright.
  static constexpr double kBlackoutLossDb = 500.0;

  /// Adds `extra_db` of attenuation on the (symmetric) link a<->b, on top of
  /// the static gain table. Offsets from multiple causes accumulate; pass a
  /// negative value to undo an earlier degradation. A link whose effective
  /// loss exceeds the neighbor cutoff stops locking receivers entirely.
  void add_link_loss_db(NodeId a, NodeId b, double extra_db);

  /// Current injected offset on a<->b (0 when unperturbed).
  [[nodiscard]] double link_loss_offset_db(NodeId a, NodeId b) const;

  /// Removes every injected link offset.
  void clear_link_faults() { link_offsets_.clear(); }

  /// Injects a constant noise source of `dbm` at `id`'s receiver (a jammer /
  /// co-located appliance); raises its noise floor for receptions, ack
  /// decoding and CCA alike.
  void set_extra_noise_dbm(NodeId id, double dbm);
  /// Removes the injected noise source at `id`.
  void clear_extra_noise(NodeId id);

  [[nodiscard]] const LinkGainTable& gains() const noexcept { return *gains_; }

  /// Nodes whose static loss from `tx` is within the medium's cutoff, in
  /// ascending id order — the candidate receivers of `tx`'s frames
  /// (everything beyond is below sensitivity even at zero noise).
  [[nodiscard]] std::vector<NodeId> neighbors_within(NodeId tx) const;

  [[nodiscard]] double tx_power_dbm() const noexcept {
    return config_.tx_power_dbm;
  }

 private:
  struct ActiveTx {
    std::uint64_t id;
    NodeId src;
    SimTime start;
    SimTime end;
    Frame frame;
    std::vector<NodeId> receivers;  // locked at start, ascending id
  };

  struct NodeState {
    MediumListener* listener = nullptr;
    bool listening = false;
    bool txing = false;
    std::uint64_t locked_tx = 0;  // 0 = not locked
  };

  /// A frame overlapping the one being finished, as its receivers see it.
  struct Overlap {
    NodeId src;
    double frac;  // share of the finishing frame's airtime it overlaps
  };

  void finish_tx(ActiveTx& tx);
  /// Fills overlaps_ with every other frame in the history that overlaps
  /// `tx`, in history order.
  void collect_overlaps(const ActiveTx& tx);
  /// Re-derives `id`'s bit in lockable_ from its NodeState.
  void refresh(NodeId id) noexcept {
    const std::uint64_t bit = std::uint64_t{1} << (id % 64);
    std::uint64_t& word = lockable_[id / 64];
    const NodeState& st = nodes_[id];
    if (st.listening && !st.txing && st.locked_tx == 0) {
      word |= bit;
    } else {
      word &= ~bit;
    }
  }
  /// Drops finished transmissions no reception window can overlap any more.
  void prune_history();

  /// Received power tx->rx including injected link offsets.
  [[nodiscard]] double rssi_dbm(NodeId tx, NodeId rx) const;
  /// Static table loss plus injected offsets (the neighbor-cutoff test).
  [[nodiscard]] double effective_loss_db(NodeId tx, NodeId rx) const;
  [[nodiscard]] static std::uint64_t link_key(NodeId a, NodeId b) noexcept {
    const auto lo = static_cast<std::uint64_t>(a < b ? a : b);
    const auto hi = static_cast<std::uint64_t>(a < b ? b : a);
    return (hi << 32) | lo;
  }
  /// Injected noise at `id` in mW (0 when none).
  [[nodiscard]] double extra_noise_mw(NodeId id) const noexcept {
    return id < extra_noise_mw_.size() ? extra_noise_mw_[id] : 0.0;
  }

  /// Received power tx->rx in mW, dbm_to_mw(rssi_dbm(tx, rx)), read from
  /// the per-link memo where there is one and the link carries no offset.
  /// Inline, so that without a memo each term in the interference and CCA
  /// loops stays a direct rssi_dbm and pow.
  [[nodiscard]] double link_mw(NodeId tx, NodeId rx) {
    if (link_mw_.empty() ||
        (!link_offsets_.empty() && link_offsets_.contains(link_key(tx, rx)))) {
      return dbm_to_mw(rssi_dbm(tx, rx));
    }
    double& mw = link_mw_[static_cast<std::size_t>(rx) * nodes_.size() + tx];
    if (mw == kLinkMwUnset) {
      mw = dbm_to_mw(gains_->rssi_dbm(tx, rx, config_.tx_power_dbm));
    }
    return mw;
  }

  /// Power (mW) of `id`'s CPM noise reading at the current time.
  [[nodiscard]] double cpm_noise_mw(NodeId id);

  Simulator* sim_;
  const LinkGainTable* gains_;
  MediumConfig config_;
  std::vector<NodeState> nodes_;
  // Bit sets over node ids, words_ 64-bit words each: one row of candidate
  // receivers per transmitter, and the nodes able to lock right now.
  std::size_t words_ = 0;
  std::vector<std::uint64_t> rx_rows_;
  std::vector<std::uint64_t> lockable_;
  static constexpr double kLinkMwUnset = -1.0;  // a power is never negative
  // Static received power per link in mW, one row per receiver, filled on
  // first use; empty above the size cutoff (kLinkMemoMaxEntries).
  std::vector<double> link_mw_;
  std::vector<CpmNoiseModel::Generator> noise_;
  // Transmission records: a deque so references stay valid while a listener
  // callback transmits; finished records are recycled through free_txs_.
  std::deque<ActiveTx> tx_pool_;
  std::vector<ActiveTx*> free_txs_;
  std::vector<ActiveTx*> history_;  // in flight + still overlapping, by start
  std::vector<ActiveTx*> in_flight_;  // not yet finished, by start
  std::vector<Overlap> overlaps_;  // finish_tx scratch
  WifiInterferer* interferer_ = nullptr;
  Pcg32 rng_;
  std::uint64_t next_tx_id_ = 1;
  std::uint64_t total_transmissions_ = 0;
  std::vector<TransmitHook> transmit_hooks_;
  // Fault-injection state: sparse so the unperturbed hot path stays a single
  // empty() check per RSSI read.
  std::unordered_map<std::uint64_t, double> link_offsets_;
  std::vector<double> extra_noise_mw_;  // per node, 0 = no injected source
};

}  // namespace telea
