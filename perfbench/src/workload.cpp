// One benchmark trial of one workload, in its own process.
//
//   perfbench_workload --workload NAME [--request-seed N] [--measure 0|1]
//                      [--trace 0|1] [--spans FILE]
//
// Builds the workload's deployment (topology generation + Network
// construction + start), drives its measured simulated window through the
// public harness API (skipped with --measure 0, which only times the
// set-up), and prints one JSON object on stdout:
//
//   setup      host timings of the set-up (topo / ctor / start / total)
//   windows    per run_for window: host wall, simulated end, events, txs
//   outcome    simulated results; bit-identical for identical inputs, and
//              identical between --trace 0 and --trace 1 (probe purity)
//   latencies  simulated command latencies (s), delivered commands only
//   checks     named output checks, each true or false
//   layers     per-layer counters and timings (--trace 1 only)
//
// With --trace 1 the kernel profiler is on and benchmark-side spans (name,
// start, end, parent) are recorded around every call into a layer; they are
// kept in memory and written to --spans when the trial ends. Probes only
// call const accessors, so tracing never perturbs the simulation.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "harness/controller.hpp"
#include "harness/faults.hpp"
#include "harness/network.hpp"
#include "radio/noise.hpp"
#include "radio/propagation.hpp"
#include "stats/metrics.hpp"
#include "stats/spans.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace {

using namespace telea;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- benchmark-side spans --------------------------------------------------

struct SpanRecord {
  std::string name;
  double start_s = 0.0;  // since process start of tracing
  double end_s = 0.0;
  int parent = -1;  // index into the span list, -1 for a root
};

/// In-memory span recorder. Disabled, every operation is a branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  int open(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, seconds_since(origin_), 0.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = seconds_since(origin_);
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  /// Host seconds outside any child span, summed per span name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end_s - spans_[i].start_s;
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -=
            spans_[i].end_s - spans_[i].start_s;
      }
    }
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      by_name[spans_[i].name] += self[i];
    }
    return by_name;
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "[";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                    "\"end_s\":%.9f,\"parent\":%d}",
                    i == 0 ? "" : ",", i, spans_[i].name.c_str(),
                    spans_[i].start_s, spans_[i].end_s, spans_[i].parent);
      out << buf;
    }
    out << "\n]\n";
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  int current_ = -1;
};

/// RAII span around one call into a layer.
class Span {
 public:
  Span(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
  ~Span() { log_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// --- trial record ----------------------------------------------------------

struct Setup {
  double topo_s = 0.0;
  double ctor_s = 0.0;
  double start_s = 0.0;
  [[nodiscard]] double total() const { return topo_s + ctor_s + start_s; }
};

struct Window {
  double wall_s = 0.0;
  double sim_end_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t transmissions = 0;
};

struct Trial {
  Setup setup;
  std::vector<Window> windows;
  std::map<std::string, double> outcome;
  std::vector<double> latencies;
  std::map<std::string, bool> checks;
  std::map<std::string, double> layers;
};

// --- workload definitions --------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t request_seed = 1;  // indoor's command stream
  bool measure = true;
  bool trace = false;
  std::string spans_path;
};

/// One set-up deployment: the network, and the soak's controller.
struct Deployment {
  std::unique_ptr<Network> net;
  std::unique_ptr<Controller> controller;  // soak only
};

/// Seed of every deployment (topology and simulator) and of the soak's
/// fault plan: run_churn_soak's default. Wall time swings 2x with it.
constexpr std::uint64_t kDeploymentSeed = 1;

constexpr std::size_t kFieldNodes = 1000;
constexpr double kFieldSideM = 580.0;  // the soak's node density
constexpr std::size_t kSoakNodes = 24;
constexpr double kSoakSideM = 90.0;

Topology make_topology(const std::string& workload, std::uint64_t seed) {
  if (workload == "grid225_boot") return make_tight_grid(seed);
  if (workload == "indoor_retele_ch19") return make_indoor_testbed(seed);
  if (workload == "field1k_boot") {
    return make_connected_random(kFieldNodes, kFieldSideM, seed);
  }
  return make_connected_random(kSoakNodes, kSoakSideM, seed);
}

NetworkConfig network_config(const std::string& workload, Topology topo,
                             std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.topology = std::move(topo);
  cfg.seed = seed;
  cfg.protocol = ControlProtocol::kReTele;
  cfg.wifi_interference = workload == "indoor_retele_ch19";
  return cfg;
}

/// The soak's observation set: run_churn_soak with invariants, spans,
/// health and timeline on. The timeline itself is armed after warm-up (as
/// run_churn_soak does); its flight recorders are armed here, at set-up.
void enable_soak_observability(Network& net) {
  net.enable_invariants();
  net.enable_tracing(1 << 20);
  net.enable_health(NetworkHealthConfig{});
  net.enable_flight_recorders();
}

Deployment set_up(const Args& args, SpanLog& spans, Setup& timing) {
  Span root(spans, "harness.setup");
  Deployment d;
  auto t0 = Clock::now();
  Topology topo;
  {
    Span s(spans, "topo.generate");
    topo = make_topology(args.workload, kDeploymentSeed);
  }
  timing.topo_s = seconds_since(t0);
  t0 = Clock::now();
  {
    Span s(spans, "harness.network_ctor");
    d.net = std::make_unique<Network>(
        network_config(args.workload, std::move(topo), kDeploymentSeed));
    if (args.workload == "soak_churn_observed") {
      // run_churn_soak's order: the controller claims the sink callbacks
      // before the observers wrap them.
      d.controller = std::make_unique<Controller>(*d.net);
      d.controller->set_use_reported_codes(true);
      enable_soak_observability(*d.net);
    }
  }
  timing.ctor_s = seconds_since(t0);
  t0 = Clock::now();
  {
    Span s(spans, "harness.start");
    d.net->start();
    if (args.workload == "soak_churn_observed") {
      d.net->start_data_collection(1 * kMinute);
    }
  }
  timing.start_s = seconds_since(t0);
  return d;
}

/// Advances `net` by `duration` as one measured window.
void run_window(Network& net, SpanLog& spans, SimTime duration,
                Trial& trial) {
  Span s(spans, "sim.run_for");
  const std::uint64_t tx0 = net.medium().total_transmissions();
  const auto t0 = Clock::now();
  // Network::run_for is exactly this call; the kernel returns the number of
  // events it dispatched.
  const std::uint64_t events = net.sim().run_until(net.sim().now() + duration);
  Window w;
  w.wall_s = seconds_since(t0);
  w.sim_end_s = to_seconds(net.sim().now());
  w.events = events;
  w.transmissions = net.medium().total_transmissions() - tx0;
  trial.windows.push_back(w);
}

double polled_coverage(Network& net, SpanLog& spans) {
  Span s(spans, "core.code_coverage");
  return net.code_coverage();
}

// --- boot workloads ----------------------------------------------------------

constexpr SimTime kGridWindow = 1 * kSecond;
constexpr SimTime kGridCap = 240 * kSecond;
constexpr SimTime kFieldWindow = 50 * kMillisecond;
constexpr SimTime kFieldSpan = 1 * kSecond;

void run_grid_boot(Network& net, SpanLog& spans, Trial& trial) {
  double coverage_at = -1.0;
  while (net.sim().now() < kGridCap) {
    run_window(net, spans, kGridWindow, trial);
    if (polled_coverage(net, spans) >= 1.0) {
      coverage_at = to_seconds(net.sim().now());
      break;
    }
  }
  trial.outcome["coverage_sim_s"] = coverage_at;
  trial.checks["coverage_reached"] = coverage_at > 0.0;
}

void run_field_boot(Network& net, SpanLog& spans, Trial& trial) {
  while (net.sim().now() < kFieldSpan) {
    run_window(net, spans, kFieldWindow, trial);
  }
  std::size_t beaconed = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (net.node(static_cast<NodeId>(i)).ctp().stats().beacons_sent > 0) ++beaconed;
  }
  trial.outcome["nodes_beaconed"] = static_cast<double>(beaconed);
  trial.checks["every_node_beaconed"] = beaconed == net.size();
}

// --- indoor remote control ---------------------------------------------------

constexpr SimTime kIndoorWarmup = 20 * kMinute;
constexpr SimTime kIndoorDuration = 40 * kMinute;
constexpr SimTime kIndoorInterval = 10 * kSecond;
constexpr SimTime kIndoorDataIpi = 10 * kMinute;  // the paper's IPI
constexpr SimTime kIndoorDrain = 2 * kMinute;

bool is_control_frame(const Frame& frame) noexcept {
  return std::holds_alternative<msg::ControlPacket>(frame.payload) ||
         std::holds_alternative<msg::FeedbackPacket>(frame.payload);
}

/// Counts control-plane LPL send operations (distinct source, link seqno) —
/// the paper's Table III quantity. A transmit hook only observes.
std::shared_ptr<std::set<std::uint64_t>> count_control_ops(Network& net) {
  auto ops = std::make_shared<std::set<std::uint64_t>>();
  net.medium().add_transmit_hook([ops](NodeId src, const Frame& frame,
                                       SimTime) {
    if (is_control_frame(frame)) {
      ops->insert((static_cast<std::uint64_t>(src) << 32) | frame.link_seq);
    }
  });
  return ops;
}

/// Polls coverage once per `step` through `duration`; returns the simulated
/// time coverage first read 1.0, or -1.
double run_polled(Network& net, SpanLog& spans, SimTime duration, SimTime step,
                  Trial& trial) {
  double reached = -1.0;
  const SimTime end = net.sim().now() + duration;
  while (net.sim().now() < end) {
    run_window(net, spans, std::min(step, end - net.sim().now()), trial);
    if (reached < 0.0 && polled_coverage(net, spans) >= 1.0) {
      reached = to_seconds(net.sim().now());
    }
  }
  return reached;
}

void run_indoor(Network& net, SpanLog& spans, std::uint64_t request_seed,
                Trial& trial) {
  struct Pending {
    NodeId dest = kInvalidNode;
    SimTime sent_at = 0;
    std::optional<SimTime> delivered_at;
    bool acked = false;
  };
  std::map<std::uint32_t, Pending> pending;  // by control seqno
  for (std::size_t i = 1; i < net.size(); ++i) {
    const auto id = static_cast<NodeId>(i);
    net.node(id).tele()->on_control_delivered =
        [&pending, &net, id](const msg::ControlPacket& p, bool) {
          auto it = pending.find(p.seqno);
          if (it == pending.end() || it->second.dest != id ||
              it->second.delivered_at.has_value()) {
            return;
          }
          it->second.delivered_at = net.sim().now();
        };
  }
  TeleAdjusting& sink = *net.sink().tele();
  sink.on_e2e_ack = [&pending](std::uint32_t seqno, NodeId) {
    if (auto it = pending.find(seqno); it != pending.end()) {
      it->second.acked = true;
    }
  };

  trial.outcome["coverage_sim_s"] =
      run_polled(net, spans, kIndoorWarmup, 1 * kMinute, trial);
  net.reset_accounting();
  const auto control_ops = count_control_ops(net);
  net.start_data_collection(kIndoorDataIpi);

  // Open loop in simulated time: command k is due at phase + k * interval,
  // whatever happened to earlier commands.
  Pcg32 rng(request_seed, 0x1D00);
  const auto last = static_cast<std::uint32_t>(net.size() - 1);
  run_window(net, spans, 1 + rng.uniform(kIndoorInterval - 1), trial);
  const SimTime end = net.sim().now() + kIndoorDuration;
  unsigned attempted = 0;
  unsigned unaddressable = 0;
  while (net.sim().now() < end) {
    const auto dest = static_cast<NodeId>(rng.uniform_in(1, last));
    ++attempted;
    const TeleAdjusting& dest_tele = *net.node(dest).tele();
    std::optional<std::uint32_t> seqno;
    if (dest_tele.addressing().has_code()) {
      Span s(spans, "core.send_control");
      seqno = sink.send_control(dest, dest_tele.addressing().code(),
                                static_cast<std::uint16_t>(attempted));
    }
    if (seqno.has_value()) {
      pending[*seqno] = Pending{dest, net.sim().now(), std::nullopt, false};
    } else {
      ++unaddressable;
    }
    run_window(net, spans, kIndoorInterval, trial);
  }
  run_window(net, spans, kIndoorDrain, trial);
  // The callbacks point into this frame; nothing may call them later.
  for (std::size_t i = 1; i < net.size(); ++i) {
    net.node(static_cast<NodeId>(i)).tele()->on_control_delivered = nullptr;
  }
  sink.on_e2e_ack = nullptr;

  unsigned delivered = 0;
  for (const auto& [seqno, p] : pending) {
    if (p.delivered_at.has_value()) {
      trial.latencies.push_back(to_seconds(*p.delivered_at - p.sent_at));
    }
    if (p.delivered_at.has_value() || p.acked) ++delivered;
  }
  trial.outcome["commands"] = attempted;
  trial.outcome["delivered"] = delivered;
  trial.outcome["unaddressable"] = unaddressable;
  trial.outcome["tx_per_command"] =
      static_cast<double>(control_ops->size()) / attempted;
  trial.checks["coverage_reached"] = trial.outcome["coverage_sim_s"] > 0.0;
  // A sanity floor: Re-Tele delivers well above it on this testbed.
  trial.checks["control_pdr_at_least_0.9"] = delivered >= 0.9 * attempted;
}

// --- observed churn soak -------------------------------------------------------

// run_churn_soak's defaults (src/harness/soak.hpp).
constexpr SimTime kSoakWarmup = 12 * kMinute;
constexpr SimTime kSoakDuration = 30 * kMinute;
constexpr SimTime kSoakDrain = 6 * kMinute;
constexpr SimTime kSoakInterval = 30 * kSecond;

/// run_churn_soak's fault mix, drawn from its seed against the converged
/// tree: six node outages, three blackouts on live parent links, a noise
/// burst and one state-losing reboot.
FaultPlan soak_fault_plan(Network& net) {
  const std::uint64_t seed = kDeploymentSeed;
  const SimTime t0 = net.sim().now();
  Pcg32 rng(seed, 0x50A7ULL);
  FaultPlan plan = FaultPlan::random_churn(
      net.size(), 6, t0 + 1 * kMinute,
      t0 + kSoakDuration - 2 * kMinute - 2 * kMinute, 2 * kMinute, seed);
  std::vector<std::pair<NodeId, NodeId>> parent_links;
  for (NodeId n = 1; n < static_cast<NodeId>(net.size()); ++n) {
    const NodeId parent = net.node(n).ctp().parent();
    if (parent != kInvalidNode) parent_links.emplace_back(n, parent);
  }
  for (unsigned i = 0; i < 3 && !parent_links.empty(); ++i) {
    const auto& [child, parent] = parent_links[rng.uniform(
        static_cast<std::uint32_t>(parent_links.size()))];
    plan.blackout_link(t0 + 2 * kMinute + i * (kSoakDuration / 8),
                       4 * kMinute, child, parent);
  }
  const auto random_non_sink = [&rng, &net] {
    return static_cast<NodeId>(
        1 + rng.uniform(static_cast<std::uint32_t>(net.size() - 1)));
  };
  plan.noise_burst(t0 + kSoakDuration / 2, 90 * kSecond, {random_non_sink()},
                   -75.0);
  plan.outage_with_state_loss(t0 + kSoakDuration / 3, 1 * kMinute,
                              random_non_sink());
  return plan;
}

void run_soak(Deployment& d, SpanLog& spans, Trial& trial) {
  Network& net = *d.net;
  Controller& controller = *d.controller;
  unsigned acked = 0, gave_up = 0, no_code = 0;
  controller.on_command_resolved = [&](const CommandResolution& res) {
    switch (res.outcome) {
      case CommandOutcome::kAcked:
        ++acked;
        trial.latencies.push_back(to_seconds(res.resolved_at - res.issued_at));
        break;
      case CommandOutcome::kGaveUp:
        ++gave_up;
        break;
      case CommandOutcome::kNoCode:
        ++no_code;
        break;
    }
  };

  trial.outcome["coverage_sim_s"] =
      run_polled(net, spans, kSoakWarmup, 1 * kMinute, trial);
  {
    Span s(spans, "stats.enable_timeline");
    NetworkTimelineConfig timeline_cfg;
    timeline_cfg.timeline.interval = 10 * kSecond;
    TimelineEngine& tl = net.enable_timeline(timeline_cfg);
    tl.set_collector([&net, &controller](MetricsRegistry& registry) {
      net.collect_metrics(registry);
      controller.collect_metrics(registry);
    });
  }
  {
    Span s(spans, "harness.fault_plan");
    soak_fault_plan(net).apply(net);
  }
  // No accounting reset here: health reports sample the MAC's accounting,
  // so resetting it would change what the soak simulates.
  const auto control_ops = count_control_ops(net);

  Pcg32 dest_rng(kDeploymentSeed ^ 0x50CCULL, 3);
  const SimTime end = net.sim().now() + kSoakDuration;
  unsigned attempted = 0;
  std::uint16_t command = 1;
  while (net.sim().now() < end) {
    run_window(net, spans, kSoakInterval, trial);
    if (net.sim().now() >= end) break;
    std::vector<NodeId> addressable;
    for (NodeId n = 1; n < static_cast<NodeId>(net.size()); ++n) {
      if (controller.reported_code(n).has_value()) addressable.push_back(n);
    }
    if (addressable.empty()) continue;
    const NodeId dest = addressable[dest_rng.uniform(
        static_cast<std::uint32_t>(addressable.size()))];
    ++attempted;
    Span s(spans, "harness.send_command");
    (void)controller.send_command(dest, command++);
  }
  run_window(net, spans, kSoakDrain, trial);
  // The callback points into this frame; nothing may call it later.
  controller.on_command_resolved = nullptr;

  const auto unresolved = controller.pending_commands();
  trial.outcome["commands"] = attempted;
  trial.outcome["delivered"] = acked;
  trial.outcome["gave_up"] = gave_up;
  trial.outcome["no_code"] = no_code;
  trial.outcome["unresolved"] = static_cast<double>(unresolved);
  trial.outcome["retries"] = static_cast<double>(controller.retries());
  trial.outcome["escalations"] = static_cast<double>(controller.escalations());
  trial.outcome["tx_per_command"] =
      attempted == 0 ? 0.0
                     : static_cast<double>(control_ops->size()) / attempted;

  std::vector<CommandSpan> command_spans;
  {
    Span s(spans, "stats.command_spans");
    command_spans = net.command_spans();
  }
  const auto reconcile_failures = count_reconcile_failures(command_spans);
  trial.outcome["command_spans"] = static_cast<double>(command_spans.size());
  trial.outcome["span_reconcile_failures"] =
      static_cast<double>(reconcile_failures);

  InvariantEngine& inv = *net.invariants();
  {
    Span s(spans, "check.final_audit");
    inv.final_audit();
  }
  trial.outcome["invariant_violations"] =
      static_cast<double>(inv.violations().size());
  net.timeline()->sample_now();  // run_churn_soak's closing sample
  trial.outcome["timeline_samples"] =
      static_cast<double>(net.timeline()->samples_taken());

  trial.checks["span_reconcile_failures_zero"] = reconcile_failures == 0;
  trial.checks["unresolved_zero"] = unresolved == 0;
  trial.checks["commands_resolved"] =
      acked + gave_up + no_code + unresolved == attempted;
}

// --- outcome and per-layer probes ----------------------------------------------

/// Simulated results every workload reports (probe-purity compared).
void common_outcome(Network& net, Trial& trial) {
  std::uint64_t events = 0, txs = 0;
  for (const Window& w : trial.windows) {
    events += w.events;
    txs += w.transmissions;
  }
  trial.outcome["sim_events"] = static_cast<double>(events);
  trial.outcome["transmissions"] = static_cast<double>(txs);
  trial.outcome["sim_end_s"] = to_seconds(net.sim().now());
  trial.outcome["duty_cycle_pct"] = 100.0 * net.average_duty_cycle();
}

template <typename F>
double timed(SpanLog& spans, const char* name, F&& f) {
  Span s(spans, name);
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

void layer_probes(const Args& args, Deployment& d, SpanLog& spans,
                  Trial& trial) {
  Network& net = *d.net;
  auto& L = trial.layers;

  // sim: kernel profile (profiling was on for the whole window).
  const SimProfile& prof = net.sim().profile();
  L["sim.max_queue_depth"] = static_cast<double>(prof.max_queue_depth);
  const auto untagged = prof.by_kind.find("(untagged)");
  L["sim.untagged_wall_share"] =
      prof.wall_seconds > 0.0 && untagged != prof.by_kind.end()
          ? untagged->second.wall_seconds / prof.wall_seconds
          : 0.0;

  // radio: standalone construction on this workload's inputs.
  {
    const Topology& topo = net.config().topology;
    L["radio.gain_table_s"] = timed(spans, "radio.gain_table", [&] {
      LinkGainTable table(topo.positions, topo.path_loss, kDeploymentSeed);
      (void)table.node_count();
    });
    const auto trace = generate_heavy_noise_trace(
        net.config().noise_trace, kDeploymentSeed ^ 0x4015EULL);
    L["radio.noise_model_s"] = timed(spans, "radio.noise_model", [&] {
      CpmNoiseModel model(trace, 3);
      (void)model;
    });
  }

  // mac / net / core counters (const reads).
  double send_ops = 0, copies = 0, beacons = 0, parent_changes = 0;
  double originated = 0, sink_delivered = 0;
  double claims = 0, forwards = 0, suppressions = 0, backtracks = 0,
         duplicates = 0;
  double code_bits = 0, code_bits_max = 0, coded = 0;
  std::vector<PathCode> codes;
  {
    Span s(spans, "mac.counters");
    for (std::size_t i = 0; i < net.size(); ++i) {
      const LplMac& mac = net.node(static_cast<NodeId>(i)).mac();
      send_ops += static_cast<double>(mac.send_ops());
      copies += static_cast<double>(mac.copies_sent());
    }
  }
  {
    Span s(spans, "net.counters");
    for (std::size_t i = 0; i < net.size(); ++i) {
      const CtpNode::Stats& st = net.node(static_cast<NodeId>(i)).ctp().stats();
      beacons += static_cast<double>(st.beacons_sent);
      parent_changes += static_cast<double>(st.parent_changes);
      originated += static_cast<double>(st.data_originated);
      if (i == kSinkNode) sink_delivered = static_cast<double>(st.data_delivered);
    }
  }
  {
    Span s(spans, "core.counters");
    for (std::size_t i = 0; i < net.size(); ++i) {
      TeleAdjusting& tele = *net.node(static_cast<NodeId>(i)).tele();
      const Forwarding::Stats& st = tele.forwarding().stats();
      claims += static_cast<double>(st.claims);
      forwards += static_cast<double>(st.forwards);
      suppressions += static_cast<double>(st.suppressions);
      backtracks += static_cast<double>(st.backtracks);
      duplicates += static_cast<double>(st.duplicates);
      if (i != kSinkNode && tele.addressing().has_code()) {
        const PathCode& code = tele.addressing().code();
        codes.push_back(code);
        code_bits += static_cast<double>(code.size());
        code_bits_max = std::max(code_bits_max, static_cast<double>(code.size()));
        coded += 1;
      }
    }
  }
  L["mac.send_ops"] = send_ops;
  L["mac.tx_copies"] = copies;
  L["mac.copies_per_send"] = send_ops > 0 ? copies / send_ops : 0.0;
  L["net.beacons"] = beacons;
  L["net.parent_changes"] = parent_changes;
  L["net.data_delivery_ratio"] =
      originated > 0 ? sink_delivered / originated : 0.0;
  const double commands =
      trial.outcome.count("commands") ? trial.outcome["commands"] : 0.0;
  L["core.claims"] = claims;
  L["core.forwards"] = forwards;
  L["core.suppressions"] = suppressions;
  L["core.backtracks"] = backtracks;
  L["core.duplicates"] = duplicates;
  L["core.claims_per_command"] = commands > 0 ? claims / commands : 0.0;
  L["core.code_bits_mean"] = coded > 0 ? code_bits / coded : 0.0;
  L["core.code_bits_max"] = code_bits_max;

  // core: prefix matching over every ordered pair of harvested codes,
  // repeated until the timed loop is long enough to read.
  {
    Span s(spans, "core.prefix_match");
    std::size_t matched = 0, calls = 0;
    const auto t0 = Clock::now();
    do {
      for (const PathCode& a : codes) {
        for (const PathCode& b : codes) matched += a.match_len(b);
      }
      calls += codes.size() * codes.size();
    } while (!codes.empty() && seconds_since(t0) < 0.02);
    const double elapsed = seconds_since(t0);
    L["core.prefix_match_ns"] =
        calls > 0 ? 1e9 * elapsed / static_cast<double>(calls) : 0.0;
    // Recording the matched bits keeps the timed loop from being elided.
    L["core.prefix_match_bits"] =
        calls > 0 ? static_cast<double>(matched) / static_cast<double>(calls)
                  : 0.0;
  }

  // harness: controller lifecycle counters (soak only).
  const Controller* c = d.controller.get();
  L["harness.retries"] = c ? static_cast<double>(c->retries()) : 0.0;
  L["harness.escalations"] = c ? static_cast<double>(c->escalations()) : 0.0;
  L["harness.gave_up"] = c ? static_cast<double>(c->gave_up()) : 0.0;

  // stats: observability cost and state.
  L["stats.collect_metrics_ms"] =
      1e3 * timed(spans, "stats.collect_metrics", [&] {
        MetricsRegistry registry;
        net.collect_metrics(registry);
      });
  L["stats.command_spans_ms"] = 1e3 * timed(spans, "stats.command_spans", [&] {
                                  (void)net.command_spans();
                                });
  L["stats.trace_dropped"] =
      net.tracer() ? static_cast<double>(net.tracer()->dropped()) : 0.0;
  double window_wall = 0;
  for (const Window& w : trial.windows) window_wall += w.wall_s;
  const TimelineEngine* tl = net.timeline();
  L["stats.timeline_wall_share"] =
      tl && window_wall > 0 ? tl->sampling_wall_seconds() / window_wall : 0.0;
  L["stats.timeline_samples"] =
      tl ? static_cast<double>(tl->samples_taken()) : 0.0;

  // check: invariant engine state and the structural snapshot's cost.
  L["check.invariant_views_ms"] =
      1e3 * timed(spans, "check.invariant_views",
                  [&] { (void)net.invariant_views(); });
  const InvariantEngine* inv = net.invariants();
  L["check.checkpoints"] = inv ? static_cast<double>(inv->checkpoints_run()) : 0;
  L["check.claims_audited"] =
      inv ? static_cast<double>(inv->claims_audited()) : 0;
  for (unsigned r = 0; r <= static_cast<unsigned>(InvariantRule::kCtpNoLoop);
       ++r) {
    const auto rule = static_cast<InvariantRule>(r);
    L[std::string("check.violations.") + invariant_rule_name(rule)] =
        inv ? static_cast<double>(inv->violation_count(rule)) : 0.0;
  }
}

/// This process's resident-set high-water mark. VmHWM belongs to the
/// current address space; getrusage's ru_maxrss would also carry the
/// launching process's peak across exec.
double peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

// --- output ----------------------------------------------------------------------

void put_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void put_key(std::string& out, const std::string& key) {
  out += '"';
  out += key;
  out += "\":";
}

template <typename Map>
void put_map(std::string& out, const Map& map) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : map) {
    if (!first) out += ',';
    first = false;
    put_key(out, k);
    if constexpr (std::is_same_v<typename Map::mapped_type, bool>) {
      out += v ? "true" : "false";
    } else {
      put_number(out, v);
    }
  }
  out += '}';
}

std::string render(const Args& args, const Trial& t, double peak_rss_mb,
                   const std::map<std::string, double>& self_s) {
  std::string out = "{";
  put_key(out, "workload");
  out += '"' + args.workload + "\",";
  put_key(out, "setup");
  put_map(out, std::map<std::string, double>{{"topo_s", t.setup.topo_s},
                                             {"ctor_s", t.setup.ctor_s},
                                             {"start_s", t.setup.start_s},
                                             {"total_s", t.setup.total()}});
  out += ',';
  put_key(out, "windows");
  out += '[';
  for (std::size_t i = 0; i < t.windows.size(); ++i) {
    if (i) out += ',';
    put_map(out, std::map<std::string, double>{
                     {"wall_s", t.windows[i].wall_s},
                     {"sim_end_s", t.windows[i].sim_end_s},
                     {"events", static_cast<double>(t.windows[i].events)},
                     {"transmissions",
                      static_cast<double>(t.windows[i].transmissions)}});
  }
  out += "],";
  put_key(out, "peak_rss_mb");
  put_number(out, peak_rss_mb);
  out += ',';
  put_key(out, "outcome");
  put_map(out, t.outcome);
  out += ',';
  put_key(out, "latencies");
  out += '[';
  for (std::size_t i = 0; i < t.latencies.size(); ++i) {
    if (i) out += ',';
    put_number(out, t.latencies[i]);
  }
  out += "],";
  put_key(out, "checks");
  put_map(out, t.checks);
  out += ',';
  put_key(out, "layers");
  put_map(out, t.layers);
  out += ',';
  put_key(out, "span_self_s");
  put_map(out, self_s);
  out += '}';
  return out;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--request-seed") {
      args.request_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--measure") {
      args.measure = value == "1";
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--spans") {
      args.spans_path = value;
    } else {
      return false;
    }
  }
  static const std::set<std::string> kWorkloads = {
      "grid225_boot", "indoor_retele_ch19", "soak_churn_observed",
      "field1k_boot"};
  return argc % 2 == 1 && kWorkloads.contains(args.workload);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_workload --workload NAME [--request-seed N] "
                 "[--measure 0|1] [--trace 0|1] [--spans FILE]\n");
    return 2;
  }
  SpanLog spans(args.trace);
  Trial trial;
  Deployment d;
  {
    Span root(spans, "trial");
    // One set-up per process, timed cold: what a user pays once per run.
    // run.py takes setup_s over many such processes. Set-ups repeated in
    // one process do not time alike: the allocator returns and re-faults
    // memory between them (2.4-10.6 ms on indoor).
    d = set_up(args, spans, trial.setup);
    if (args.measure) {
      Network& net = *d.net;
      net.sim().set_profiling(args.trace);
      {
        Span measured(spans, "measure");
        if (args.workload == "grid225_boot") {
          run_grid_boot(net, spans, trial);
        } else if (args.workload == "field1k_boot") {
          run_field_boot(net, spans, trial);
        } else if (args.workload == "indoor_retele_ch19") {
          run_indoor(net, spans, args.request_seed, trial);
        } else {
          run_soak(d, spans, trial);
        }
      }
      common_outcome(net, trial);
      if (args.trace) {
        Span probes(spans, "probes");
        layer_probes(args, d, spans, trial);
      }
    }
  }
  const double peak_rss_mb = peak_rss_kb() / 1024.0;
  if (args.trace && !args.spans_path.empty() && !spans.write(args.spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans_path.c_str());
    return 1;
  }
  std::puts(render(args, trial, peak_rss_mb, spans.self_seconds()).c_str());
  return 0;
}
