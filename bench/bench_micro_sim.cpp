// Micro-benchmarks (google-benchmark) for the simulator substrate: event
// queue throughput, timer re-arming, the radio medium under a dense burst,
// CPM noise sampling and the CC2420 PRR curve. These bound how much virtual time per
// wall-second the full-system experiments get.

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "radio/medium.hpp"
#include "radio/noise.hpp"
#include "radio/phy.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace telea {
namespace {

void BM_EventQueueScheduleDrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    EventQueue q;
    Pcg32 rng(7, 1);
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule(rng.next(), [] {});
    }
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.pop().time);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleDrain)->Arg(1000)->Arg(100000);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  // The LPL MAC cancels constantly; measure removal from the heap.
  for (auto _ : state) {
    EventQueue q;
    std::vector<EventHandle> handles;
    handles.reserve(1000);
    for (std::size_t i = 0; i < 1000; ++i) {
      handles.push_back(q.schedule(i, [] {}));
    }
    for (std::size_t i = 0; i < 1000; i += 2) q.cancel(handles[i]);
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.pop().time);
    }
  }
}
BENCHMARK(BM_EventQueueCancelHeavy);

void BM_SimulatorSelfScheduling(benchmark::State& state) {
  // Arg 1 turns the kernel's self-profiler on (per-tag rows and two clock
  // reads per event); the tag is past the small-string limit on purpose.
  for (auto _ : state) {
    Simulator sim;
    sim.set_profiling(state.range(0) != 0);
    std::uint64_t count = 0;
    std::function<void()> tick = [&] {
      if (++count < 10000) sim.schedule_in(10, tick, "radio.ack_window");
    };
    sim.schedule_in(10, tick, "radio.ack_window");
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_SimulatorSelfScheduling)->Arg(0)->Arg(1);

void BM_TimerRearm(benchmark::State& state) {
  // The LPL MAC re-arms its window, gap, linger and CSMA timers while they
  // are pending. Re-arm random armed one-shots among 256 pending timers,
  // about the indoor testbed's peak queue depth (275 events).
  constexpr std::uint32_t kTimers = 256;
  Simulator sim;
  std::vector<std::unique_ptr<Timer>> timers;
  for (std::uint32_t i = 0; i < kTimers; ++i) {
    timers.push_back(std::make_unique<Timer>(sim));
    timers.back()->start_one_shot(1000 + i);
  }
  Pcg32 rng(7, 2);
  for (auto _ : state) {
    for (int k = 0; k < 1000; ++k) {
      timers[rng.uniform(kTimers)]->start_one_shot(100 + rng.uniform(10000));
    }
  }
  benchmark::DoNotOptimize(sim.pending_events());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_TimerRearm);

/// A radio that is always listening and consumes every frame.
class ListeningRadio final : public MediumListener {
 public:
  AckDecision on_frame(const Frame&, double) override {
    return AckDecision::kAccept;
  }
  void on_tx_done(bool, NodeId) override {}
};

/// The dense-burst deployment for `nodes`: the paper's 225-node tight grid,
/// or a connected random field at the churn soak's density (24 nodes per
/// 90 m square). 225 sits below the medium's per-link power memo cutoff
/// (256 nodes) and 400 above it.
Topology dense_burst_topology(std::size_t nodes) {
  if (nodes == 225) return make_tight_grid(1);
  const double side_m = 90.0 * std::sqrt(static_cast<double>(nodes) / 24.0);
  return make_connected_random(nodes, side_m, 1);
}

void BM_MediumDenseBurst(benchmark::State& state) {
  // Every radio on: each iteration, every node broadcasts one beacon at a
  // random offset inside a 10 ms window, so a reception overlaps tens of
  // concurrent frames (the boot-time beacon storm in miniature). Reports
  // time per transmission.
  const Topology topo =
      dense_burst_topology(static_cast<std::size_t>(state.range(0)));
  Simulator sim;
  const LinkGainTable gains(topo.positions, topo.path_loss, 1);
  const CpmNoiseModel noise(generate_heavy_noise_trace({}, 3), 3);
  MediumConfig config;
  config.tx_power_dbm = topo.tx_power_dbm;
  RadioMedium medium(sim, gains, noise, config, 1);
  std::vector<ListeningRadio> radios(topo.size());
  for (std::size_t i = 0; i < topo.size(); ++i) {
    const auto id = static_cast<NodeId>(i);
    medium.attach(id, radios[i]);
    medium.set_listening(id, true);
  }
  Pcg32 rng(5, 9);
  std::uint32_t seq = 0;
  const std::uint64_t before = medium.total_transmissions();
  for (auto _ : state) {
    for (std::size_t i = 0; i < topo.size(); ++i) {
      const auto id = static_cast<NodeId>(i);
      Frame frame;
      frame.src = id;
      frame.dst = kBroadcastNode;
      frame.link_seq = ++seq;
      frame.payload = msg::CtpBeacon{};
      sim.schedule_in(rng.uniform(10 * kMillisecond), [&medium, id, frame] {
        if (!medium.transmitting(id)) medium.transmit(id, frame);
      });
    }
    sim.run();
  }
  const auto txs =
      static_cast<double>(medium.total_transmissions() - before);
  state.counters["tx_per_burst"] =
      benchmark::Counter(txs, benchmark::Counter::kAvgIterations);
  state.counters["time_per_tx"] = benchmark::Counter(
      txs, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_MediumDenseBurst)
    ->Arg(225)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_CpmNoiseSample(benchmark::State& state) {
  const auto trace = generate_heavy_noise_trace({}, 11);
  const CpmNoiseModel model(trace, 3);
  auto gen = model.make_generator(1, 1);
  SimTime t = 0;
  for (auto _ : state) {
    t += 2 * kMillisecond;
    benchmark::DoNotOptimize(gen.noise_dbm(t));
  }
}
BENCHMARK(BM_CpmNoiseSample);

void BM_CpmTraining(benchmark::State& state) {
  const auto trace = generate_heavy_noise_trace({}, 12);
  for (auto _ : state) {
    CpmNoiseModel model(trace, 3);
    benchmark::DoNotOptimize(model.marginal_mean_dbm());
  }
}
BENCHMARK(BM_CpmTraining);

void BM_PrrCurve(benchmark::State& state) {
  // Sweeps SINR over [lo, hi] dB in 0.1 dB steps: -5..10 is the gray
  // region, 7..40 the strong links a boot storm mostly resolves.
  const auto lo = static_cast<double>(state.range(0));
  const auto hi = static_cast<double>(state.range(1));
  double sinr = lo;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Cc2420Phy::packet_reception_ratio(sinr, -80.0, 50));
    sinr += 0.1;
    if (sinr > hi) sinr = lo;
  }
}
BENCHMARK(BM_PrrCurve)->Args({-5, 10})->Args({7, 40});

void BM_TraceGeneration(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_heavy_noise_trace({}, ++seed));
  }
}
BENCHMARK(BM_TraceGeneration);

}  // namespace
}  // namespace telea

BENCHMARK_MAIN();
