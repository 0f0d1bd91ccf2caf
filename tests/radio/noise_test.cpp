#include "radio/noise.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace telea {
namespace {

TEST(SyntheticTrace, LengthAndBounds) {
  SyntheticTraceConfig cfg;
  const auto trace = generate_heavy_noise_trace(cfg, 1);
  EXPECT_EQ(trace.size(), cfg.length);
  for (auto v : trace) {
    EXPECT_GE(v, static_cast<std::int8_t>(cfg.min_dbm));
    EXPECT_LE(v, static_cast<std::int8_t>(cfg.max_dbm));
  }
}

TEST(SyntheticTrace, HasQuietFloorAndBursts) {
  SyntheticTraceConfig cfg;
  const auto trace = generate_heavy_noise_trace(cfg, 2);
  int quiet = 0, loud = 0;
  for (auto v : trace) {
    if (v <= -94) ++quiet;
    if (v >= -85) ++loud;
  }
  // Most of the trace sits at the floor; a visible minority is bursty.
  EXPECT_GT(quiet, static_cast<int>(cfg.length / 2));
  EXPECT_GT(loud, static_cast<int>(cfg.length / 100));
  EXPECT_LT(loud, static_cast<int>(cfg.length / 3));
}

TEST(SyntheticTrace, DeterministicPerSeed) {
  SyntheticTraceConfig cfg;
  EXPECT_EQ(generate_heavy_noise_trace(cfg, 5), generate_heavy_noise_trace(cfg, 5));
  EXPECT_NE(generate_heavy_noise_trace(cfg, 5), generate_heavy_noise_trace(cfg, 6));
}

TEST(CpmNoiseModel, MarginalMeanNearFloor) {
  const auto trace = generate_heavy_noise_trace({}, 3);
  CpmNoiseModel model(trace, 3);
  EXPECT_GT(model.marginal_mean_dbm(), -101.0);
  EXPECT_LT(model.marginal_mean_dbm(), -90.0);
}

TEST(CpmNoiseModel, GeneratorsAreDeterministicPerSeedStream) {
  const auto trace = generate_heavy_noise_trace({}, 3);
  CpmNoiseModel model(trace, 3);
  auto a = model.make_generator(10, 1);
  auto b = model.make_generator(10, 1);
  auto c = model.make_generator(10, 2);
  bool all_same = true, any_diff_c = false;
  for (SimTime t = 0; t < 100 * kMillisecond; t += 2 * kMillisecond) {
    const double va = a.noise_dbm(t);
    const double vb = b.noise_dbm(t);
    if (va != vb) all_same = false;
    if (va != c.noise_dbm(t)) any_diff_c = true;
  }
  EXPECT_TRUE(all_same);
  EXPECT_TRUE(any_diff_c);
}

TEST(CpmNoiseModel, OutputStaysInTraceRange) {
  SyntheticTraceConfig cfg;
  const auto trace = generate_heavy_noise_trace(cfg, 4);
  CpmNoiseModel model(trace, 3);
  auto gen = model.make_generator(1, 1);
  for (SimTime t = 0; t < 2 * kSecond; t += kMillisecond) {
    const double v = gen.noise_dbm(t);
    EXPECT_GE(v, cfg.min_dbm - 1);
    EXPECT_LE(v, cfg.max_dbm + 1);
  }
}

TEST(CpmNoiseModel, RepeatedQueriesAtSameTimeAreStable) {
  const auto trace = generate_heavy_noise_trace({}, 4);
  CpmNoiseModel model(trace, 3);
  auto gen = model.make_generator(2, 2);
  const double v1 = gen.noise_dbm(10 * kMillisecond);
  const double v2 = gen.noise_dbm(10 * kMillisecond);
  EXPECT_DOUBLE_EQ(v1, v2);
}

TEST(CpmNoiseModel, TemporalCorrelationExceedsShuffled) {
  // CPM's purpose: consecutive samples correlate. Compare lag-1
  // autocorrelation of the generated process against ~0 for white noise.
  const auto trace = generate_heavy_noise_trace({}, 5);
  CpmNoiseModel model(trace, 3);
  auto gen = model.make_generator(3, 3);
  std::vector<double> xs;
  for (SimTime t = 0; t < 20 * kSecond; t += 2 * kMillisecond) {
    xs.push_back(gen.noise_dbm(t));
  }
  double mean = 0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double num = 0, den = 0;
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
    num += (xs[i] - mean) * (xs[i + 1] - mean);
  }
  for (double x : xs) den += (x - mean) * (x - mean);
  ASSERT_GT(den, 0.0);
  EXPECT_GT(num / den, 0.2);  // clearly positive lag-1 autocorrelation
}

TEST(CpmNoiseModel, FarApartQueriesDecorrelate) {
  const auto trace = generate_heavy_noise_trace({}, 6);
  CpmNoiseModel model(trace, 3);
  auto gen = model.make_generator(4, 4);
  // Jumping far ahead must not loop forever (bounded catch-up) and must
  // still return plausible values.
  const double v = gen.noise_dbm(0);
  const double w = gen.noise_dbm(3600 * kSecond);
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_TRUE(std::isfinite(w));
}

TEST(CpmNoiseModel, RejectsATraceNoLongerThanItsHistory) {
  EXPECT_THROW(CpmNoiseModel(std::vector<std::int8_t>{}, 3),
               std::invalid_argument);
  EXPECT_THROW(CpmNoiseModel(std::vector<std::int8_t>(3, -98), 3),
               std::invalid_argument);
  // History 0 is raised to 1, so one reading is still too short.
  EXPECT_THROW(CpmNoiseModel(std::vector<std::int8_t>(1, -98), 0),
               std::invalid_argument);
  const CpmNoiseModel shortest(std::vector<std::int8_t>{-90, -91, -92, -93}, 3);
  auto gen = shortest.make_generator(1, 1);
  for (SimTime t = 0; t < 200 * kMillisecond; t += kMillisecond) {
    const int v = gen.noise_dbm(t);
    EXPECT_TRUE(v >= -93 && v <= -90) << v;
  }
}

/// The CPM table as a hash map from pattern hash to successor bag, with the
/// generator walk spelled out: a reference for the flat table, which must
/// produce the same readings from the same random draws.
class MapCpmReference {
 public:
  MapCpmReference(const std::vector<std::int8_t>& trace, std::size_t history,
                  std::uint64_t seed, std::uint64_t stream)
      : marginal_(trace), recent_(history), rng_(seed, stream) {
    for (std::size_t i = history; i < trace.size(); ++i) {
      table_[hash(&trace[i - history], history)].push_back(trace[i]);
    }
  }

  std::int8_t noise_dbm(SimTime t) {
    constexpr SimTime kStep = 2 * kMillisecond;
    constexpr SimTime kMaxCatchUpSteps = 32;
    const SimTime target = t / kStep;
    if (!primed_) {
      for (auto& r : recent_) r = marginal();
      current_ = recent_.back();
      step_ = target;
      primed_ = true;
      return current_;
    }
    if (target <= step_) return current_;
    SimTime gap = target - step_;
    if (gap > kMaxCatchUpSteps) {
      for (auto& r : recent_) r = marginal();
      gap = 1;
    }
    for (SimTime i = 0; i < gap; ++i) {
      const auto it = table_.find(hash(recent_.data(), recent_.size()));
      const std::int8_t next =
          it == table_.end()
              ? marginal()
              : it->second[rng_.uniform(
                    static_cast<std::uint32_t>(it->second.size()))];
      std::rotate(recent_.begin(), recent_.begin() + 1, recent_.end());
      recent_.back() = next;
      current_ = next;
    }
    step_ = target;
    return current_;
  }

 private:
  static std::uint64_t hash(const std::int8_t* v, std::size_t n) {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<std::uint8_t>(v[i]);
      h *= 1099511628211ULL;
    }
    return h;
  }
  std::int8_t marginal() {
    const auto n = static_cast<std::uint32_t>(marginal_.size());
    return marginal_[rng_.uniform(n)];
  }

  std::unordered_map<std::uint64_t, std::vector<std::int8_t>> table_;
  std::vector<std::int8_t> marginal_;
  std::vector<std::int8_t> recent_;
  Pcg32 rng_;
  std::int8_t current_ = 0;
  SimTime step_ = 0;
  bool primed_ = false;
};

TEST(CpmNoiseModel, FlatTableMatchesAMapReference) {
  struct Case {
    std::vector<std::int8_t> trace;
    std::size_t history;
  };
  std::vector<Case> cases;
  for (std::uint64_t seed : {3u, 17u, 101u}) {
    cases.push_back({generate_heavy_noise_trace({}, seed), 3});
  }
  cases.push_back({generate_heavy_noise_trace({}, 5), 1});
  cases.push_back({generate_heavy_noise_trace({}, 6), 5});
  // Every int8 value, uniformly: many patterns, most seen once, and walks
  // that keep reaching unseen patterns (the marginal fallback).
  Pcg32 wide(9, 9);
  std::vector<std::int8_t> uniform(5000);
  for (auto& v : uniform) v = static_cast<std::int8_t>(wide.uniform(256) - 128);
  cases.push_back({uniform, 2});
  cases.push_back({{-98, -97, -98, -60, -98, -97}, 2});  // tiny trace

  constexpr int kSamples = 100000;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const CpmNoiseModel model(cases[c].trace, cases[c].history);
    for (std::uint64_t seed : {1u, 42u}) {
      SCOPED_TRACE(testing::Message() << "case " << c << " seed " << seed);
      auto flat = model.make_generator(seed, c + 1);
      MapCpmReference ref(cases[c].trace, cases[c].history, seed, c + 1);
      // Mostly short steps, with repeats and jumps past the catch-up bound.
      Pcg32 clock(seed, 77);
      SimTime t = 0;
      int mismatches = 0;
      for (int i = 0; i < kSamples; ++i) {
        const std::uint32_t r = clock.uniform(100);
        t += r < 5 ? 0 : r < 97 ? clock.uniform(4) * kMillisecond
                               : 100 * kMillisecond;
        if (flat.noise_dbm(t) != ref.noise_dbm(t)) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0);
    }
  }
}

}  // namespace
}  // namespace telea
