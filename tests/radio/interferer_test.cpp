#include "radio/interferer.hpp"

#include <gtest/gtest.h>

#include "util/dbm.hpp"

namespace telea {
namespace {

TEST(WifiInterferer, DisabledIsSilent) {
  WifiInterfererConfig cfg;
  cfg.enabled = false;
  WifiInterferer wifi(cfg, 4, 1);
  for (SimTime t = 0; t < kSecond; t += 10 * kMillisecond) {
    EXPECT_LT(wifi.power_at(0, t), -110.0);
  }
}

TEST(WifiInterferer, ExpectedDutyMatchesConfig) {
  WifiInterfererConfig cfg;
  cfg.mean_on = 10 * kMillisecond;
  cfg.mean_off = 30 * kMillisecond;
  WifiInterferer wifi(cfg, 1, 1);
  EXPECT_NEAR(wifi.expected_duty(), 0.25, 1e-9);
  cfg.enabled = false;
  WifiInterferer off(cfg, 1, 1);
  EXPECT_DOUBLE_EQ(off.expected_duty(), 0.0);
}

TEST(WifiInterferer, EmpiricalDutyNearExpected) {
  WifiInterfererConfig cfg;
  cfg.mean_on = 4 * kMillisecond;
  cfg.mean_off = 12 * kMillisecond;
  WifiInterferer wifi(cfg, 1, 42);
  int on = 0, total = 0;
  for (SimTime t = 0; t < 120 * kSecond; t += kMillisecond) {
    if (wifi.power_at(0, t) > -110.0) ++on;
    ++total;
  }
  const double duty = static_cast<double>(on) / total;
  EXPECT_NEAR(duty, 0.25, 0.06);
}

TEST(WifiInterferer, BurstPowerNearConfigured) {
  WifiInterfererConfig cfg;
  cfg.base_power_dbm = -78.0;
  cfg.node_offset_sigma_db = 2.0;
  WifiInterferer wifi(cfg, 8, 3);
  bool saw_burst = false;
  for (SimTime t = 0; t < 10 * kSecond && !saw_burst; t += kMillisecond) {
    const double p = wifi.power_at(3, t);
    if (p > -110.0) {
      saw_burst = true;
      EXPECT_NEAR(p, -78.0, 10.0);
    }
  }
  EXPECT_TRUE(saw_burst);
}

TEST(WifiInterferer, PerNodeOffsetsDiffer) {
  WifiInterfererConfig cfg;
  cfg.node_offset_sigma_db = 4.0;
  WifiInterferer wifi(cfg, 16, 5);
  // Find an 'on' instant, then compare node powers at the same time.
  SimTime t = 0;
  while (wifi.power_at(0, t) < -110.0 && t < 10 * kSecond) t += kMillisecond;
  ASSERT_LT(t, 10 * kSecond);
  bool differ = false;
  const double p0 = wifi.power_at(0, t);
  for (NodeId n = 1; n < 16; ++n) {
    if (wifi.power_at(n, t) != p0) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(WifiInterferer, PowerInMwIsTheConvertedDbmPower) {
  // power_mw_at reads values converted once; they must equal converting
  // power_at on every query, for every node, on and off, and when disabled.
  for (const bool enabled : {true, false}) {
    WifiInterfererConfig cfg;
    cfg.enabled = enabled;
    WifiInterferer wifi(cfg, 12, 9);
    int on = 0;
    int off = 0;
    for (SimTime t = 0; t < 2 * kSecond; t += 500 * kMicrosecond) {
      const bool is_on = wifi.on_at(t);
      (is_on ? on : off) += 1;
      for (NodeId n = 0; n < 12; ++n) {
        const double dbm = wifi.power_at(n, t);
        EXPECT_EQ(dbm == WifiInterferer::kOffFloorDbm, !is_on);
        EXPECT_EQ(wifi.power_mw_at(n, t), dbm_to_mw(dbm))
            << "node " << n << " t " << t;
      }
    }
    EXPECT_GT(off, 0);
    if (enabled) {
      EXPECT_GT(on, 100);
    } else {
      EXPECT_EQ(on, 0);
    }
  }
}

}  // namespace
}  // namespace telea
