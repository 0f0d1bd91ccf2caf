#include "radio/phy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

namespace telea {
namespace {

TEST(Cc2420Phy, AirtimeMatchesBitrate) {
  // 50-byte MPDU + 6-byte PHY header = 56 bytes = 448 bits at 250 kbps.
  EXPECT_EQ(Cc2420Phy::airtime(50), static_cast<SimTime>(448.0 / 250000.0 * 1e6));
}

TEST(Cc2420Phy, AckAirtime) {
  EXPECT_EQ(Cc2420Phy::ack_airtime(), Cc2420Phy::airtime(5));
  // 11 bytes * 32 us/byte = 352 us
  EXPECT_EQ(Cc2420Phy::ack_airtime(), 352u);
}

TEST(Cc2420Phy, TxPowerTableAnchors) {
  EXPECT_DOUBLE_EQ(Cc2420Phy::tx_power_dbm(31), 0.0);
  EXPECT_DOUBLE_EQ(Cc2420Phy::tx_power_dbm(27), -1.0);
  EXPECT_DOUBLE_EQ(Cc2420Phy::tx_power_dbm(3), -25.0);
}

TEST(Cc2420Phy, TxPowerInterpolatesAndClamps) {
  const double p2 = Cc2420Phy::tx_power_dbm(2);
  EXPECT_LT(p2, -25.0);  // below level 3
  EXPECT_GT(p2, -32.0);  // above level 0
  EXPECT_DOUBLE_EQ(Cc2420Phy::tx_power_dbm(-5), Cc2420Phy::tx_power_dbm(0));
  EXPECT_DOUBLE_EQ(Cc2420Phy::tx_power_dbm(99), 0.0);
  // Monotone non-decreasing across all levels.
  for (int l = 1; l <= 31; ++l) {
    EXPECT_GE(Cc2420Phy::tx_power_dbm(l), Cc2420Phy::tx_power_dbm(l - 1));
  }
}

TEST(Cc2420Phy, BerDecreasesWithSinr) {
  double prev = 1.0;
  for (double sinr = -10; sinr <= 10; sinr += 1) {
    const double ber = Cc2420Phy::bit_error_rate(sinr);
    EXPECT_LE(ber, prev);
    EXPECT_GE(ber, 0.0);
    EXPECT_LE(ber, 0.5);
    prev = ber;
  }
}

TEST(Cc2420Phy, BerNegligibleAtHighSinr) {
  EXPECT_LT(Cc2420Phy::bit_error_rate(10.0), 1e-9);
}

TEST(Cc2420Phy, BerSubstantialAtLowSinr) {
  EXPECT_GT(Cc2420Phy::bit_error_rate(-5.0), 0.05);
}

TEST(Cc2420Phy, PrrZeroBelowSensitivity) {
  EXPECT_DOUBLE_EQ(
      Cc2420Phy::packet_reception_ratio(30.0, Cc2420Phy::kSensitivityDbm - 1, 40),
      0.0);
}

TEST(Cc2420Phy, PrrNearOneWithStrongSignal) {
  EXPECT_GT(Cc2420Phy::packet_reception_ratio(20.0, -60.0, 40), 0.999);
}

TEST(Cc2420Phy, PrrDecreasesWithPacketLength) {
  const double sinr = 2.0;
  const double short_prr = Cc2420Phy::packet_reception_ratio(sinr, -80.0, 20);
  const double long_prr = Cc2420Phy::packet_reception_ratio(sinr, -80.0, 100);
  EXPECT_GT(short_prr, long_prr);
}

TEST(Cc2420Phy, PrrTransitionRegionIsSteep) {
  // The 802.15.4 DSSS curve has a narrow gray region: a few dB swing PRR
  // from near 0 to near 1.
  const double low = Cc2420Phy::packet_reception_ratio(-3.0, -80.0, 50);
  const double high = Cc2420Phy::packet_reception_ratio(4.0, -80.0, 50);
  EXPECT_LT(low, 0.1);
  EXPECT_GT(high, 0.9);
}

/// (1 - BER)^bits evaluated in full, without the high-SINR shortcut.
double prr_formula(double sinr_db, std::size_t mpdu_bytes) {
  const double bits =
      static_cast<double>((Cc2420Phy::kPhyHeaderBytes + mpdu_bytes) * 8);
  return std::pow(1.0 - Cc2420Phy::bit_error_rate(sinr_db), bits);
}

TEST(Cc2420Phy, PrrFormulaIsExactlyOneWhereTheShortcutStarts) {
  // Every MPDU length on [7, 60] dB: finely just past the threshold, then
  // every hundredth of a dB. Beyond 60 dB the BER terms only shrink.
  int mismatches = 0;
  double first_bad = 0.0;
  auto check = [&](double sinr) {
    for (std::size_t mpdu = 5; mpdu <= 127; ++mpdu) {
      if (prr_formula(sinr, mpdu) != 1.0 && mismatches++ == 0) {
        first_bad = sinr;
      }
    }
  };
  const double from = Cc2420Phy::kCertainSinrDb;
  for (int i = 0; i <= 10000; ++i) check(from + i * 1e-4);
  for (int i = 100; i <= 5300; ++i) check(from + i * 0.01);
  EXPECT_EQ(mismatches, 0) << "first at " << first_bad << " dB";
}

TEST(Cc2420Phy, PrrEqualsTheFullFormulaOnBothSidesOfTheShortcut) {
  int mismatches = 0;
  double first_bad = 0.0;
  auto check = [&](double sinr) {
    for (std::size_t mpdu = 5; mpdu <= 127; ++mpdu) {
      if (Cc2420Phy::packet_reception_ratio(sinr, -80.0, mpdu) !=
              prr_formula(sinr, mpdu) &&
          mismatches++ == 0) {
        first_bad = sinr;
      }
    }
  };
  for (int i = -2000; i <= 2000; ++i) check(i * 0.01);  // -20 .. 20 dB
  const double edge = Cc2420Phy::kCertainSinrDb;
  for (int i = -1000; i <= 1000; ++i) check(edge + i * 1e-5);
  check(std::nextafter(edge, 0.0));
  EXPECT_EQ(mismatches, 0) << "first at " << first_bad << " dB";
  // Below sensitivity the gate still wins over the shortcut.
  EXPECT_EQ(Cc2420Phy::packet_reception_ratio(
                30.0, Cc2420Phy::kSensitivityDbm - 1, 40),
            0.0);
}

}  // namespace
}  // namespace telea
