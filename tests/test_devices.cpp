#include <gtest/gtest.h>

#include <cmath>

#include "circuit/amplifier.hpp"
#include "circuit/comparator.hpp"
#include "circuit/driver.hpp"
#include "circuit/tia.hpp"

namespace {

using namespace ptc;
using namespace ptc::circuit;

TEST(RingDriver, DigitalRegeneration) {
  RingDriver driver;
  // Input above VDD/2 drives the output to the full rail.
  for (int i = 0; i < 200; ++i) driver.step(1.0, 1e-12);
  EXPECT_NEAR(driver.output(), 1.8, 1e-3);
  for (int i = 0; i < 200; ++i) driver.step(0.3, 1e-12);
  EXPECT_NEAR(driver.output(), 0.0, 1e-3);
}

TEST(RingDriver, AnalogFollowerMode) {
  RingDriverConfig config;
  config.digital = false;
  RingDriver driver(config);
  for (int i = 0; i < 300; ++i) driver.step(1.1, 1e-12);
  EXPECT_NEAR(driver.output(), 1.1, 1e-3);
}

TEST(RingDriver, EnergyPerFullSwing) {
  RingDriver driver;
  for (int i = 0; i < 500; ++i) driver.step(1.8, 1e-12);
  // 0.5 * C * Vdd * dV = 0.5 * 85 fF * 1.8 * 1.8 = 0.1377 pJ.
  EXPECT_NEAR(driver.consumed_energy(), 0.1377e-12, 0.002e-12);
  EXPECT_NEAR(driver.switching_energy(), 0.1377e-12, 0.002e-12);
}

TEST(LinearTia, GainAndClamping) {
  const LinearTia tia;
  EXPECT_NEAR(tia.output(100e-6), 0.4, 1e-9);  // 4 kOhm * 100 uA
  EXPECT_DOUBLE_EQ(tia.output(10.0), 1.8);     // clamps at the rail
  EXPECT_DOUBLE_EQ(tia.output(-1e-3), 0.0);
}

TEST(LinearTia, BandwidthLimitsStep) {
  LinearTia tia;
  // At 42 GHz BW, tau ~ 3.8 ps; a 1 ps step reaches ~23%.
  tia.step(100e-6, 1e-12);
  EXPECT_GT(tia.value(), 0.05);
  EXPECT_LT(tia.value(), 0.2);
}

TEST(InverterTia, InvertsAroundBias) {
  const InverterTia tia;
  EXPECT_NEAR(tia.output(0.9), 0.9, 1e-12);
  EXPECT_GT(tia.output(0.85), 0.9);   // input below bias -> output above
  EXPECT_LT(tia.output(0.95), 0.9);
  EXPECT_DOUBLE_EQ(tia.output(0.0), 1.8);  // clips
  EXPECT_DOUBLE_EQ(tia.output(1.8), 0.0);
}

TEST(VoltageAmplifier, EvenStagesNonInverting) {
  const VoltageAmplifier amp;  // 2 stages
  EXPECT_GT(amp.output(0.95), 0.9);   // above bias stays above (x36 gain)
  EXPECT_LT(amp.output(0.85), 0.9);
  EXPECT_DOUBLE_EQ(amp.output(1.2), 1.8);  // saturates
}

TEST(VoltageAmplifier, TransientSettlesToStatic) {
  VoltageAmplifier amp;
  for (int i = 0; i < 200; ++i) amp.step(0.95, 0.5e-12);
  EXPECT_NEAR(amp.value(), amp.output(0.95), 1e-6);
  EXPECT_TRUE(amp.logic_value());
  amp.reset(0.9);
  EXPECT_NEAR(amp.value(), 0.9, 1e-12);
}

TEST(Comparator, DecisionsAndEnergy) {
  Comparator cmp;
  EXPECT_TRUE(cmp.decide(1.0, 0.5));
  EXPECT_FALSE(cmp.decide(0.4, 0.5));
  EXPECT_EQ(cmp.decision_count(), 2u);
  EXPECT_NEAR(cmp.consumed_energy(), 2 * 120e-15, 1e-18);
}

TEST(Comparator, OffsetFromRng) {
  ComparatorConfig config;
  config.offset_sigma = 10e-3;
  Rng rng(99);
  Comparator cmp(config, rng);
  EXPECT_NE(cmp.offset(), 0.0);
  EXPECT_LT(std::abs(cmp.offset()), 60e-3);  // within ~6 sigma
}

TEST(Comparator, NoisyDecisionsFlipNearThreshold) {
  ComparatorConfig config;
  config.noise_sigma = 5e-3;
  Comparator cmp(config);
  Rng rng(7);
  int highs = 0;
  for (int i = 0; i < 1000; ++i) {
    if (cmp.decide(0.5, 0.5, rng)) ++highs;
  }
  // Exactly at threshold, noise splits decisions roughly evenly.
  EXPECT_GT(highs, 350);
  EXPECT_LT(highs, 650);
}

}  // namespace
