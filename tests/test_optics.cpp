#include <gtest/gtest.h>

#include <cmath>

#include "optics/frequency_comb.hpp"
#include "optics/optical_signal.hpp"
#include "optics/splitter.hpp"
#include "optics/spectrum.hpp"
#include "optics/coupler.hpp"

namespace {

using namespace ptc::optics;

TEST(WavelengthGrid, UniformConstruction) {
  const auto grid = WavelengthGrid::uniform(1310e-9, 2.33e-9, 4);
  EXPECT_EQ(grid.size(), 4u);
  EXPECT_DOUBLE_EQ(grid.wavelength(0), 1310e-9);
  EXPECT_NEAR(grid.wavelength(3), 1316.99e-9, 1e-14);
  EXPECT_NEAR(grid.spacing(), 2.33e-9, 1e-15);
}

TEST(WavelengthGrid, NearestChannel) {
  const auto grid = WavelengthGrid::uniform(1310e-9, 2.33e-9, 4);
  EXPECT_EQ(grid.nearest_channel(1310.1e-9), 0u);
  EXPECT_EQ(grid.nearest_channel(1312.0e-9), 1u);
  EXPECT_EQ(grid.nearest_channel(1400e-9), 3u);
}

TEST(WavelengthGrid, RejectsUnsortedAndEmpty) {
  EXPECT_THROW(WavelengthGrid({1310e-9, 1309e-9}), std::invalid_argument);
  EXPECT_THROW(WavelengthGrid(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(WavelengthGrid({1310e-9, 1310e-9}), std::invalid_argument);
}

TEST(WdmSignal, AddChannelAndTotalPower) {
  WdmSignal s;
  s.add_channel(1310e-9, 1e-3);
  s.add_channel(1312e-9, 2e-3);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_NEAR(s.total_power(), 3e-3, 1e-12);
  EXPECT_THROW(s.add_channel(1310e-9, -1.0), std::invalid_argument);
}

TEST(WdmSignal, ScaleAndMerge) {
  WdmSignal a = WdmSignal::single(1310e-9, 1e-3);
  a.scale(0.5);
  EXPECT_NEAR(a.total_power(), 0.5e-3, 1e-12);
  WdmSignal b = WdmSignal::single(1310e-9, 0.25e-3);
  b.add_channel(1320e-9, 1e-3);
  a.add(b);
  EXPECT_EQ(a.size(), 2u);  // same wavelength merged, new one appended
  EXPECT_NEAR(a.channel(0).power, 0.75e-3, 1e-12);
  EXPECT_THROW(a.scale(-1.0), std::invalid_argument);
}

TEST(FrequencyComb, EmitsEqualLines) {
  const FrequencyComb comb(WavelengthGrid::uniform(1310e-9, 2.33e-9, 4), 2e-3);
  const auto sig = comb.emit();
  EXPECT_EQ(sig.size(), 4u);
  EXPECT_NEAR(sig.total_power(), 8e-3, 1e-12);
  EXPECT_NEAR(comb.wall_power(), 8e-3 / 0.23, 1e-6);
}

TEST(IntensityEncoder, EncodesWithLossAndExtinction) {
  const FrequencyComb comb(WavelengthGrid::uniform(1310e-9, 2.33e-9, 2), 1e-3);
  const IntensityEncoder encoder(0.5, 25.0);
  const auto out = encoder.encode(comb.emit(), {1.0, 0.0});
  const double loss = std::pow(10.0, -0.05);
  EXPECT_NEAR(out.channel(0).power, 1e-3 * loss, 1e-9);
  // Fully-off channel leaks at the extinction floor (10^-2.5 ~ 0.316%).
  EXPECT_GT(out.channel(1).power, 0.0);
  EXPECT_NEAR(out.channel(1).power / out.channel(0).power, 0.00316, 0.0005);
  EXPECT_THROW(encoder.encode(comb.emit(), {1.0}), std::invalid_argument);
  EXPECT_THROW(encoder.encode(comb.emit(), {1.0, 2.0}), std::invalid_argument);
}

TEST(PowerSplitter, ConservesPowerMinusExcessLoss) {
  const PowerSplitter splitter(0.5, 0.1);
  const auto [a, b] = splitter.split(WdmSignal::single(1310e-9, 1e-3));
  const double survive = std::pow(10.0, -0.01);
  EXPECT_NEAR(a.total_power() + b.total_power(), 1e-3 * survive, 1e-12);
  EXPECT_NEAR(a.total_power(), b.total_power(), 1e-15);
}

TEST(PowerSplitter, AsymmetricRatio) {
  const PowerSplitter splitter(0.8, 0.0);
  const auto [a, b] = splitter.split(WdmSignal::single(1310e-9, 1.0));
  EXPECT_NEAR(a.total_power(), 0.8, 1e-12);
  EXPECT_NEAR(b.total_power(), 0.2, 1e-12);
  EXPECT_THROW(PowerSplitter(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(PowerSplitter(1.0, 0.0), std::invalid_argument);
}

class SplitterTreeSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SplitterTreeSizes, EqualLeavesAndConservation) {
  const std::size_t n = GetParam();
  const SplitterTree tree(n, 0.0);
  const auto leaves = tree.split(WdmSignal::single(1310e-9, 1.0));
  ASSERT_EQ(leaves.size(), n);
  double total = 0.0;
  for (const auto& leaf : leaves) {
    EXPECT_NEAR(leaf.total_power(), 1.0 / static_cast<double>(n), 1e-12);
    total += leaf.total_power();
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Pow2, SplitterTreeSizes,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(SplitterTree, RejectsNonPowerOfTwo) {
  EXPECT_THROW(SplitterTree(3), std::invalid_argument);
  EXPECT_THROW(SplitterTree(0), std::invalid_argument);
}

class BinaryTapCounts : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BinaryTapCounts, BinaryWeightedFractions) {
  const std::size_t n = GetParam();
  const BinaryWeightedTaps taps(n, 0.0);
  const auto out = taps.split(WdmSignal::single(1310e-9, 1.0));
  ASSERT_EQ(out.size(), n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double expected = std::pow(0.5, static_cast<double>(k + 1));
    EXPECT_NEAR(out[k].total_power(), expected, 1e-12);
    total += out[k].total_power();
  }
  // Residual IN / 2^n goes to the absorber.
  EXPECT_NEAR(total + taps.residual_fraction(), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(BitCounts, BinaryTapCounts,
                         ::testing::Values(1, 2, 3, 4, 6));

TEST(DirectionalCoupler, GapMapping) {
  const DirectionalCoupler coupler;
  // Calibration anchors: kappa^2(200 nm) = 0.05.
  EXPECT_NEAR(coupler.power_coupling(200e-9), 0.05, 1e-12);
  // Larger gap -> weaker coupling; monotone.
  EXPECT_LT(coupler.power_coupling(250e-9), coupler.power_coupling(200e-9));
  EXPECT_LT(coupler.power_coupling(300e-9), coupler.power_coupling(250e-9));
  // Tiny gap clamps below 0.95.
  EXPECT_LE(coupler.power_coupling(0.0), 0.95);
  // t^2 + kappa^2 = 1.
  const double t = coupler.self_coupling(220e-9);
  const double k2 = coupler.power_coupling(220e-9);
  EXPECT_NEAR(t * t + k2, 1.0, 1e-12);
}

}  // namespace
