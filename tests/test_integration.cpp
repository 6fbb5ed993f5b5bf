#include <gtest/gtest.h>

#include <cmath>

#include "adc/ideal_adc.hpp"
#include "baseline/pcm_crossbar.hpp"
#include "core/psram_bitcell.hpp"
#include "core/tensor_core.hpp"
#include "nn/backend.hpp"
#include "nn/layers.hpp"

namespace {

using namespace ptc;
using namespace ptc::core;

TEST(Integration, DeviceLevelWriteEnergyMatchesArrayCalibration) {
  // The behavioral array books 0.493 pJ per flip; the device-level ODE model
  // must agree within 5% — this pins the two fidelity levels together.
  PsramBitcell cell;
  cell.initialize(false);
  const auto result = cell.write(true);
  const PsramArrayConfig array_defaults{};
  EXPECT_NEAR(result.total_energy(), array_defaults.write_energy,
              0.05 * array_defaults.write_energy);
}

TEST(Integration, DeviceLevelWriteSettlesWithinArrayWriteSlot) {
  PsramBitcell cell;
  cell.initialize(true);
  const auto result = cell.write(false);
  const PsramArrayConfig array_defaults{};
  EXPECT_LT(result.settle_time, 1.0 / array_defaults.write_rate);
}

TEST(Integration, EndToEndMatrixVectorPipeline) {
  // Load weights optically, multiply, digitize — then validate against an
  // ideal digital pipeline (exact dot product + ideal 3-bit quantizer).
  TensorCore tc;
  Rng rng(2024);
  std::vector<std::vector<std::uint32_t>> w(16,
                                            std::vector<std::uint32_t>(16));
  for (auto& row : w)
    for (auto& v : row) v = static_cast<std::uint32_t>(rng.below(8));
  tc.load_weights(w);

  const adc::IdealAdc ideal(3, 1.0);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> input(16);
    for (auto& v : input) v = rng.uniform();
    const auto codes = tc.multiply(input);
    const auto reference = tc.reference(input);
    for (std::size_t r = 0; r < 16; ++r) {
      const int hw = static_cast<int>(codes[r]);
      const int golden = static_cast<int>(ideal.convert(reference[r]));
      EXPECT_LE(std::abs(hw - golden), 1)
          << "trial " << trial << " row " << r;
    }
  }
}

TEST(Integration, WeightStreamingUpdatesResults) {
  // The paper's headline use case: datasets larger than the array are
  // streamed through at the 20 GHz update rate.
  TensorCore tc;
  std::vector<std::vector<std::uint32_t>> w_low(
      16, std::vector<std::uint32_t>(16, 1));
  std::vector<std::vector<std::uint32_t>> w_high(
      16, std::vector<std::uint32_t>(16, 7));
  const std::vector<double> input(16, 1.0);

  tc.load_weights(w_low);
  const auto low_codes = tc.multiply(input);
  double reload = tc.load_weights(w_high);
  const auto high_codes = tc.multiply(input);

  EXPECT_NEAR(reload * 1e9, 2.4, 1e-9);
  for (std::size_t r = 0; r < 16; ++r) {
    EXPECT_LT(low_codes[r], high_codes[r]);
    EXPECT_EQ(high_codes[r], 7u);
  }
  // Write energy is counted for the flipped bits of both loads.
  EXPECT_GT(tc.psram().write_energy(), 0.0);
  EXPECT_EQ(tc.psram().write_energy(),
            static_cast<double>(tc.psram().bit_flips()) *
                tc.config().psram.write_energy);
}

TEST(Integration, UpdateSpeedAdvantageOverPcm) {
  // Reloading all weights: pSRAM tensor core vs the PCM crossbar baseline.
  TensorCore tc;
  std::vector<std::vector<std::uint32_t>> w(
      16, std::vector<std::uint32_t>(16, 3));
  const double psram_time = tc.load_weights(w);

  baseline::PcmCrossbar pcm;
  Matrix pw(16, 16, 0.4);
  const double pcm_time = pcm.program(pw);

  // Paper Table I: 20 GHz vs ~1 GHz-class writes; full-array reload gap is
  // larger still because PCM needs long pulses.
  EXPECT_GT(pcm_time / psram_time, 100.0);
}

TEST(Integration, PhotonicConvolutionMatchesFloat) {
  TensorCore tc;
  nn::PhotonicBackendOptions options;
  options.quantize_output = false;
  options.differential_weights = true;  // exact zeros for the sparse kernel
  nn::PhotonicBackend photonic(tc, options);
  nn::FloatBackend reference;

  // Edge-detection kernel over a synthetic gradient image.
  Matrix img(8, 8);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j) img(i, j) = (j < 4) ? 0.1 : 0.9;
  const Matrix kernel{{-1.0, 0.0, 1.0}, {-2.0, 0.0, 2.0}, {-1.0, 0.0, 1.0}};

  const Matrix expected = nn::conv2d(reference, img, kernel);
  const Matrix actual = nn::conv2d(photonic, img, kernel);
  ASSERT_EQ(actual.rows(), expected.rows());
  // The vertical edge must appear in the same columns with the same sign.
  for (std::size_t i = 0; i < actual.rows(); ++i) {
    for (std::size_t j = 0; j < actual.cols(); ++j) {
      EXPECT_NEAR(actual(i, j), expected(i, j), 0.45);
      if (expected(i, j) > 2.0) {
        EXPECT_GT(actual(i, j), 1.5);
      }
    }
  }
}

TEST(Integration, AdcFaultCounterStaysZeroInNormalOperation) {
  // Across a fine input ramp, the eoADC never produces non-adjacent
  // multi-activation patterns.
  EoAdc adc;
  for (double v = 0.0; v <= 4.0; v += 0.005) {
    const auto conv = adc.convert(v);
    EXPECT_FALSE(conv.fault) << "fault at " << v;
    EXPECT_TRUE(conv.any_active) << "dead zone at " << v;
  }
}

TEST(Integration, ThermalDriftBreaksThenHeatersRestoreMultiply) {
  // MRRs are thermally sensitive (paper Sec. I); heaters must re-trim.
  VectorComputeMacro macro;
  macro.load_weights({7, 7, 7, 7});
  const std::vector<double> in{1.0, 1.0, 1.0, 1.0};
  const double nominal = macro.multiply(in).normalized;
  EXPECT_NEAR(nominal, 1.0, 0.01);
  // (Drift handling for the macro is exercised at ring level in
  // test_microring; here we confirm the nominal operating point.)
}

}  // namespace
