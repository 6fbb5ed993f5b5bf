#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/tech.hpp"
#include "optics/microring.hpp"
#include "optics/pn_phase_shifter.hpp"

namespace {

using namespace ptc::optics;
using ptc::core::adc_ring_config;
using ptc::core::compute_ring_config;
using ptc::core::channel_wavelength;

// ---------------------------------------------------------------------------
// Compute/pSRAM ring (7.5 um, add-drop, 200 nm gaps) — paper Sec. IV-B.
// ---------------------------------------------------------------------------

TEST(ComputeRing, FsrMatchesPaper) {
  const Microring ring(compute_ring_config(0, 0.0));
  // Paper: 9.36 nm FSR.
  EXPECT_NEAR(ring.fsr(1310e-9) * 1e9, 9.36, 0.01);
}

TEST(ComputeRing, ResonancePinnedAtDesignWavelength) {
  const Microring ring(compute_ring_config(0, 0.0));
  EXPECT_NEAR(ring.resonance_near(1310e-9), 1310e-9, 1e-15);
}

class RingChannelSpacing : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RingChannelSpacing, DlStepsGiveChannelGrid) {
  // Paper Fig. 6: dL in {0, 68, 136, 204} nm -> resonances 2.33 nm apart.
  const std::size_t channel = GetParam();
  const Microring ring(compute_ring_config(channel, 0.0));
  const double expected = channel_wavelength(channel);
  EXPECT_NEAR(ring.resonance_near(expected) * 1e9, expected * 1e9, 2e-3);
}

INSTANTIATE_TEST_SUITE_P(Channels, RingChannelSpacing,
                         ::testing::Values(0, 1, 2, 3));

TEST(ComputeRing, OnStateExtinctionBelowMinus25dB) {
  Microring ring(compute_ring_config(0, 0.0));
  ring.set_bias(0.0);  // pinned on resonance at 0 V
  EXPECT_LT(ring.thru_transmission(1310e-9), 3e-3);  // < -25 dB
  EXPECT_GT(ring.drop_transmission(1310e-9), 0.9);   // light exits the drop
}

TEST(ComputeRing, OffStatePassesThru) {
  Microring ring(compute_ring_config(0, 0.0));
  ring.set_bias(1.8);  // VDD shifts the ring off resonance
  EXPECT_GT(ring.thru_transmission(1310e-9), 0.95);
  EXPECT_LT(ring.drop_transmission(1310e-9), 0.05);
}

TEST(ComputeRing, VddShiftIsSeveralLinewidths) {
  Microring ring(compute_ring_config(0, 0.0));
  const double fwhm = ring.fwhm(1310e-9);
  const double res0 = ring.resonance_near(1310e-9);
  ring.set_bias(1.8);
  const double res1 = ring.resonance_near(1310e-9);
  EXPECT_GT((res1 - res0) / fwhm, 2.0);
  EXPECT_NEAR((res1 - res0) * 1e12, 448.0, 5.0);  // ~448 pm at VDD
}

TEST(ComputeRing, PinBiasShiftsOperatingPoint) {
  // pSRAM latch rings resonate at VDD instead of 0 V.
  Microring latch_ring(compute_ring_config(0, 1.8));
  latch_ring.set_bias(1.8);
  EXPECT_LT(latch_ring.thru_transmission(1310e-9), 3e-3);
  latch_ring.set_bias(0.0);
  EXPECT_GT(latch_ring.thru_transmission(1310e-9), 0.95);
}

TEST(ComputeRing, PowerConservation) {
  Microring ring(compute_ring_config(0, 0.0));
  for (double detune_pm : {0.0, 50.0, 200.0, 1000.0}) {
    const double lambda = 1310e-9 + detune_pm * 1e-12;
    const double total = ring.thru_transmission(lambda) +
                         ring.drop_transmission(lambda) +
                         ring.absorbed_fraction(lambda);
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_GE(ring.absorbed_fraction(lambda), 0.0);
  }
}

TEST(ComputeRing, AdjacentChannelCrosstalkIsSmall) {
  // A ring resonant at channel 0 barely touches channel 1 (2.33 nm away).
  Microring ring(compute_ring_config(0, 0.0));
  ring.set_bias(0.0);
  EXPECT_GT(ring.thru_transmission(channel_wavelength(1)), 0.995);
  EXPECT_GT(ring.thru_transmission(channel_wavelength(3)), 0.995);
}

TEST(ComputeRing, PeriodicResonances) {
  const Microring ring(compute_ring_config(0, 0.0));
  const double fsr = ring.fsr(1310e-9);
  // The next resonance order sits one FSR away.
  const double next = ring.resonance_near(1310e-9 + fsr);
  EXPECT_NEAR(next - 1310e-9, fsr, 0.02 * fsr);
}

TEST(ComputeRing, ThermalShiftRedshifts) {
  Microring ring(compute_ring_config(0, 0.0));
  const double res0 = ring.resonance_near(1310e-9);
  ring.set_temperature_offset(5.0);  // +5 K
  const double res1 = ring.resonance_near(1310e-9);
  EXPECT_NEAR((res1 - res0) * 1e12, 350.0, 1.0);  // 5 K x 70 pm/K
}

TEST(ComputeRing, HeaterAndFabricationShifts) {
  Microring ring(compute_ring_config(0, 0.0));
  ring.set_heater_shift(100e-12);
  EXPECT_NEAR((ring.resonance_near(1310e-9) - 1310e-9) * 1e12, 100.0, 0.5);
  ring.set_heater_shift(0.0);
  ring.set_resonance_error(-60e-12);
  EXPECT_NEAR((ring.resonance_near(1310e-9) - 1310e-9) * 1e12, -60.0, 0.5);
  EXPECT_THROW(ring.set_heater_shift(-1e-12), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// eoADC ring (10 um, all-pass, 250 nm gap, near-critical) — paper Sec. IV-C.
// ---------------------------------------------------------------------------

TEST(AdcRing, HighQAllPass) {
  const Microring ring(adc_ring_config());
  EXPECT_FALSE(ring.config().add_drop);
  EXPECT_DOUBLE_EQ(ring.drop_transmission(1310.5e-9), 0.0);
  EXPECT_GT(ring.q_factor(1310.5e-9), 40e3);  // high-Q as the paper requires
  EXPECT_LT(ring.q_factor(1310.5e-9), 80e3);
}

TEST(AdcRing, NearCriticalCouplingExtinction) {
  Microring ring(adc_ring_config());
  ring.set_bias(0.0);
  EXPECT_LT(ring.thru_transmission(1310.5e-9), 1e-3);  // deep notch
}

TEST(AdcRing, ThresholdCrossingAtQuarterVolt) {
  // DESIGN.md calibration: at |V_pn| = LSB/2 = 0.25 V the thru power on
  // 200 uW input equals the 18 uW reference.
  Microring ring(adc_ring_config());
  ring.set_bias(0.25);
  EXPECT_NEAR(200e-6 * ring.thru_transmission(1310.5e-9), 18e-6, 0.5e-6);
  ring.set_bias(-0.25);
  EXPECT_NEAR(200e-6 * ring.thru_transmission(1310.5e-9), 18e-6, 0.5e-6);
}

TEST(AdcRing, AdjacentReferenceStaysInactive) {
  // At |V_pn| = LSB = 0.5 V (the neighbouring channel's distance when the
  // input sits on a reference) the thru power is far above threshold.
  Microring ring(adc_ring_config());
  ring.set_bias(0.5);
  EXPECT_GT(200e-6 * ring.thru_transmission(1310.5e-9), 2.5 * 18e-6);
}

TEST(AdcRing, NotchDepthMonotoneInDetuning) {
  Microring ring(adc_ring_config());
  double prev = -1.0;
  for (double v = 0.0; v <= 1.0; v += 0.05) {
    ring.set_bias(v);
    const double t = ring.thru_transmission(1310.5e-9);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(AdcRing, FwhmMatchesDesign) {
  const Microring ring(adc_ring_config());
  EXPECT_NEAR(ring.fwhm(1310.5e-9) * 1e12, 26.4, 1.5);  // ~26 pm
}

TEST(Microring, RejectsBadConfig) {
  MicroringConfig bad = compute_ring_config(0, 0.0);
  bad.radius = 0.0;
  EXPECT_THROW(Microring{bad}, std::invalid_argument);
  bad = compute_ring_config(0, 0.0);
  bad.n_eff = 0.5;
  EXPECT_THROW(Microring{bad}, std::invalid_argument);
  const Microring good(compute_ring_config(0, 0.0));
  EXPECT_THROW(good.thru_transmission(0.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Cached electro-optic shift: a ring driven through any setter sequence
// evaluates bit for bit like a ring freshly constructed in its final state.
// ---------------------------------------------------------------------------

struct RingState {
  double bias = 0.0;
  double temperature = 0.0;
  double heater = 0.0;
  double fab_error = 0.0;
};

Microring fresh_ring(const MicroringConfig& config, const RingState& state) {
  Microring ring(config);
  ring.set_bias(state.bias);
  ring.set_temperature_offset(state.temperature);
  ring.set_heater_shift(state.heater);
  ring.set_resonance_error(state.fab_error);
  return ring;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Every spectral response of `ring` equals, bit for bit, that of a ring
/// constructed fresh with `state`.
void expect_matches_fresh(const Microring& ring, const RingState& state) {
  const Microring fresh = fresh_ring(ring.config(), state);
  const double design = ring.config().design_wavelength;
  for (double lambda : {design, design - 120e-12, design + 35e-12,
                        channel_wavelength(0), channel_wavelength(3)}) {
    EXPECT_TRUE(same_bits(ring.thru_transmission(lambda),
                          fresh.thru_transmission(lambda)))
        << "thru at " << lambda << ", bias " << state.bias;
    EXPECT_TRUE(same_bits(ring.drop_transmission(lambda),
                          fresh.drop_transmission(lambda)))
        << "drop at " << lambda << ", bias " << state.bias;
    EXPECT_TRUE(same_bits(ring.resonance_near(lambda),
                          fresh.resonance_near(lambda)))
        << "resonance near " << lambda << ", bias " << state.bias;
  }
}

/// Ring configurations with a nonzero pin bias: an add-drop compute ring
/// and an all-pass eoADC ring.
std::vector<MicroringConfig> pinned_configs() {
  MicroringConfig adc = adc_ring_config();
  adc.pin_bias = -0.4;
  return {compute_ring_config(0, 0.9), adc};
}

TEST(MicroringCache, EverySetterOrderMatchesAFreshRing) {
  // Bias steps include a repeated value, a return to the pin bias and -0.0
  // right after 0.0.
  const std::vector<double> biases = {1.8, 1.8, 0.0, -0.0, 0.9, 0.25, 0.25};
  for (const MicroringConfig& config : pinned_configs()) {
    std::array<int, 4> order = {0, 1, 2, 3};
    do {
      // rings[0] sees the whole sequence; rings[1] is copied from it after
      // the second setter and then driven alongside it.
      std::vector<Microring> rings = {Microring(config)};
      rings.reserve(2);
      RingState state;
      auto expect_all_match = [&] {
        for (const Microring& r : rings) expect_matches_fresh(r, state);
      };
      expect_all_match();
      for (std::size_t step = 0; step < order.size(); ++step) {
        switch (order[step]) {
          case 0:
            for (double v : biases) {
              for (Microring& r : rings) r.set_bias(v);
              state.bias = v;
              expect_all_match();
            }
            break;
          case 1:
            for (Microring& r : rings) r.set_temperature_offset(2.5);
            state.temperature = 2.5;
            break;
          case 2:
            for (Microring& r : rings) r.set_heater_shift(40e-12);
            state.heater = 40e-12;
            break;
          default:
            for (Microring& r : rings) r.set_resonance_error(-25e-12);
            state.fab_error = -25e-12;
            break;
        }
        expect_all_match();
        if (step == 1) rings.push_back(rings.front());
      }
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

TEST(MicroringCache, ResonanceTracksTheJunctionShift) {
  // Absolute check on the cached term: at every bias, the resonance sits
  // resonance_shift(bias) - resonance_shift(pin_bias) from the pinned one.
  for (const MicroringConfig& config : pinned_configs()) {
    const PnPhaseShifter junction(config.junction);
    const double design = config.design_wavelength;
    const double pin_shift = junction.resonance_shift(config.pin_bias);
    Microring ring(config);  // constructed at bias 0
    EXPECT_NEAR((ring.resonance_near(design) - design) * 1e12,
                (junction.resonance_shift(0.0) - pin_shift) * 1e12, 0.5);
    for (double v : {config.pin_bias, 1.8, -0.3, 0.0}) {
      ring.set_bias(v);
      EXPECT_NEAR((ring.resonance_near(design) - design) * 1e12,
                  (junction.resonance_shift(v) - pin_shift) * 1e12, 0.5)
          << "bias " << v;
    }
  }
}

}  // namespace
