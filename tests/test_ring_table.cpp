// Ring table vs spectral walk: each macro tabulates every ring's thru
// transmission per stored-bit state and forms the fast path's chain gains
// from that table.  The tabulated chain must equal the chain_transmission
// walk BIT for bit through loads, detuning changes and fault-set changes —
// any invalidation the table misses shows up here as a stale gain.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/random_matrix.hpp"
#include "common/rng.hpp"
#include "core/tensor_core.hpp"
#include "core/vector_macro.hpp"

namespace {

using namespace ptc;
using core::RingFaultKind;
using core::VectorComputeMacro;

VectorComputeMacro make_macro(unsigned bits, std::uint64_t variation_seed) {
  core::VectorMacroConfig config;
  config.weight_bits = bits;
  config.variation.seed = variation_seed;
  return VectorComputeMacro(config);
}

void load_random(VectorComputeMacro& macro, Rng& rng) {
  std::vector<std::uint32_t> weights(macro.channels());
  for (std::uint32_t& w : weights) {
    w = static_cast<std::uint32_t>(rng.below(macro.max_weight() + 1));
  }
  macro.load_weights(weights);
}

// Every bit row's tabulated chain against the walk, exact equality.
void expect_table_matches_walk(VectorComputeMacro& macro) {
  std::vector<double> gains(macro.channels());
  for (unsigned bit = 0; bit < macro.weight_bits(); ++bit) {
    macro.tabulated_chain(bit, gains.data());
    for (std::size_t c = 0; c < macro.channels(); ++c) {
      ASSERT_EQ(gains[c], macro.chain_transmission(bit, c))
          << "bit row " << bit << ", channel " << c;
    }
  }
}

class RingTable
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t>> {
 protected:
  unsigned bits() const { return std::get<0>(GetParam()); }
  std::uint64_t variation_seed() const { return std::get<1>(GetParam()); }
};

TEST_P(RingTable, RandomLoadsMatchTheWalk) {
  VectorComputeMacro macro = make_macro(bits(), variation_seed());
  Rng rng(100 + variation_seed());
  expect_table_matches_walk(macro);  // the as-constructed all-zero load
  for (int load = 0; load < 24; ++load) {
    load_random(macro, rng);
    expect_table_matches_walk(macro);
  }
}

TEST_P(RingTable, DetuningSequenceInvalidatesTheTable) {
  VectorComputeMacro macro = make_macro(bits(), variation_seed());
  Rng rng(200 + variation_seed());
  // Returns to earlier values (0.4, then 0) so a table that kept slots
  // across a temperature change would serve them back stale.
  for (const double kelvin : {0.0, 0.4, -0.25, 0.4, 1.5, 0.0}) {
    macro.set_temperature_offset(kelvin);
    for (int load = 0; load < 6; ++load) {
      load_random(macro, rng);
      expect_table_matches_walk(macro);
    }
  }
}

TEST_P(RingTable, EveryFaultKindInjectedThenClearedMatchesTheWalk) {
  VectorComputeMacro macro = make_macro(bits(), variation_seed());
  Rng rng(300 + variation_seed());
  const std::size_t m = macro.channels();
  for (const RingFaultKind kind :
       {RingFaultKind::kStuckOn, RingFaultKind::kStuckOff}) {
    // Fill both bit states of every ring before the fault lands.
    macro.load_weights(std::vector<std::uint32_t>(m, 0));
    expect_table_matches_walk(macro);
    macro.load_weights(std::vector<std::uint32_t>(m, macro.max_weight()));
    expect_table_matches_walk(macro);

    // Latch a few rings, then read under loads that disagree with the
    // latched state on some of them.
    for (unsigned bit = 0; bit < macro.weight_bits(); bit += 2) {
      macro.set_ring_fault(bit, rng.below(m), kind);
    }
    expect_table_matches_walk(macro);
    for (int load = 0; load < 6; ++load) {
      load_random(macro, rng);
      expect_table_matches_walk(macro);
    }

    // Releasing one ring (kNone) is a fault-set change too.
    macro.set_ring_fault(0, 0, kind);
    expect_table_matches_walk(macro);
    macro.set_ring_fault(0, 0, RingFaultKind::kNone);
    for (int load = 0; load < 4; ++load) {
      load_random(macro, rng);
      expect_table_matches_walk(macro);
    }

    // And under a detuning, then clear everything.
    macro.set_temperature_offset(0.3);
    load_random(macro, rng);
    expect_table_matches_walk(macro);
    macro.set_temperature_offset(0.0);
    macro.load_weights(std::vector<std::uint32_t>(m, 0));
    expect_table_matches_walk(macro);
    macro.load_weights(std::vector<std::uint32_t>(m, macro.max_weight()));
    expect_table_matches_walk(macro);
    macro.clear_ring_faults();
    EXPECT_EQ(macro.ring_fault_count(), 0u);
    macro.load_weights(std::vector<std::uint32_t>(m, 0));
    expect_table_matches_walk(macro);
    macro.load_weights(std::vector<std::uint32_t>(m, macro.max_weight()));
    expect_table_matches_walk(macro);
    for (int load = 0; load < 4; ++load) {
      load_random(macro, rng);
      expect_table_matches_walk(macro);
    }
  }
}

// 3 and 6 bits; the pristine design device and three varied dies.
INSTANTIATE_TEST_SUITE_P(
    BitsAndDies, RingTable,
    ::testing::Combine(::testing::Values(3u, 6u),
                       ::testing::Values(std::uint64_t{0}, std::uint64_t{7},
                                         std::uint64_t{19},
                                         std::uint64_t{1234})));

// ---------------------------------------------------------------------------
// Core level: the fast path (ring table + locked-calibration memo) against a
// fast_path = false core through interleaved load / detune / fault / clear.
// ---------------------------------------------------------------------------

core::TensorCoreConfig varied_core(bool fast_path) {
  core::TensorCoreConfig config;
  config.fast_path = fast_path;
  config.variation.seed = 5;
  return config;
}

class RingTableCore : public ::testing::Test {
 protected:
  RingTableCore() : fast_(varied_core(true)), physics_(varied_core(false)) {
    Rng w_rng(21);
    for (Matrix& w : weights_) w = random_activations(16, 16, w_rng);
    Rng x_rng(22);
    inputs_ = random_activations(4, 16, x_rng);
  }

  void load(std::size_t block) {
    fast_.load_weights_normalized(weights_[block]);
    physics_.load_weights_normalized(weights_[block]);
  }
  void detune(double kelvin) {
    fast_.set_thermal_detuning(kelvin);
    physics_.set_thermal_detuning(kelvin);
  }
  void expect_identical(const char* step) {
    ASSERT_TRUE(fast_.fast_path_active()) << step;
    EXPECT_EQ(fast_.multiply_analog_batch(inputs_).max_abs_diff(
                  physics_.multiply_analog_batch(inputs_)),
              0.0)
        << step;
  }

  core::TensorCore fast_;
  core::TensorCore physics_;
  Matrix weights_[3];
  Matrix inputs_;
};

TEST_F(RingTableCore, FastPathMatchesOracleThroughLoadsDetuningsAndFaults) {
  load(0);
  expect_identical("locked load 0");
  load(1);
  expect_identical("locked load 1");
  detune(0.35);
  expect_identical("stale refresh at 0.35 K");
  load(2);
  expect_identical("drifted cold load 2");
  load(0);
  expect_identical("drifted reload 0");
  detune(0.0);
  expect_identical("re-lock, memo hit");
  load(1);
  expect_identical("locked reload 1, memo hit");

  const std::vector<core::RingFaultSite> sites = {
      {0, 0, 0, RingFaultKind::kStuckOn},
      {3, 5, 1, RingFaultKind::kStuckOff},
      {9, 12, 2, RingFaultKind::kStuckOn},
      {15, 15, 0, RingFaultKind::kStuckOff}};
  fast_.inject_ring_faults(sites);
  physics_.inject_ring_faults(sites);
  expect_identical("faults injected");
  load(0);
  expect_identical("faulted load 0");
  detune(-0.2);
  load(2);
  expect_identical("faulted, drifted load 2");
  fast_.inject_ring_fault(3, 5, 1, RingFaultKind::kNone);
  physics_.inject_ring_fault(3, 5, 1, RingFaultKind::kNone);
  expect_identical("one ring released");
  fast_.clear_faults();
  physics_.clear_faults();
  expect_identical("faults cleared, drifted");
  detune(0.0);
  load(0);
  expect_identical("faults cleared, locked load 0");
}

TEST_F(RingTableCore, StuckHeaterAtNonzeroDetuningRebuildsEveryReload) {
  // A stuck heater pins the core at a drifted detuning, whose calibrations
  // are not memoized: every reload re-forms its chain from the ring table.
  detune(0.45);
  fast_.inject_stuck_heater();
  physics_.inject_stuck_heater();
  for (const std::size_t block : {0, 1, 0, 2, 1, 0}) {
    load(block);
    expect_identical("stuck-heater reload");
  }
  fast_.recalibrate();  // ignored: no tuning authority
  physics_.recalibrate();
  load(2);
  expect_identical("re-lock ignored");

  const std::vector<core::RingFaultSite> sites = {
      {2, 3, 0, RingFaultKind::kStuckOff}, {7, 8, 2, RingFaultKind::kStuckOn}};
  fast_.inject_ring_faults(sites);
  physics_.inject_ring_faults(sites);
  load(0);
  expect_identical("stuck heater plus ring faults");

  fast_.clear_faults();
  physics_.clear_faults();
  fast_.recalibrate();
  physics_.recalibrate();
  EXPECT_EQ(fast_.thermal_detuning(), 0.0);
  for (const std::size_t block : {0, 1, 0}) {
    load(block);
    expect_identical("re-locked reload");
  }
}

TEST(RingTableShapes, FastPathMatchesOracleAcrossGeometriesAndPrecisions) {
  struct Shape {
    std::size_t rows, cols;
    unsigned bits;
  };
  for (const Shape shape : {Shape{4, 8, 1}, Shape{8, 32, 4}, Shape{6, 12, 8}}) {
    core::TensorCoreConfig config = varied_core(true);
    config.rows = shape.rows;
    config.cols = shape.cols;
    config.weight_bits = shape.bits;
    core::TensorCore fast(config);
    config.fast_path = false;
    core::TensorCore physics(config);

    Rng rng(40 + shape.bits);
    const Matrix x = random_activations(3, shape.cols, rng);
    auto step = [&](const char* what) {
      const Matrix w = random_activations(shape.rows, shape.cols, rng);
      fast.load_weights_normalized(w);
      physics.load_weights_normalized(w);
      EXPECT_EQ(fast.multiply_analog_batch(x).max_abs_diff(
                    physics.multiply_analog_batch(x)),
                0.0)
          << what << " (" << shape.rows << "x" << shape.cols << ", "
          << shape.bits << " bits)";
    };
    step("locked");
    step("locked reload");
    fast.set_thermal_detuning(0.6);
    physics.set_thermal_detuning(0.6);
    step("drifted");
    const std::vector<core::RingFaultSite> sites = {
        {0, 1, 0, RingFaultKind::kStuckOn},
        {shape.rows - 1, shape.cols - 1, shape.bits - 1,
         RingFaultKind::kStuckOff}};
    fast.inject_ring_faults(sites);
    physics.inject_ring_faults(sites);
    step("faulted");
    fast.clear_faults();
    physics.clear_faults();
    step("cleared");
  }
}

}  // namespace
