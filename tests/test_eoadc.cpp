#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/eoadc.hpp"

namespace {

using namespace ptc::core;

TEST(EoAdc, QuantizationGeometry) {
  EoAdc adc;
  EXPECT_EQ(adc.bits(), 3u);
  EXPECT_EQ(adc.channel_count(), 8u);
  EXPECT_DOUBLE_EQ(adc.lsb(), 0.5);
  EXPECT_EQ(adc.max_code(), 7u);
  // References sit at bin centres.
  EXPECT_NEAR(adc.reference_voltage(0), 0.25, 1e-12);
  EXPECT_NEAR(adc.reference_voltage(7), 3.75, 1e-12);
}

class BinCentres : public ::testing::TestWithParam<unsigned> {};

TEST_P(BinCentres, OneHotAtEveryBinCentre) {
  const unsigned bin = GetParam();
  EoAdc adc;
  const double v = (bin + 0.5) * adc.lsb();
  const auto conv = adc.convert(v);
  EXPECT_EQ(conv.code, bin);
  EXPECT_TRUE(conv.any_active);
  EXPECT_FALSE(conv.boundary);
  EXPECT_FALSE(conv.fault);
  // Exactly one channel active: the 1-hot property.
  std::size_t active = 0;
  for (bool a : conv.active) active += a ? 1 : 0;
  EXPECT_EQ(active, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllBins, BinCentres,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7));

TEST(EoAdc, PaperFig9StaticCases) {
  EoAdc adc;
  EXPECT_EQ(adc.code(0.72), 0b001u);
  EXPECT_EQ(adc.code(3.30), 0b110u);
  const auto boundary = adc.convert(2.0);
  EXPECT_EQ(boundary.code, 0b100u);
  EXPECT_TRUE(boundary.boundary);  // B4 and B5 both fired
}

TEST(EoAdc, BoundaryDoubleActivationPattern) {
  EoAdc adc;
  const auto conv = adc.convert(2.0);
  std::size_t active = 0;
  for (bool a : conv.active) active += a ? 1 : 0;
  EXPECT_EQ(active, 2u);
  EXPECT_TRUE(conv.active[3]);
  EXPECT_TRUE(conv.active[4]);
}

TEST(EoAdc, MonotoneTransferFunction) {
  EoAdc adc;
  unsigned prev = 0;
  for (double v = 0.0; v <= 4.0; v += 0.01) {
    const unsigned code = adc.code(v);
    EXPECT_GE(code, prev) << "non-monotonic at " << v;
    prev = code;
  }
  EXPECT_EQ(prev, 7u);  // reaches full scale
}

TEST(EoAdc, CodeEdgesUniformlySpaced) {
  EoAdc adc;
  const auto edges = adc.code_edges();
  ASSERT_EQ(edges.size(), 7u);
  for (std::size_t k = 0; k + 1 < edges.size(); ++k) {
    EXPECT_NEAR(edges[k + 1] - edges[k], 0.5, 0.01);
  }
  // Small uniform offset from the activation-window overlap is expected.
  EXPECT_NEAR(edges[0], 0.49, 0.02);
}

TEST(EoAdc, LinearityCleanLadder) {
  EoAdc adc;
  const auto lin = adc.linearity();
  EXPECT_LT(lin.max_abs_dnl, 0.1);
  EXPECT_LT(lin.max_abs_inl, 0.1);
  EXPECT_FALSE(lin.missing_codes);  // Fig. 10: no missing codes
}

TEST(EoAdc, MismatchedLadderDegradesDnlWithoutMissingCodes) {
  EoAdcConfig config;
  config.vref_mismatch_sigma = 8e-3;
  config.mismatch_seed = 5;
  EoAdc adc(config);
  const auto lin = adc.linearity();
  EXPECT_GT(lin.max_abs_dnl, 0.005);  // visible DNL
  EXPECT_LT(lin.max_abs_dnl, 0.5);
  EXPECT_FALSE(lin.missing_codes);
}

TEST(EoAdc, Fig8ChannelPowerDipsAtReferences) {
  EoAdc adc;
  for (std::size_t ch = 0; ch < 8; ++ch) {
    const double at_ref = adc.channel_thru_power(ch, adc.reference_voltage(ch));
    EXPECT_LT(at_ref, 1e-6);  // deep notch at own reference
    // Half a volt away the channel is far above threshold.
    const double away =
        adc.channel_thru_power(ch, adc.reference_voltage(ch) + 0.5);
    EXPECT_GT(away, 2.5 * 18e-6);
  }
}

TEST(EoAdc, PowerBudgetMatchesPaper) {
  const EoAdc adc;
  EXPECT_NEAR(adc.optical_power_delivered() * 1e3, 1.744, 1e-6);
  EXPECT_NEAR(adc.optical_wall_power() * 1e3, 7.58, 0.01);   // paper: 7.58 mW
  EXPECT_NEAR(adc.electrical_power() * 1e3, 11.0, 0.1);      // paper: 11 mW
  EXPECT_NEAR(adc.energy_per_conversion() * 1e12, 2.32, 0.02);  // 2.32 pJ
  EXPECT_DOUBLE_EQ(adc.sample_rate(), 8e9);                  // 8 GS/s
}

TEST(EoAdc, AmplifierLessModeMatchesPaper) {
  EoAdcConfig config;
  config.use_amplifier_chain = false;
  const EoAdc slow(config);
  const EoAdc fast;
  // Paper: 416.7 MS/s with 58% less electrical power.
  EXPECT_NEAR(slow.sample_rate() / 1e6, 416.7, 25.0);
  const double reduction =
      1.0 - slow.electrical_power() / fast.electrical_power();
  EXPECT_NEAR(reduction, 0.58, 0.01);
}

class TransientVsStatic : public ::testing::TestWithParam<double> {};

TEST_P(TransientVsStatic, TransientCodeMatchesStatic) {
  EoAdc adc;
  const double v = GetParam();
  const unsigned expected = adc.code(v);
  const auto result = adc.convert_transient(v);
  EXPECT_EQ(result.conversion.code, expected) << "at " << v << " V";
  EXPECT_TRUE(result.completed);
}

INSTANTIATE_TEST_SUITE_P(Voltages, TransientVsStatic,
                         ::testing::Values(0.1, 0.72, 1.3, 1.6, 2.0, 2.4, 2.9,
                                           3.3, 3.9));

TEST(EoAdc, TransientDecisionWithinSamplingWindow) {
  EoAdc adc;
  // Worst case is near a code edge where the balanced current is smallest.
  const auto result = adc.convert_transient(1.95);
  EXPECT_TRUE(result.completed);
  EXPECT_LT(result.decision_time, 125e-12);  // inside the 8 GS/s window
}

TEST(EoAdc, TransientBoundaryCeiling) {
  EoAdc adc;
  const auto result = adc.convert_transient(2.0);
  EXPECT_EQ(result.conversion.code, 0b100u);
  EXPECT_TRUE(result.conversion.boundary);
}

TEST(EoAdc, TransientTracesRecorded) {
  EoAdc adc;
  ptc::sim::TraceSet traces;
  adc.convert_transient(0.72, &traces);
  ASSERT_TRUE(traces.contains("qp1"));
  ASSERT_TRUE(traces.contains("b1"));
  // The active channel's Qp discharges below its 0.9 V bias point.
  EXPECT_LT(traces.get("qp1").final_value(), 0.9);
  // An inactive channel's Qp climbs instead.
  EXPECT_GT(traces.get("qp5").final_value(), 0.9);
}

TEST(EoAdc, FourBitVariantWorks) {
  EoAdcConfig config;
  config.bits = 4;
  EoAdc adc(config);
  EXPECT_EQ(adc.channel_count(), 16u);
  EXPECT_DOUBLE_EQ(adc.lsb(), 0.25);
  // Spot-check a few bins.
  EXPECT_EQ(adc.code(0.125), 0u);
  EXPECT_EQ(adc.code(2.125), 8u);
  EXPECT_EQ(adc.code(3.875), 15u);
}

TEST(EoAdc, RejectsBadConfig) {
  EoAdcConfig bad;
  bad.bits = 5;
  EXPECT_THROW(EoAdc{bad}, std::invalid_argument);
  bad = {};
  bad.trip_offset_ratio = 0.9;
  EXPECT_THROW(EoAdc{bad}, std::invalid_argument);
}

// --- frozen code-edge table (EoAdc::code) vs the walk (EoAdc::convert) ----

EoAdcConfig table_config(unsigned bits, double sigma, std::uint64_t seed) {
  EoAdcConfig config;
  config.bits = bits;
  config.vref_mismatch_sigma = sigma;
  config.mismatch_seed = seed;
  return config;
}

/// code(v) == convert(v).code at every double within +-4096 ulps of each
/// edge, on a dense sweep of the covered domain [-V_FS, 8 V_FS], at both
/// domain ends +-1 ulp, far outside the domain, and for NaN.
void expect_table_equals_walk(EoAdc& adc, const std::vector<double>& edges) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> probes;
  for (const double edge : edges) {
    double v = edge;
    for (int i = 0; i < 4096; ++i) v = std::nextafter(v, -kInf);
    for (int i = 0; i <= 2 * 4096; ++i, v = std::nextafter(v, kInf)) {
      probes.push_back(v);
    }
  }
  const double fs = adc.config().v_full_scale;
  for (double v = -fs; v <= 8.0 * fs; v += adc.lsb() / 64.0) {
    probes.push_back(v);
  }
  for (const double end : {-fs, 8.0 * fs}) {
    probes.insert(probes.end(), {std::nextafter(end, -kInf), end,
                                 std::nextafter(end, kInf)});
  }
  probes.insert(probes.end(), {1e6, -1e6, kInf, -kInf,
                               std::numeric_limits<double>::quiet_NaN()});
  for (const double v : probes) {
    ASSERT_EQ(adc.code(v), adc.convert(v).code) << "at v = " << v;
  }
}

/// Arms the table on first use and pins it to the walk everywhere.
void expect_armed_table_equals_walk(unsigned bits, double sigma,
                                    std::uint64_t seed) {
  SCOPED_TRACE("bits " + std::to_string(bits) + ", sigma " +
               std::to_string(sigma) + ", seed " + std::to_string(seed));
  EoAdc adc(table_config(bits, sigma, seed));
  EXPECT_TRUE(adc.code_table().empty());  // built lazily, on first code()
  adc.code(0.0);
  const std::vector<double> edges = adc.code_table();
  ASSERT_EQ(edges.size(), adc.max_code());
  for (std::size_t k = 0; k < edges.size(); ++k) {
    // Exact edges: code k + 1 at the edge, code k one ulp below it.
    EXPECT_EQ(adc.convert(edges[k]).code, k + 1);
    EXPECT_EQ(adc.convert(std::nextafter(edges[k], -1e9)).code, k);
  }
  expect_table_equals_walk(adc, edges);
}

TEST(EoAdcTable, PristineLadderEqualsWalk) {
  for (unsigned bits = 1; bits <= 4; ++bits) {
    expect_armed_table_equals_walk(bits, 0.0, 1);
  }
}

TEST(EoAdcTable, MismatchedLaddersEqualWalk) {
  for (unsigned bits = 1; bits <= 4; ++bits) {
    for (const std::uint64_t seed : {5u, 11u, 23u}) {
      // A tenth of an LSB of reference-ladder spread.
      const double lsb = 4.0 / static_cast<double>(1u << bits);
      expect_armed_table_equals_walk(bits, 0.1 * lsb, seed);
    }
  }
}

TEST(EoAdcTable, CodeEdgesAgreeWithTable) {
  // code_edges() bisects the walk on [0, V_FS] to 50 halvings; the table's
  // exact edges sit within that bracket.
  EoAdc adc;
  const auto measured = adc.code_edges();
  adc.code(0.0);
  const auto& edges = adc.code_table();
  ASSERT_EQ(edges.size(), measured.size());
  for (std::size_t k = 0; k < edges.size(); ++k) {
    EXPECT_NEAR(edges[k], measured[k], 1e-12);
  }
}

TEST(EoAdcTable, NonMonotoneLaddersStayUnarmedAndEqualWalk) {
  // Ladders whose walk reads out of order (sigma 0.3 / seed 2 reads
  // 1 0 3 2 ..., sigma 0.4 / seed 3 ends ... 7 6): the table declines and
  // every code() takes the walk.
  for (const auto& [sigma, seed] :
       {std::pair{0.3, std::uint64_t{2}}, std::pair{0.4, std::uint64_t{3}}}) {
    SCOPED_TRACE("sigma " + std::to_string(sigma));
    EoAdc adc(table_config(3, sigma, seed));
    unsigned prev = 0;
    bool non_monotone = false;
    for (double v = 0.0; v <= adc.config().v_full_scale; v += 1e-3) {
      const unsigned walked = adc.convert(v).code;
      non_monotone = non_monotone || walked < prev;
      prev = walked;
    }
    EXPECT_TRUE(non_monotone);
    adc.code(0.0);
    EXPECT_TRUE(adc.code_table().empty());
    expect_table_equals_walk(adc, adc.code_edges());
  }
}

}  // namespace
