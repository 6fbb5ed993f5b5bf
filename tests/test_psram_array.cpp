#include <gtest/gtest.h>

#include "core/psram_array.hpp"

namespace {

using namespace ptc::core;

TEST(PsramArray, PaperGeometry768Bitcells) {
  const PsramArray array;  // 16 x 16 x 3 bits
  EXPECT_EQ(array.rows(), 16u);
  EXPECT_EQ(array.words_per_row(), 16u);
  EXPECT_EQ(array.bits_per_word(), 3u);
  EXPECT_EQ(array.bitcell_count(), 768u);
  EXPECT_EQ(array.max_weight(), 7u);
}

TEST(PsramArray, WordReadBack) {
  PsramArray array;
  array.write_word(3, 5, 6);
  EXPECT_EQ(array.word(3, 5), 6u);
  EXPECT_EQ(array.word(3, 6), 0u);
  EXPECT_TRUE(array.bit(3, 5, 1));   // 6 = 0b110
  EXPECT_TRUE(array.bit(3, 5, 2));
  EXPECT_FALSE(array.bit(3, 5, 0));
}

TEST(PsramArray, WriteEnergyCountsOnlyFlippedBits) {
  PsramArray array;
  // 0 -> 7 flips 3 bits.
  EXPECT_EQ(array.write_word(0, 0, 7), 3u);
  const double after_first = array.write_energy();
  EXPECT_NEAR(after_first, 3 * 0.493e-12, 1e-15);
  EXPECT_EQ(after_first, static_cast<double>(array.bit_flips()) * 0.493e-12);
  // 7 -> 7 flips nothing.
  EXPECT_EQ(array.write_word(0, 0, 7), 0u);
  EXPECT_EQ(array.write_energy(), after_first);
  // 7 -> 6 flips one bit.
  EXPECT_EQ(array.write_word(0, 0, 6), 1u);
}

TEST(PsramArray, WornCellTogglesCostNoWriteEnergy) {
  PsramArrayConfig config;
  config.fault.seed = 77;
  config.fault.psram_endurance_median = 2.0;  // cells die within a few writes
  PsramArray array(config);
  for (int i = 0; i < 16; ++i) array.write_word(0, 0, i % 2 == 0 ? 7u : 0u);
  // Refused toggles are not switching events, so they cost no energy.
  ASSERT_GT(array.write_errors(), 0u);
  EXPECT_LT(array.bit_flips(), 48u);
  EXPECT_EQ(array.write_energy(),
            static_cast<double>(array.bit_flips()) * config.write_energy);
}

TEST(PsramArray, MatrixReloadLatencyAt20GHz) {
  PsramArray array;
  std::vector<std::uint32_t> values(16 * 16, 5);
  const double latency = array.write_matrix(values);
  // 16 words x 3 bits per row at 20 GHz = 2.4 ns (rows in parallel).
  EXPECT_NEAR(latency * 1e9, 2.4, 1e-9);
  EXPECT_EQ(array.word(15, 15), 5u);
}

TEST(PsramArray, WordWriteTime) {
  const PsramArray array;
  EXPECT_NEAR(array.word_write_time() * 1e12, 150.0, 1e-6);  // 3 x 50 ps
}

TEST(PsramArray, HoldWallPowerScalesWithCells) {
  const PsramArray array;
  // 768 cells x 10 uW / 0.23 = 33.4 mW.
  EXPECT_NEAR(array.hold_wall_power() * 1e3, 33.4, 0.1);
}

TEST(PsramArray, CustomGeometry) {
  PsramArrayConfig config;
  config.rows = 4;
  config.words_per_row = 8;
  config.bits_per_word = 5;
  PsramArray array(config);
  EXPECT_EQ(array.bitcell_count(), 160u);
  EXPECT_EQ(array.max_weight(), 31u);
  array.write_word(3, 7, 31);
  EXPECT_EQ(array.word(3, 7), 31u);
}

TEST(PsramArray, RejectsOutOfRange) {
  PsramArray array;
  EXPECT_THROW(array.write_word(16, 0, 1), std::invalid_argument);
  EXPECT_THROW(array.write_word(0, 16, 1), std::invalid_argument);
  EXPECT_THROW(array.write_word(0, 0, 8), std::invalid_argument);
  EXPECT_THROW(array.bit(0, 0, 3), std::invalid_argument);
  EXPECT_THROW(array.write_matrix(std::vector<std::uint32_t>(5)),
               std::invalid_argument);
}

}  // namespace
