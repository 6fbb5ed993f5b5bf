#include <gtest/gtest.h>

#include "circuit/energy.hpp"

namespace {

using ptc::circuit::EnergyLedger;

TEST(EnergyLedger, AccumulatesPerCategory) {
  EnergyLedger ledger;
  ledger.add_energy("laser", 1e-12);
  ledger.add_energy("laser", 2e-12);
  ledger.add_energy("driver", 0.5e-12);
  EXPECT_NEAR(ledger.energy("laser"), 3e-12, 1e-18);
  EXPECT_NEAR(ledger.energy("driver"), 0.5e-12, 1e-18);
  EXPECT_NEAR(ledger.total_energy(), 3.5e-12, 1e-18);
  EXPECT_DOUBLE_EQ(ledger.energy("unknown"), 0.0);
}

TEST(EnergyLedger, EntriesAreSortedByName) {
  EnergyLedger ledger;
  ledger.add_energy("write", 1e-12);
  ledger.add_energy("hold", 2e-12);
  const auto entries = ledger.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].category, "hold");
  EXPECT_DOUBLE_EQ(entries[0].energy, 2e-12);
  EXPECT_EQ(entries[1].category, "write");
  EXPECT_DOUBLE_EQ(entries[1].energy, 1e-12);
}

TEST(EnergyLedger, RejectsNegativeEnergy) {
  EnergyLedger ledger;
  EXPECT_THROW(ledger.add_energy("x", -1.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(ledger.total_energy(), 0.0);
}

}  // namespace
