// Zero-allocation contracts of the simulator's hottest calls: a passing
// expects()/ensures() never builds its message, and the Matrix accessor,
// Microring::thru_transmission and a ring-table read allocate nothing once
// their objects exist.  A failing check still throws the documented
// exception type with the documented message.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/expects.hpp"
#include "common/linalg.hpp"
#include "core/tech.hpp"
#include "core/vector_macro.hpp"
#include "optics/microring.hpp"

#include "alloc_counter.hpp"

namespace {

using namespace ptc;

// Longer than any small-string buffer (15 chars in libstdc++), so building a
// std::string from it would have to allocate.
constexpr const char* kLongMessage =
    "a message literal well over fifteen characters long";

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(ZeroAllocation, PassingChecksDoNotAllocate) {
  const std::size_t before = allocations();
  for (int i = 0; i < 1000; ++i) {
    expects(i >= 0, kLongMessage);
    ensures(i < 1000, kLongMessage);
  }
  EXPECT_EQ(allocations(), before);
}

TEST(ZeroAllocation, FailingChecksThrowTheUnchangedMessages) {
  try {
    expects(false, kLongMessage);
    FAIL() << "expects(false, ...) returned";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              std::string("precondition violated: ") + kLongMessage);
  }
  try {
    ensures(false, kLongMessage);
    FAIL() << "ensures(false, ...) returned";
  } catch (const std::logic_error& e) {
    // A postcondition failure is not a precondition failure.
    EXPECT_EQ(dynamic_cast<const std::invalid_argument*>(&e), nullptr);
    EXPECT_EQ(std::string(e.what()),
              std::string("postcondition violated: ") + kLongMessage);
  }
  // Dynamic messages (std::string arguments) keep working.
  const std::string dynamic = std::string("node ") + std::to_string(42);
  try {
    expects(false, dynamic);
    FAIL() << "expects(false, ...) returned";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "precondition violated: node 42");
  }
}

TEST(ZeroAllocation, MatrixAccessorDoesNotAllocate) {
  Matrix m(8, 8, 0.5);
  const Matrix& view = m;
  double sum = 0.0;
  const std::size_t before = allocations();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      m(r, c) = static_cast<double>(r * m.cols() + c);
      sum += view(r, c);
    }
  }
  EXPECT_EQ(allocations(), before);
  EXPECT_EQ(sum, 63.0 * 64.0 / 2.0);
  try {
    (void)view(8, 0);
    FAIL() << "out-of-range read returned";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "precondition violated: Matrix index out of range");
  }
}

TEST(ZeroAllocation, RingEvaluationDoesNotAllocate) {
  optics::Microring ring(core::compute_ring_config(1, 0.9));
  double sum = 0.0;
  const std::size_t before = allocations();
  for (int i = 0; i < 100; ++i) {
    ring.set_bias(i % 2 == 0 ? 0.0 : core::tech_vdd);
    for (std::size_t c = 0; c < core::tech_wdm_channels; ++c) {
      sum += ring.thru_transmission(core::channel_wavelength(c));
    }
  }
  EXPECT_EQ(allocations(), before);
  EXPECT_GT(sum, 0.0);
}

TEST(ZeroAllocation, RingTableReadsAndRefillsDoNotAllocate) {
  core::VectorComputeMacro macro;
  macro.load_weights({5, 2, 7, 0});
  std::vector<double> gains(macro.channels());
  // The first read allocates the table itself.
  for (unsigned row = 0; row < macro.weight_bits(); ++row) {
    macro.tabulated_chain(row, gains.data());
  }
  const std::size_t before = allocations();
  for (int pass = 0; pass < 10; ++pass) {
    for (unsigned row = 0; row < macro.weight_bits(); ++row) {
      macro.tabulated_chain(row, gains.data());  // warm table
    }
  }
  // A detuning invalidates the table; refilling its slots allocates nothing.
  macro.set_temperature_offset(0.3);
  for (unsigned row = 0; row < macro.weight_bits(); ++row) {
    macro.tabulated_chain(row, gains.data());
  }
  EXPECT_EQ(allocations(), before);
  for (std::size_t c = 0; c < macro.channels(); ++c) {
    EXPECT_EQ(gains[c], macro.chain_transmission(macro.weight_bits() - 1, c));
  }
}

}  // namespace
