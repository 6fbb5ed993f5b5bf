// Tests of the host-time benchmark's own helpers: the timing backend, the
// tail-percentile rule, seeded loads, and the metric names each run emits
// against the ones BENCHMARK.json declares.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "measure.hpp"
#include "runtime/accelerator.hpp"
#include "runtime/backend.hpp"
#include "workloads.hpp"

namespace {

using hostbench::Metric;
using ptc::Matrix;

Matrix random_matrix(std::size_t rows, std::size_t cols, ptc::Rng& rng,
                     double lo) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(lo, 1.0);
  return m;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

TEST(TimingBackend, ReturnsTheInnerBackendsResultsBitForBit) {
  ptc::runtime::Accelerator fleet({.cores = 4, .threads = 2});
  ptc::runtime::AcceleratorBackend direct(fleet);
  hostbench::TimingBackend timed(direct);
  ptc::Rng rng(5);
  const Matrix x = random_matrix(3, 40, rng, 0.0);
  const Matrix w = random_matrix(40, 20, rng, -1.0);
  EXPECT_TRUE(same_bits(timed.matmul(x, w), direct.matmul(x, w)));

  ptc::nn::WeightPlanCache cache_a, cache_b;
  EXPECT_TRUE(same_bits(timed.matmul_cached(x, w, cache_a),
                        direct.matmul_cached(x, w, cache_b)));

  ASSERT_EQ(timed.durations().size(), 2u);
  EXPECT_EQ(timed.rows(), (std::vector<std::size_t>{3, 3}));
  EXPECT_GT(timed.total_seconds(), 0.0);
  EXPECT_STREQ(timed.name(), direct.name());
}

TEST(TailRule, KeepsTenSamplesBeyondTheReportedRank) {
  ptc::Rng rng(11);
  for (std::size_t n : {11u, 12u, 48u, 100u, 512u, 1536u}) {
    std::vector<double> xs(n);
    for (double& v : xs) v = rng.uniform();
    const hostbench::Tail t = hostbench::tail(xs);
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(t.count, n);
    EXPECT_EQ(n - t.rank, 10u) << "n=" << n;
    EXPECT_EQ(t.value, sorted[t.rank - 1]);
    const auto beyond = static_cast<std::size_t>(
        std::count_if(xs.begin(), xs.end(),
                      [&](double v) { return v > t.value; }));
    EXPECT_GE(beyond, 10u);
    EXPECT_DOUBLE_EQ(t.percentile, 100.0 * static_cast<double>(t.rank) /
                                       static_cast<double>(n));
    // One rank higher would leave only nine beyond.
    EXPECT_LT(n - (t.rank + 1), 10u);
  }
  EXPECT_THROW(hostbench::tail(std::vector<double>(10, 1.0)),
               std::invalid_argument);
}

TEST(Loads, SeedChangesTheLoadButNotItsSize) {
  for (const std::string& workload : hostbench::workload_names()) {
    const auto x = hostbench::serve_load(workload, 1);
    const auto y = hostbench::serve_load(workload, 2);
    ASSERT_EQ(x.size(), y.size()) << workload;
    EXPECT_NE(x[0].input, y[0].input) << workload;
    EXPECT_NE(x[0].arrival, y[0].arrival) << workload;
    EXPECT_EQ(hostbench::serve_load(workload, 1)[5].input, x[5].input);
    for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i].id, i);
  }
}

std::vector<std::pair<std::string, std::string>> names_and_units(
    const hostbench::Result& r) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Metric& m : r.metrics) out.emplace_back(m.name, m.unit);
  return out;
}

/// (name, unit) pairs BENCHMARK.json declares under `key`.
std::vector<std::pair<std::string, std::string>> declared(
    const std::string& key) {
  std::ifstream in(HOSTBENCH_SPEC);
  std::stringstream text;
  text << in.rdbuf();
  const ptc::json::Value spec = ptc::json::parse(text.str());
  std::vector<std::pair<std::string, std::string>> out;
  for (const ptc::json::Value& m : spec.at(key).as_array()) {
    out.emplace_back(m.at("name").as_string(), m.at("unit").as_string());
  }
  return out;
}

TEST(Runs, EmitTheDeclaredMetricsForEverySeed) {
  const auto end_to_end = declared("end_to_end");
  const auto per_layer = declared("per_layer");
  for (const std::string& workload : hostbench::workload_names()) {
    for (const bool trace : {false, true}) {
      std::vector<std::vector<std::pair<std::string, std::string>>> seen;
      for (const std::uint64_t seed : {1u, 2u}) {
        hostbench::Options o;
        o.workload = workload;
        o.seed = seed;
        o.seconds = 0.0;
        o.trace = trace;
        const hostbench::Result r = hostbench::run(o);
        EXPECT_TRUE(r.correct) << workload << " seed " << seed;
        EXPECT_EQ(r.failed, 0u);
        EXPECT_GE(r.attempted, 1u);
        seen.push_back(names_and_units(r));
      }
      EXPECT_EQ(seen[0], seen[1]) << workload;
      EXPECT_EQ(seen[0], trace ? per_layer : end_to_end) << workload;
    }
  }
}

TEST(Runs, RejectsAnUnknownWorkload) {
  hostbench::Options o;
  o.workload = "nope";
  EXPECT_THROW(hostbench::run(o), std::invalid_argument);
}

}  // namespace
