#ifndef HOSTBENCH_MEASURE_HPP
#define HOSTBENCH_MEASURE_HPP

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "nn/backend.hpp"

/// Measurement helpers of the host-time benchmark: host clocks, the
/// latency-summary rules every reported percentile follows, and the timing
/// matmul backend the traced run wraps around the fleet.
namespace hostbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One reported number.  `unit` follows BENCHMARK.json ("s", "1/s", ...).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Nearest-rank percentile of an ascending sample (p in (0, 100]): the
/// smallest element with at least p% of the sample at or below it.
double nearest_rank(const std::vector<double>& sorted, double p);

/// The tail rule of every reported tail latency: the highest nearest-rank
/// percentile that still leaves at least `beyond` samples above it.  For n
/// samples that is rank n - beyond (1-based), i.e. percentile
/// 100 (n - beyond) / n.  Needs n > beyond.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< nearest-rank percentile of `value`
  std::size_t rank = 0;     ///< 1-based rank of `value` in the sample
  std::size_t count = 0;    ///< sample size
};
Tail tail(std::vector<double> xs, std::size_t beyond = 10);

/// Median (nearest-rank p50) of an unsorted sample; 0 for an empty one.
double median(std::vector<double> xs);

/// nn::MatmulBackend that forwards every call to `inner` unchanged and
/// records each call's host duration and row count.  Results are the
/// inner backend's, bit for bit: the wrapper only reads the clock.
class TimingBackend final : public ptc::nn::MatmulBackend {
 public:
  explicit TimingBackend(ptc::nn::MatmulBackend& inner) : inner_(inner) {}

  ptc::Matrix matmul(const ptc::Matrix& x, const ptc::Matrix& w) override;
  ptc::Matrix matmul_cached(const ptc::Matrix& x, const ptc::Matrix& w,
                            ptc::nn::WeightPlanCache& cache) override;
  const char* name() const override { return inner_.name(); }

  /// Per-call host durations [s] and input row counts, in call order.
  const std::vector<double>& durations() const { return durations_; }
  const std::vector<std::size_t>& rows() const { return rows_; }
  /// Summed host time of every recorded call [s].
  double total_seconds() const { return total_; }

 private:
  void record(Clock::time_point start, std::size_t rows);

  ptc::nn::MatmulBackend& inner_;
  std::vector<double> durations_;
  std::vector<std::size_t> rows_;
  double total_ = 0.0;
};

}  // namespace hostbench

#endif  // HOSTBENCH_MEASURE_HPP
