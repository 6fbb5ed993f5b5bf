#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hostbench {

double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

Tail tail(std::vector<double> xs, std::size_t beyond) {
  if (xs.size() <= beyond) {
    throw std::invalid_argument("tail needs more samples than `beyond`");
  }
  std::sort(xs.begin(), xs.end());
  Tail out;
  out.count = xs.size();
  out.rank = xs.size() - beyond;
  out.percentile = 100.0 * static_cast<double>(out.rank) /
                   static_cast<double>(out.count);
  out.value = xs[out.rank - 1];
  return out;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return nearest_rank(xs, 50.0);
}

ptc::Matrix TimingBackend::matmul(const ptc::Matrix& x,
                                  const ptc::Matrix& w) {
  const Clock::time_point start = Clock::now();
  ptc::Matrix y = inner_.matmul(x, w);
  record(start, x.rows());
  return y;
}

ptc::Matrix TimingBackend::matmul_cached(const ptc::Matrix& x,
                                         const ptc::Matrix& w,
                                         ptc::nn::WeightPlanCache& cache) {
  const Clock::time_point start = Clock::now();
  ptc::Matrix y = inner_.matmul_cached(x, w, cache);
  record(start, x.rows());
  return y;
}

void TimingBackend::record(Clock::time_point start, std::size_t rows) {
  const double dt = seconds_since(start);
  durations_.push_back(dt);
  rows_.push_back(rows);
  total_ += dt;
}

}  // namespace hostbench
