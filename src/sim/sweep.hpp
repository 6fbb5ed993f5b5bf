#ifndef PTC_SIM_SWEEP_HPP
#define PTC_SIM_SWEEP_HPP

#include <functional>
#include <vector>

#include "runtime/thread_pool.hpp"

/// Parameter sweep helpers for the bench harness: run a metric across a grid
/// and collect (parameter, value) records.  sweep_1d_parallel fans the
/// grid out across a runtime::ThreadPool; the metric must be safe to call
/// concurrently (give each evaluation its own Rng / device instances — see
/// Rng::split), and results come back in grid order regardless of which
/// thread computed them.
namespace ptc::sim {

struct SweepPoint {
  double parameter;
  double value;
};

/// Evaluates `metric` at every value in `grid`.
inline std::vector<SweepPoint> sweep_1d(
    const std::vector<double>& grid,
    const std::function<double(double)>& metric) {
  std::vector<SweepPoint> out;
  out.reserve(grid.size());
  for (double p : grid) out.push_back({p, metric(p)});
  return out;
}

/// Parallel sweep_1d: evaluates every grid point across the pool.
inline std::vector<SweepPoint> sweep_1d_parallel(
    runtime::ThreadPool& pool, const std::vector<double>& grid,
    const std::function<double(double)>& metric) {
  std::vector<SweepPoint> out(grid.size());
  pool.parallel_for(0, grid.size(), [&](std::size_t i) {
    out[i] = {grid[i], metric(grid[i])};
  });
  return out;
}

}  // namespace ptc::sim

#endif  // PTC_SIM_SWEEP_HPP
