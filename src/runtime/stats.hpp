#ifndef PTC_RUNTIME_STATS_HPP
#define PTC_RUNTIME_STATS_HPP

#include <cstddef>
#include <vector>

/// Fleet-level roll-up of the per-core metrics (counted energy, throughput,
/// reload latency) into the numbers a serving deployment cares about:
/// aggregate TOPS, TOPS/W, and utilization.  All times here are *modeled*
/// hardware time — what the 8 GS/s ADC clocks and 20 GHz pSRAM writes would
/// take on silicon — not host wall time, so the metrics are deterministic
/// and independent of how many host threads the simulation happened to use.
namespace ptc::runtime {

struct AcceleratorStats {
  std::size_t cores = 0;
  std::size_t matmuls = 0;      ///< matmul() calls served
  std::size_t tile_loads = 0;   ///< pSRAM residencies across the fleet
  std::size_t samples = 0;      ///< ADC sample windows across the fleet
  double ops = 0.0;             ///< operations completed (2 * rows * cols / sample)
  double reload_time = 0.0;     ///< total modeled reload latency [s]
  double busy_time = 0.0;       ///< sum over cores of modeled busy time [s]
  double makespan = 0.0;        ///< modeled fleet wall time [s]
  double energy = 0.0;          ///< fleet energy since construction [J]
  double fleet_power = 0.0;     ///< sum of per-core power draw [W]
  std::vector<double> core_busy;  ///< per-core modeled busy time [s]

  /// Aggregate throughput [op/s]: work completed per modeled wall second.
  double throughput_ops() const {
    return makespan > 0.0 ? ops / makespan : 0.0;
  }

  /// Fleet efficiency [op/s/W].
  double tops_per_watt() const {
    return fleet_power > 0.0 ? throughput_ops() / fleet_power : 0.0;
  }

  /// Fraction of fleet capacity in use: busy / (cores * makespan).
  double utilization() const {
    if (cores == 0 || makespan <= 0.0) return 0.0;
    return busy_time / (static_cast<double>(cores) * makespan);
  }

  /// Fraction of busy time spent reloading weights rather than computing.
  double reload_fraction() const {
    return busy_time > 0.0 ? reload_time / busy_time : 0.0;
  }
};

}  // namespace ptc::runtime

#endif  // PTC_RUNTIME_STATS_HPP
