#ifndef HOSTBENCH_WORKLOADS_HPP
#define HOSTBENCH_WORKLOADS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"
#include "serve/request.hpp"

/// The two seeded serving workloads of the host-time benchmark and the
/// run protocol shared by all of them, each on a fleet with
/// AcceleratorConfig::threads = kThreads:
///
///  - untraced (trace = false): set up the deployment repeatedly for half
///    of kSetupSeconds, serve once untimed as the reference run (modeled
///    metrics), then serve repeatedly for `seconds` of host time (median
///    items per host second), read the peak resident memory, set up
///    repeatedly for the other half (median set-up time over both halves),
///    and only then run the checks that build fleets of their own:
///    accuracy, output checks, and a rerun at one host thread.  Checks stay
///    outside every timed region.
///  - traced (trace = true): one set-up and a reference run, then rounds of
///    an untraced run, a metrics-attached run and a replay of the run's
///    graph calls for `seconds`, then micro-loads of the core,
///    runtime and circuit layers, all timed from this benchmark's own code.
namespace hostbench {

/// Host worker threads of every measured fleet (the host's core count).
constexpr std::size_t kThreads = 4;

/// Host time an untraced run spends repeating its set-up, in two halves; a
/// run whose `seconds` is shorter spends `seconds` (at least one set-up per
/// half).
constexpr double kSetupSeconds = 2.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< host time spent in timed serving runs
  bool trace = false;
};

struct Result {
  bool correct = true;
  std::size_t attempted = 0;  ///< items offered to the measured runs
  std::size_t failed = 0;     ///< items refused, shed, or failing a check
  std::vector<Metric> metrics;
  /// Human-readable lines: latency percentiles with sample counts, check
  /// outcomes.  Printed before the JSON result line.
  std::vector<std::string> notes;
};

/// "serve_cnn", "serve_drift".
const std::vector<std::string>& workload_names();

/// Runs one workload under the protocol above.  Throws on an unknown name.
Result run(const Options& options);

/// The generated load, exposed for tests: a pure function of the seed, at
/// the workload's fixed size.
std::vector<ptc::serve::Request> serve_load(const std::string& workload,
                                            std::uint64_t seed);

}  // namespace hostbench

#endif  // HOSTBENCH_WORKLOADS_HPP
