// Host-time serving benchmark: command-line entry point.
//
//   hostbench --workload <serve_cnn|serve_drift> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints the run's notes and one line per metric (name, value, unit), then
// as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status: 0 when every correctness check passed, 1 when one failed
// (the result line is still printed), 2 on a usage or run error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

void usage() {
  std::cerr << "usage: hostbench --workload <serve_cnn|serve_drift> "
               "--seed <n> --seconds <s> --trace <0|1>\n";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  hostbench::Options options;
  bool have_workload = false, have_trace = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = value == "1";
        have_trace = value == "0" || value == "1";
      } else {
        usage();
        return 2;
      }
    }
  } catch (const std::exception&) {
    usage();
    return 2;
  }
  if (argc % 2 == 0 || !have_workload || !have_trace ||
      !(options.seconds >= 0.0)) {
    usage();
    return 2;
  }

  hostbench::Result result;
  try {
    result = hostbench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "hostbench: " << e.what() << "\n";
    return 2;
  }

  for (const std::string& note : result.notes) std::cout << note << "\n";
  std::string json = "{\"correct\": " +
                     std::string(result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const hostbench::Metric& m = result.metrics[i];
    if (!std::isfinite(m.value)) {
      std::cerr << "hostbench: metric " << m.name << " is not finite\n";
      return 2;
    }
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    json += (i == 0 ? "" : ", ") + json_string(m.name) +
            ": {\"value\": " + number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::fflush(stdout);
  std::cout << json << "}}" << std::endl;
  return result.correct ? 0 : 1;
}
