// The four analyst workloads and the run that measures them.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Traced run: ops per pass (0 = the workload's default).
  uint64_t ops = 0;
  /// Directory for the traced run's span file and self-time table.
  std::string out_dir = ".bench_build/perfbench";
  /// Traced run: also write the raw work counters here as JSON.
  std::string counters_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // 0 when the metric is not a sample statistic
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one workload. Prints a human-readable report on stdout (every
/// line before the result line) and returns the result; the caller
/// prints the result line. Errors that stop the run (a failed set-up
/// call) are reported on stderr and make `correct` false.
RunResult RunWorkload(const Options& opts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
