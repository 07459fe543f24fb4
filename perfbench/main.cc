// statdb end-to-end benchmark.
//
//   statdb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--ops <k>] [--out-dir <dir>]
//                    [--counters-out <file>]
//
// Prints a report, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from a traced run. Exits non-zero when an answer does
// not match the oracle or the run cannot be set up.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "statdb_perfbench: %s\nusage: statdb_perfbench --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> [--ops <k>] "
               "[--out-dir <dir>] [--counters-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      opts.trace = value != "0";
    } else if (flag == "--ops") {
      opts.ops = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--out-dir") {
      opts.out_dir = value;
    } else if (flag == "--counters-out") {
      opts.counters_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad number for " + flag).c_str());
    }
  }
  if (opts.workload.empty()) return Usage("--workload is required");
  if (!(opts.seconds > 0)) return Usage("--seconds must be positive");

  perfbench::RunResult res;
  try {
    res = perfbench::RunWorkload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "statdb_perfbench: %s\n", e.what());
    return 1;
  }
  std::string metrics;
  for (const perfbench::Metric& m : res.metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              res.correct ? "true" : "false",
              (unsigned long long)res.attempted,
              (unsigned long long)res.failed, metrics.c_str());
  return res.correct ? 0 : 1;
}
