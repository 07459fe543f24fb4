// Benchmark-owned spans for the traced run.
//
// Every op is a root span; its children are the public StatisticalDbms
// call and the public layer calls that repeat that call's steps. Span
// names are "<layer>.<call>", where the layer is a src/ module name
// ("core", "summary", "storage", "stats", ...). Spans stay in memory and
// are written out when the run ends, as Chrome trace-event JSON.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = -1;  // -1 for an op's root span
  uint64_t op_id = 0;
  int tid = 0;
  double start_us = 0;  // since the log's epoch
  double end_us = 0;
  uint64_t rows = 0;  // rows the call covered, for per-row costs

  std::string Layer() const { return name.substr(0, name.find('.')); }
};

/// Spans of one client thread. Not thread-safe: one log per thread.
class SpanLog {
 public:
  SpanLog(int tid, Clock::time_point epoch) : tid_(tid), epoch_(epoch) {}

  /// Opens a span under the innermost open one (a root when none is).
  void Begin(std::string name, uint64_t op_id);
  /// Closes the innermost open span, recording the rows it covered.
  /// Returns its duration in microseconds.
  double End(uint64_t rows = 0);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int tid_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Totals for one span name.
struct SpanTotals {
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;  // total minus the time its child spans cover
  uint64_t rows = 0;
};

/// Per-name totals over every log.
std::map<std::string, SpanTotals> Aggregate(
    const std::vector<const SpanLog*>& logs);

/// Per-layer self-time table, one line per layer, for the run report.
std::string SelfTimeTable(const std::map<std::string, SpanTotals>& by_name);

/// Writes every span as Chrome trace-event JSON ("X" events), which
/// chrome://tracing and Perfetto open. Returns false on an I/O error.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
