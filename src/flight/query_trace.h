#ifndef STATDB_FLIGHT_QUERY_TRACE_H_
#define STATDB_FLIGHT_QUERY_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sync.h"
#include "flight/flight_recorder.h"

namespace statdb {

/// One span of a QueryTrace, decoded from its kSpan ring event.
struct TraceSpan {
  SpanKind kind = SpanKind::kCacheProbe;
  /// Chunk index for kScanChunk spans; -1 otherwise.
  int32_t detail = -1;
  double wall_ms = 0;
  uint64_t rows = 0;   // rows (cells) this phase touched
  uint64_t pages = 0;  // storage pages this phase touched (approximate)
  /// When the span started, in ms since its operation began (both on the
  /// recorder clock).
  double start_ms = 0;
};

/// The read side of one traced Query*/Recover call (DESIGN.md §10): its
/// spans and other flight events, read from the ring in one pass at the
/// operation's end, plus labels, outcome and wall time.
class QueryTrace {
 public:
  /// Reads `target`'s events since it began: kSpan events become spans,
  /// every other event with its trace_id is kept as-is.
  static QueryTrace Assemble(const SpanTarget& target);

  void SetLabel(std::string operation, std::string view,
                std::string function, std::string attribute) {
    operation_ = std::move(operation);
    view_ = std::move(view);
    function_ = std::move(function);
    attribute_ = std::move(attribute);
  }
  void SetOutcome(TraceOutcome outcome) { outcome_ = outcome; }
  void SetTotalMs(double ms) { total_ms_ = ms; }

  /// The causal identity (DESIGN.md §17), stamped by Assemble.
  uint64_t trace_id() const { return ctx_.trace_id; }
  uint64_t session_id() const { return ctx_.session_id; }
  uint64_t query_seq() const { return ctx_.query_seq; }

  size_t size() const { return spans_.size(); }
  const TraceSpan& span(size_t i) const { return spans_[i]; }
  /// The operation's non-span flight events, oldest first.
  const std::vector<FlightEvent>& events() const { return events_; }
  /// More events were recorded while the operation ran than the ring
  /// holds, so some of its spans or events may have been overwritten.
  bool truncated() const { return truncated_; }

  const std::string& operation() const { return operation_; }
  TraceOutcome outcome() const { return outcome_; }
  double total_ms() const { return total_ms_; }

  /// Sum of span wall times, excluding kScanChunk (chunks run under the
  /// enclosing kScan span on other threads, so they overlap wall time).
  double SpanSumMs() const;

  std::string ToJson() const;
  /// The `explain` rendering: one aligned row per span.
  std::string ToText() const;

 private:
  std::vector<TraceSpan> spans_;
  std::vector<FlightEvent> events_;
  bool truncated_ = false;
  std::string operation_;
  std::string view_;
  std::string function_;
  std::string attribute_;
  TraceOutcome outcome_ = TraceOutcome::kUnknown;
  double total_ms_ = 0;
  causal::TraceContext ctx_;
};

/// Receives every finished trace. Implementations must be thread-safe if
/// queries run concurrently (QueryMany hammering in tests).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnQueryTrace(const QueryTrace& trace) = 0;
};

/// Buffers traces for tests, benches and the shell's `explain`.
class CollectingTraceSink : public TraceSink {
 public:
  void OnQueryTrace(const QueryTrace& trace) override {
    MutexLock lock(mu_);
    traces_.push_back(trace);
  }
  std::vector<QueryTrace> Take() {
    MutexLock lock(mu_);
    std::vector<QueryTrace> out = std::move(traces_);
    traces_.clear();
    return out;
  }
 private:
  Mutex mu_;
  std::vector<QueryTrace> traces_ STATDB_GUARDED_BY(mu_);
};

}  // namespace statdb

#endif  // STATDB_FLIGHT_QUERY_TRACE_H_
