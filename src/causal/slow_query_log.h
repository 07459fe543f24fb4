#ifndef STATDB_CAUSAL_SLOW_QUERY_LOG_H_
#define STATDB_CAUSAL_SLOW_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/sync.h"
#include "flight/query_trace.h"

namespace statdb {
namespace causal {

/// Bounded log of the slowest-behaving operations (DESIGN.md §17).
///
/// When a completed top-level operation exceeds the latency threshold,
/// the core hands over its assembled QueryTrace — read from the flight
/// ring, so one entry already holds both the spans ("where did the time
/// go") and the other events stamped with its trace_id ("what did the
/// system do": cache verdict, delta flush, WAL commit, retries).
///
/// The log is a drop-oldest ring: capture is off the query hot path
/// (only threshold-exceeding operations pay it), so a Mutex-guarded
/// deque is the right tool — no seqlock heroics needed here.
///
/// Like the flight recorder's black box, the log can arm a one-shot
/// automatic dump (STATDB_SLOWLOG_DUMP): the first degraded/DATA_LOSS
/// transition ships whatever slow queries led up to the incident.
class SlowQueryLog {
 public:
  static constexpr size_t kDefaultCapacity = 32;
  static constexpr double kDefaultThresholdMs = 50.0;

  explicit SlowQueryLog(size_t capacity = kDefaultCapacity);

  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// Capture gate. Off by default: the owner only records spans and
  /// assembles QueryTraces (the log's raw material) while the log is
  /// enabled or a trace sink is attached.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  void set_threshold_ms(double ms) {
    threshold_ms_.store(ms, std::memory_order_relaxed);
  }
  double threshold_ms() const {
    return threshold_ms_.load(std::memory_order_relaxed);
  }

  /// The capture gate on a traced operation's wall time.
  bool ShouldCapture(double wall_ms) const {
    return wall_ms >= threshold_ms();
  }

  /// Retains `trace`; its total_ms is the entry's wall time. Drops the
  /// oldest entry when full.
  void Capture(QueryTrace trace);

  std::vector<QueryTrace> Snapshot() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t captured() const {
    return captured_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// {"slow_query_log": {reason, threshold_ms, capacity, captured,
  ///  dropped, entries: [{trace_id, wall_ms, outcome, trace,
  ///  flight_events}, ...]}}
  std::string DumpJson(const std::string& reason = "manual") const;

  /// Arms the one-shot incident dump; empty path disarms.
  void set_auto_dump_path(std::string path) {
    auto_dump_.set_path(std::move(path));
  }

  /// Fires at most once per log lifetime (first caller wins). Returns
  /// true if this call wrote the dump. Safe from any thread.
  bool AutoDumpOnce(const std::string& reason) {
    return auto_dump_.Fire([&] { return DumpJson(reason); });
  }
  uint64_t auto_dumps() const { return auto_dump_.dumps(); }

  void Clear();

 private:
  const size_t capacity_;
  std::atomic<bool> enabled_{false};
  std::atomic<double> threshold_ms_{kDefaultThresholdMs};
  std::atomic<uint64_t> captured_{0};
  std::atomic<uint64_t> dropped_{0};

  mutable Mutex mu_;
  std::deque<QueryTrace> entries_ STATDB_GUARDED_BY(mu_);

  OneShotDump auto_dump_;
};

}  // namespace causal
}  // namespace statdb

#endif  // STATDB_CAUSAL_SLOW_QUERY_LOG_H_
