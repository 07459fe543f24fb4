#include "causal/slow_query_log.h"

#include <utility>

#include "obs/json.h"

namespace statdb {
namespace causal {

SlowQueryLog::SlowQueryLog(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void SlowQueryLog::Capture(QueryTrace trace) {
  captured_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(mu_);
  if (entries_.size() >= capacity_) {
    entries_.pop_front();
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  entries_.push_back(std::move(trace));
}

std::vector<QueryTrace> SlowQueryLog::Snapshot() const {
  MutexLock lock(mu_);
  return std::vector<QueryTrace>(entries_.begin(), entries_.end());
}

size_t SlowQueryLog::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

std::string SlowQueryLog::DumpJson(const std::string& reason) const {
  std::vector<QueryTrace> entries = Snapshot();
  std::vector<std::string> rows;
  rows.reserve(entries.size());
  for (const QueryTrace& trace : entries) {
    std::vector<std::string> events;
    events.reserve(trace.events().size());
    for (const FlightEvent& ev : trace.events()) {
      events.push_back(FlightEventJson(ev));
    }
    rows.push_back(obs::JsonObject()
                       .Int("trace_id", trace.trace_id())
                       .Num("wall_ms", trace.total_ms())
                       .Str("outcome", TraceOutcomeName(trace.outcome()))
                       .Raw("trace", trace.ToJson())
                       .Raw("flight_events", obs::JsonArray(events))
                       .Build());
  }
  obs::JsonObject log;
  log.Str("reason", reason)
      .Num("threshold_ms", threshold_ms())
      .Int("capacity", capacity_)
      .Int("captured", captured())
      .Int("dropped", dropped())
      .Raw("entries", obs::JsonArray(rows));
  return obs::JsonObject().Raw("slow_query_log", log.Build()).Build();
}

void SlowQueryLog::Clear() {
  MutexLock lock(mu_);
  entries_.clear();
  auto_dump_.Rearm();
}

}  // namespace causal
}  // namespace statdb
