#include "flight/query_trace.h"

#include <cstdio>

#include "obs/json.h"

namespace statdb {

QueryTrace QueryTrace::Assemble(const SpanTarget& target) {
  QueryTrace out;
  out.ctx_ = target.ctx;
  const FlightRecorder& flight = *target.flight;
  out.truncated_ = flight.recorded() - target.first_seq > flight.capacity();
  for (const FlightEvent& ev : flight.SnapshotEvents(target.first_seq)) {
    if (ev.trace != target.ctx.trace_id) continue;
    TraceSpan span{SpanKind::kCacheProbe, -1, ev.x,
                   static_cast<uint64_t>(ev.a), static_cast<uint64_t>(ev.b),
                   ev.t_ms - target.begin_ms};
    if (ev.kind == FlightEventKind::kSpan &&
        ParseSpanLabel(ev.label, &span.kind, &span.detail)) {
      out.spans_.push_back(span);
    } else {
      out.events_.push_back(ev);
    }
  }
  return out;
}

double QueryTrace::SpanSumMs() const {
  double sum = 0;
  for (const TraceSpan& s : spans_) {
    if (s.kind != SpanKind::kScanChunk) sum += s.wall_ms;
  }
  return sum;
}

std::string QueryTrace::ToJson() const {
  std::vector<std::string> spans;
  spans.reserve(spans_.size());
  for (const TraceSpan& s : spans_) {
    obs::JsonObject o;
    o.Str("span", SpanKindName(s.kind));
    if (s.detail >= 0) o.Int("detail", static_cast<uint64_t>(s.detail));
    o.Num("start_ms", s.start_ms)
        .Num("wall_ms", s.wall_ms)
        .Int("rows", s.rows)
        .Int("pages", s.pages);
    spans.push_back(o.Build());
  }
  obs::JsonObject out;
  out.Int("trace_id", trace_id())
      .Int("session_id", session_id())
      .Int("query_seq", query_seq())
      .Str("operation", operation_)
      .Str("view", view_)
      .Str("function", function_)
      .Str("attribute", attribute_)
      .Str("outcome", TraceOutcomeName(outcome_))
      .Num("total_ms", total_ms_)
      .Num("span_sum_ms", SpanSumMs())
      .Raw("spans", obs::JsonArray(spans));
  if (truncated_) out.Bool("truncated", true);
  return out.Build();
}

std::string QueryTrace::ToText() const {
  char buf[160];
  std::string out;
  std::snprintf(buf, sizeof(buf), "%s %s(%s) on %s -> %s, %.3f ms total\n",
                operation_.c_str(), function_.c_str(), attribute_.c_str(),
                view_.c_str(), TraceOutcomeName(outcome_), total_ms_);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  %-16s %12s %12s %10s\n", "span",
                "wall ms", "rows", "pages");
  out += buf;
  for (const TraceSpan& s : spans_) {
    std::string name = SpanKindName(s.kind);
    if (s.detail >= 0) name += "[" + std::to_string(s.detail) + "]";
    std::snprintf(buf, sizeof(buf), "  %-16s %12.3f %12llu %10llu\n",
                  name.c_str(), s.wall_ms,
                  static_cast<unsigned long long>(s.rows),
                  static_cast<unsigned long long>(s.pages));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  span sum (chunks overlap, excluded): %.3f ms\n",
                SpanSumMs());
  out += buf;
  for (const FlightEvent& ev : events_) {
    if (ev.kind != FlightEventKind::kQueryEnd) continue;
    std::snprintf(buf, sizeof(buf), "  %s: %s, %.3f ms\n", ev.label,
                  TraceOutcomeName(static_cast<TraceOutcome>(ev.a)), ev.x);
    out += buf;
  }
  if (truncated_) out += "  (truncated: the flight ring wrapped mid-trace)\n";
  return out;
}

}  // namespace statdb
