#include "causal/chrome_trace.h"

#include <algorithm>
#include <map>
#include <set>

#include "obs/json.h"

namespace statdb {
namespace causal {

namespace {

/// One trace event: an "X" complete event (dur_ms >= 0) or a
/// thread-scoped "i" instant. ts/dur are in microseconds per the format.
std::string TraceEvent(const std::string& name, const std::string& cat,
                       double ts_ms, double dur_ms, uint64_t tid,
                       const std::string& args_json) {
  obs::JsonObject out;
  out.Str("name", name).Str("cat", cat);
  if (dur_ms >= 0) {
    out.Str("ph", "X").Num("ts", ts_ms * 1000.0).Num("dur", dur_ms * 1000.0);
  } else {
    out.Str("ph", "i").Str("s", "t").Num("ts", ts_ms * 1000.0);
  }
  return out.Int("pid", 1).Int("tid", tid).Raw("args", args_json).Build();
}

std::string LaneName(uint64_t session_id) {
  return session_id == 0 ? std::string("head")
                         : "session " + std::to_string(session_id);
}

}  // namespace

std::string ExportChromeTrace(const std::vector<FlightEvent>& events,
                              uint64_t trace_id_filter) {
  struct Extent {  // one operation's first kQueryBegin → last kQueryEnd
    const FlightEvent* begin = nullptr;
    const FlightEvent* end = nullptr;
  };
  std::map<uint64_t, Extent> extents;
  std::vector<std::string> rows;
  std::set<uint64_t> lanes;

  for (const FlightEvent& ev : events) {
    if (trace_id_filter != 0 && ev.trace != trace_id_filter) continue;
    lanes.insert(ev.session);
    if (ev.kind == FlightEventKind::kSpan) {
      rows.push_back(TraceEvent(ev.label, "span", ev.t_ms,
                                std::max(ev.x, 0.001), ev.session,
                                obs::JsonObject()
                                    .Int("trace_id", ev.trace)
                                    .Raw("rows", std::to_string(ev.a))
                                    .Raw("pages", std::to_string(ev.b))
                                    .Build()));
      continue;
    }
    rows.push_back(TraceEvent(FlightEventKindName(ev.kind), "flight",
                              ev.t_ms, -1, ev.session, FlightEventJson(ev)));
    if (ev.kind == FlightEventKind::kQueryBegin &&
        extents[ev.trace].begin == nullptr) {
      extents[ev.trace].begin = &ev;
    }
    if (ev.kind == FlightEventKind::kQueryEnd) extents[ev.trace].end = &ev;
  }

  for (const auto& [trace, extent] : extents) {
    if (extent.begin == nullptr || extent.end == nullptr) continue;
    rows.push_back(TraceEvent(
        extent.begin->label, "operation", extent.begin->t_ms,
        std::max(extent.end->t_ms - extent.begin->t_ms, 0.001),
        extent.begin->session,
        obs::JsonObject()
            .Int("trace_id", trace)
            .Str("outcome", TraceOutcomeName(
                                static_cast<TraceOutcome>(extent.end->a)))
            .Build()));
  }

  // Lane metadata last: harmless to viewers, and keeps the event rows
  // (which schema checks index) at the front.
  rows.push_back(obs::JsonObject()
                     .Str("name", "process_name")
                     .Str("ph", "M")
                     .Int("pid", 1)
                     .Raw("args",
                          obs::JsonObject().Str("name", "statdb").Build())
                     .Build());
  for (uint64_t lane : lanes) {
    rows.push_back(
        obs::JsonObject()
            .Str("name", "thread_name")
            .Str("ph", "M")
            .Int("pid", 1)
            .Int("tid", lane)
            .Raw("args",
                 obs::JsonObject().Str("name", LaneName(lane)).Build())
            .Build());
  }

  return obs::JsonObject()
      .Raw("traceEvents", obs::JsonArray(rows))
      .Str("displayTimeUnit", "ms")
      .Build();
}

}  // namespace causal
}  // namespace statdb
