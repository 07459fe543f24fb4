#ifndef STATDB_CAUSAL_CHROME_TRACE_H_
#define STATDB_CAUSAL_CHROME_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "flight/flight_recorder.h"

namespace statdb {
namespace causal {

/// Chrome trace-event (catapult) exporter (DESIGN.md §17).
///
/// Renders a window of flight events as a JSON document that
/// chrome://tracing and Perfetto open directly:
///
///   {"traceEvents": [...], "displayTimeUnit": "ms"}
///
/// Layout: one process (pid 1, "statdb"), one lane (tid) per event
/// `session` (lane 0 = head path). Each kSpan becomes an "X" complete
/// event, each trace's kQueryBegin→kQueryEnd extent the enclosing "X" of
/// its operation, every other event an "i" instant — all on the one
/// recorder clock.
///
/// `trace_id_filter` != 0 restricts the export to that one operation —
/// the shell's `trace <id>` command.
std::string ExportChromeTrace(const std::vector<FlightEvent>& events,
                              uint64_t trace_id_filter = 0);

}  // namespace causal
}  // namespace statdb

#endif  // STATDB_CAUSAL_CHROME_TRACE_H_
