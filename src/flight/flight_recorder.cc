#include "flight/flight_recorder.h"

#include <algorithm>
#include <bit>
#include <charconv>

#include "obs/json.h"

namespace statdb {

namespace {

/// Samplable kinds are the per-query-frequency ones; everything that
/// marks a fault, a durability boundary or a state flip survives any
/// sampling rate — those are exactly the events a post-mortem needs.
bool IsSamplable(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kQueryBegin:
    case FlightEventKind::kQueryEnd:
    case FlightEventKind::kCacheHit:
    case FlightEventKind::kCacheMiss:
    case FlightEventKind::kStaleServe:
    case FlightEventKind::kMaintainerArm:
    case FlightEventKind::kUpdate:
      return true;
    default:
      return false;
  }
}

size_t RoundUpPow2(size_t n) {
  if (n < 2) return 2;
  return std::bit_ceil(n);
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCacheProbe: return "cache_probe";
    case SpanKind::kStalenessGate: return "staleness_gate";
    case SpanKind::kInference: return "inference";
    case SpanKind::kScan: return "scan";
    case SpanKind::kScanChunk: return "scan_chunk";
    case SpanKind::kCompute: return "compute";
    case SpanKind::kMaintainerArm: return "maintainer_arm";
    case SpanKind::kSummaryInsert: return "summary_insert";
    case SpanKind::kWalScan: return "wal_scan";
    case SpanKind::kRedoReplay: return "redo_replay";
    case SpanKind::kManifestApply: return "manifest_apply";
    case SpanKind::kFallbackInvalidate: return "fallback_invalidate";
    case SpanKind::kCompressedScan: return "compressed_scan";
  }
  return "?";
}

const char* TraceOutcomeName(TraceOutcome outcome) {
  switch (outcome) {
    case TraceOutcome::kUnknown: return "unknown";
    case TraceOutcome::kCacheHit: return "cache_hit";
    case TraceOutcome::kStaleCacheHit: return "stale_cache_hit";
    case TraceOutcome::kInferred: return "inferred";
    case TraceOutcome::kComputed: return "computed";
    case TraceOutcome::kError: return "error";
  }
  return "?";
}

bool ParseSpanLabel(std::string_view label, SpanKind* kind,
                    int32_t* detail) {
  const size_t bracket = label.find('[');
  *detail = -1;
  if (bracket != std::string_view::npos) {
    std::from_chars(label.data() + bracket + 1, label.data() + label.size(),
                    *detail);
  }
  for (uint8_t k = 0; k <= uint8_t(SpanKind::kCompressedScan); ++k) {
    *kind = SpanKind(k);
    if (label.substr(0, bracket) == SpanKindName(*kind)) return true;
  }
  return false;
}

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kQueryBegin: return "query_begin";
    case FlightEventKind::kQueryEnd: return "query_end";
    case FlightEventKind::kCacheHit: return "cache_hit";
    case FlightEventKind::kCacheMiss: return "cache_miss";
    case FlightEventKind::kStaleServe: return "stale_serve";
    case FlightEventKind::kMaintainerArm: return "maintainer_arm";
    case FlightEventKind::kMaintainerFire: return "maintainer_fire";
    case FlightEventKind::kWalCommit: return "wal_commit";
    case FlightEventKind::kFaultInjected: return "fault_injected";
    case FlightEventKind::kIoRetry: return "io_retry";
    case FlightEventKind::kRecoveryStep: return "recovery_step";
    case FlightEventKind::kSessionOpen: return "session_open";
    case FlightEventKind::kSessionClose: return "session_close";
    case FlightEventKind::kDegraded: return "degraded";
    case FlightEventKind::kDataLoss: return "data_loss";
    case FlightEventKind::kUpdate: return "update";
    case FlightEventKind::kRollback: return "rollback";
    case FlightEventKind::kPolicySwitch: return "policy_switch";
    case FlightEventKind::kDeltaFlush: return "delta_flush";
    case FlightEventKind::kSpan: return "span";
  }
  return "unknown";
}

std::string FlightEventJson(const FlightEvent& ev) {
  return obs::JsonObject()
      .Int("seq", ev.seq)
      .Num("t_ms", ev.t_ms)
      .Str("kind", FlightEventKindName(ev.kind))
      .Str("label", ev.label)
      .Raw("a", std::to_string(ev.a))
      .Raw("b", std::to_string(ev.b))
      .Num("x", ev.x)
      .Int("trace", ev.trace)
      .Int("session", ev.session)
      .Build();
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(RoundUpPow2(capacity)),
      mask_(capacity_ - 1),
      slots_(std::make_unique<Slot[]>(capacity_)),
      epoch_(std::chrono::steady_clock::now()) {}

void FlightRecorder::set_sample_every(uint64_t n) {
  uint64_t pow2 = n <= 1 ? 1 : std::bit_ceil(n);
  sample_mask_.store(pow2 - 1, std::memory_order_relaxed);
}

void FlightRecorder::RecordSlow(FlightEventKind kind,
                                std::string_view label, int64_t a,
                                int64_t b, double x,
                                const causal::TraceContext& ctx) {
  uint64_t mask = sample_mask_.load(std::memory_order_relaxed);
  if (mask != 0 && IsSamplable(kind)) {
    uint64_t tick =
        sample_tick_.fetch_add(1, std::memory_order_relaxed);
    if ((tick & mask) != 0) {
      sampled_out_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  Publish(kind, label, a, b, x, ctx, NowMs());
}

void FlightRecorder::RecordSpan(const causal::TraceContext& ctx,
                                SpanKind kind, int32_t detail,
                                double start_ms, double wall_ms,
                                uint64_t rows, uint64_t pages) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  std::string label = SpanKindName(kind);
  if (detail >= 0) label += "[" + std::to_string(detail) + "]";
  Publish(FlightEventKind::kSpan, label, int64_t(rows), int64_t(pages),
          wall_ms, ctx, start_ms);
}

void FlightRecorder::Publish(FlightEventKind kind, std::string_view label,
                             int64_t a, int64_t b, double x,
                             const causal::TraceContext& ctx, double t_ms) {
  uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[seq & mask_];
  // Odd marker = "torn"; readers that see it (or see it change across
  // their copy) discard the slot. acq_rel so a reader that observes the
  // final even marker also observes every payload store before it.
  s.marker.store(seq * 2 + 1, std::memory_order_release);

  s.t_ms.store(t_ms, std::memory_order_relaxed);
  s.kind.store(static_cast<uint8_t>(kind), std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  s.x.store(x, std::memory_order_relaxed);
  s.trace.store(ctx.trace_id, std::memory_order_relaxed);
  s.session.store(ctx.session_id, std::memory_order_relaxed);
  uint64_t words[kLabelWords] = {};
  size_t n = std::min(label.size(), sizeof(words) - 1);  // keep a NUL
  std::memcpy(words, label.data(), n);
  for (size_t i = 0; i < kLabelWords; ++i) {
    s.label[i].store(words[i], std::memory_order_relaxed);
  }

  s.marker.store(seq * 2 + 2, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::SnapshotEvents(
    uint64_t first_seq) const {
  std::vector<FlightEvent> out;
  uint64_t head = head_.load(std::memory_order_acquire);
  uint64_t first = std::min(
      head, std::max(first_seq, head > capacity_ ? head - capacity_ : 0));
  out.reserve(static_cast<size_t>(head - first));
  for (uint64_t seq = first; seq < head; ++seq) {
    const Slot& s = slots_[seq & mask_];
    uint64_t before = s.marker.load(std::memory_order_acquire);
    if (before != seq * 2 + 2) continue;  // torn or already overwritten
    FlightEvent ev;
    ev.seq = seq;
    ev.t_ms = s.t_ms.load(std::memory_order_relaxed);
    ev.kind = static_cast<FlightEventKind>(
        s.kind.load(std::memory_order_relaxed));
    ev.a = s.a.load(std::memory_order_relaxed);
    ev.b = s.b.load(std::memory_order_relaxed);
    ev.x = s.x.load(std::memory_order_relaxed);
    ev.trace = s.trace.load(std::memory_order_relaxed);
    ev.session = s.session.load(std::memory_order_relaxed);
    uint64_t words[kLabelWords];
    for (size_t i = 0; i < kLabelWords; ++i) {
      words[i] = s.label[i].load(std::memory_order_relaxed);
    }
    std::memcpy(ev.label, words, sizeof(ev.label));
    ev.label[sizeof(ev.label) - 1] = '\0';
    uint64_t after = s.marker.load(std::memory_order_acquire);
    if (after != before) continue;  // a writer lapped us mid-copy
    out.push_back(ev);
  }
  return out;
}

std::string FlightRecorder::DumpJson(const std::string& reason) const {
  std::vector<FlightEvent> events = SnapshotEvents();
  std::vector<std::string> rows;
  rows.reserve(events.size());
  for (const FlightEvent& ev : events) rows.push_back(FlightEventJson(ev));
  obs::JsonObject flight;
  flight.Str("reason", reason)
      .Bool("enabled", enabled())
      .Int("capacity", capacity_)
      .Int("recorded", recorded())
      .Int("sampled_out", sampled_out())
      .Int("sample_every", sample_every())
      .Int("auto_dumps", auto_dumps())
      .Raw("events", obs::JsonArray(rows));
  return obs::JsonObject().Raw("flight", flight.Build()).Build();
}

void FlightRecorder::Clear() {
  // Invalidate every published slot; in-flight writers republish theirs
  // with fresh seqs as head_ keeps climbing.
  for (size_t i = 0; i < capacity_; ++i) {
    slots_[i].marker.store(0, std::memory_order_release);
  }
  auto_dump_.Rearm();
}

}  // namespace statdb
