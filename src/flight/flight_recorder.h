#ifndef STATDB_FLIGHT_FLIGHT_RECORDER_H_
#define STATDB_FLIGHT_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "causal/trace_context.h"
#include "common/sync.h"

namespace statdb {

/// statdb::flight — the flight recorder (DESIGN.md §12).
///
/// Metrics answer "how much, in total"; per-query traces answer "where
/// did this one query spend its time"; the crash matrix asks "what was
/// the system doing just before it died?". The flight recorder is the
/// one event store behind the last two — a fixed-size ring of small
/// structured events (query begin/end, query-phase spans, cache
/// verdicts, maintainer arm/fire, WAL commit, injected fault, I/O retry,
/// recovery step, degraded flip) on one clock, that costs one relaxed
/// load when disabled and a handful of relaxed stores when enabled, and
/// that can always dump its last-N-events window as JSON — including
/// automatically, once, on the first DATA_LOSS or degraded-mode entry.
/// A QueryTrace (flight/query_trace.h) is read back from this ring.
///
/// Concurrency design: writers claim a slot with one fetch_add and stamp
/// it with a per-slot sequence marker (odd while the payload is being
/// written, `seq*2+2` once published). Readers copy the payload and accept
/// it only if the marker is identical-and-even before and after the copy —
/// a per-slot seqlock. Every payload field is a relaxed atomic so the
/// scheme is exact under TSan, not merely benign: no locks on the write
/// path, wait-free except for the (unbounded but contention-free) reader
/// retry which Dump sidesteps by skipping torn slots.

/// Phases a query can spend time in: the names of kSpan events.
enum class SpanKind : uint8_t {
  kCacheProbe = 0,     // Summary Database lookup
  kStalenessGate = 1,  // allow_stale / max_version_lag decision
  kInference = 2,      // Database-Abstract rule consultation
  kScan = 3,           // column read (whole serial read, or parallel wall)
  kScanChunk = 4,      // one page-aligned chunk of a parallel scan
  kCompute = 5,        // statistic computation / partial-state finish
  kMaintainerArm = 6,  // incremental-maintainer construction + init
  kSummaryInsert = 7,  // Summary Database insert of the fresh result
  // Recovery phases (Dbms::Recover emits a "recover"-labeled trace so
  // crash recovery is no longer an observability black hole):
  kWalScan = 8,             // redo-log open + record scan
  kRedoReplay = 9,          // full-page-image replay into the pools
  kManifestApply = 10,      // catalog/view/summary state rebuild
  kFallbackInvalidate = 11, // §4.3 hinted-attribute invalidation
  // Compressed-domain scan over the RLE sidecar (DESIGN.md §14): rows =
  // logical cells covered, pages = compressed pages touched.
  kCompressedScan = 12,
};

const char* SpanKindName(SpanKind kind);

/// Reads a span event's label ("scan", "scan_chunk[3]") back into its
/// kind and chunk index (-1 when the label has none). False for a label
/// no span kind produces.
bool ParseSpanLabel(std::string_view label, SpanKind* kind, int32_t* detail);

/// Provenance labels mirrored from core's AnswerSource (flight sits below
/// core in the dependency DAG, so it keeps its own copy); kQueryEnd's
/// `a` carries one.
enum class TraceOutcome : uint8_t {
  kUnknown = 0,
  kCacheHit = 1,
  kStaleCacheHit = 2,
  kInferred = 3,
  kComputed = 4,
  kError = 5,
};

const char* TraceOutcomeName(TraceOutcome outcome);

/// Wall-clock stopwatch used by the tracing call sites themselves.
class TraceTimer {
 public:
  TraceTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// What happened. Values are stable — they appear in dumped JSON.
enum class FlightEventKind : uint8_t {
  kQueryBegin = 0,      // a = request index in batch (or 0)
  kQueryEnd = 1,        // a = outcome (TraceOutcome), x = wall ms
  kCacheHit = 2,        // summary database answered fresh
  kCacheMiss = 3,       // summary database had nothing usable
  kStaleServe = 4,      // stale summary served under allow_stale
  kMaintainerArm = 5,   // incremental maintainer constructed
  kMaintainerFire = 6,  // maintainer applied an update delta
  kWalCommit = 7,       // a = lsn, b = pages in record, x = wal ms
  kFaultInjected = 8,   // a = FaultKind, b = page id
  kIoRetry = 9,         // a = attempt #, b = page id, x = backoff ms
  kRecoveryStep = 10,   // a/b step-specific (see recovery.cc)
  kDegraded = 11,       // read-only degraded mode entered
  kDataLoss = 12,       // checksum mismatch / unrecoverable read
  kUpdate = 13,         // a = view version after, b = cells changed
  kRollback = 14,       // a = version rolled back to
  kSessionOpen = 15,    // a = session id, b = pinned commit seq
  kSessionClose = 16,   // a = session id, b = queries served
  kPolicySwitch = 17,   // "view.attr"; a = from strategy, b = to strategy
  kDeltaFlush = 18,     // "view.attr"; a = batch size, b = entries refreshed
  kSpan = 19,  // "scan_chunk[3]"; t_ms = start, x = wall ms, a = rows,
               // b = pages. Written only by RecordSpan, never sampled.
};

const char* FlightEventKindName(FlightEventKind kind);

/// One published event, as handed to readers. POD, fixed size.
struct FlightEvent {
  uint64_t seq = 0;    // global order of the event
  double t_ms = 0;     // ms since recorder construction
  FlightEventKind kind = FlightEventKind::kQueryBegin;
  char label[48] = {};  // "view.fn(attr)" etc.; truncated, NUL-terminated
  int64_t a = 0;        // kind-specific payload (see enum comments)
  int64_t b = 0;
  double x = 0;
  /// The causal::TraceContext id of the operation this event belongs to
  /// (DESIGN.md §17), or 0 when no context was live — the key that
  /// gathers an operation's spans, delta flushes and WAL commits into
  /// its QueryTrace.
  uint64_t trace = 0;
  uint64_t session = 0;  // the stamping context's session (0 = head path)
};

/// One event as the JSON object every dump uses: seq, t_ms, kind,
/// label, a, b, x, trace, session.
std::string FlightEventJson(const FlightEvent& ev);

/// The one-shot incident dump behind STATDB_FLIGHT_DUMP and
/// STATDB_SLOWLOG_DUMP: the first Fire() after arming writes the rendered
/// document to the armed path; every later call is a no-op.
class OneShotDump {
 public:
  /// Arms the dump; an empty path disarms it.
  void set_path(std::string path) {
    MutexLock lock(mu_);
    path_ = std::move(path);
  }

  /// Writes `render()` if this is the first call since arming (or since
  /// Rearm). Returns true if it wrote the file.
  template <typename Render>
  bool Fire(const Render& render) {
    std::string path;
    {
      MutexLock lock(mu_);
      if (path_.empty() || fired_) return false;
      fired_ = true;  // first caller wins
      path = path_;
    }
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    out << render() << "\n";
    dumps_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  void Rearm() {
    MutexLock lock(mu_);
    fired_ = false;
  }
  uint64_t dumps() const { return dumps_.load(std::memory_order_relaxed); }

 private:
  Mutex mu_;
  std::string path_ STATDB_GUARDED_BY(mu_);
  bool fired_ STATDB_GUARDED_BY(mu_) = false;
  std::atomic<uint64_t> dumps_{0};
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 1024;
  static constexpr size_t kLabelWords = 6;  // 48 label bytes as uint64s

  /// `capacity` is rounded up to a power of two (slot math is one mask).
  explicit FlightRecorder(size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The hot-path entry point. Disabled: one relaxed load and a branch.
  /// Events are stamped with the calling thread's current trace id —
  /// layers below the TraceContext signature boundary (buffer pool,
  /// devices, WAL) attribute to whoever minted the ambient context.
  void Record(FlightEventKind kind, std::string_view label, int64_t a = 0,
              int64_t b = 0, double x = 0) {
    Record(causal::Current(), kind, label, a, b, x);
  }

  /// Explicit-context form (lint rule R8: core/delta/session call sites
  /// must use this one). Stamps `ctx.trace_id` even when called off the
  /// minting thread — the propagated context, not the ambient slot, is
  /// authoritative.
  void Record(const causal::TraceContext& ctx, FlightEventKind kind,
              std::string_view label, int64_t a = 0, int64_t b = 0,
              double x = 0) {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    RecordSlow(kind, label, a, b, x, ctx);
  }

  /// The span recorder, sole writer of kSpan events (lint R10): one
  /// record per finished span; `start_ms` is on this recorder's clock.
  void RecordSpan(const causal::TraceContext& ctx, SpanKind kind,
                  int32_t detail, double start_ms, double wall_ms,
                  uint64_t rows = 0, uint64_t pages = 0);

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Keep 1-in-`n` of the *samplable* kinds (cache verdicts, query
  /// begin/end, update). Rare, diagnosis-critical kinds — faults,
  /// retries, recovery, WAL commits, degraded/DATA_LOSS flips,
  /// maintainer fire, rollback — are never sampled out. n is rounded up
  /// to a power of two; n <= 1 disables sampling.
  void set_sample_every(uint64_t n);
  uint64_t sample_every() const {
    return sample_mask_.load(std::memory_order_relaxed) + 1;
  }

  size_t capacity() const { return capacity_; }
  /// Events accepted into the ring (post-sampling), total ever.
  uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  /// Events dropped by sampling, total ever.
  uint64_t sampled_out() const {
    return sampled_out_.load(std::memory_order_relaxed);
  }

  /// Copies the currently-published window (oldest surviving → newest),
  /// starting no earlier than seq `first_seq`. Slots a writer is
  /// mid-stamp on are skipped, not blocked on.
  std::vector<FlightEvent> SnapshotEvents(uint64_t first_seq = 0) const;

  /// {"flight": {..., "events": [...]}} over the surviving window.
  /// `reason` tags the dump ("manual", "degraded", "data_loss", ...).
  std::string DumpJson(const std::string& reason = "manual") const;

  /// Arms the automatic black-box dump: the first AutoDumpOnce() after
  /// this writes DumpJson(reason) to `path`. Empty path disarms.
  void set_auto_dump_path(std::string path) {
    auto_dump_.set_path(std::move(path));
  }

  /// Fires at most once per recorder lifetime (first caller wins; later
  /// calls — and calls with no armed path — are no-ops). Returns true if
  /// this call performed the dump. Safe from any thread.
  bool AutoDumpOnce(const std::string& reason) {
    return auto_dump_.Fire([&] { return DumpJson(reason); });
  }
  uint64_t auto_dumps() const { return auto_dump_.dumps(); }

  /// Drops the recorded window and re-arms the auto dump. Counters keep
  /// their lifetime totals; `head_` keeps climbing so seqs stay unique.
  void Clear();

  /// The recorder clock: ms since construction.
  double NowMs() const { return ToMs(std::chrono::steady_clock::now()); }
  double ToMs(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration<double, std::milli>(t - epoch_).count();
  }

 private:
  // A slot's marker is 0 (never written), odd (writer mid-stamp), or
  // seq*2+2 (payload for `seq` is published). Payload fields are relaxed
  // atomics; the marker's release/acquire pair orders them.
  struct Slot {
    std::atomic<uint64_t> marker{0};
    std::atomic<double> t_ms{0};
    std::atomic<uint8_t> kind{0};
    std::atomic<int64_t> a{0};
    std::atomic<int64_t> b{0};
    std::atomic<double> x{0};
    std::atomic<uint64_t> trace{0};
    std::atomic<uint64_t> session{0};
    std::atomic<uint64_t> label[kLabelWords] = {};
  };

  void RecordSlow(FlightEventKind kind, std::string_view label, int64_t a,
                  int64_t b, double x, const causal::TraceContext& ctx);
  void Publish(FlightEventKind kind, std::string_view label, int64_t a,
               int64_t b, double x, const causal::TraceContext& ctx,
               double t_ms);

  const size_t capacity_;
  const size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::chrono::steady_clock::time_point epoch_;

  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> head_{0};
  std::atomic<uint64_t> sample_mask_{0};  // keep when (tick & mask) == 0
  std::atomic<uint64_t> sample_tick_{0};
  std::atomic<uint64_t> sampled_out_{0};

  OneShotDump auto_dump_;
};

/// A traced operation's handle on the ring (DESIGN.md §10): where its
/// spans go, the context that stamps them, and its first seq and start
/// time there. Untraced operations pass nullptr instead.
struct SpanTarget {
  FlightRecorder* flight = nullptr;
  causal::TraceContext ctx;
  uint64_t first_seq = 0;
  double begin_ms = 0;
};

/// RAII span: with a target, reads the recorder clock on open and records
/// one kSpan event on close; with nullptr, one predictable branch each.
class ScopedSpan {
 public:
  ScopedSpan(const SpanTarget* target, SpanKind kind, int32_t detail = -1)
      : target_(target), kind_(kind), detail_(detail) {
    if (target_ != nullptr) start_ms_ = target_->flight->NowMs();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (target_ == nullptr) return;
    target_->flight->RecordSpan(target_->ctx, kind_, detail_, start_ms_,
                                target_->flight->NowMs() - start_ms_, rows_,
                                pages_);
  }

  void SetRows(uint64_t rows) { rows_ = rows; }
  void SetPages(uint64_t pages) { pages_ = pages; }
  /// Rows plus the page count implied by `cells_per_page` cells per page.
  void SetRowsPaged(uint64_t rows, size_t cells_per_page) {
    rows_ = rows;
    pages_ = cells_per_page == 0 ? 0
                                 : (rows + cells_per_page - 1) /
                                       cells_per_page;
  }

 private:
  const SpanTarget* target_;
  SpanKind kind_;
  int32_t detail_;
  uint64_t rows_ = 0;
  uint64_t pages_ = 0;
  double start_ms_ = 0;
};

}  // namespace statdb

#endif  // STATDB_FLIGHT_FLIGHT_RECORDER_H_
