#include "core/dbms.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>

#include "check/db_auditor.h"
#include "delta/maintenance.h"
#include "exec/chunked_scanner.h"
#include "exec/compressed_scan.h"
#include "exec/thread_pool.h"
#include "obs/json.h"
#include "session/session.h"
#include "storage/column_file.h"
#include "stats/descriptive.h"
#include "stats/crosstab.h"
#include "stats/regression.h"
#include "stats/tests.h"

namespace statdb {

namespace {

/// Functions that are still meaningful on encoded category attributes.
bool MeaningfulOnCategories(const std::string& function) {
  return function == "count" || function == "distinct" ||
         function == "mode" || function == "histogram";
}

/// True for functions whose answer finishes from the merged partial
/// states of a column scan (DescriptiveStats + ValueCounts) without
/// ever materializing the column. Everything else rides the keep_values
/// path and is computed by the registry on the gathered column, which is
/// bit-identical to a whole-column read.
bool IsMergeable(const std::string& function) {
  return function == "count" || function == "sum" || function == "mean" ||
         function == "variance" || function == "stddev" ||
         function == "min" || function == "max" || function == "range" ||
         function == "mode" || function == "distinct" ||
         function == "histogram";
}

bool NeedsValueCounts(const std::string& function) {
  return function == "mode" || function == "distinct" ||
         function == "histogram";
}

/// Whether a one-chunk (dop 1) scan builds value counts for `function`.
/// Value counts exist to merge chunks; with the whole column in hand the
/// registry's sort (distinct) and one-pass (histogram) functions are
/// cheaper, but its ordered-map mode is not.
bool CountsInOneChunk(const std::string& function) {
  return function == "mode";
}

TraceOutcome OutcomeOfSource(AnswerSource source) {
  switch (source) {
    case AnswerSource::kCacheHit: return TraceOutcome::kCacheHit;
    case AnswerSource::kStaleCacheHit: return TraceOutcome::kStaleCacheHit;
    case AnswerSource::kInferred: return TraceOutcome::kInferred;
    case AnswerSource::kComputed: return TraceOutcome::kComputed;
  }
  return TraceOutcome::kUnknown;
}

uint64_t PagesOf(uint64_t rows) {
  return (rows + ColumnFile::kCellsPerPage - 1) / ColumnFile::kCellsPerPage;
}

/// How the attribute's stored raws decode for the compressed-domain
/// kernels (mirrors TransposedTable's cell encoding). Callers only reach
/// here after CheckQueryable, so the attribute is numeric.
simd::RunValueKind RunKindOf(const Schema& schema, size_t attr_idx) {
  return schema.attr(attr_idx).type == DataType::kDouble
             ? simd::RunValueKind::kDoubleBits
             : simd::RunValueKind::kInt64;
}

/// "view.fn(attr)" — the label format the flight recorder and the
/// workload profiler share, so `top` rows and flight events correlate.
std::string QueryLabel(const std::string& view, const std::string& function,
                       const std::string& attribute) {
  return view + "." + function + "(" + attribute + ")";
}

WorkloadProfiler::QueryOutcome ProfilerOutcome(TraceOutcome outcome) {
  switch (outcome) {
    case TraceOutcome::kCacheHit:
      return WorkloadProfiler::QueryOutcome::kCacheHit;
    case TraceOutcome::kStaleCacheHit:
      return WorkloadProfiler::QueryOutcome::kStaleServe;
    case TraceOutcome::kInferred:
      return WorkloadProfiler::QueryOutcome::kInferred;
    case TraceOutcome::kComputed:
      return WorkloadProfiler::QueryOutcome::kComputed;
    case TraceOutcome::kUnknown:
    case TraceOutcome::kError:
      break;
  }
  return WorkloadProfiler::QueryOutcome::kFailed;
}

/// Finishes one mergeable statistic from the merged scan state,
/// reproducing the registry functions' values and domain errors (empty
/// columns fail with the exact strings the registry functions use).
Result<SummaryResult> FinishMergeable(const std::string& function,
                                      const FunctionParams& params,
                                      const ColumnScanResult& scan) {
  const DescriptiveStats& d = scan.desc;
  if (function == "count") return SummaryResult::Scalar(double(d.count));
  if (function == "sum") return SummaryResult::Scalar(d.sum);
  if (function == "distinct") {
    return SummaryResult::Scalar(double(scan.counts.Distinct()));
  }
  if (function == "mode") {
    STATDB_ASSIGN_OR_RETURN(double m, scan.counts.ModeValue());
    return SummaryResult::Scalar(m);
  }
  if (function == "histogram") {
    if (d.count == 0) {
      return InvalidArgumentError("histogram of an empty column");
    }
    double lo = d.min;
    double hi = d.max;
    if (lo == hi) hi = lo + 1.0;  // degenerate constant column
    size_t buckets = static_cast<size_t>(params.GetOr("buckets", 20));
    STATDB_ASSIGN_OR_RETURN(Histogram h,
                            scan.counts.ToHistogram(buckets, lo, hi));
    return SummaryResult::Histo(std::move(h));
  }
  if (d.count == 0) {
    return InvalidArgumentError("statistic of an empty column");
  }
  if (function == "mean") return SummaryResult::Scalar(d.mean);
  if (function == "variance") return SummaryResult::Scalar(d.Variance());
  if (function == "stddev") return SummaryResult::Scalar(d.StdDev());
  if (function == "min") return SummaryResult::Scalar(d.min);
  if (function == "max") return SummaryResult::Scalar(d.max);
  if (function == "range") return SummaryResult::Scalar(d.max - d.min);
  return InternalError("FinishMergeable on non-mergeable " + function);
}

/// The finish step of every computed single-attribute answer. Moments
/// finish from the scan's span-kernel partials; value-count statistics
/// from its merged ValueCounts when the scan built them (`counted`);
/// everything else runs the registry function over the gathered column
/// `values`. Both routes give value-count statistics exactly.
Result<SummaryResult> FinishUnary(const FunctionRegistry& functions,
                                  const std::string& function,
                                  const FunctionParams& params,
                                  const ColumnScanResult& scan, bool counted,
                                  const std::vector<double>& values) {
  if (IsMergeable(function) && (counted || !NeedsValueCounts(function))) {
    return FinishMergeable(function, params, scan);
  }
  return functions.Compute(function, values, params);
}

/// The answer of a one-request plan.
Result<QueryAnswer> Only(Result<std::vector<QueryAnswer>> answers) {
  if (!answers.ok()) return std::move(answers).status();
  return std::move(answers.value().front());
}

}  // namespace

StatisticalDbms::StatisticalDbms(StorageManager* storage,
                                 std::string tape_device,
                                 std::string disk_device)
    : storage_(storage),
      tape_device_(std::move(tape_device)),
      disk_device_(std::move(disk_device)) {
  // Resolve the hot-path instruments once; queries bump them lock-free.
  obs_query_ms_ = metrics_.GetHistogram("dbms.query_ms");
  obs_pool_task_ms_ = metrics_.GetHistogram("exec.pool.task_ms");
  obs_outcomes_[size_t(TraceOutcome::kUnknown)] =
      metrics_.GetCounter("dbms.answers.unknown");
  obs_outcomes_[size_t(TraceOutcome::kCacheHit)] =
      metrics_.GetCounter("dbms.answers.cache_hit");
  obs_outcomes_[size_t(TraceOutcome::kStaleCacheHit)] =
      metrics_.GetCounter("dbms.answers.stale_cache_hit");
  obs_outcomes_[size_t(TraceOutcome::kInferred)] =
      metrics_.GetCounter("dbms.answers.inferred");
  obs_outcomes_[size_t(TraceOutcome::kComputed)] =
      metrics_.GetCounter("dbms.answers.computed");
  obs_outcomes_[size_t(TraceOutcome::kError)] =
      metrics_.GetCounter("dbms.answers.error");
  obs_scan_compressed_ = metrics_.GetCounter("dbms.scan.compressed_domain");
  obs_scan_materialized_ = metrics_.GetCounter("dbms.scan.materialized");
  obs_pool_submitted_ = metrics_.GetCounter("exec.pool.tasks_submitted");
  obs_pool_executed_ = metrics_.GetCounter("exec.pool.tasks_executed");
  obs_pool_rejected_ = metrics_.GetCounter("exec.pool.tasks_rejected");
  obs_pool_queue_max_ = metrics_.GetGauge("exec.pool.queue_depth_max");
  obs_pool_task_ms_total_ = metrics_.GetGauge("exec.pool.task_ms_total");
  obs_delta_buffered_ = metrics_.GetCounter("dbms.delta.buffered");
  obs_delta_flushed_ = metrics_.GetCounter("dbms.delta.flushed");
  obs_delta_policy_switches_ =
      metrics_.GetCounter("dbms.delta.policy_switches");

  // Black-box wiring: the storage layer below reports I/O retries,
  // checksum DATA_LOSS verdicts and injected faults into the same ring
  // the query paths feed. STATDB_FLIGHT_DUMP (a path) arms the
  // dump-on-first-failure behavior the crash matrix relies on.
  // getenv is fine here: read once during construction, before any
  // worker thread exists, and nothing in statdb calls setenv.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* dump_path = std::getenv("STATDB_FLIGHT_DUMP");
      dump_path != nullptr && dump_path[0] != '\0') {
    flight_.set_auto_dump_path(dump_path);
  }
  // STATDB_SLOWLOG_DUMP is the slow-query log's twin: arming it also
  // enables capture (the log needs traces built per query to have
  // anything to ship when the incident dump fires).
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* slow_path = std::getenv("STATDB_SLOWLOG_DUMP");
      slow_path != nullptr && slow_path[0] != '\0') {
    slow_log_.set_auto_dump_path(slow_path);
    slow_log_.set_enabled(true);
  }
  for (const std::string& dev : {tape_device_, disk_device_}) {
    if (Result<BufferPool*> pool = storage_->GetPool(dev); pool.ok()) {
      pool.value()->set_flight_recorder(&flight_);
    }
    if (Result<SimulatedDevice*> device = storage_->GetDevice(dev);
        device.ok()) {
      device.value()->set_flight_recorder(&flight_);
    }
  }
}

StatisticalDbms::~StatisticalDbms() {
  std::vector<std::string> wired = {tape_device_, disk_device_};
  if (!wal_device_name_.empty()) wired.push_back(wal_device_name_);
  for (const std::string& dev : wired) {
    if (Result<BufferPool*> pool = storage_->GetPool(dev); pool.ok()) {
      pool.value()->set_flight_recorder(nullptr);
    }
    if (Result<SimulatedDevice*> device = storage_->GetDevice(dev);
        device.ok()) {
      device.value()->set_flight_recorder(nullptr);
    }
  }
}

void StatisticalDbms::EmitTrace(const SpanTarget& spans,
                                std::string operation,
                                const std::string& view,
                                std::string function, std::string attribute,
                                TraceOutcome outcome, double ms) {
  QueryTrace trace = QueryTrace::Assemble(spans);
  trace.SetLabel(std::move(operation), view, std::move(function),
                 std::move(attribute));
  trace.SetOutcome(outcome);
  trace.SetTotalMs(ms);
  if (trace_sink_ != nullptr) trace_sink_->OnQueryTrace(trace);
  if (slow_log_.enabled() && slow_log_.ShouldCapture(ms)) {
    slow_log_.Capture(std::move(trace));
  }
}

void StatisticalDbms::TickTimeseries() {
  timeseries_.Push(TakeStatSnapshot());
}

void StatisticalDbms::EnableTimeseries(uint64_t every_n_mutations) {
  {
    MutexLock lock(session_mu_);
    ts_every_n_mutations_ = every_n_mutations;
    ts_mutations_since_tick_ = 0;
  }
  // Outside the latch: TickTimeseries re-reads mutation_seq_.
  if (every_n_mutations > 0) TickTimeseries();  // the delta baseline
}

void StatisticalDbms::MaybeTickTimeseries() {
  bool tick = false;
  {
    MutexLock lock(session_mu_);
    ++mutation_seq_;
    if (ts_every_n_mutations_ != 0 &&
        ++ts_mutations_since_tick_ >= ts_every_n_mutations_) {
      ts_mutations_since_tick_ = 0;
      tick = true;
    }
  }
  if (tick) TickTimeseries();
}

std::string StatisticalDbms::ExposeText() {
  TickTimeseries();
  return timeseries_.ExposeText();
}

StatPoint StatisticalDbms::TakeStatSnapshot() {
  StatPoint p;
  p.t_ms = flight_.NowMs();
  {
    MutexLock lock(session_mu_);
    p.seq = mutation_seq_;
  }
  // The registry's counters and gauges become scalar series directly;
  // histograms contribute their count and tail.
  MetricsSnapshot snap = metrics_.Snapshot();
  for (const auto& [name, v] : snap.counters) {
    p.values[name] = static_cast<double>(v);
  }
  for (const auto& [name, v] : snap.gauges) p.values[name] = v;
  for (const auto& [name, h] : snap.histograms) {
    p.values[name + ".count"] = static_cast<double>(h.count);
    p.values[name + ".p99_ms"] = h.p99_ms;
  }
  // Canonical keys the delta/rate derivation consumes (timeseries.h).
  uint64_t lookups = 0;
  uint64_t hits = 0;
  for (const auto& [name, state] : views_) {
    const SummaryDbStats s = state.summary->stats();
    lookups += s.lookups;
    hits += s.hits;
  }
  p.values["summary.lookups"] = static_cast<double>(lookups);
  p.values["summary.hits"] = static_cast<double>(hits);
  uint64_t reads = 0;
  uint64_t writes = 0;
  double sim_ms = 0;
  for (const std::string& dev : {tape_device_, disk_device_}) {
    Result<SimulatedDevice*> device = storage_->GetDevice(dev);
    if (!device.ok()) continue;
    const IoStats& io = device.value()->stats();
    reads += io.block_reads;
    writes += io.block_writes;
    sim_ms += io.simulated_ms;
  }
  p.values["io.bytes_read"] =
      static_cast<double>(reads) * static_cast<double>(kPageSize);
  p.values["io.bytes_written"] =
      static_cast<double>(writes) * static_cast<double>(kPageSize);
  p.values["io.simulated_ms"] = sim_ms;
  if (wal_ != nullptr) {
    const WalStats ws = wal_->stats();
    p.values["wal.bytes_appended"] = static_cast<double>(ws.bytes_appended);
    p.values["wal.commits"] = static_cast<double>(ws.records_appended);
  }
  return p;
}

void StatisticalDbms::FoldPoolStats(const ThreadPool& pool) {
  ThreadPoolStats s = pool.stats();
  obs_pool_submitted_->Inc(s.submitted);
  obs_pool_executed_->Inc(s.executed);
  obs_pool_rejected_->Inc(s.rejected);
  obs_pool_queue_max_->MaxOf(double(s.max_queue_depth));
  obs_pool_task_ms_total_->Add(s.total_task_ms);
}

Status StatisticalDbms::LoadRawDataSet(const std::string& name,
                                       const Table& data,
                                       std::string description) {
  STATDB_RETURN_IF_ERROR(GuardMutable());
  if (raw_tables_.contains(name)) {
    return AlreadyExistsError("raw data set already loaded: " + name);
  }
  STATDB_ASSIGN_OR_RETURN(BufferPool * pool, storage_->GetPool(tape_device_));
  auto stored = std::make_unique<StoredRowTable>(data.schema(), pool);
  STATDB_RETURN_IF_ERROR(stored->LoadFrom(data));
  // The raw database is archival: write it through and drop it from the
  // cache so later materializations pay real tape I/O (§2.3's premise).
  STATDB_RETURN_IF_ERROR(pool->FlushAll());
  STATDB_RETURN_IF_ERROR(pool->Reset());
  raw_tables_.emplace(name, std::move(stored));
  DataSetInfo info;
  info.name = name;
  info.schema = data.schema();
  info.location = DataSetLocation::kTape;
  info.description = std::move(description);
  info.approx_rows = data.num_rows();
  STATDB_RETURN_IF_ERROR(catalog_.RegisterDataSet(std::move(info)));
  // The tape pages are already forced (FlushAll above); this commit makes
  // the catalog/table registration itself durable.
  return CommitDurable(/*attr_hint=*/"", /*force=*/true);
}

Result<Table> StatisticalDbms::ReadRawFromTape(const std::string& dataset) {
  auto it = raw_tables_.find(dataset);
  if (it == raw_tables_.end()) {
    return NotFoundError("no raw data set named " + dataset);
  }
  STATDB_ASSIGN_OR_RETURN(Table out, it->second->ReadAll());
  // Tape is streamed, not cached: drop the pages so the next
  // materialization pays full tape I/O again (a tape drive has no
  // random-access page cache to keep warm).
  STATDB_ASSIGN_OR_RETURN(BufferPool * pool, storage_->GetPool(tape_device_));
  STATDB_RETURN_IF_ERROR(pool->FlushAll());
  STATDB_RETURN_IF_ERROR(pool->Reset());
  return out;
}

Result<ViewCreation> StatisticalDbms::CreateView(const std::string& name,
                                                 const ViewDefinition& def,
                                                 MaintenancePolicy policy) {
  std::string canonical = def.Canonical();
  Result<std::string> existing = mdb_.FindViewByDefinition(canonical);
  if (existing.ok()) {
    // §2.3: never re-materialize a view identical to an existing one.
    return ViewCreation{existing.value(), /*reused=*/true};
  }
  STATDB_RETURN_IF_ERROR(GuardMutable());
  if (views_.contains(name)) {
    return AlreadyExistsError("view name already in use: " + name);
  }
  // kCreate captures nothing (there is no pre-image); the scope
  // serializes against other writers and registers the new view with
  // the session routing table at publish. On failure the auto-publish
  // carries a null pointer, which registers nothing. The reuse path
  // above takes no scope: nothing mutates, and re-publishing an
  // untouched view would needlessly bump every pinned route.
  session::MutationScope scope(sessions_.get(),
                               session::MutationScope::Kind::kCreate, name,
                               nullptr);
  if (!scope.ok()) return scope.status();
  STATDB_ASSIGN_OR_RETURN(Table raw, ReadRawFromTape(def.source));
  STATDB_ASSIGN_OR_RETURN(Table materialized, def.Materialize(raw));
  STATDB_ASSIGN_OR_RETURN(BufferPool * pool, storage_->GetPool(disk_device_));
  ViewState state;
  state.view = std::make_unique<ConcreteView>(name, materialized.schema(),
                                              pool);
  STATDB_RETURN_IF_ERROR(state.view->LoadFrom(materialized));
  // Build RLE sidecars over the freshly loaded columns (best-effort;
  // columns that would not compress keep none). Before the flush so the
  // sidecar pages persist with the view's.
  STATDB_RETURN_IF_ERROR(state.view->CompressColumns());
  // Persist the freshly materialized view (the buffer pool stays warm).
  // Under durability the flush must wait for the commit record: the
  // commit below appends the dirty images to the WAL first and flushes
  // itself (force-at-commit).
  if (wal_ == nullptr) {
    STATDB_RETURN_IF_ERROR(pool->FlushAll());
  }
  STATDB_ASSIGN_OR_RETURN(state.summary, SummaryDatabase::Create(pool));
  STATDB_RETURN_IF_ERROR(mdb_.RegisterView(name, canonical, policy));
  DataSetInfo info;
  info.name = name;
  info.schema = materialized.schema();
  info.location = DataSetLocation::kDisk;
  info.description = "concrete view: " + canonical;
  info.approx_rows = materialized.num_rows();
  STATDB_RETURN_IF_ERROR(catalog_.RegisterDataSet(std::move(info)));
  auto [vit, inserted] = views_.emplace(name, std::move(state));
  scope.Publish(vit->second.view.get());
  STATDB_RETURN_IF_ERROR(CommitDurable(/*attr_hint=*/"", /*force=*/true));
  return ViewCreation{name, /*reused=*/false};
}

Result<StatisticalDbms::ViewState*> StatisticalDbms::GetState(
    const std::string& view) {
  auto it = views_.find(view);
  if (it == views_.end()) {
    return NotFoundError("no view named " + view);
  }
  return &it->second;
}

Result<ConcreteView*> StatisticalDbms::GetView(const std::string& name) {
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(name));
  return state->view.get();
}

Status StatisticalDbms::DropView(const std::string& name) {
  STATDB_RETURN_IF_ERROR(GuardMutable());
  auto vit = views_.find(name);
  if (vit == views_.end()) {
    return NotFoundError("no view named " + name);
  }
  // Pinned sessions keep reading the captures installed here; sessions
  // opened after the drop see NOT_FOUND. The erase below destroys the
  // ConcreteView, so the grace period in the scope's Begin is what makes
  // it safe — and the drop must publish before this function returns
  // (the destructor auto-publishes the drop on error paths too: by then
  // mdb_/catalog state is partially gone, so "dropped" is the only
  // truthful route).
  session::MutationScope scope(sessions_.get(),
                               session::MutationScope::Kind::kDrop, name,
                               vit->second.view.get());
  if (!scope.ok()) return scope.status();
  STATDB_RETURN_IF_ERROR(mdb_.DropView(name));
  STATDB_RETURN_IF_ERROR(catalog_.UnregisterDataSet(name));
  views_.erase(name);
  // Policy state is keyed by "view.attr": a later view reusing the name
  // must start from the default strategy, not inherit hysteresis streaks.
  delta_policy_.EraseView(name);
  // Metadata-only mutation: no pages dirtied, but the drop must reach the
  // log or recovery would resurrect the view.
  return CommitDurable(/*attr_hint=*/"", /*force=*/true);
}

Result<Table> StatisticalDbms::RematerializeFromTape(
    const std::string& view_name) {
  STATDB_ASSIGN_OR_RETURN(const ViewRecord* rec, mdb_.GetView(view_name));
  (void)rec;
  // The typed definition is not persisted; benchmarks re-supply it. Here
  // we re-read the raw source of the existing view by snapshotting its
  // catalog entry's source. For simplicity the canonical definition
  // encodes "FROM <source>..." — parse the source token.
  const std::string& canonical = rec->canonical_definition;
  if (canonical.rfind("FROM ", 0) != 0) {
    return InternalError("unparseable view definition");
  }
  size_t end = canonical.find(' ', 5);
  std::string source = canonical.substr(
      5, end == std::string::npos ? std::string::npos : end - 5);
  return ReadRawFromTape(source);
}

Status StatisticalDbms::CheckQueryable(const Schema& schema,
                                       const std::string& function,
                                       const std::string& attribute) {
  // Meta-data gate (§3.2): no medians of AGE_GROUP codes.
  STATDB_ASSIGN_OR_RETURN(size_t attr_idx, schema.IndexOf(attribute));
  const Attribute& attr = schema.attr(attr_idx);
  bool numeric = attr.type == DataType::kInt64 ||
                 attr.type == DataType::kDouble;
  if (!numeric) {
    return InvalidArgumentError("attribute " + attribute +
                                " is not numeric");
  }
  if ((!attr.summarizable || attr.kind == AttributeKind::kCategory) &&
      !MeaningfulOnCategories(function)) {
    return InvalidArgumentError(
        "summary statistic '" + function +
        "' is not meaningful for category attribute " + attribute);
  }
  return Status::OK();
}

Result<bool> StatisticalDbms::TryAnswerWithoutComputing(
    const std::string& view, ViewState* state, const SummaryKey& key,
    const FunctionParams& params, const QueryOptions& opts,
    QueryAnswer* answer, const SpanTarget* spans) {
  // Flush barrier (§16): a cached entry with pending deltas is behind
  // the data without being marked stale, so an exact serve must apply
  // the batch first. allow_stale accepts it as-is — the analyst already
  // opted into approximate answers — and the staleness-gate arithmetic
  // below stays on entry versions, which flushing freshens.
  if (!opts.allow_stale) {
    for (const std::string& attr : key.attributes) {
      if (state->deltas.HasPending(attr)) {
        STATDB_RETURN_IF_ERROR(FlushAttributeDeltas(view, state, attr));
      }
    }
  }
  Result<SummaryEntry> cached = [&] {
    ScopedSpan span(spans, SpanKind::kCacheProbe);
    return state->summary->Lookup(key);
  }();
  // "fn(attr)" or "fn(a,b)": the label of the probe's flight events.
  auto label = [&key] {
    std::string out = key.function + "(";
    for (size_t i = 0; i < key.attributes.size(); ++i) {
      if (i > 0) out += ",";
      out += key.attributes[i];
    }
    return out + ")";
  };
  if (cached.ok() && !cached.value().stale) {
    ++state->traffic.cache_hits;
    if (flight_.enabled()) {
      flight_.Record(causal::Current(), FlightEventKind::kCacheHit, label());
    }
    *answer = QueryAnswer{cached.value().result, AnswerSource::kCacheHit,
                          true, ""};
    return true;
  }
  if (cached.ok() && cached.value().stale) {
    ScopedSpan span(spans, SpanKind::kStalenessGate);
    if (opts.allow_stale ||
        (opts.max_version_lag > 0 &&
         state->view->version() - cached.value().view_version <=
             opts.max_version_lag)) {
      ++state->traffic.stale_hits;
      state->summary->NoteServedStale();
      if (flight_.enabled()) {
        flight_.Record(causal::Current(), FlightEventKind::kStaleServe,
                       label(),
                       int64_t(state->view->version() -
                               cached.value().view_version));
      }
      *answer = QueryAnswer{cached.value().result,
                            AnswerSource::kStaleCacheHit, false,
                            "stale cached value"};
      return true;
    }
  }
  if (flight_.enabled()) {
    flight_.Record(causal::Current(), FlightEventKind::kCacheMiss, label());
  }

  // The inference rules derive single-attribute statistics only.
  if (opts.allow_inference && key.attributes.size() == 1) {
    ScopedSpan span(spans, SpanKind::kInference);
    Result<InferenceResult> inferred =
        InferFromSummaries(state->summary.get(), key.function,
                           key.attributes.front(), params);
    if (inferred.ok() &&
        (inferred.value().exact || opts.allow_estimates)) {
      ++state->traffic.inferred;
      *answer = QueryAnswer{inferred.value().result, AnswerSource::kInferred,
                            inferred.value().exact,
                            inferred.value().derivation};
      return true;
    }
  }
  return false;
}

Status StatisticalDbms::CacheComputedResult(const std::string& view,
                                            ViewState* state,
                                            const SummaryKey& key,
                                            const SummaryResult& result,
                                            const std::vector<double>& data,
                                            const SpanTarget* spans) {
  {
    ScopedSpan span(spans, SpanKind::kSummaryInsert);
    STATDB_RETURN_IF_ERROR(
        state->summary->Insert(key, result, state->view->version()));
  }
  // Arm an incremental rule for this entry when one exists and the
  // view maintains incrementally.
  STATDB_ASSIGN_OR_RETURN(const ViewRecord* rec, mdb_.GetView(view));
  if (rec->policy == MaintenancePolicy::kIncremental) {
    ScopedSpan span(spans, SpanKind::kMaintainerArm);
    span.SetRows(data.size());
    // Arming routes through the delta engine (R7: dbms never drives
    // maintainer arms directly), so the flush path owns every
    // maintainer lifecycle transition.
    if (delta::ArmMaintainer(mdb_, key, data, &state->maintainers) &&
        flight_.enabled()) {
      flight_.Record(causal::Current(), FlightEventKind::kMaintainerArm,
                     QueryLabel(view, key.function,
                                key.attributes.empty()
                                    ? std::string()
                                    : key.attributes.front()),
                     /*a=*/0, int64_t(data.size()));
    }
  }
  return Status::OK();
}

// --- the query pipeline (DESIGN.md §9) --------------------------------------

struct StatisticalDbms::Plan {
  std::string view;
  std::vector<QueryRequest> requests;
  QueryOptions opts;
  /// Degree of parallelism: 1 scans inline with no pool (serial Query).
  size_t dop = 1;
  /// QueryFiltered's row predicate. The predicate is not part of any
  /// summary key, so a filtered plan neither consults nor feeds the
  /// Summary Database.
  std::optional<FilterPredicate> filter = std::nullopt;
};

struct StatisticalDbms::PairPlan {
  std::string view;
  /// correlation | covariance | regression | crosstab |
  /// chi2_independence | welch_t
  std::string function;
  std::string attr_a;
  std::string attr_b;
  QueryOptions opts;
  size_t dop = 1;
  /// welch_t: the two codes of attr_b whose attr_a groups are compared.
  int64_t code_a = 0;
  int64_t code_b = 0;
};

/// RAII bracket of one public query call. Construction mints the causal
/// context, opens the span target when a sink or the slow-query log wants
/// the trace, and records one kQueryBegin per target; destruction records
/// the matching kQueryEnd events, the latency/outcome/SLO sample, the
/// trace emission and the profiler rows, then commits a successful call
/// to the WAL. Every public Query* wrapper is one scope around one body,
/// so the pairing and the commit hold on every path, early errors
/// included.
class StatisticalDbms::QueryScope {
 public:
  /// A one-target call: `function(attribute)` labels the trace, the
  /// flight pair and the profiler row; `commit_hint` is the attribute
  /// hint of the WAL record a successful call appends.
  QueryScope(StatisticalDbms* db, const char* operation,
             const char* slo_class, const std::string& view,
             const std::string& function, const std::string& attribute,
             std::string commit_hint)
      : QueryScope(db, operation, slo_class, view, {{function, attribute}},
                   std::move(commit_hint)) {}

  /// QueryMany: one flight pair and profiler row per request, all under
  /// one trace.
  QueryScope(StatisticalDbms* db, const std::string& view,
             const std::vector<QueryRequest>& requests)
      : QueryScope(db, "querymany", "query_many", view, TargetsOf(requests),
                   requests.empty() ? "" : requests.front().attribute) {
    batch_ = true;
  }

  ~QueryScope() {
    const TraceOutcome outcome = ok_ ? outcome_ : TraceOutcome::kError;
    const double ms = timer_.ElapsedMs();
    EmitQueryObs(outcome, ms);
    // Per-target provenance for the profiler and the flight ring; a
    // batch's wall time is split evenly (per-request time is not
    // observable once scans are shared across requests).
    const double per_target_ms =
        ms / double(std::max<size_t>(targets_.size(), 1));
    for (size_t i = 0; i < targets_.size(); ++i) {
      const TraceOutcome o = ok_ ? target_outcomes_[i] : TraceOutcome::kError;
      if (db_->flight_.enabled()) {
        db_->flight_.Record(ctx_.ctx(), FlightEventKind::kQueryEnd,
                            Label(i), static_cast<int64_t>(o), 0,
                            per_target_ms);
      }
      db_->profiler_.NoteQuery(view_, targets_[i].function,
                               targets_[i].attribute, ProfilerOutcome(o),
                               per_target_ms);
    }
    if (ok_) db_->CommitAfterQuery(commit_hint_);
    // Last, so the trace holds its kQueryEnd events and the commit.
    if (!spans_) return;
    db_->EmitTrace(
        *spans_, operation_, view_,
        batch_ ? "[" + std::to_string(targets_.size()) + " requests]"
               : targets_[0].function,
        batch_ ? "" : targets_[0].attribute, outcome, ms);
  }

  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

  /// nullptr when nothing wants this call's trace.
  const SpanTarget* spans() const { return spans_ ? &*spans_ : nullptr; }

  /// Records the call's outcome (emitted by the destructor) and passes
  /// the result through.
  Result<QueryAnswer> Finish(Result<QueryAnswer> r) {
    if (r.ok()) Succeed({OutcomeOfSource(r.value().source)});
    return r;
  }
  Result<std::vector<QueryAnswer>> Finish(
      Result<std::vector<QueryAnswer>> r) {
    if (r.ok()) {
      std::vector<TraceOutcome> outcomes;
      outcomes.reserve(r.value().size());
      for (const QueryAnswer& a : r.value()) {
        outcomes.push_back(OutcomeOfSource(a.source));
      }
      Succeed(std::move(outcomes));
    }
    return r;
  }

 private:
  struct Target {
    std::string function;
    std::string attribute;
  };

  QueryScope(StatisticalDbms* db, const char* operation,
             const char* slo_class, const std::string& view,
             std::vector<Target> targets, std::string commit_hint)
      : db_(db),
        spans_(db->BeginTrace(ctx_.ctx())),
        operation_(operation),
        slo_class_(slo_class),
        view_(view),
        targets_(std::move(targets)),
        commit_hint_(std::move(commit_hint)) {
    if (db_->flight_.enabled()) {
      for (size_t i = 0; i < targets_.size(); ++i) {
        db_->flight_.Record(ctx_.ctx(), FlightEventKind::kQueryBegin,
                            Label(i), static_cast<int64_t>(i));
      }
    }
  }

  static std::vector<Target> TargetsOf(
      const std::vector<QueryRequest>& requests) {
    std::vector<Target> out;
    out.reserve(requests.size());
    for (const QueryRequest& r : requests) {
      out.push_back({r.function, r.attribute});
    }
    return out;
  }

  std::string Label(size_t i) const {
    return QueryLabel(view_, targets_[i].function, targets_[i].attribute);
  }

  /// A batch's outcome is the most expensive source any request needed.
  void Succeed(std::vector<TraceOutcome> outcomes) {
    ok_ = true;
    outcome_ = outcomes.empty() ? TraceOutcome::kUnknown
                                : TraceOutcome::kCacheHit;
    for (TraceOutcome o : outcomes) {
      if (static_cast<uint8_t>(o) > static_cast<uint8_t>(outcome_)) {
        outcome_ = o;
      }
    }
    target_outcomes_ = std::move(outcomes);
  }

  /// Query latency + outcome counters and the class's SLO sample.
  void EmitQueryObs(TraceOutcome outcome, double ms) {
    db_->obs_query_ms_->Record(ms);
    db_->obs_outcomes_[size_t(outcome)]->Inc();
    db_->slo_.Record(slo_class_, ms, outcome == TraceOutcome::kError);
  }

  StatisticalDbms* db_;
  // First member after db_: the context stays installed until every
  // other member (and the destructor body's commit) is done with it.
  causal::ScopedTraceContext ctx_{causal::Mint()};
  TraceTimer timer_;
  const std::optional<SpanTarget> spans_;
  const char* operation_;
  const char* slo_class_;
  const std::string& view_;
  std::vector<Target> targets_;
  std::string commit_hint_;
  bool batch_ = false;
  bool ok_ = false;
  TraceOutcome outcome_ = TraceOutcome::kError;
  std::vector<TraceOutcome> target_outcomes_;
};

Result<QueryAnswer> StatisticalDbms::Query(const std::string& view,
                                           const std::string& function,
                                           const std::string& attribute,
                                           const FunctionParams& params,
                                           const QueryOptions& opts) {
  QueryScope scope(this, "query", "query", view, function, attribute,
                   attribute);
  return scope.Finish(Only(Execute(
      Plan{view, {{function, attribute, params}}, opts}, scope.spans())));
}

Result<QueryAnswer> StatisticalDbms::QueryParallel(
    const std::string& view, const std::string& function,
    const std::string& attribute, const FunctionParams& params,
    const QueryOptions& opts, size_t workers) {
  QueryScope scope(this, "queryp", "query_parallel", view, function,
                   attribute, attribute);
  return scope.Finish(
      Only(Execute(Plan{view, {{function, attribute, params}}, opts, workers},
                   scope.spans())));
}

Result<std::vector<QueryAnswer>> StatisticalDbms::QueryMany(
    const std::string& view, const std::vector<QueryRequest>& requests,
    const QueryOptions& opts, size_t workers) {
  QueryScope scope(this, view, requests);
  return scope.Finish(
      Execute(Plan{view, requests, opts, workers}, scope.spans()));
}

Result<QueryAnswer> StatisticalDbms::QueryFiltered(
    const std::string& view, const std::string& function,
    const std::string& attribute, const FilterPredicate& pred,
    const FunctionParams& params) {
  QueryScope scope(this, "queryfiltered", "query_filtered", view, function,
                   attribute, attribute);
  return scope.Finish(
      Only(Execute(Plan{view, {{function, attribute, params}}, {}, 1, pred},
                   scope.spans())));
}

Result<QueryAnswer> StatisticalDbms::QueryBivariate(
    const std::string& view, const std::string& function,
    const std::string& attr_a, const std::string& attr_b,
    const QueryOptions& opts) {
  QueryScope scope(this, "bivariate", "bivariate", view, function,
                   attr_a + "," + attr_b, attr_a);
  return scope.Finish(ExecutePair(
      PairPlan{view, function, attr_a, attr_b, opts}, scope.spans()));
}

Result<QueryAnswer> StatisticalDbms::QueryBivariateParallel(
    const std::string& view, const std::string& function,
    const std::string& attr_a, const std::string& attr_b,
    const QueryOptions& opts, size_t workers) {
  QueryScope scope(this, "bivariate", "bivariate", view, function,
                   attr_a + "," + attr_b, attr_a);
  return scope.Finish(ExecutePair(
      PairPlan{view, function, attr_a, attr_b, opts, workers},
      scope.spans()));
}

Result<QueryAnswer> StatisticalDbms::QueryGroupCompare(
    const std::string& view, const std::string& value_attr,
    const std::string& category_attr, int64_t code_a, int64_t code_b,
    const QueryOptions& opts) {
  QueryScope scope(this, "groupcompare", "group_compare", view, "welch_t",
                   value_attr + "," + category_attr, value_attr);
  return scope.Finish(ExecutePair(PairPlan{view, "welch_t", value_attr,
                                           category_attr, opts, 1, code_a,
                                           code_b},
                                  scope.spans()));
}

Result<SummaryResult> StatisticalDbms::ComputeOverColumn(
    const std::string& function, const FunctionParams& params,
    const std::vector<double>& data) const {
  // Exactly a dop-1 scan's one chunk over the same values.
  const bool counted = CountsInOneChunk(function);
  ColumnScanResult scan;
  if (IsMergeable(function)) {
    scan = FoldColumnSpan(data.data(), data.size(), counted);
  }
  return FinishUnary(mdb_.functions(), function, params, scan, counted,
                     data);
}

Result<std::vector<QueryAnswer>> StatisticalDbms::Execute(
    const Plan& plan, const SpanTarget* spans) {
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(plan.view));
  const ConcreteView* cv = state->view.get();
  const std::vector<QueryRequest>& requests = plan.requests;
  const bool filtered = plan.filter.has_value();
  const bool cache = !filtered && plan.opts.cache_result;

  std::vector<QueryAnswer> answers(requests.size());
  std::vector<SummaryKey> keys;
  keys.reserve(requests.size());
  // A duplicate request aliases the first one with its key instead of
  // being recomputed or re-inserted.
  constexpr size_t kNoAlias = static_cast<size_t>(-1);
  std::vector<size_t> alias_of(requests.size(), kNoAlias);
  // Attributes needing a scan, in first-appearance order, each with the
  // requests its one scan answers.
  struct ScanGroup {
    std::string attribute;
    std::vector<size_t> requests;
  };
  std::vector<ScanGroup> groups;

  for (size_t i = 0; i < requests.size(); ++i) {
    const QueryRequest& r = requests[i];
    ++state->traffic.queries;
    ++state->traffic.attribute_accesses[r.attribute];
    STATDB_RETURN_IF_ERROR(
        CheckQueryable(cv->schema(), r.function, r.attribute));
    keys.push_back(SummaryKey{r.function, {r.attribute}, r.params.Encode()});
    for (size_t j = 0; j < i && alias_of[i] == kNoAlias; ++j) {
      if (alias_of[j] == kNoAlias && keys[j] == keys[i]) alias_of[i] = j;
    }
    if (alias_of[i] != kNoAlias) continue;
    if (!filtered) {
      STATDB_ASSIGN_OR_RETURN(
          bool answered,
          TryAnswerWithoutComputing(plan.view, state, keys[i], r.params,
                                    plan.opts, &answers[i], spans));
      if (answered) continue;
    }
    auto g = std::find_if(groups.begin(), groups.end(),
                          [&r](const ScanGroup& s) {
                            return s.attribute == r.attribute;
                          });
    if (g == groups.end()) {
      groups.push_back({r.attribute, {}});
      g = std::prev(groups.end());
    }
    g->requests.push_back(i);
  }

  // Incremental maintainers initialize from the full column, so arming
  // one makes the scan gather it even when every statistic is mergeable.
  bool arm_maintainers = false;
  if (cache && !groups.empty()) {
    STATDB_ASSIGN_OR_RETURN(const ViewRecord* rec, mdb_.GetView(plan.view));
    arm_maintainers = rec->policy == MaintenancePolicy::kIncremental;
  }
  if (!filtered) {
    // Compute paths flush unconditionally (even under allow_stale, which
    // only relaxes *serves*): a maintainer armed from the scanned column
    // must never later receive buffered deltas it already reflects.
    for (const ScanGroup& g : groups) {
      if (state->deltas.HasPending(g.attribute)) {
        STATDB_RETURN_IF_ERROR(
            FlushAttributeDeltas(plan.view, state, g.attribute));
      }
    }
  }

  // Serial is dop 1: no pool, and each scan runs inline as one chunk.
  std::optional<ThreadPool> pool;
  if (plan.dop > 1 && !groups.empty()) {
    pool.emplace(plan.dop);
    pool->set_task_latency_sink(obs_pool_task_ms_);
  }
  for (const ScanGroup& g : groups) {
    const std::string& attr = g.attribute;
    ColumnScanSpec spec;
    for (size_t i : g.requests) {
      if (NeedsValueCounts(requests[i].function)) spec.want_counts = true;
      if (!IsMergeable(requests[i].function)) spec.keep_values = true;
    }
    if (arm_maintainers) spec.keep_values = true;
    spec.time_chunks = spans != nullptr;
    // The filter, coerced to the attribute's type like index probes and
    // then compared as doubles, so both access paths decide NaN and
    // boundary cells alike. kAll when the plan has no filter.
    simd::RunPredicate rp;
    if (filtered) {
      const FilterPredicate& pred = *plan.filter;
      auto as_double = [cv, &attr](const Value& v) -> Result<double> {
        STATDB_ASSIGN_OR_RETURN(Value probe,
                                CoerceToAttribute(cv->schema(), attr, v));
        return probe.ToDouble();
      };
      switch (pred.kind) {
        case FilterPredicate::Kind::kAll:
          break;
        case FilterPredicate::Kind::kEqual: {
          rp.kind = simd::RunPredicate::Kind::kEqual;
          STATDB_ASSIGN_OR_RETURN(rp.equal, as_double(pred.equal));
          break;
        }
        case FilterPredicate::Kind::kRange: {
          rp.kind = simd::RunPredicate::Kind::kRange;
          STATDB_ASSIGN_OR_RETURN(rp.lo, as_double(pred.lo));
          STATDB_ASSIGN_OR_RETURN(rp.hi, as_double(pred.hi));
          break;
        }
      }
    }
    // Access path (DESIGN.md §14): the attribute's group answers from its
    // RLE sidecar in the compressed domain when every statistic finishes
    // from mergeable partials. Shared ref: keeps the sidecar alive across
    // the scan even if a concurrent writer detaches it.
    const std::shared_ptr<const CompressedColumnFile> sidecar =
        cv->CompressedSidecarRef(attr);
    const bool compressed =
        compressed_scan_enabled_ && sidecar != nullptr && !spec.keep_values;
    if (!compressed && !pool) {
      // One chunk: its buffer is the whole column, so keeping it is free,
      // and value counts are built only where they pay (CountsInOneChunk).
      spec.keep_values = true;
      spec.want_counts = std::any_of(
          g.requests.begin(), g.requests.end(), [&requests](size_t i) {
            return CountsInOneChunk(requests[i].function);
          });
    }
    ColumnScanResult scan;
    if (compressed) {
      ScopedSpan span(spans, SpanKind::kCompressedScan);
      const simd::RunValueKind kind =
          RunKindOf(cv->schema(), *cv->schema().IndexOf(attr));
      if (filtered) {
        // Pushdown: predicate decided once per run, no row materialized.
        STATDB_ASSIGN_OR_RETURN(
            FilteredScanResult f,
            ScanCompressedFiltered(*sidecar, kind, rp, spec.want_counts,
                                   pool ? &*pool : nullptr));
        span.SetRows(f.rows);
        scan.desc = f.desc;
        scan.counts = std::move(f.counts);
      } else {
        STATDB_ASSIGN_OR_RETURN(
            scan, ScanCompressedColumn(*sidecar, kind, spec.want_counts,
                                       pool ? &*pool : nullptr));
        span.SetRows(sidecar->size());
      }
      span.SetPages(sidecar->page_count());
      obs_scan_compressed_->Inc();
    } else {
      // Materialized: page-aligned chunks of the decoded column, each
      // keeping only the cells the filter matches.
      ColumnRangeReader reader =
          [cv, &attr, &rp](uint64_t begin,
                           uint64_t end) -> Result<std::vector<double>> {
        STATDB_ASSIGN_OR_RETURN(std::vector<double> cells,
                                cv->ReadNumericRange(attr, begin, end));
        if (rp.kind != simd::RunPredicate::Kind::kAll) {
          std::erase_if(cells, [&rp](double x) { return !rp.Matches(x); });
        }
        return cells;
      };
      {
        ScopedSpan span(spans, SpanKind::kScan);
        STATDB_ASSIGN_OR_RETURN(
            scan, ParallelScanColumn(cv->num_rows(), ColumnFile::kCellsPerPage,
                                     reader, spec, pool ? &*pool : nullptr));
        span.SetRowsPaged(scan.desc.count, ColumnFile::kCellsPerPage);
      }
      obs_scan_materialized_->Inc();
      if (spans != nullptr) {
        for (size_t c = 0; c < scan.chunk_stats.size(); ++c) {
          const ChunkScanStat& cs = scan.chunk_stats[c];
          spans->flight->RecordSpan(spans->ctx, SpanKind::kScanChunk,
                                    int32_t(c), flight_.ToMs(cs.start),
                                    cs.wall_ms, cs.rows, PagesOf(cs.rows));
        }
      }
    }
    for (size_t i : g.requests) {
      const QueryRequest& r = requests[i];
      SummaryResult result;
      {
        ScopedSpan span(spans, SpanKind::kCompute);
        span.SetRows(scan.desc.count);
        STATDB_ASSIGN_OR_RETURN(
            result, FinishUnary(mdb_.functions(), r.function, r.params, scan,
                                spec.want_counts, scan.values));
      }
      ++state->traffic.computed;
      if (cache) {
        STATDB_RETURN_IF_ERROR(CacheComputedResult(
            plan.view, state, keys[i], result, scan.values, spans));
      }
      answers[i] = QueryAnswer{
          std::move(result), AnswerSource::kComputed, true,
          filtered && compressed ? "compressed-domain pushdown" : ""};
    }
  }
  if (pool) {
    // The scans joined at their barriers, but a worker bumps `executed`
    // only after the task's future resolves — Quiesce() joins the
    // workers so the counters are exact before folding.
    pool->Quiesce();
    FoldPoolStats(*pool);
  }

  for (size_t i = 0; i < requests.size(); ++i) {
    if (alias_of[i] != kNoAlias) answers[i] = answers[alias_of[i]];
  }
  return answers;
}

Result<QueryAnswer> StatisticalDbms::ExecutePair(const PairPlan& plan,
                                                 const SpanTarget* spans) {
  const std::string& fn = plan.function;
  const bool comoment =
      fn == "correlation" || fn == "covariance" || fn == "regression";
  const bool contingency = fn == "crosstab" || fn == "chi2_independence";
  if (!comoment && !contingency && fn != "welch_t") {
    return InvalidArgumentError("unknown bivariate function " + fn);
  }
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(plan.view));
  ++state->traffic.queries;
  ++state->traffic.attribute_accesses[plan.attr_a];
  ++state->traffic.attribute_accesses[plan.attr_b];
  FunctionParams params;
  if (fn == "welch_t") {
    params.Set("a", double(plan.code_a)).Set("b", double(plan.code_b));
  }
  // A multi-attribute key: updates to either attribute reach the entry
  // through its reference record.
  SummaryKey key{fn, {plan.attr_a, plan.attr_b}, params.Encode()};
  QueryAnswer answer;
  STATDB_ASSIGN_OR_RETURN(
      bool answered, TryAnswerWithoutComputing(plan.view, state, key, params,
                                               plan.opts, &answer, spans));
  if (answered) return answer;
  // Compute paths flush unconditionally (see Execute): the comoment
  // maintainer armed below is seeded from the scanned pairs.
  for (const std::string* attr : {&plan.attr_a, &plan.attr_b}) {
    if (state->deltas.HasPending(*attr)) {
      STATDB_RETURN_IF_ERROR(FlushAttributeDeltas(plan.view, state, *attr));
    }
  }

  const ConcreteView* cv = state->view.get();
  SummaryResult result;
  std::optional<ComomentStats> cs;
  if (comoment) {
    // Co-moment partials per page-aligned chunk, merged in chunk order
    // at the barrier (one inline chunk at dop 1). Pairs with either cell
    // missing are dropped (pairwise deletion).
    PairRangeReader reader = [cv, &plan](uint64_t begin, uint64_t end,
                                         std::vector<double>* xs,
                                         std::vector<double>* ys) {
      return cv->ReadNumericPairsRange(plan.attr_a, plan.attr_b, begin, end,
                                       xs, ys);
    };
    std::optional<ThreadPool> pool;
    if (plan.dop > 1) {
      pool.emplace(plan.dop);
      pool->set_task_latency_sink(obs_pool_task_ms_);
    }
    {
      ScopedSpan span(spans, SpanKind::kScan);
      STATDB_ASSIGN_OR_RETURN(
          cs, ParallelScanPairs(cv->num_rows(), ColumnFile::kCellsPerPage,
                                reader, pool ? &*pool : nullptr));
      // Two columns read per row-pair: twice the pages of one column.
      span.SetRows(cs->n);
      span.SetPages(2 * PagesOf(cv->num_rows()));
    }
    if (pool) {
      pool->Quiesce();  // join workers so `executed` is exact
      FoldPoolStats(*pool);
    }
    ScopedSpan span(spans, SpanKind::kCompute);
    span.SetRows(cs->n);
    if (fn == "correlation") {
      STATDB_ASSIGN_OR_RETURN(double r, cs->PearsonR());
      result = SummaryResult::Scalar(r);
    } else if (fn == "covariance") {
      STATDB_ASSIGN_OR_RETURN(double c, cs->Covariance());
      result = SummaryResult::Scalar(c);
    } else {
      STATDB_ASSIGN_OR_RETURN(LinearFit fit, cs->Fit());
      result = SummaryResult::Model(fit);
    }
  } else {
    // Contingency tables and group splits have no mergeable partial state
    // here: read both columns row-aligned.
    std::vector<Value> va;
    std::vector<Value> vb;
    {
      ScopedSpan span(spans, SpanKind::kScan);
      STATDB_ASSIGN_OR_RETURN(va, state->view->ReadColumn(plan.attr_a));
      STATDB_ASSIGN_OR_RETURN(vb, state->view->ReadColumn(plan.attr_b));
      span.SetRowsPaged(2 * va.size(), ColumnFile::kCellsPerPage);
    }
    ScopedSpan span(spans, SpanKind::kCompute);
    if (contingency) {
      Table pair{Schema({Attribute::Category(plan.attr_a, DataType::kInt64),
                         Attribute::Category(plan.attr_b, DataType::kInt64)})};
      for (size_t i = 0; i < va.size(); ++i) {
        // Category cells are int-coded in views; keep whatever they are.
        Row row = {va[i], vb[i]};
        Status s = pair.AppendRow(std::move(row));
        if (!s.ok()) {
          return InvalidArgumentError(
              "bivariate cross-tab needs integer-coded attributes");
        }
      }
      STATDB_ASSIGN_OR_RETURN(CrossTab ct,
                              BuildCrossTab(pair, plan.attr_a, plan.attr_b));
      span.SetRows(va.size());
      if (fn == "crosstab") {
        result = SummaryResult::Contingency(std::move(ct));
      } else {
        STATDB_ASSIGN_OR_RETURN(TestResult tr, ChiSquaredIndependence(ct));
        result = SummaryResult::Vector({tr.statistic, tr.dof, tr.p_value});
      }
    } else {
      // welch_t: attr_a's values split by attr_b's code.
      std::vector<double> group_a, group_b;
      for (size_t i = 0; i < va.size(); ++i) {
        if (va[i].is_null() || vb[i].is_null()) continue;
        Result<double> v = va[i].ToDouble();
        Result<int64_t> code = vb[i].ToInt();
        if (!v.ok() || !code.ok()) continue;
        if (*code == plan.code_a) group_a.push_back(*v);
        if (*code == plan.code_b) group_b.push_back(*v);
      }
      span.SetRows(group_a.size() + group_b.size());
      STATDB_ASSIGN_OR_RETURN(TestResult tr, WelchTTest(group_a, group_b));
      result = SummaryResult::Vector({tr.statistic, tr.dof, tr.p_value});
    }
  }
  ++state->traffic.computed;
  if (plan.opts.cache_result) {
    ScopedSpan span(spans, SpanKind::kSummaryInsert);
    STATDB_RETURN_IF_ERROR(
        state->summary->Insert(key, result, state->view->version()));
    if (cs.has_value() &&
        delta::ArmComomentMaintainer(key, *cs, &state->comaintainers) &&
        flight_.enabled()) {
      flight_.Record(causal::Current(), FlightEventKind::kMaintainerArm,
                     QueryLabel(plan.view, fn,
                                plan.attr_a + "," + plan.attr_b),
                     0, int64_t(cs->n));
    }
  }
  return QueryAnswer{std::move(result), AnswerSource::kComputed, true, ""};
}

Result<Value> StatisticalDbms::CoerceToAttribute(
    const Schema& schema, const std::string& attribute, const Value& v) {
  STATDB_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(attribute));
  if (v.is_null()) return v;
  DataType want = schema.attr(idx).type;
  if (v.type() == want) return v;
  if (want == DataType::kInt64 && v.type() == DataType::kDouble) {
    STATDB_ASSIGN_OR_RETURN(int64_t i, v.ToInt());
    return Value::Int(i);
  }
  if (want == DataType::kDouble && v.type() == DataType::kInt64) {
    return Value::Real(double(v.AsInt()));
  }
  return InvalidArgumentError("probe value type does not match attribute " +
                              attribute);
}

Status StatisticalDbms::MaintainIndexes(
    ViewState* state, const std::string& attribute,
    const std::vector<CellChange>& changes) {
  auto it = state->indexes.find(attribute);
  if (it == state->indexes.end()) return Status::OK();
  for (const CellChange& ch : changes) {
    STATDB_RETURN_IF_ERROR(
        it->second->ApplyChange(ch.row, ch.old_value, ch.new_value));
  }
  return Status::OK();
}

Status StatisticalDbms::CreateAttributeIndex(const std::string& view,
                                             const std::string& attribute) {
  STATDB_RETURN_IF_ERROR(GuardMutable());
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  if (state->indexes.contains(attribute)) {
    return AlreadyExistsError("attribute already indexed: " + attribute);
  }
  if (!state->view->schema().Contains(attribute)) {
    return NotFoundError("no attribute named " + attribute);
  }
  STATDB_ASSIGN_OR_RETURN(BufferPool * pool, storage_->GetPool(disk_device_));
  STATDB_ASSIGN_OR_RETURN(
      std::unique_ptr<AttributeIndex> index,
      AttributeIndex::Build(*state->view, attribute, pool));
  state->indexes.emplace(attribute, std::move(index));
  // Indexes rebuild on demand after a crash (they are not in the
  // manifest), but committing here keeps the no-steal dirty set bounded.
  return CommitDurable(/*attr_hint=*/attribute, /*force=*/false);
}

bool StatisticalDbms::HasAttributeIndex(const std::string& view,
                                        const std::string& attribute) {
  Result<ViewState*> state = GetState(view);
  return state.ok() && state.value()->indexes.contains(attribute);
}

Result<uint64_t> StatisticalDbms::CountWhereEqual(const std::string& view,
                                                  const std::string& attribute,
                                                  const Value& v,
                                                  bool* used_index) {
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  ++state->traffic.attribute_accesses[attribute];
  STATDB_ASSIGN_OR_RETURN(
      Value probe, CoerceToAttribute(state->view->schema(), attribute, v));
  auto it = state->indexes.find(attribute);
  if (it != state->indexes.end()) {
    if (used_index != nullptr) *used_index = true;
    return it->second->CountEqual(probe);
  }
  if (used_index != nullptr) *used_index = false;
  const Schema& schema = state->view->schema();
  STATDB_ASSIGN_OR_RETURN(size_t attr_idx, schema.IndexOf(attribute));
  DataType t = schema.attr(attr_idx).type;
  // Shared ref, not the raw pointer: a concurrent WriteCell/Append
  // detaches the sidecar, and this scan's reference must keep the
  // retired pages alive until it finishes.
  const std::shared_ptr<const CompressedColumnFile> sidecar =
      state->view->CompressedSidecarRef(attribute);
  if (compressed_scan_enabled_ && sidecar != nullptr && !probe.is_null() &&
      (t == DataType::kInt64 || t == DataType::kDouble)) {
    // No index, but an RLE sidecar: decide the predicate per run instead
    // of per cell (string columns keep the Value comparison below — their
    // run raws are dictionary codes, not comparable as doubles).
    simd::RunPredicate rp;
    rp.kind = simd::RunPredicate::Kind::kEqual;
    STATDB_ASSIGN_OR_RETURN(rp.equal, probe.ToDouble());
    STATDB_ASSIGN_OR_RETURN(
        FilteredScanResult filtered,
        ScanCompressedFiltered(*sidecar, RunKindOf(schema, attr_idx), rp,
                               /*want_counts=*/false, /*pool=*/nullptr));
    obs_scan_compressed_->Inc();
    return filtered.rows;
  }
  STATDB_ASSIGN_OR_RETURN(std::vector<Value> column,
                          state->view->ReadColumn(attribute));
  uint64_t count = 0;
  for (const Value& cell : column) {
    if (cell == probe) ++count;
  }
  obs_scan_materialized_->Inc();
  return count;
}

Result<uint64_t> StatisticalDbms::CountWhereInRange(
    const std::string& view, const std::string& attribute, const Value& lo,
    const Value& hi, bool* used_index) {
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  ++state->traffic.attribute_accesses[attribute];
  const Schema& schema = state->view->schema();
  STATDB_ASSIGN_OR_RETURN(Value plo, CoerceToAttribute(schema, attribute, lo));
  STATDB_ASSIGN_OR_RETURN(Value phi, CoerceToAttribute(schema, attribute, hi));
  auto it = state->indexes.find(attribute);
  if (it != state->indexes.end()) {
    if (used_index != nullptr) *used_index = true;
    return it->second->CountInRange(plo, phi);
  }
  if (used_index != nullptr) *used_index = false;
  STATDB_ASSIGN_OR_RETURN(size_t attr_idx, schema.IndexOf(attribute));
  DataType t = schema.attr(attr_idx).type;
  // Shared ref, not the raw pointer: a concurrent WriteCell/Append
  // detaches the sidecar, and this scan's reference must keep the
  // retired pages alive until it finishes.
  const std::shared_ptr<const CompressedColumnFile> sidecar =
      state->view->CompressedSidecarRef(attribute);
  if (compressed_scan_enabled_ && sidecar != nullptr && !plo.is_null() &&
      !phi.is_null() && (t == DataType::kInt64 || t == DataType::kDouble)) {
    simd::RunPredicate rp;
    rp.kind = simd::RunPredicate::Kind::kRange;
    STATDB_ASSIGN_OR_RETURN(rp.lo, plo.ToDouble());
    STATDB_ASSIGN_OR_RETURN(rp.hi, phi.ToDouble());
    STATDB_ASSIGN_OR_RETURN(
        FilteredScanResult filtered,
        ScanCompressedFiltered(*sidecar, RunKindOf(schema, attr_idx), rp,
                               /*want_counts=*/false, /*pool=*/nullptr));
    obs_scan_compressed_->Inc();
    return filtered.rows;
  }
  STATDB_ASSIGN_OR_RETURN(std::vector<Value> column,
                          state->view->ReadColumn(attribute));
  uint64_t count = 0;
  for (const Value& cell : column) {
    if (cell.is_null()) continue;
    if (!(cell < plo) && !(phi < cell)) ++count;
  }
  obs_scan_materialized_->Inc();
  return count;
}

Status StatisticalDbms::ReorganizeView(
    const std::string& view, const std::vector<std::string>& sort_attrs) {
  STATDB_RETURN_IF_ERROR(GuardMutable());
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  STATDB_ASSIGN_OR_RETURN(ViewRecord * rec, mdb_.GetView(view));
  // Sorting permutes row coordinates; buffered deltas (keyed by row id)
  // and comoment co-value reads would address the wrong cells afterwards.
  // Flush against the pre-sort layout while the ids still mean something.
  STATDB_RETURN_IF_ERROR(FlushViewDeltas(view, state));
  // The swap below destroys the old ConcreteView; the scope's grace
  // period guarantees no pinned reader is still on it, and Publish
  // re-routes live reads to the fresh object.
  session::MutationScope scope(sessions_.get(),
                               session::MutationScope::Kind::kMutate, view,
                               state->view.get());
  if (!scope.ok()) return scope.status();
  STATDB_ASSIGN_OR_RETURN(Table snapshot, state->view->Snapshot());
  STATDB_ASSIGN_OR_RETURN(Table sorted, SortBy(snapshot, sort_attrs));
  STATDB_ASSIGN_OR_RETURN(BufferPool * pool, storage_->GetPool(disk_device_));
  auto fresh = std::make_unique<ConcreteView>(view, sorted.schema(), pool);
  STATDB_RETURN_IF_ERROR(fresh->LoadFrom(sorted));
  // Reorganization exists to cluster runs (§2.7) — rebuild the sidecars
  // over the sorted rows, where RLE compresses best.
  STATDB_RETURN_IF_ERROR(fresh->CompressColumns());
  // Under durability the commit at the end flushes (force-at-commit).
  if (wal_ == nullptr) {
    STATDB_RETURN_IF_ERROR(pool->FlushAll());
  }
  state->view = std::move(fresh);
  // Publish immediately: the begin-time pointer just died with the swap,
  // so the destructor's auto-publish must never run here.
  scope.Publish(state->view.get());
  // New physical baseline: row coordinates changed, so the old history's
  // undo records no longer address the right cells.
  rec->history = UpdateHistory();
  rec->version = 0;
  state->view->SetVersion(0);
  // Column multisets are unchanged, so cached summaries remain valid;
  // maintainers carry only multiset state and survive too. Indexes map
  // values to row ids, which did change: rebuild them.
  for (auto& [attr, index] : state->indexes) {
    STATDB_ASSIGN_OR_RETURN(index,
                            AttributeIndex::Build(*state->view, attr, pool));
  }
  return CommitDurable(/*attr_hint=*/"", /*force=*/true);
}

Result<std::string> StatisticalDbms::RecommendClusterAttribute(
    const std::string& view) {
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  const Schema& schema = state->view->schema();
  std::string best;
  uint64_t best_count = 0;
  for (const auto& [attr, count] : state->traffic.attribute_accesses) {
    Result<size_t> idx = schema.IndexOf(attr);
    if (!idx.ok()) continue;
    if (schema.attr(*idx).kind != AttributeKind::kCategory) continue;
    if (count > best_count) {
      best = attr;
      best_count = count;
    }
  }
  if (best.empty()) {
    return NotFoundError("no category attribute referenced yet");
  }
  return best;
}

Status StatisticalDbms::ComputeStandardSummary(const std::string& view,
                                               const std::string& attribute) {
  static const char* kBattery[] = {"min",       "max",      "mean",
                                   "variance",  "stddev",   "median",
                                   "quartiles", "mode",     "distinct",
                                   "histogram"};
  for (const char* fn : kBattery) {
    STATDB_ASSIGN_OR_RETURN(QueryAnswer answer,
                            Query(view, fn, attribute, {}, {}));
    (void)answer;
  }
  return Status::OK();
}

Status StatisticalDbms::AnnotateAttribute(const std::string& view,
                                          const std::string& attribute,
                                          std::string note) {
  STATDB_RETURN_IF_ERROR(GuardMutable());
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  SummaryKey key = SummaryKey::Of("note", attribute);
  STATDB_RETURN_IF_ERROR(state->summary->Insert(
      key, SummaryResult::Text(std::move(note)), state->view->version()));
  return CommitDurable(/*attr_hint=*/attribute, /*force=*/false);
}

Status StatisticalDbms::MaintainSummaries(
    const std::string& view_name, ViewState* state,
    const std::string& attribute, const std::vector<CellChange>& changes) {
  STATDB_ASSIGN_OR_RETURN(const ViewRecord* rec, mdb_.GetView(view_name));
  switch (rec->policy) {
    case MaintenancePolicy::kInvalidate: {
      STATDB_ASSIGN_OR_RETURN(
          uint64_t n, state->summary->InvalidateAttribute(attribute));
      (void)n;
      return Status::OK();
    }
    case MaintenancePolicy::kEager: {
      std::vector<SummaryEntry> entries;
      STATDB_RETURN_IF_ERROR(state->summary->ForEachOnAttribute(
          attribute, [&entries](const SummaryEntry& e) {
            entries.push_back(e);
            return Status::OK();
          }));
      if (entries.empty()) return Status::OK();
      STATDB_ASSIGN_OR_RETURN(std::vector<double> data,
                              state->view->ReadNumericColumn(attribute));
      for (const SummaryEntry& e : entries) {
        if (e.key.attributes.size() != 1 || e.key.function == "note") {
          // Cross-column results are recomputed lazily.
          STATDB_RETURN_IF_ERROR(state->summary->MarkStale(e.key));
          continue;
        }
        STATDB_ASSIGN_OR_RETURN(FunctionParams params,
                                FunctionParams::Decode(e.key.params));
        Result<SummaryResult> fresh =
            mdb_.functions().Compute(e.key.function, data, params);
        if (!fresh.ok()) {
          STATDB_RETURN_IF_ERROR(state->summary->MarkStale(e.key));
          continue;
        }
        STATDB_RETURN_IF_ERROR(state->summary->Refresh(
            e.key, fresh.value(), state->view->version()));
        ++state->traffic.eager_recomputes;
      }
      return Status::OK();
    }
    case MaintenancePolicy::kIncremental:
      break;
  }

  // Incremental path (§4.2/§4.3). Mutations never touch the maintainers
  // directly any more: numeric changes land in the view's delta buffer
  // and flow through one amortized FlushAttributeDeltas pass — right away
  // for eager entries, at the flush threshold for batched ones, never
  // (invalidate instead) for lazy ones. The adaptive policy controller
  // picks the strategy per view.attr from the profiler's heatmap row.
  WorkloadProfiler::AttributeRow row =
      profiler_.AttributeStats(view_name, attribute);
  delta::PolicyDecision decision = delta_policy_.Observe(
      view_name, attribute, row.accesses, row.updates, delta_config_);
  if (decision.switched) {
    obs_delta_policy_switches_->Inc();
    if (flight_.enabled()) {
      flight_.Record(causal::Current(), FlightEventKind::kPolicySwitch,
                     view_name + "." + attribute,
                     int64_t(decision.from), int64_t(decision.strategy));
    }
    if (decision.strategy ==
        delta::MaintenanceStrategy::kInvalidateLazy) {
      // Entering lazy: pending work and armed rules are dead weight (the
      // next flip back to maintain re-arms on first compute). Dropping
      // the rules *before* invalidating keeps the no-resurrection
      // invariant: a later flush can never refresh these entries.
      state->deltas.Discard(attribute);
      std::string prefix = SummaryKey::AttributePrefix(attribute);
      auto mit = state->maintainers.lower_bound(prefix);
      while (mit != state->maintainers.end() &&
             mit->first.compare(0, prefix.size(), prefix) == 0) {
        mit = state->maintainers.erase(mit);
      }
      for (auto cit = state->comaintainers.begin();
           cit != state->comaintainers.end();) {
        cit = cit->second->Touches(attribute)
                  ? state->comaintainers.erase(cit)
                  : std::next(cit);
      }
    }
  }
  if (decision.strategy == delta::MaintenanceStrategy::kInvalidateLazy) {
    return state->summary->InvalidateAttribute(attribute).status();
  }

  Result<size_t> buffered =
      state->deltas.Buffer(attribute, changes, delta_config_.coalesce);
  if (!buffered.ok()) {
    // Non-numeric changes defeat differencing: fall back to invalidation.
    return state->summary->InvalidateAttribute(attribute).status();
  }
  obs_delta_buffered_->Inc(buffered.value());
  // Eager is "batch of one": it rides the same buffer + flush engine as
  // batched, so parity between the two strategies is structural.
  if (decision.strategy == delta::MaintenanceStrategy::kEagerIncremental ||
      state->deltas.PendingCount(attribute) >=
          delta_config_.flush_threshold) {
    return FlushAttributeDeltas(view_name, state, attribute);
  }
  return Status::OK();
}

Status StatisticalDbms::FlushAttributeDeltas(const std::string& view_name,
                                             ViewState* state,
                                             const std::string& attribute) {
  std::vector<delta::RowDelta> batch = state->deltas.Drain(attribute);
  if (batch.empty()) return Status::OK();
  delta::FlushEnv env;
  env.view_name = view_name;
  env.summary = state->summary.get();
  env.maintainers = &state->maintainers;
  env.comaintainers = &state->comaintainers;
  env.view_version = state->view->version();
  env.load_column = [state, attribute]() {
    return state->view->ReadNumericColumn(attribute);
  };
  env.read_cell = [state](uint64_t row_id, const std::string& attr)
      -> Result<std::optional<double>> {
    STATDB_ASSIGN_OR_RETURN(Value v, state->view->ReadCell(row_id, attr));
    if (v.is_null()) return std::optional<double>();
    Result<double> d = v.ToDouble();
    if (!d.ok()) return std::optional<double>();
    return std::optional<double>(d.value());
  };
  env.has_pending = [state](const std::string& attr) {
    return state->deltas.HasPending(attr);
  };
  env.flight = &flight_;
  // The flush runs on behalf of whichever operation forced it (a query's
  // flush-before-serve, an update's threshold flush, a barrier): its
  // ambient context is the trigger's identity.
  env.ctx = causal::Current();
  delta::FlushCounters counters;
  Status s = delta::FlushAttribute(attribute, batch, env, &counters);
  state->traffic.maintainer_applies += counters.applied;
  state->traffic.maintainer_rebuilds += counters.rebuilds;
  obs_delta_flushed_->Inc(batch.size());
  return s;
}

Status StatisticalDbms::FlushViewDeltas(const std::string& view_name,
                                        ViewState* state) {
  for (const std::string& attr : state->deltas.PendingAttributes()) {
    STATDB_RETURN_IF_ERROR(FlushAttributeDeltas(view_name, state, attr));
  }
  return Status::OK();
}

Status StatisticalDbms::FlushDeltas(const std::string& view) {
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  return FlushViewDeltas(view, state);
}

Result<uint64_t> StatisticalDbms::PendingDeltas(const std::string& view) {
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  return uint64_t{state->deltas.TotalPending()};
}

Result<const delta::DeltaBuffer*> StatisticalDbms::GetDeltaBuffer(
    const std::string& view) {
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  return &state->deltas;
}

Status StatisticalDbms::MaintainDerivedColumns(
    const std::string& view_name, ViewState* state,
    const std::string& attribute, const std::vector<CellChange>& changes,
    std::vector<CellChange>* extra_changes) {
  STATDB_ASSIGN_OR_RETURN(
      std::vector<DerivedColumnDef*> affected,
      mdb_.DerivedColumnsOn(view_name, attribute));
  for (DerivedColumnDef* def : affected) {
    if (def->kind == DerivedRuleKind::kLocal) {
      // "Local" rule: recompute exactly the touched rows (§3.2).
      for (const CellChange& ch : changes) {
        STATDB_ASSIGN_OR_RETURN(Row row, state->view->ReadRow(ch.row));
        STATDB_ASSIGN_OR_RETURN(
            Value fresh, def->row_expr->Eval(row, state->view->schema()));
        STATDB_ASSIGN_OR_RETURN(Value old,
                                state->view->ReadCell(ch.row, def->name));
        if (old == fresh) continue;
        STATDB_RETURN_IF_ERROR(
            state->view->WriteCell(ch.row, def->name, fresh));
        extra_changes->push_back(CellChange{ch.row, def->name, old, fresh});
      }
    } else {
      // Whole-vector rule: mark out of date; regenerate on next read.
      def->out_of_date = true;
      STATDB_ASSIGN_OR_RETURN(
          uint64_t n, state->summary->InvalidateAttribute(def->name));
      (void)n;
    }
  }
  return Status::OK();
}

Status StatisticalDbms::MaybeAuditAfterUpdate(const std::string& view) {
  if (!audit_after_update_) return Status::OK();
  // No flush: the auditor checks entries on attributes with buffered
  // deltas against the view with those deltas undone, so auditing
  // leaves batching exactly as it found it.
  CheckReport report;
  DbAuditor auditor(this);
  STATDB_RETURN_IF_ERROR(auditor.AuditView(view, &report));
  return report.ToStatus();
}

Result<uint64_t> StatisticalDbms::Update(const std::string& view,
                                         const UpdateSpec& spec) {
  // Mutation entry point: one causal context covers the whole protocol —
  // buffered deltas, eager flushes, the WAL commit and the kUpdate event
  // all stamp this trace_id.
  causal::ScopedTraceContext causal_scope(causal::Mint());
  TraceTimer timer;
  Result<uint64_t> r = UpdateUnderContext(view, spec);
  slo_.Record("update", timer.ElapsedMs(), !r.ok());
  return r;
}

Result<uint64_t> StatisticalDbms::UpdateUnderContext(const std::string& view,
                                                     const UpdateSpec& spec) {
  STATDB_RETURN_IF_ERROR(GuardMutable());
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  // Session protocol: capture pre-images and wait out pinned readers on
  // the live route before any byte changes; every exit below publishes a
  // new commit seq (the scope's destructor covers the error paths).
  session::MutationScope scope(sessions_.get(),
                               session::MutationScope::Kind::kMutate, view,
                               state->view.get());
  if (!scope.ok()) return scope.status();
  STATDB_ASSIGN_OR_RETURN(std::vector<CellChange> changes,
                          state->view->ApplyUpdate(spec));
  if (changes.empty()) return 0;
  ++state->traffic.updates;
  state->traffic.cells_changed += changes.size();
  ++state->traffic.attribute_accesses[spec.column];
  if (spec.predicate != nullptr) {
    for (const std::string& attr : spec.predicate->ReferencedColumns()) {
      ++state->traffic.attribute_accesses[attr];
    }
  }

  STATDB_RETURN_IF_ERROR(MaintainIndexes(state, spec.column, changes));

  std::vector<CellChange> derived_changes;
  STATDB_RETURN_IF_ERROR(MaintainDerivedColumns(view, state, spec.column,
                                                changes, &derived_changes));

  // Log the whole logical update (including derived fixes) as one entry.
  STATDB_ASSIGN_OR_RETURN(ViewRecord * rec, mdb_.GetView(view));
  UpdateLogEntry entry;
  entry.version = state->view->version();
  entry.description = spec.description.empty()
                          ? ("update " + spec.column)
                          : spec.description;
  entry.changes = changes;
  entry.changes.insert(entry.changes.end(), derived_changes.begin(),
                       derived_changes.end());
  STATDB_RETURN_IF_ERROR(rec->history.Append(std::move(entry)));
  rec->version = state->view->version();

  STATDB_RETURN_IF_ERROR(
      MaintainSummaries(view, state, spec.column, changes));
  // Changes to kLocal derived columns also touch their cached summaries.
  std::map<std::string, std::vector<CellChange>> by_column;
  for (const CellChange& ch : derived_changes) {
    by_column[ch.column].push_back(ch);
  }
  for (const auto& [column, column_changes] : by_column) {
    STATDB_RETURN_IF_ERROR(MaintainIndexes(state, column, column_changes));
    STATDB_RETURN_IF_ERROR(
        MaintainSummaries(view, state, column, column_changes));
  }
  STATDB_RETURN_IF_ERROR(MaybeAuditAfterUpdate(view));
  STATDB_RETURN_IF_ERROR(
      CommitDurable(/*attr_hint=*/spec.column, /*force=*/true));
  uint64_t total_cells = changes.size() + derived_changes.size();
  if (flight_.enabled()) {
    flight_.Record(causal::Current(), FlightEventKind::kUpdate,
                   view + "." + spec.column,
                   int64_t(state->view->version()), int64_t(total_cells));
  }
  profiler_.NoteUpdate(view, spec.column, changes.size());
  for (const auto& [column, column_changes] : by_column) {
    profiler_.NoteUpdate(view, column, column_changes.size());
  }
  MaybeTickTimeseries();
  return total_cells;
}

Status StatisticalDbms::Rollback(const std::string& view,
                                 uint64_t target_version) {
  causal::ScopedTraceContext causal_scope(causal::Mint());
  TraceTimer timer;
  Status s = RollbackUnderContext(view, target_version);
  slo_.Record("rollback", timer.ElapsedMs(), !s.ok());
  return s;
}

Status StatisticalDbms::RollbackUnderContext(const std::string& view,
                                             uint64_t target_version) {
  STATDB_RETURN_IF_ERROR(GuardMutable());
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  STATDB_ASSIGN_OR_RETURN(ViewRecord * rec, mdb_.GetView(view));
  // Satellite fix (rollback vs pinned readers): ClampVersions below
  // rewrites the head summary cache's version stamps, and the undo loop
  // rewrites cells in place. Pinned sessions must never observe either —
  // they resolve against the capture installed here and against the
  // session timeline (keyed by monotone commit seqs, immune to version
  // reuse after rollback).
  session::MutationScope scope(sessions_.get(),
                               session::MutationScope::Kind::kMutate, view,
                               state->view.get());
  if (!scope.ok()) return scope.status();
  // Attributes touched by the updates being undone.
  std::vector<std::string> affected;
  for (const UpdateLogEntry* e : rec->history.EntriesSince(target_version)) {
    for (const CellChange& ch : e->changes) {
      if (std::find(affected.begin(), affected.end(), ch.column) ==
          affected.end()) {
        affected.push_back(ch.column);
      }
    }
  }
  STATDB_RETURN_IF_ERROR(rec->history.Rollback(
      target_version, [state](const CellChange& ch) -> Status {
        STATDB_RETURN_IF_ERROR(
            state->view->WriteCell(ch.row, ch.column, ch.old_value));
        // Keep any secondary index in step with the restored cell.
        auto it = state->indexes.find(ch.column);
        if (it != state->indexes.end()) {
          STATDB_RETURN_IF_ERROR(it->second->ApplyChange(
              ch.row, ch.new_value, ch.old_value));
        }
        return Status::OK();
      }));
  state->view->SetVersion(target_version);
  rec->version = target_version;
  for (const std::string& attr : affected) {
    STATDB_ASSIGN_OR_RETURN(uint64_t n,
                            state->summary->InvalidateAttribute(attr));
    (void)n;
  }
  // Entries on unaffected attributes are still valid, but none may keep a
  // version stamp from the undone timeline: re-advanced version numbers
  // would collide with it and poison max_version_lag staleness checks.
  STATDB_ASSIGN_OR_RETURN(uint64_t capped,
                          state->summary->ClampVersions(target_version));
  (void)capped;
  // Maintainer state reflects the rolled-back data; drop it all and let
  // queries re-arm on demand. Buffered deltas describe undone mutations:
  // discard them and stamp their attributes stale (they may not be in
  // `affected` when the pending update predates the rollback window).
  state->maintainers.clear();
  state->comaintainers.clear();
  for (const std::string& attr : state->deltas.PendingAttributes()) {
    state->deltas.Discard(attr);
    STATDB_ASSIGN_OR_RETURN(uint64_t dropped,
                            state->summary->InvalidateAttribute(attr));
    (void)dropped;
  }
  STATDB_RETURN_IF_ERROR(MaybeAuditAfterUpdate(view));
  STATDB_RETURN_IF_ERROR(CommitDurable(/*attr_hint=*/"", /*force=*/true));
  flight_.Record(causal::Current(), FlightEventKind::kRollback, view,
                 int64_t(target_version), int64_t(affected.size()));
  MaybeTickTimeseries();
  return Status::OK();
}

Status StatisticalDbms::AddDerivedColumn(const std::string& view,
                                         DerivedColumnDef def) {
  STATDB_RETURN_IF_ERROR(GuardMutable());
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  std::string name = def.name;
  DerivedRuleKind kind = def.kind;
  ExprPtr expr = def.row_expr;
  {
    // Session scopes do not nest (writer serialization is a flag, not a
    // recursive lock): the column-add publishes at this block's end,
    // before RegenerateDerivedColumn below opens its own scope.
    session::MutationScope scope(sessions_.get(),
                                 session::MutationScope::Kind::kMutate,
                                 view, state->view.get());
    if (!scope.ok()) return scope.status();
    Attribute attr = Attribute::Numeric(name, DataType::kDouble);
    STATDB_RETURN_IF_ERROR(state->view->AddColumn(attr));
    STATDB_RETURN_IF_ERROR(mdb_.AddDerivedColumn(view, std::move(def)));
    if (kind == DerivedRuleKind::kLocal) {
      // Fill every row from the expression.
      uint64_t n = state->view->num_rows();
      for (uint64_t r = 0; r < n; ++r) {
        STATDB_ASSIGN_OR_RETURN(Row row, state->view->ReadRow(r));
        STATDB_ASSIGN_OR_RETURN(Value v,
                                expr->Eval(row, state->view->schema()));
        STATDB_RETURN_IF_ERROR(state->view->WriteCell(r, name, v));
      }
      return CommitDurable(/*attr_hint=*/name, /*force=*/true);
    }
  }
  return RegenerateDerivedColumn(view, name);
}

Status StatisticalDbms::RegenerateDerivedColumn(const std::string& view,
                                                const std::string& column) {
  STATDB_RETURN_IF_ERROR(GuardMutable());
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  STATDB_ASSIGN_OR_RETURN(ViewRecord * rec, mdb_.GetView(view));
  DerivedColumnDef* def = nullptr;
  for (DerivedColumnDef& d : rec->derived_columns) {
    if (d.name == column) {
      def = &d;
      break;
    }
  }
  if (def == nullptr) {
    return NotFoundError("no derived column named " + column);
  }
  if (def->kind != DerivedRuleKind::kRegenerate) {
    return FailedPreconditionError("column " + column +
                                   " has a local rule, not a generator");
  }
  // The generator rewrites the whole column in place: capture + grace
  // before the WriteCell loops, publish (destructor) after.
  session::MutationScope scope(sessions_.get(),
                               session::MutationScope::Kind::kMutate, view,
                               state->view.get());
  if (!scope.ok()) return scope.status();
  switch (def->generator) {
    case ColumnGenerator::kRegressionResiduals: {
      STATDB_ASSIGN_OR_RETURN(
          std::vector<Value> xs,
          state->view->ReadColumn(def->generator_inputs[0]));
      STATDB_ASSIGN_OR_RETURN(
          std::vector<Value> ys,
          state->view->ReadColumn(def->generator_inputs[1]));
      std::vector<double> fx, fy;
      for (size_t i = 0; i < xs.size(); ++i) {
        if (xs[i].is_null() || ys[i].is_null()) continue;
        Result<double> x = xs[i].ToDouble();
        Result<double> y = ys[i].ToDouble();
        if (!x.ok() || !y.ok()) continue;
        fx.push_back(x.value());
        fy.push_back(y.value());
      }
      STATDB_ASSIGN_OR_RETURN(LinearFit fit, FitLinear(fx, fy));
      for (size_t i = 0; i < xs.size(); ++i) {
        Value cell;  // null when either input is missing
        if (!xs[i].is_null() && !ys[i].is_null()) {
          Result<double> x = xs[i].ToDouble();
          Result<double> y = ys[i].ToDouble();
          if (x.ok() && y.ok()) {
            cell = Value::Real(y.value() - fit.Predict(x.value()));
          }
        }
        STATDB_RETURN_IF_ERROR(state->view->WriteCell(i, column, cell));
      }
      break;
    }
    case ColumnGenerator::kZScores: {
      STATDB_ASSIGN_OR_RETURN(
          std::vector<Value> xs,
          state->view->ReadColumn(def->generator_inputs[0]));
      std::vector<double> fx;
      for (const Value& v : xs) {
        if (v.is_null()) continue;
        Result<double> x = v.ToDouble();
        if (x.ok()) fx.push_back(x.value());
      }
      DescriptiveStats s = ComputeDescriptive(fx);
      double sd = s.StdDev();
      for (size_t i = 0; i < xs.size(); ++i) {
        Value cell;
        if (!xs[i].is_null()) {
          Result<double> x = xs[i].ToDouble();
          if (x.ok() && sd > 0) {
            cell = Value::Real((x.value() - s.mean) / sd);
          }
        }
        STATDB_RETURN_IF_ERROR(state->view->WriteCell(i, column, cell));
      }
      break;
    }
    case ColumnGenerator::kNone:
      return InternalError("regenerate rule without a generator");
  }
  def->out_of_date = false;
  // The column's contents changed wholesale; cached summaries on it are
  // stale until recomputed, and any index must be rebuilt.
  STATDB_ASSIGN_OR_RETURN(uint64_t n,
                          state->summary->InvalidateAttribute(column));
  (void)n;
  if (state->indexes.contains(column)) {
    STATDB_ASSIGN_OR_RETURN(BufferPool * pool,
                            storage_->GetPool(disk_device_));
    STATDB_ASSIGN_OR_RETURN(
        state->indexes[column],
        AttributeIndex::Build(*state->view, column, pool));
  }
  return CommitDurable(/*attr_hint=*/column, /*force=*/true);
}

Result<std::vector<Value>> StatisticalDbms::ReadColumn(
    const std::string& view, const std::string& column) {
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  STATDB_ASSIGN_OR_RETURN(ViewRecord * rec, mdb_.GetView(view));
  for (DerivedColumnDef& def : rec->derived_columns) {
    if (def.name == column && def.out_of_date) {
      STATDB_RETURN_IF_ERROR(RegenerateDerivedColumn(view, column));
      break;
    }
  }
  return state->view->ReadColumn(column);
}

Result<session::SessionManager*> StatisticalDbms::EnableSessions(
    const session::SessionConfig& config) {
  if (sessions_ != nullptr) return sessions_.get();
  auto mgr = std::make_unique<session::SessionManager>(this, config);
  // Bootstrap: every existing view becomes visible at the current commit
  // seq. Views created afterwards register through their CreateView
  // mutation scope.
  for (auto& [name, state] : views_) {
    mgr->BootstrapView(name, state.view.get());
  }
  sessions_ = std::move(mgr);
  return sessions_.get();
}

Result<SummaryDatabase*> StatisticalDbms::GetSummaryDb(
    const std::string& view) {
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  return state->summary.get();
}

Result<const ViewTrafficStats*> StatisticalDbms::GetTrafficStats(
    const std::string& view) const {
  auto it = views_.find(view);
  if (it == views_.end()) {
    return NotFoundError("no view named " + view);
  }
  return &it->second.traffic;
}

std::string StatisticalDbms::DumpMetrics() {
  obs::JsonObject doc;

  // Per-view Summary Database economics (§3.2) and query/update traffic.
  obs::JsonObject views;
  for (const auto& [name, state] : views_) {
    const SummaryDbStats s = state.summary->stats();
    obs::JsonObject cache;
    cache.Int("lookups", s.lookups)
        .Int("hits", s.hits)
        .Int("stale_hits", s.stale_hits)
        .Int("served_stale", s.served_stale)
        .Int("misses", s.misses)
        .Int("inserts", s.inserts)
        .Int("invalidated", s.invalidated)
        .Num("hit_rate", s.HitRate())
        .Num("served_rate", s.ServedRate())
        .Int("entries", state.summary->entry_count());
    const ViewTrafficStats& t = state.traffic;
    obs::JsonObject traffic;
    traffic.Int("queries", t.queries)
        .Int("cache_hits", t.cache_hits)
        .Int("stale_hits", t.stale_hits)
        .Int("inferred", t.inferred)
        .Int("computed", t.computed)
        .Int("updates", t.updates)
        .Int("cells_changed", t.cells_changed)
        .Int("maintainer_applies", t.maintainer_applies)
        .Int("maintainer_rebuilds", t.maintainer_rebuilds)
        .Int("eager_recomputes", t.eager_recomputes);
    // Delta-buffer occupancy and the live per-attribute strategy for
    // whatever is currently queued (empty when everything is flushed).
    obs::JsonObject delta_attrs;
    for (const std::string& attr : state.deltas.PendingAttributes()) {
      delta_attrs.Raw(
          attr, obs::JsonObject()
                    .Int("pending", state.deltas.PendingCount(attr))
                    .Str("strategy",
                         delta::StrategyName(delta_policy_.Current(
                             name, attr, delta_config_)))
                    .Build());
    }
    obs::JsonObject delta;
    delta.Int("pending", state.deltas.TotalPending())
        .Raw("attributes", delta_attrs.Build());
    obs::JsonObject view;
    view.Raw("summary_db", cache.Build())
        .Raw("traffic", traffic.Build())
        .Raw("delta", delta.Build());
    views.Raw(name, view.Build());
  }
  doc.Raw("views", views.Build());

  // Simulated devices and their buffer pools (§2.3's storage hierarchy).
  obs::JsonObject devices;
  std::vector<std::string> device_names = {tape_device_, disk_device_};
  if (wal_ != nullptr) device_names.push_back(wal_device_name_);
  for (const std::string& dev : device_names) {
    obs::JsonObject entry;
    Result<SimulatedDevice*> device = storage_->GetDevice(dev);
    if (device.ok()) {
      const IoStats& io = device.value()->stats();
      obs::JsonObject ios;
      ios.Int("block_reads", io.block_reads)
          .Int("block_writes", io.block_writes)
          .Int("seeks", io.seeks)
          .Num("simulated_ms", io.simulated_ms);
      entry.Raw("io", ios.Build());
      // Fault-injection counters, present when the device is wrapped.
      const FaultCounters* fc = device.value()->fault_counters();
      if (fc != nullptr) {
        obs::JsonObject faults;
        faults.Int("transient_errors", fc->transient_errors)
            .Int("permanent_errors", fc->permanent_errors)
            .Int("torn_writes", fc->torn_writes)
            .Int("bit_flips", fc->bit_flips)
            .Int("power_cuts", fc->power_cuts);
        entry.Raw("faults", faults.Build());
      }
    }
    Result<BufferPool*> pool = storage_->GetPool(dev);
    if (pool.ok()) {
      BufferPoolStats bp = pool.value()->stats();
      obs::JsonObject bpo;
      bpo.Int("hits", bp.hits)
          .Int("misses", bp.misses)
          .Int("evictions", bp.evictions)
          .Int("flushes", bp.flushes)
          .Num("hit_rate", bp.HitRate())
          .Int("retries", bp.retries)
          .Num("backoff_ms", bp.backoff_ms)
          .Int("checksum_failures", bp.checksum_failures)
          .Int("overflow_frames", bp.overflow_frames);
      entry.Raw("buffer_pool", bpo.Build());
    }
    devices.Raw(dev, entry.Build());
  }
  doc.Raw("devices", devices.Build());

  // Durability: commit/recovery activity and degraded-mode state.
  if (wal_ != nullptr) {
    const WalStats ws = wal_->stats();
    bool is_degraded;
    uint64_t n_recoveries;
    {
      MutexLock lock(session_mu_);
      is_degraded = degraded_;
      n_recoveries = recoveries_;
    }
    obs::JsonObject durability;
    durability.Bool("degraded", is_degraded)
        .Int("last_lsn", wal_->last_lsn())
        .Int("recoveries", n_recoveries)
        .Int("wal_records_appended", ws.records_appended)
        .Int("wal_bytes_appended", ws.bytes_appended)
        .Int("wal_records_recovered", ws.records_recovered)
        .Int("wal_torn_tail_bytes", ws.torn_tail_bytes);
    doc.Raw("durability", durability.Build());
  }

  // The registry: query latency, answer provenance, thread-pool behavior.
  doc.Raw("registry", metrics_.DumpJson());
  return doc.Build();
}

}  // namespace statdb
