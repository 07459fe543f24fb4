#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

#include "core/dbms.h"
#include "oracle.h"
#include "relational/datagen.h"
#include "session/session.h"
#include "simd/kernels.h"
#include "spans.h"
#include "stats/correlation.h"

namespace perfbench {

namespace {

using statdb::AnswerSource;
using statdb::FunctionParams;
using statdb::QueryAnswer;
using statdb::QueryOptions;
using statdb::Status;
using statdb::SummaryResult;

constexpr char kView[] = "v";
const std::vector<std::string> kValueAttrs = {"AGE", "INCOME", "HOURS_WORKED",
                                              "HOUSEHOLD_SIZE"};
// Columns the shadow keeps: the value attributes plus SEX, which the
// cleaning loop's predicates read.
const std::vector<std::string> kShadowColumns = {
    "AGE", "INCOME", "HOURS_WORKED", "HOUSEHOLD_SIZE", "SEX"};
constexpr uint64_t kRows = 20000;     // generated census rows
constexpr uint64_t kViewColumns = 9;  // the census microdata schema
constexpr uint64_t kCellBytes = 8;
constexpr int kSetupRepeats = 5;
// A reader closes its session once the writer has published this many
// mutations since the session was pinned. It then reopens while the
// writer reads, so it seldom waits in Open for a mutation, and its
// session pins at most this many captures.
constexpr uint64_t kMutationsPerSession = 2;
constexpr double kWindowS = 0.5;  // shortest measurement window
constexpr uint32_t kNoRequest = ~0u;

// ---------------------------------------------------------------------------
// Workload shapes. Every workload is closed loop: a client sends its next
// request only after the reply to the previous one.

struct Spec {
  std::string name;
  bool cache_results;    // false: every Query misses the Summary DB
  bool durability;       // force-at-commit WAL on a memory device
  bool pool_holds_view;  // false: disk pool = half the value-column pages
  bool expect_hits;      // every answer must be a Summary-DB hit
  int readers;           // snapshot-session reader threads (session_mix)
  uint64_t warmup_ops;   // untimed ops before measuring
  uint64_t trace_ops;    // ops per pass of the traced run
};

const std::vector<Spec>& Specs() {
  static const std::vector<Spec> specs = {
      {"explore_scan", false, false, false, false, 0, 30, 60},
      {"summary_hits", true, false, true, true, 0, 260, 20020},
      {"update_stream", true, true, true, false, 0, 100, 60},
      {"session_mix", true, true, true, false, 1, 100, 40},
  };
  return specs;
}

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error(what);
}
void Must(const Status& s, const std::string& what) {
  if (!s.ok()) Fail(what + ": " + s.ToString());
}
template <typename T>
T Must(statdb::Result<T> r, const std::string& what) {
  if (!r.ok()) Fail(what + ": " + r.status().ToString());
  return std::move(r).value();
}

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double h = p * double(v.size() - 1);
  const size_t lo = size_t(h);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - double(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

FunctionParams ParamsOf(const Request& r) {
  FunctionParams p;
  if (r.function == "quantile") p.Set("p", r.param);
  if (r.function == "histogram") p.Set("buckets", r.param);
  return p;
}

// ---------------------------------------------------------------------------
// Requests and op schedules.

struct Op {
  enum class Kind { kQuery, kBivariate, kMany, kMutation, kSessionQuery };
  Kind kind = Kind::kQuery;
  uint32_t req = 0;
  std::vector<uint32_t> many;
  Mutation mutation;
};

class RequestTable {
 public:
  uint32_t Add(Request r) {
    const std::string label = r.Label();
    auto it = ids_.find(label);
    if (it != ids_.end()) return it->second;
    reqs_.push_back(std::move(r));
    return ids_[label] = uint32_t(reqs_.size() - 1);
  }
  uint32_t Add(std::string fn, std::string attr, double param = 0) {
    return Add(Request{std::move(fn), std::move(attr), "", param});
  }
  const Request& operator[](uint32_t id) const { return reqs_[id]; }

 private:
  std::vector<Request> reqs_;
  std::map<std::string, uint32_t> ids_;
};

class Schedule {
 public:
  virtual ~Schedule() = default;
  /// The next op; `version` is the view's current version.
  virtual Op Next(uint64_t version) = 0;
  /// True between whole decks or cycles: a timed phase ends only there,
  /// so every run sends the same op mix.
  virtual bool AtBoundary() const = 0;
};

/// A fixed multiset of ops, reshuffled each time it is used up, so every
/// seed sends the same mix and only the order varies.
class DeckSchedule : public Schedule {
 public:
  /// `whole_decks`: a phase ends only after a deck is used up.
  DeckSchedule(std::vector<Op> deck, uint64_t seed, bool whole_decks)
      : deck_(std::move(deck)), rng_(seed), whole_decks_(whole_decks) {}
  bool AtBoundary() const override {
    return !whole_decks_ || pos_ == deck_.size();
  }
  Op Next(uint64_t) override {
    if (pos_ == deck_.size()) {
      std::shuffle(deck_.begin(), deck_.end(), rng_.engine());
      pos_ = 0;
    }
    return deck_[pos_++];
  }

 private:
  std::vector<Op> deck_;
  statdb::Rng rng_;
  bool whole_decks_;
  size_t pos_ = deck_.size();
};

/// The §3.1 data-cleaning loop: a mutation, then exact queries on the
/// statistics of the column it touched (whose maintainers are armed) and
/// on the INCOME/HOURS_WORKED correlation.
class CleaningSchedule : public Schedule {
 public:
  /// Request ids are resolved here, before any client runs, so Next
  /// never writes the shared request table.
  CleaningSchedule(RequestTable* reqs, uint64_t seed) : rng_(seed) {
    for (const char* col : {"INCOME", "HOURS_WORKED", "AGE"}) {
      std::vector<Op>& after = after_[col];
      for (const Request& r : ReadSet(col)) {
        Op q;
        q.req = reqs->Add(r);
        after.push_back(q);
      }
      Op corr;
      corr.kind = Op::Kind::kBivariate;
      corr.req = reqs->Add(Request{"correlation", "INCOME", "HOURS_WORKED", 0});
      after.push_back(corr);
    }
  }

  /// What an analyst re-checks after cleaning `column`: counts, moments
  /// and extremes; order statistics of a continuous measure, mode and
  /// distinct count only of the discrete AGE. Every one has an
  /// incremental maintainer.
  static std::vector<Request> ReadSet(const std::string& column) {
    std::vector<Request> out;
    for (const char* fn : {"count", "sum", "mean", "variance", "min", "max"}) {
      out.push_back({fn, column, "", 0});
    }
    if (column == "AGE") {
      out.push_back({"mode", column, "", 0});
      out.push_back({"distinct", column, "", 0});
    } else {
      out.push_back({"median", column, "", 0});
      out.push_back({"quantile", column, "", 0.9});
    }
    return out;
  }

  bool AtBoundary() const override {
    return pending_.empty() && pos_ > kinds_.size();
  }

  Op Next(uint64_t version) override {
    if (!pending_.empty()) {
      Op op = pending_.front();
      pending_.pop_front();
      return op;
    }
    Op op;
    op.kind = Op::Kind::kMutation;
    op.mutation = Draw(version);
    const std::vector<Op>& after =
        after_.at(op.mutation.kind == Mutation::Kind::kRollback
                      ? "INCOME"
                      : op.mutation.column);
    pending_.assign(after.begin(), after.end());
    return op;
  }

 private:
  // A deck of 10 mutations is one cleaning pass: 5 INCOME and 2
  // HOURS_WORKED rescales, an INCOME and an AGE outlier sweep, then a
  // rollback that undoes the pass. Every seed runs the same mix, and
  // every pass starts from the same update history: a WAL commit carries
  // the whole history, so without the undo, commits and the reads after
  // them would slow down through a run, and a faster program, reaching
  // further in the same seconds, would read as slower. The first deck
  // keeps the listed order; later decks are shuffled.
  Mutation Draw(uint64_t version) {
    static const double kFactors[] = {1.02, 0.98, 1.05, 0.95};
    if (pos_ > kinds_.size()) {
      std::shuffle(kinds_.begin(), kinds_.end(), rng_.engine());
      pos_ = 0;
    }
    if (pos_ == 0) pass_start_ = version;
    Mutation m;
    if (pos_ == kinds_.size()) {
      ++pos_;
      m.kind = Mutation::Kind::kRollback;
      m.target_version = pass_start_;
      return m;
    }
    const int kind = kinds_[pos_++];
    if (kind == 1 || kind == 2) {
      // Working ages only: the income and hours of children are 0, which
      // a rescale leaves unchanged.
      m.kind = Mutation::Kind::kRescale;
      m.column = kind == 1 ? "INCOME" : "HOURS_WORKED";
      m.age_lo = rng_.UniformInt(16, 70);
      m.sex = rng_.UniformInt(0, 1);
      m.factor = kFactors[rng_.UniformInt(0, 3)];
    } else if (kind == 3) {
      m.kind = Mutation::Kind::kMarkMissing;
      m.column = "INCOME";
      m.threshold = std::floor(rng_.UniformDouble(2e6, 5e7));
    } else {
      m.kind = Mutation::Kind::kMarkMissing;
      m.column = "AGE";
      m.threshold = 120;
    }
    return m;
  }

  statdb::Rng rng_;
  std::map<std::string, std::vector<Op>> after_;  // reads after a mutation
  std::deque<Op> pending_;
  std::vector<int> kinds_ = {1, 1, 2, 3, 1, 1, 2, 4, 1};
  size_t pos_ = 0;  // kinds_.size(): the closing rollback is next
  uint64_t pass_start_ = 0;  // view version the pass started from
};

statdb::UpdateSpec SpecOf(const Mutation& m) {
  using namespace statdb;
  UpdateSpec spec;
  spec.column = m.column;
  spec.description = m.Label();
  if (m.kind == Mutation::Kind::kRescale) {
    spec.predicate = And(And(Ge(Col("AGE"), Lit(m.age_lo)),
                             Lt(Col("AGE"), Lit(m.age_lo + 10))),
                         Eq(Col("SEX"), Lit(m.sex)));
    spec.value = Mul(Col(m.column), Lit(m.factor));
  } else {
    // AGE is an int64 column: compare it against an integer literal.
    spec.predicate =
        Gt(Col(m.column), m.column == "AGE" ? Lit(int64_t(m.threshold))
                                            : Lit(m.threshold));
  }
  return spec;
}

// ---------------------------------------------------------------------------
// One installation: storage, DBMS, view, Summary DB.

struct Install {
  std::unique_ptr<statdb::StorageManager> sm;
  std::unique_ptr<statdb::StatisticalDbms> dbms;  // destroyed before sm
  statdb::session::SessionManager* sessions = nullptr;
  statdb::ConcreteView* view = nullptr;
  statdb::SummaryDatabase* summary = nullptr;
  statdb::BufferPool* disk_pool = nullptr;
};

struct SetupTimes {
  double durability_ms = 0;
  double load_ms = 0;
  double view_ms = 0;
  double sessions_ms = 0;
  double prime_ms = 0;
  double total_s = 0;
};

constexpr uint64_t kColumnPages =
    (kRows + statdb::ColumnFile::kCellsPerPage - 1) /
    statdb::ColumnFile::kCellsPerPage;

size_t DiskPoolPages(const Spec& spec) {
  // Room for the whole view plus the Summary DB, the Management DB and
  // no-steal overflow; or half of the value columns (two of the four) for
  // explore_scan. The LRU pool then keeps the last two columns scanned,
  // so a scan of one of them hits and any other misses: about 0.27 of
  // explore_scan's page fetches hit.
  return spec.pool_holds_view
             ? size_t(2 * kViewColumns * kColumnPages + 256)
             : size_t(kValueAttrs.size() * kColumnPages / 2);
}

std::unique_ptr<Install> Setup(const Spec& spec, const statdb::Table& table,
                               const std::vector<Op>& prime,
                               const RequestTable& reqs, unsigned workers,
                               SetupTimes* t) {
  using namespace statdb;
  const auto t0 = Clock::now();
  auto in = std::make_unique<Install>();
  in->sm = std::make_unique<StorageManager>();
  Must(in->sm->AddDevice("tape", DeviceCostModel::Memory(), 256).status(),
       "add tape");
  Must(in->sm->AddDevice("disk", DeviceCostModel::Memory(),
                         DiskPoolPages(spec))
           .status(),
       "add disk");
  if (spec.durability) {
    Must(in->sm->AddDevice("wal", DeviceCostModel::Memory(), 16).status(),
         "add wal");
  }
  in->dbms = std::make_unique<StatisticalDbms>(in->sm.get());
  StatisticalDbms& db = *in->dbms;
  auto phase = Clock::now();
  if (spec.durability) {
    Must(db.EnableDurability("wal"), "EnableDurability");
    t->durability_ms = MsSince(phase);
  }
  phase = Clock::now();
  Must(db.LoadRawDataSet("census", table), "LoadRawDataSet");
  t->load_ms = MsSince(phase);
  phase = Clock::now();
  ViewDefinition def;
  def.source = "census";
  Must(db.CreateView(kView, def, MaintenancePolicy::kIncremental).status(),
       "CreateView");
  t->view_ms = MsSince(phase);
  if (spec.readers > 0) {
    phase = Clock::now();
    session::SessionConfig cfg;
    cfg.max_sessions = size_t(spec.readers) + 2;
    in->sessions = Must(db.EnableSessions(cfg), "EnableSessions");
    t->sessions_ms = MsSince(phase);
  }
  // Priming: one QueryMany battery (one scan per attribute) for the
  // univariate requests, then the bivariate ones.
  phase = Clock::now();
  std::vector<QueryRequest> battery;
  for (const Op& op : prime) {
    const Request& r = reqs[op.req];
    if (r.bivariate()) continue;
    battery.push_back({r.function, r.attr, ParamsOf(r)});
  }
  if (!battery.empty()) {
    Must(db.QueryMany(kView, battery, {}, workers).status(), "prime battery");
  }
  for (const Op& op : prime) {
    const Request& r = reqs[op.req];
    if (!r.bivariate()) continue;
    Must(db.QueryBivariate(kView, r.function, r.attr, r.attr_b).status(),
         "prime " + r.Label());
  }
  t->prime_ms = MsSince(phase);
  t->total_s = MsSince(t0) / 1000.0;
  in->view = Must(db.GetView(kView), "GetView");
  in->summary = Must(db.GetSummaryDb(kView), "GetSummaryDb");
  in->disk_pool = Must(in->sm->GetPool("disk"), "GetPool");
  return in;
}

/// Every public work counter the benchmark reads, by name.
std::map<std::string, double> ReadCounters(Install& in) {
  using namespace statdb;
  std::map<std::string, double> c;
  const BufferPoolStats p = in.disk_pool->stats();
  c["pool.hits"] = double(p.hits);
  c["pool.misses"] = double(p.misses);
  c["pool.evictions"] = double(p.evictions);
  c["pool.retries"] = double(p.retries);
  c["pool.overflow_frames"] = double(p.overflow_frames);
  c["pool.fast_hits"] = double(p.fast_hits);
  for (const char* dev : {"tape", "disk", "wal"}) {
    Result<SimulatedDevice*> d = in.sm->GetDevice(dev);
    if (!d.ok()) continue;
    c[std::string(dev) + ".block_reads"] = double(d.value()->stats().block_reads);
    c[std::string(dev) + ".block_writes"] =
        double(d.value()->stats().block_writes);
  }
  const SummaryDbStats s = in.summary->stats();
  c["summary.lookups"] = double(s.lookups);
  c["summary.hits"] = double(s.hits);
  c["summary.served_stale"] = double(s.served_stale);
  c["summary.invalidated"] = double(s.invalidated);
  c["summary.inserts"] = double(s.inserts);
  const ViewTrafficStats& tr = *in.dbms->GetTrafficStats(kView).value();
  c["traffic.queries"] = double(tr.queries);
  c["traffic.updates"] = double(tr.updates);
  c["traffic.cells_changed"] = double(tr.cells_changed);
  c["traffic.maintainer_applies"] = double(tr.maintainer_applies);
  c["traffic.maintainer_rebuilds"] = double(tr.maintainer_rebuilds);
  c["traffic.eager_recomputes"] = double(tr.eager_recomputes);
  MetricsRegistry& m = in.dbms->metrics();
  c["delta.buffered"] = double(m.GetCounter("dbms.delta.buffered")->Get());
  c["delta.flushed"] = double(m.GetCounter("dbms.delta.flushed")->Get());
  c["delta.policy_switches"] =
      double(m.GetCounter("dbms.delta.policy_switches")->Get());
  c["exec.tasks_executed"] =
      double(m.GetCounter("exec.pool.tasks_executed")->Get());
  if (RedoLog* wal = in.dbms->redo_log()) {
    c["wal.records"] = double(wal->stats().records_appended);
    c["wal.bytes"] = double(wal->stats().bytes_appended);
  }
  c["flight.events"] = double(in.dbms->flight().recorded());
  if (in.sessions != nullptr) {
    const auto ss = in.sessions->stats();
    c["session.mutations"] = double(ss.mutations);
    c["session.captures"] = double(ss.captures);
    c["session.rejected"] = double(ss.rejected);
  }
  return c;
}

std::map<std::string, double> Delta(const std::map<std::string, double>& a,
                                    const std::map<std::string, double>& b) {
  std::map<std::string, double> d;
  for (const auto& [k, v] : b) {
    auto it = a.find(k);
    d[k] = v - (it == a.end() ? 0 : it->second);
  }
  return d;
}

// ---------------------------------------------------------------------------
// Clients.

/// One applied mutation, as the writer saw it.
struct MutationRecord {
  Mutation mutation;
  uint64_t changed = 0;        // cells Update reported
  uint64_t version_after = 0;  // view version after the call
  uint64_t seq_after = 0;      // session commit seq after the call
};

using AnswerKey = std::pair<uint64_t, uint32_t>;  // (state index, request)
using AnswerMap = std::map<AnswerKey, std::vector<SummaryResult>>;

void Remember(AnswerMap* answers, AnswerKey key, const SummaryResult& r) {
  std::vector<SummaryResult>& seen = (*answers)[key];
  if (std::find(seen.begin(), seen.end(), r) == seen.end()) seen.push_back(r);
}

/// One timed op: when it ended (seconds into the phase) and how long the
/// DBMS call took.
struct Sample {
  double end_s;
  double ms;
  bool update;
};

/// Per-client tallies. Latencies are of the DBMS call alone.
struct Tally {
  std::vector<Sample> samples;
  // Latencies by (call, request, hit, WAL commit), for the report. The
  // call is a string literal; the request is kNoRequest for mutations.
  using KindKey = std::tuple<const char*, uint32_t, bool, bool>;
  std::map<KindKey, std::vector<double>> by_kind;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t not_hit = 0;  // summary_hits answers that were not kCacheHit
  std::vector<std::string> problems;  // first few failures or mismatches
  AnswerMap answers;                  // keyed by mutation index
  AnswerMap session_answers;          // keyed by pinned commit seq
  // Traced-run accumulators.
  double hit_core_us = 0, hit_lookup_us = 0;
  uint64_t hit_ops = 0;
  double miss_self_us = 0;
  uint64_t miss_rows = 0;
  double many_wall_ms = 0, many_task_ms = 0;
  double pending_sum = 0;
  uint64_t flush_calls = 0;
  double open_close_us = 0;
  uint64_t sessions_closed = 0;
  uint64_t snapshot_reads = 0, live_reads = 0;
  uint64_t wal_records_queries = 0, wal_records_updates = 0;
  uint64_t queries = 0, updates = 0;
  size_t retired_max = 0;

  void Problem(const std::string& p) {
    if (problems.size() < 8) problems.push_back(p);
  }
  /// Zeroes the counts and latencies; answers and problems are kept for
  /// verification.
  void Restart() {
    Tally fresh;
    fresh.answers = std::move(answers);
    fresh.session_answers = std::move(session_answers);
    fresh.problems = std::move(problems);
    *this = std::move(fresh);
  }
};

/// State every client of one run shares.
struct Shared {
  const Spec* spec = nullptr;
  Install* in = nullptr;
  RequestTable reqs;
  std::vector<MutationRecord> log;  // appended by the single writer
  unsigned workers = 4;             // QueryMany workers (nproc)
};

uint64_t WalRecords(Install& in) {
  statdb::RedoLog* wal = in.dbms->redo_log();
  return wal == nullptr ? 0 : wal->stats().records_appended;
}

class Client {
 public:
  Client(Shared* shared, int tid, std::unique_ptr<Schedule> schedule,
         bool reader)
      : sh_(shared), tid_(tid), schedule_(std::move(schedule)),
        reader_(reader) {}

  /// Runs one op; `log` is non-null in the traced pass.
  void Step(SpanLog* log) {
    // Readers never look at the version: the writer may be changing it.
    const Op op = schedule_->Next(reader_ ? 0 : sh_->in->view->version());
    const uint64_t op_id = (uint64_t(tid_) << 40) | ++ops_;
    if (log != nullptr) log->Begin(RootName(op), op_id);
    switch (op.kind) {
      case Op::Kind::kQuery:
        RunQuery(op.req, sh_->spec->cache_results, sh_->spec->expect_hits, log,
                 op_id);
        break;
      case Op::Kind::kBivariate:
        RunBivariate(op.req, log, op_id);
        break;
      case Op::Kind::kMany:
        RunMany(op.many, log, op_id);
        break;
      case Op::Kind::kMutation:
        RunMutation(op.mutation, log, op_id);
        break;
      case Op::Kind::kSessionQuery:
        RunSessionQuery(op.req, log, op_id);
        break;
    }
    if (log != nullptr) log->End();
  }

  /// Closes a session left open when a phase ends.
  void Finish(SpanLog* log) {
    if (session_ != nullptr) CloseSession(log, 0);
  }

  /// A query with repeats, used by the traced run's probes.
  void ProbeQuery(uint32_t req, bool cache, SpanLog* log) {
    const uint64_t op_id = (uint64_t(tid_) << 40) | ++ops_;
    log->Begin("op.probe", op_id);
    RunQuery(req, cache, false, log, op_id);
    log->End();
  }
  void ProbeMany(const std::vector<uint32_t>& reqs, SpanLog* log) {
    const uint64_t op_id = (uint64_t(tid_) << 40) | ++ops_;
    log->Begin("op.probe", op_id);
    RunMany(reqs, log, op_id);
    log->End();
  }

  Tally& tally() { return t_; }
  bool AtBoundary() const { return schedule_->AtBoundary(); }
  void StartPhase(Clock::time_point t0) { phase_start_ = t0; }

 private:
  static std::string RootName(const Op& op) {
    switch (op.kind) {
      case Op::Kind::kQuery: return "op.query";
      case Op::Kind::kBivariate: return "op.bivariate";
      case Op::Kind::kMany: return "op.query_many";
      case Op::Kind::kMutation:
        return op.mutation.kind == Mutation::Kind::kRollback ? "op.rollback"
                                                             : "op.update";
      case Op::Kind::kSessionQuery: return "op.session_query";
    }
    return "op";
  }

  uint64_t StateIndex() const { return sh_->log.size(); }

  void Record(double ms, bool update) {
    t_.samples.push_back({MsSince(phase_start_) / 1000.0, ms, update});
  }

  void NoteKind(const char* call, uint32_t req, bool hit, bool wal,
                double ms) {
    t_.by_kind[{call, req, hit, wal}].push_back(ms);
  }

  void Failed(const std::string& what, const Status& s) {
    ++t_.failed;
    t_.Problem(what + ": " + s.ToString());
  }

  void RunQuery(uint32_t id, bool cache, bool expect_hit, SpanLog* log,
                uint64_t op_id) {
    const Request& r = sh_->reqs[id];
    const FunctionParams params = ParamsOf(r);
    QueryOptions qo;
    qo.cache_result = cache;
    const uint64_t wal0 = WalRecords(*sh_->in);
    ++t_.attempted;
    ++t_.queries;
    if (log != nullptr) log->Begin("core.Query", op_id);
    const auto t0 = Clock::now();
    statdb::Result<QueryAnswer> a =
        sh_->in->dbms->Query(kView, r.function, r.attr, params, qo);
    const double ms = MsSince(t0);
    const double core_us = log != nullptr ? log->End() : 0;
    Record(ms, false);
    t_.wal_records_queries += WalRecords(*sh_->in) - wal0;
    if (!a.ok()) return Failed(r.Label(), a.status());
    Remember(&t_.answers, {StateIndex(), id}, a->result);
    const bool hit = a->source == AnswerSource::kCacheHit;
    if (expect_hit && !hit) ++t_.not_hit;
    NoteKind("query", id, hit, WalRecords(*sh_->in) != wal0, ms);
    if (log != nullptr) Repeat(r, params, *a, hit, core_us, log, op_id);
  }

  // The traced run repeats the steps of a Query through the layers'
  // public calls: the Summary DB lookup (and its B+-tree probe) on a
  // hit; the lookup, the column read, the statistic and the SIMD
  // describe kernel on a miss. The repeats must agree with the answer.
  void Repeat(const Request& r, const FunctionParams& params,
              const QueryAnswer& a, bool hit, double core_us, SpanLog* log,
              uint64_t op_id) {
    const statdb::SummaryKey key =
        statdb::SummaryKey::Of(r.function, r.attr, params.Encode());
    log->Begin("summary.Lookup", op_id);
    statdb::Result<statdb::SummaryEntry> e = sh_->in->summary->Lookup(key);
    const double lookup_us = log->End();
    if (hit) {
      if (!e.ok() || !(e->result == a.result)) {
        t_.Problem("Lookup disagrees with the cache hit of " + r.Label());
      }
      log->Begin("storage.BPlusTree.Get", op_id);
      (void)sh_->in->summary->index()->Get(key.Encode());
      log->End();
      t_.hit_core_us += core_us;
      t_.hit_lookup_us += lookup_us;
      ++t_.hit_ops;
      return;
    }
    log->Begin("storage.ReadNumericColumn", op_id);
    statdb::Result<std::vector<double>> col =
        sh_->in->view->ReadNumericColumn(r.attr);
    const uint64_t n = col.ok() ? col->size() : 0;
    const double read_us = log->End(n);
    if (!col.ok()) return t_.Problem("ReadNumericColumn " + r.attr);
    log->Begin("stats." + r.function, op_id);
    statdb::Result<SummaryResult> got =
        sh_->in->dbms->management_db().functions().Compute(r.function, *col,
                                                           params);
    const double compute_us = log->End(n);
    if (!got.ok() || !Shadow::Compare(r, a.result, *got).ok) {
      t_.Problem("Compute disagrees with Query for " + r.Label());
    }
    log->Begin("simd.DescribeSpan", op_id);
    const statdb::DescriptiveStats d = statdb::simd::DescribeSpan(col->data(), n);
    log->End(n);
    if (d.count != n) t_.Problem("DescribeSpan count for " + r.attr);
    t_.miss_self_us += core_us - lookup_us - read_us - compute_us;
    t_.miss_rows += n;
  }

  void RunBivariate(uint32_t id, SpanLog* log, uint64_t op_id) {
    const Request& r = sh_->reqs[id];
    QueryOptions qo;
    qo.cache_result = sh_->spec->cache_results;
    const uint64_t wal0 = WalRecords(*sh_->in);
    ++t_.attempted;
    ++t_.queries;
    if (log != nullptr) log->Begin("core.QueryBivariate", op_id);
    const auto t0 = Clock::now();
    statdb::Result<QueryAnswer> a = sh_->in->dbms->QueryBivariate(
        kView, r.function, r.attr, r.attr_b, qo);
    const double ms = MsSince(t0);
    if (log != nullptr) log->End();
    Record(ms, false);
    t_.wal_records_queries += WalRecords(*sh_->in) - wal0;
    if (!a.ok()) return Failed(r.Label(), a.status());
    Remember(&t_.answers, {StateIndex(), id}, a->result);
    const bool hit = a->source == AnswerSource::kCacheHit;
    if (sh_->spec->expect_hits && !hit) ++t_.not_hit;
    NoteKind("bivariate", id, hit, WalRecords(*sh_->in) != wal0, ms);
    if (log == nullptr || hit) return;
    // Miss: repeat the row-aligned read and the correlation kernel.
    log->Begin("storage.ReadColumn", op_id);
    auto xa = sh_->in->view->ReadColumn(r.attr);
    auto xb = sh_->in->view->ReadColumn(r.attr_b);
    log->End(xa.ok() ? 2 * xa->size() : 0);
    if (!xa.ok() || !xb.ok()) return t_.Problem("ReadColumn for " + r.Label());
    std::vector<double> xs, ys;
    for (size_t i = 0; i < xa->size(); ++i) {
      if ((*xa)[i].is_null() || (*xb)[i].is_null()) continue;
      xs.push_back((*xa)[i].ToDouble().value());
      ys.push_back((*xb)[i].ToDouble().value());
    }
    log->Begin("stats." + r.function, op_id);
    statdb::Result<double> rho = statdb::PearsonR(xs, ys);
    log->End(xs.size());
    if (!rho.ok() ||
        !Shadow::Compare(r, a->result, SummaryResult::Scalar(*rho)).ok) {
      t_.Problem("PearsonR disagrees with QueryBivariate");
    }
  }

  void RunMany(const std::vector<uint32_t>& ids, SpanLog* log,
               uint64_t op_id) {
    std::vector<statdb::QueryRequest> batch;
    for (uint32_t id : ids) {
      const Request& r = sh_->reqs[id];
      batch.push_back({r.function, r.attr, ParamsOf(r)});
    }
    QueryOptions qo;
    qo.cache_result = sh_->spec->cache_results;
    statdb::Gauge* task_ms =
        sh_->in->dbms->metrics().GetGauge("exec.pool.task_ms_total");
    const double task0 = task_ms->Get();
    ++t_.attempted;
    ++t_.queries;
    if (log != nullptr) log->Begin("core.QueryMany", op_id);
    const auto t0 = Clock::now();
    auto a = sh_->in->dbms->QueryMany(kView, batch, qo, sh_->workers);
    const double ms = MsSince(t0);
    if (log != nullptr) {
      log->End();
      t_.many_wall_ms += ms;
      t_.many_task_ms += task_ms->Get() - task0;
    }
    Record(ms, false);
    NoteKind("query_many", kNoRequest, false, false, ms);
    if (!a.ok()) return Failed("QueryMany", a.status());
    for (size_t i = 0; i < ids.size(); ++i) {
      Remember(&t_.answers, {StateIndex(), ids[i]}, (*a)[i].result);
    }
  }

  void RunMutation(const Mutation& m, SpanLog* log, uint64_t op_id) {
    Install& in = *sh_->in;
    const bool rollback = m.kind == Mutation::Kind::kRollback;
    const uint64_t wal0 = WalRecords(in);
    ++t_.attempted;
    ++t_.updates;
    if (log != nullptr) log->Begin(rollback ? "core.Rollback" : "core.Update", op_id);
    const auto t0 = Clock::now();
    uint64_t changed = 0;
    Status s;
    if (rollback) {
      s = in.dbms->Rollback(kView, m.target_version);
    } else {
      statdb::Result<uint64_t> n = in.dbms->Update(kView, SpecOf(m));
      s = n.status();
      if (n.ok()) changed = *n;
    }
    const double ms = MsSince(t0);
    if (log != nullptr) log->End(changed);
    Record(ms, true);
    NoteKind(rollback                   ? "rollback"
             : m.column == "INCOME"     ? "update INCOME"
             : m.column == "AGE"        ? "update AGE"
                                        : "update HOURS_WORKED",
             kNoRequest, false, WalRecords(in) != wal0, ms);
    t_.wal_records_updates += WalRecords(in) - wal0;
    if (!s.ok()) return Failed(m.Label(), s);
    sh_->log.push_back({m, changed, in.view->version(),
                        in.sessions ? in.sessions->current_seq() : 0});
    if (in.sessions != nullptr) {
      t_.retired_max = std::max(t_.retired_max, in.sessions->RetiredSnapshots());
    }
    if (log == nullptr) return;
    if (!rollback) RepeatPredicate(m, log, op_id);
    log->Begin("delta.PendingDeltas", op_id);
    statdb::Result<uint64_t> pending_or = in.dbms->PendingDeltas(kView);
    const uint64_t pending = pending_or.ok() ? *pending_or : 0;
    log->End();
    log->Begin("delta.FlushDeltas", op_id);
    const Status f = in.dbms->FlushDeltas(kView);
    log->End(pending);
    if (!f.ok()) t_.Problem("FlushDeltas: " + f.ToString());
    t_.pending_sum += double(pending);
    ++t_.flush_calls;
  }

 public:
  /// Evaluates the update's predicate and value over the columns it
  /// references, as ReadColumn returns them (relational layer cost).
  void RepeatPredicate(const Mutation& m, SpanLog* log, uint64_t op_id) {
    const statdb::UpdateSpec spec = SpecOf(m);
    std::vector<std::string> names = {m.column};
    for (const statdb::ExprPtr& e : {spec.predicate, spec.value}) {
      if (e == nullptr) continue;
      for (const std::string& c : e->ReferencedColumns()) {
        if (std::find(names.begin(), names.end(), c) == names.end()) {
          names.push_back(c);
        }
      }
    }
    std::vector<statdb::Attribute> attrs;
    std::vector<std::vector<statdb::Value>> cols;
    log->Begin("storage.ReadColumn", op_id);
    for (const std::string& c : names) {
      const statdb::Schema& schema = sh_->in->view->schema();
      attrs.push_back(schema.attr(schema.IndexOf(c).value()));
      cols.push_back(sh_->in->view->ReadColumn(c).value());
    }
    const uint64_t n = cols[0].size();
    log->End(n * cols.size());
    const statdb::Schema sub(attrs);
    log->Begin("relational.Eval", op_id);
    uint64_t matched = 0;
    statdb::Row row(cols.size());
    for (uint64_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < cols.size(); ++c) row[c] = cols[c][i];
      statdb::Result<statdb::Value> keep = spec.predicate->Eval(row, sub);
      if (!keep.ok() || !statdb::IsTrue(*keep)) continue;
      ++matched;
      if (spec.value != nullptr) (void)spec.value->Eval(row, sub);
    }
    log->End(n);
    (void)matched;
  }

 private:
  void RunSessionQuery(uint32_t id, SpanLog* log, uint64_t op_id) {
    statdb::session::SessionManager* mgr = sh_->in->sessions;
    if (session_ == nullptr) {
      if (log != nullptr) log->Begin("session.Open", op_id);
      const auto t0 = Clock::now();
      auto s = mgr->Open("reader" + std::to_string(tid_));
      open_us_ = MsSince(t0) * 1000.0;
      if (log != nullptr) log->End();
      if (!s.ok()) {
        ++t_.attempted;  // an admission rejection is a failed op
        return Failed("session Open", s.status());
      }
      session_ = *s;
    }
    const Request& r = sh_->reqs[id];
    ++t_.attempted;
    ++t_.queries;
    if (log != nullptr) log->Begin("session.Query", op_id);
    const auto t0 = Clock::now();
    auto a = session_->Query(kView, r.function, r.attr, ParamsOf(r));
    const double ms = MsSince(t0);
    if (log != nullptr) log->End();
    Record(ms, false);
    if (!a.ok()) {
      Failed(r.Label(), a.status());
    } else {
      NoteKind("session", id, a->source == AnswerSource::kCacheHit, false,
           ms);
      Remember(&t_.session_answers, {session_->pinned_seq(), id}, a->result);
    }
    if (mgr->current_seq() - session_->pinned_seq() >= kMutationsPerSession) {
      CloseSession(log, op_id);
    }
  }

  void CloseSession(SpanLog* log, uint64_t op_id) {
    const auto st = session_->stats();
    t_.snapshot_reads += st.snapshot_reads;
    t_.live_reads += st.live_reads;
    if (log != nullptr) log->Begin("session.Close", op_id);
    const auto t0 = Clock::now();
    const Status s = session_->Close();
    t_.open_close_us += open_us_ + MsSince(t0) * 1000.0;
    if (log != nullptr) log->End();
    ++t_.sessions_closed;
    if (!s.ok()) t_.Problem("session Close: " + s.ToString());
    session_ = nullptr;
  }

  Shared* sh_;
  int tid_;
  std::unique_ptr<Schedule> schedule_;
  bool reader_;
  uint64_t ops_ = 0;
  Tally t_;
  Clock::time_point phase_start_ = Clock::now();
  statdb::session::Session* session_ = nullptr;
  double open_us_ = 0;
};

// ---------------------------------------------------------------------------
// Workload assembly.

struct Workload {
  std::vector<std::unique_ptr<Client>> clients;  // clients[0] is the writer
  std::vector<Op> prime;                         // Summary-DB priming
};

std::vector<Op> ExploreDeck(RequestTable* reqs) {
  std::vector<Op> deck;
  auto query = [&](uint32_t id) {
    Op op;
    op.req = id;
    deck.push_back(op);
  };
  for (const std::string& a : kValueAttrs) {
    for (const char* fn : {"mean", "variance", "median", "distinct"}) {
      query(reqs->Add(fn, a));
    }
    // The mode of a continuous measure (its std::map of ~every value)
    // is the costliest request and the one whose time moves most with
    // memory contention on a shared host, so the deck asks it of INCOME
    // only, besides the discrete AGE and HOUSEHOLD_SIZE.
    if (a != "HOURS_WORKED") query(reqs->Add("mode", a));
    query(reqs->Add("quantile", a, 0.9));
    query(reqs->Add("histogram", a, 20));
  }
  // One QueryMany battery a deck: its 4 workers make it the request
  // most exposed to CPU taken by other tenants of a shared host.
  Op many;
  many.kind = Op::Kind::kMany;
  many.many = {reqs->Add("mean", "INCOME"), reqs->Add("variance", "INCOME"),
               reqs->Add("median", "INCOME"), reqs->Add("quantile", "INCOME", 0.9),
               reqs->Add("histogram", "INCOME", 20)};
  deck.push_back(many);
  for (const auto& [a, b] : {std::pair{"INCOME", "AGE"},
                             std::pair{"INCOME", "HOURS_WORKED"}}) {
    Op op;
    op.kind = Op::Kind::kBivariate;
    op.req = reqs->Add(Request{"correlation", a, b, 0});
    deck.push_back(op);
  }
  return deck;
}

std::vector<Op> SummaryDeck(RequestTable* reqs) {
  std::vector<Op> deck;
  auto add = [&](Request r) {
    Op op;
    op.kind = r.bivariate() ? Op::Kind::kBivariate : Op::Kind::kQuery;
    op.req = reqs->Add(std::move(r));
    deck.push_back(op);
  };
  for (const std::string& a : kValueAttrs) {
    for (const char* fn : {"count", "sum", "mean", "variance", "stddev", "min",
                           "max", "range", "median", "mode", "distinct"}) {
      add({fn, a, "", 0});
    }
    for (int i = 1; i <= 9; ++i) add({"quantile", a, "", 0.1 * i});
    for (int b = 4; b <= 168; b += 4) add({"histogram", a, "", double(b)});
  }
  for (size_t i = 0; i < kValueAttrs.size(); ++i) {
    for (size_t j = i + 1; j < kValueAttrs.size(); ++j) {
      add({"correlation", kValueAttrs[i], kValueAttrs[j], 0});
      add({"covariance", kValueAttrs[i], kValueAttrs[j], 0});
    }
  }
  return deck;
}

Workload Build(const Spec& spec, Shared* sh, uint64_t seed) {
  Workload w;
  if (spec.name == "explore_scan") {
    w.clients.push_back(std::make_unique<Client>(
        sh, 0,
        std::make_unique<DeckSchedule>(ExploreDeck(&sh->reqs), seed, true),
        false));
  } else if (spec.name == "summary_hits") {
    std::vector<Op> deck = SummaryDeck(&sh->reqs);
    w.prime = deck;
    w.clients.push_back(std::make_unique<Client>(
        sh, 0, std::make_unique<DeckSchedule>(deck, seed, true), false));
  } else {
    // Arm the maintainers of every statistic the cleaning loop reads.
    for (const char* col : {"INCOME", "HOURS_WORKED", "AGE"}) {
      for (const Request& r : CleaningSchedule::ReadSet(col)) {
        Op op;
        op.req = sh->reqs.Add(r);
        w.prime.push_back(op);
      }
    }
    Op corr;
    corr.kind = Op::Kind::kBivariate;
    corr.req = sh->reqs.Add(Request{"correlation", "INCOME", "HOURS_WORKED", 0});
    w.prime.push_back(corr);
    w.clients.push_back(std::make_unique<Client>(
        sh, 0,
        std::make_unique<CleaningSchedule>(&sh->reqs, seed),
        false));
    // Readers explore: quantiles and histograms at parameters drawn
    // from thousands of values, so most session queries miss the summary
    // timeline and read the snapshot or the live column.
    std::vector<Op> deck;
    for (const char* col : {"INCOME", "HOURS_WORKED", "AGE"}) {
      Op op;
      op.kind = Op::Kind::kSessionQuery;
      for (int k = 1; k < 1000; ++k) {
        op.req = sh->reqs.Add("quantile", col, k / 1000.0);
        deck.push_back(op);
      }
      for (int b = 2; b <= 500; ++b) {
        op.req = sh->reqs.Add("histogram", col, b);
        deck.push_back(op);
      }
    }
    for (int i = 1; i <= spec.readers; ++i) {
      w.clients.push_back(std::make_unique<Client>(
          sh, i,
          std::make_unique<DeckSchedule>(deck, seed * 31 + uint64_t(i), false),
          true));
    }
  }
  return w;
}

// ---------------------------------------------------------------------------
// Phases.

/// Runs the first `nclients` clients. The writer (client 0) runs until
/// `deadline` and then finishes its deck or cycle, or, when `writer_ops`
/// > 0, runs exactly that many ops; readers stop when the writer does.
/// `boundaries` (optional) receives the times, in seconds into the phase,
/// at which the writer completed a deck or cycle. Returns the phase's
/// wall time in seconds.
double RunPhase(Workload& w, size_t nclients, Clock::time_point deadline,
                uint64_t writer_ops, const std::vector<SpanLog*>& logs,
                std::vector<double>* boundaries = nullptr) {
  const auto t0 = Clock::now();
  std::atomic<bool> stop{false};
  auto loop = [&](size_t i) {
    Client& c = *w.clients[i];
    SpanLog* log = logs.empty() ? nullptr : logs[i];
    uint64_t n = 0;
    while (i == 0 ? (writer_ops > 0
                         ? n < writer_ops
                         : Clock::now() < deadline || !c.AtBoundary())
                  : !stop.load(std::memory_order_relaxed)) {
      c.Step(log);
      ++n;
      if (i == 0 && boundaries != nullptr && c.AtBoundary()) {
        boundaries->push_back(MsSince(t0) / 1000.0);
      }
    }
    c.Finish(log);
  };
  for (size_t i = 0; i < nclients; ++i) w.clients[i]->StartPhase(t0);
  std::vector<std::thread> readers;
  for (size_t i = 1; i < nclients; ++i) readers.emplace_back(loop, i);
  loop(0);
  stop.store(true);
  for (std::thread& t : readers) t.join();
  return MsSince(t0) / 1000.0;
}

/// Replays the mutation log on the shadow and checks every recorded
/// answer against the oracle at the state it was read from. Returns the
/// number of mismatches; the first few are added to `problems`.
uint64_t Verify(const Shadow& inputs, const Shared& sh,
                std::vector<Client*> clients,
                std::vector<std::string>* problems) {
  AnswerMap all;
  for (Client* c : clients) {
    for (const auto& [k, v] : c->tally().answers) {
      for (const SummaryResult& r : v) Remember(&all, k, r);
    }
    // A session pinned at seq p sees the mutations published at or
    // before p.
    for (const auto& [k, v] : c->tally().session_answers) {
      uint64_t idx = 0;
      while (idx < sh.log.size() && sh.log[idx].seq_after <= k.first) ++idx;
      for (const SummaryResult& r : v) Remember(&all, {idx, k.second}, r);
    }
  }
  Shadow shadow = inputs;
  uint64_t bad = 0;
  auto note = [&](const std::string& p) {
    ++bad;
    if (problems->size() < 8) problems->push_back(p);
  };
  auto it = all.begin();
  for (uint64_t idx = 0; idx <= sh.log.size(); ++idx) {
    if (idx > 0) {
      const MutationRecord& rec = sh.log[idx - 1];
      const uint64_t changed = shadow.Apply(rec.mutation);
      if (changed != rec.changed) {
        note(rec.mutation.Label() + ": Update changed " +
             std::to_string(rec.changed) + " cells, oracle " +
             std::to_string(changed));
      }
      if (shadow.version() != rec.version_after) {
        note(rec.mutation.Label() + ": view version " +
             std::to_string(rec.version_after) + ", oracle " +
             std::to_string(shadow.version()));
      }
    }
    for (; it != all.end() && it->first.first == idx; ++it) {
      const Request& r = sh.reqs[it->first.second];
      for (const SummaryResult& got : it->second) {
        const Verdict v = shadow.Check(r, got);
        if (!v.ok) {
          note(r.Label() + " after " + std::to_string(idx) +
               " mutations: " + v.detail);
        }
      }
    }
  }
  return bad;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

double SpaceAmp(Install& in) {
  uint64_t pages = Must(in.sm->GetDevice("disk"), "disk")->page_count();
  if (auto wal = in.sm->GetDevice("wal"); wal.ok()) {
    pages += wal.value()->page_count();
  }
  return double(pages * statdb::kPageSize) /
         double(kRows * kViewColumns * kCellBytes);
}

// ---------------------------------------------------------------------------
// The run.

class Runner {
 public:
  Runner(const Options& opts, const Spec& spec) : opts_(opts), spec_(spec) {}

  RunResult Run() {
    // Inputs: the benchmark's own, untimed work.
    statdb::Rng rng(opts_.seed);
    statdb::CensusOptions co;
    co.rows = kRows;
    statdb::Table table =
        Must(statdb::GenerateCensusMicrodata(co, &rng), "generate");
    inputs_ = std::make_unique<Shadow>(table, kShadowColumns);
    sh_.spec = &spec_;
    sh_.workers = std::max(1u, std::thread::hardware_concurrency());
    w_ = Build(spec_, &sh_, opts_.seed);

    // Set-up, several times from an empty StorageManager; the last
    // installation is the one measured.
    const int setups = opts_.trace ? 1 : kSetupRepeats;
    std::vector<double> setup_s;
    for (int i = 0; i < setups; ++i) {
      in_.reset();
      in_ = Setup(spec_, table, w_.prime, sh_.reqs, sh_.workers, &times_);
      setup_s.push_back(times_.total_s);
    }
    sh_.in = in_.get();
    table = statdb::Table();  // the DBMS has its own copy now

    // Warm-up: a fixed amount of work (whole decks or cycles of the
    // writer). Space and peak memory are taken after it, at the same
    // work on every run, so they do not grow with throughput.
    RunPhase(w_, w_.clients.size(), Clock::time_point::max(),
             spec_.warmup_ops, {});
    for (auto& c : w_.clients) c->tally().Restart();
    space_amp_ = SpaceAmp(*in_);
    peak_rss_mb_ = PeakRssMb();

    RunResult res = opts_.trace ? Traced() : Timed(Median(setup_s), setups);
    Report(res);
    return res;
  }

 private:
  RunResult Timed(double setup_s, int setups) {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opts_.seconds));
    std::vector<double> bounds;
    RunPhase(w_, w_.clients.size(), deadline, 0, {}, &bounds);
    RunResult res = Collect();
    std::vector<Sample> all;
    for (auto& c : w_.clients) {
      all.insert(all.end(), c->tally().samples.begin(),
                 c->tally().samples.end());
    }
    std::vector<double> q, u;
    for (const Sample& s : all) (s.update ? u : q).push_back(s.ms);

    // Throughput and latency are taken per window of whole decks or
    // cycles (at least kWindowS long), and the median over windows is
    // reported: every window sends the same op mix, and a burst of
    // machine noise moves a minority of windows, not the median.
    std::vector<double> edges = {0};
    for (double b : bounds) {
      if (b - edges.back() >= kWindowS) edges.push_back(b);
    }
    std::vector<double> w_ops, w_p50, w_p95;
    for (size_t i = 1; i < edges.size(); ++i) {
      std::vector<double> wq;
      uint64_t n = 0;
      for (const Sample& s : all) {
        if (s.end_s < edges[i - 1] || s.end_s >= edges[i]) continue;
        ++n;
        if (!s.update) wq.push_back(s.ms);
      }
      w_ops.push_back(double(n) / (edges[i] - edges[i - 1]));
      w_p50.push_back(Percentile(wq, 0.50));
      w_p95.push_back(Percentile(wq, 0.95));
    }
    windows_ = w_ops.size();
    for (const auto* v : {&w_ops, &w_p50, &w_p95}) {
      std::string line;
      for (double x : *v) line += " " + std::to_string(x);
      window_lines_.push_back(line);
    }
    const uint64_t ops = q.size() + u.size();
    res.metrics = {
        {"setup_s", setup_s, "s", uint64_t(setups)},
        {"ops_per_s", Median(w_ops), "ops/s", ops},
        {"query_p50_ms", Median(w_p50), "ms", q.size()},
        {"peak_rss_mb", peak_rss_mb_, "MB", 1},
        {"space_amp", space_amp_, "ratio", 1},
    };
    // Printed with the report but not gated: the tail moves with CPU taken
    // by other tenants of a shared host more than a bound allows, and the
    // rest exist on some workloads only (BENCHMARK.json gates what every
    // workload has).
    extra_.push_back({"query_p95_ms", Median(w_p95), "ms", q.size()});
    if (q.size() >= 1000) {
      extra_.push_back({"query_p99_ms", Percentile(q, 0.99), "ms", q.size()});
    }
    if (!u.empty()) {
      extra_.push_back({"update_p50_ms", Percentile(u, 0.50), "ms", u.size()});
      extra_.push_back({"update_p95_ms", Percentile(u, 0.95), "ms", u.size()});
    }
    extra_.push_back({"failed_frac",
                      res.attempted ? double(res.failed) / double(res.attempted)
                                    : 0.0,
                      "ratio", res.attempted});
    return res;
  }

  RunResult Traced() {
    const uint64_t k = opts_.ops > 0 ? opts_.ops : spec_.trace_ops;
    // Untraced pass: the work counters, and the wall time the traced
    // pass is compared with.
    const auto c0 = ReadCounters(*in_);
    const size_t n = w_.clients.size();
    const double untraced_s =
        RunPhase(w_, n, Clock::time_point::max(), k, {});
    const auto c1 = ReadCounters(*in_);
    counters_ = Delta(c0, c1);
    // Levels of the workload's own state, before the probes add to it.
    summary_entries_ = in_->summary->entry_count();
    btree_height_ = in_->summary->index()->Height().value_or(0);
    Tally untraced;
    for (auto& c : w_.clients) {
      Tally& t = c->tally();
      untraced.queries += t.queries;
      untraced.updates += t.updates;
      untraced.wal_records_queries += t.wal_records_queries;
      untraced.wal_records_updates += t.wal_records_updates;
      untraced.snapshot_reads += t.snapshot_reads;
      untraced.live_reads += t.live_reads;
      untraced.retired_max = std::max(untraced.retired_max, t.retired_max);
    }
    std::printf("untraced pass: %llu queries, %llu mutations, session reads "
                "%llu from snapshots and %llu live\n",
                (unsigned long long)untraced.queries,
                (unsigned long long)untraced.updates,
                (unsigned long long)untraced.snapshot_reads,
                (unsigned long long)untraced.live_reads);

    // Traced pass: same op stream, every op a span with layer children.
    const auto epoch = Clock::now();
    std::vector<std::unique_ptr<SpanLog>> logs;
    std::vector<SpanLog*> raw;
    for (size_t i = 0; i < w_.clients.size(); ++i) {
      logs.push_back(std::make_unique<SpanLog>(int(i), epoch));
      raw.push_back(logs.back().get());
    }
    const double traced_s = RunPhase(w_, n, Clock::time_point::max(), k, raw);
    SpanLog probe(int(w_.clients.size()), epoch);
    Probe(&probe, raw);
    raw.push_back(&probe);

    RunResult res = Collect();
    const auto by_name = Aggregate({raw.begin(), raw.end()});
    res.metrics = LayerMetrics(by_name, untraced, untraced_s, traced_s);
    WriteTraceFiles(raw, by_name);
    return res;
  }

  /// Layer calls the workload's own ops did not make are timed here,
  /// after both passes, on the same installation.
  void Probe(SpanLog* log, const std::vector<SpanLog*>& logs) {
    auto have = Aggregate({logs.begin(), logs.end()});
    Client& c = *w_.clients[0];
    // Statistics kernels the ops did not run: timed directly on the
    // column the storage call returns.
    std::vector<Request> kernels;
    for (const Request& r : std::vector<Request>{{"mean", "INCOME", "", 0},
                                                 {"variance", "INCOME", "", 0},
                                                 {"median", "INCOME", "", 0},
                                                 {"quantile", "INCOME", "", 0.9},
                                                 {"mode", "INCOME", "", 0},
                                                 {"distinct", "INCOME", "", 0},
                                                 {"histogram", "INCOME", "", 20}}) {
      if (!have.count("stats." + r.function)) kernels.push_back(r);
    }
    if (!kernels.empty() || !have.count("simd.DescribeSpan")) {
      log->Begin("op.probe", 0);
      log->Begin("storage.ReadNumericColumn", 0);
      const std::vector<double> col =
          Must(in_->view->ReadNumericColumn("INCOME"), "ReadNumericColumn");
      log->End(col.size());
      for (const Request& r : kernels) {
        log->Begin("stats." + r.function, 0);
        (void)Must(in_->dbms->management_db().functions().Compute(
                       r.function, col, ParamsOf(r)),
                   "Compute");
        log->End(col.size());
      }
      log->Begin("simd.DescribeSpan", 0);
      (void)statdb::simd::DescribeSpan(col.data(), col.size());
      log->End(col.size());
      log->End();
    }
    if (!have.count("stats.correlation")) ProbeCorrelation(log);
    // Summary-DB misses and a QueryMany battery, on parameters no
    // workload caches.
    if (c.tally().miss_rows == 0) {
      const uint32_t id = sh_.reqs.Add("quantile", "INCOME", 0.37);
      for (int i = 0; i < 3; ++i) c.ProbeQuery(id, false, log);
    }
    if (!have.count("core.QueryMany")) {
      c.ProbeMany({sh_.reqs.Add("quantile", "INCOME", 0.37),
                   sh_.reqs.Add("quantile", "INCOME", 0.63),
                   sh_.reqs.Add("histogram", "INCOME", 17),
                   sh_.reqs.Add("histogram", "INCOME", 23)},
                  log);
    }
    if (c.tally().hit_ops == 0) {
      const uint32_t id = sh_.reqs.Add("mean", "INCOME");
      for (int i = 0; i < 50; ++i) c.ProbeQuery(id, true, log);
    }
    if (!have.count("relational.Eval")) {
      Mutation m;
      m.column = "INCOME";
      m.age_lo = 30;
      m.factor = 1.02;
      log->Begin("op.probe", 0);
      c.RepeatPredicate(m, log, 0);
      log->End();
    }
    if (!have.count("delta.FlushDeltas")) {
      for (int i = 0; i < 10; ++i) {
        log->Begin("op.probe", 0);
        log->Begin("delta.FlushDeltas", 0);
        Must(in_->dbms->FlushDeltas(kView), "FlushDeltas");
        log->End();
        log->End();
      }
    }
    if (!have.count("session.Open")) {
      if (in_->sessions == nullptr) {
        statdb::session::SessionConfig cfg;
        in_->sessions = Must(in_->dbms->EnableSessions(cfg), "EnableSessions");
      }
      double us = 0;
      for (int i = 0; i < 50; ++i) {
        log->Begin("op.probe", 0);
        log->Begin("session.Open", 0);
        auto s = Must(in_->sessions->Open("probe"), "Open");
        us += log->End();
        log->Begin("session.Close", 0);
        Must(s->Close(), "Close");
        us += log->End();
        log->End();
      }
      probe_open_close_us_ = us / 50;
    }
  }

  /// The traced repeat of a bivariate miss, without the DBMS call.
  void ProbeCorrelation(SpanLog* log) {
    log->Begin("op.probe", 0);
    log->Begin("storage.ReadColumn", 0);
    auto xa = Must(in_->view->ReadColumn("INCOME"), "ReadColumn");
    auto xb = Must(in_->view->ReadColumn("HOURS_WORKED"), "ReadColumn");
    log->End(2 * xa.size());
    std::vector<double> xs, ys;
    for (size_t i = 0; i < xa.size(); ++i) {
      if (xa[i].is_null() || xb[i].is_null()) continue;
      xs.push_back(xa[i].ToDouble().value());
      ys.push_back(xb[i].ToDouble().value());
    }
    log->Begin("stats.correlation", 0);
    (void)Must(statdb::PearsonR(xs, ys), "PearsonR");
    log->End(xs.size());
    log->End();
  }

  std::vector<Metric> LayerMetrics(const std::map<std::string, SpanTotals>& s,
                                   const Tally& un, double untraced_s,
                                   double traced_s) {
    auto per_row = [&](const std::string& name) {
      auto it = s.find(name);
      return it == s.end() || it->second.rows == 0
                 ? 0.0
                 : it->second.total_us * 1000.0 / double(it->second.rows);
    };
    auto mean_us = [&](const std::string& name) {
      auto it = s.find(name);
      return it == s.end() ? 0.0 : it->second.total_us / double(it->second.count);
    };
    auto count = [&](const std::string& name) {
      auto it = s.find(name);
      return it == s.end() ? 0 : it->second.count;
    };
    auto c = [&](const std::string& k) {
      auto it = counters_.find(k);
      return it == counters_.end() ? 0.0 : it->second;
    };
    auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };

    Tally tr;  // traced-pass accumulators over all clients and probes
    for (auto& cl : w_.clients) {
      const Tally& t = cl->tally();
      tr.hit_core_us += t.hit_core_us;
      tr.hit_lookup_us += t.hit_lookup_us;
      tr.hit_ops += t.hit_ops;
      tr.miss_self_us += t.miss_self_us;
      tr.miss_rows += t.miss_rows;
      tr.many_wall_ms += t.many_wall_ms;
      tr.many_task_ms += t.many_task_ms;
      tr.pending_sum += t.pending_sum;
      tr.flush_calls += t.flush_calls;
      tr.open_close_us += t.open_close_us;
      tr.sessions_closed += t.sessions_closed;
    }
    const double ops = double(un.queries + un.updates);
    const double fetches = c("pool.hits") + c("pool.misses");
    const double cells = double(kRows * kViewColumns);
    const double open_close =
        tr.sessions_closed > 0 ? tr.open_close_us / double(tr.sessions_closed)
                               : probe_open_close_us_;
    return {
        {"storage.scan_ns_per_row", per_row("storage.ReadNumericColumn"), "ns/row",
         count("storage.ReadNumericColumn")},
        {"storage.pool_hit_rate", ratio(c("pool.hits"), fetches), "ratio", 0},
        {"storage.pool_fetches_per_op", ratio(fetches, ops), "count", 0},
        {"storage.pool_evictions", c("pool.evictions"), "count", 0},
        {"storage.pool_fast_hit_share", ratio(c("pool.fast_hits"), fetches),
         "ratio", 0},
        {"storage.pool_overflow_frames", c("pool.overflow_frames"), "count", 0},
        {"storage.pool_retries", c("pool.retries"), "count", 0},
        {"storage.disk_block_writes", c("disk.block_writes"), "count", 0},
        {"storage.raw_load_ns_per_cell", times_.load_ms * 1e6 / cells, "ns/cell", 1},
        {"storage.btree_get_us", mean_us("storage.BPlusTree.Get"), "us",
         count("storage.BPlusTree.Get")},
        {"storage.btree_height", double(btree_height_), "count", 0},
        {"core.materialize_ns_per_cell", times_.view_ms * 1e6 / cells, "ns/cell", 1},
        {"core.hit_self_us",
         ratio(tr.hit_core_us - tr.hit_lookup_us, double(tr.hit_ops)), "us",
         tr.hit_ops},
        {"core.miss_self_ns_per_row", ratio(tr.miss_self_us * 1000.0, double(tr.miss_rows)),
         "ns/row", 0},
        {"stats.mean_ns_per_row", per_row("stats.mean"), "ns/row", count("stats.mean")},
        {"stats.variance_ns_per_row", per_row("stats.variance"), "ns/row",
         count("stats.variance")},
        {"stats.median_ns_per_row", per_row("stats.median"), "ns/row",
         count("stats.median")},
        {"stats.quantile_ns_per_row", per_row("stats.quantile"), "ns/row",
         count("stats.quantile")},
        {"stats.mode_ns_per_row", per_row("stats.mode"), "ns/row", count("stats.mode")},
        {"stats.distinct_ns_per_row", per_row("stats.distinct"), "ns/row",
         count("stats.distinct")},
        {"stats.histogram_ns_per_row", per_row("stats.histogram"), "ns/row",
         count("stats.histogram")},
        {"stats.correlation_ns_per_row", per_row("stats.correlation"), "ns/row",
         count("stats.correlation")},
        {"simd.describe_ns_per_row", per_row("simd.DescribeSpan"), "ns/row",
         count("simd.DescribeSpan")},
        {"exec.query_many_ms", mean_us("core.QueryMany") / 1000.0, "ms",
         count("core.QueryMany")},
        {"exec.pool_busy_share",
         ratio(tr.many_task_ms, double(sh_.workers) * tr.many_wall_ms), "ratio", 0},
        {"exec.pool_queue_depth_max",
         in_->dbms->metrics().GetGauge("exec.pool.queue_depth_max")->Get(), "count", 0},
        {"summary.lookup_us", mean_us("summary.Lookup"), "us", count("summary.Lookup")},
        {"summary.entries", double(summary_entries_), "count", 0},
        {"summary.hit_rate", ratio(c("summary.hits"), c("summary.lookups")), "ratio", 0},
        {"summary.served_rate",
         ratio(c("summary.hits") + c("summary.served_stale"), c("summary.lookups")),
         "ratio", 0},
        {"summary.invalidated", c("summary.invalidated"), "count", 0},
        {"delta.flush_ms", mean_us("delta.FlushDeltas") / 1000.0, "ms",
         count("delta.FlushDeltas")},
        {"delta.pending_at_flush", ratio(tr.pending_sum, double(tr.flush_calls)),
         "count", tr.flush_calls},
        {"delta.buffered", c("delta.buffered"), "count", 0},
        {"delta.flushed", c("delta.flushed"), "count", 0},
        {"delta.policy_switches", c("delta.policy_switches"), "count", 0},
        {"rules.maintainer_applies_per_update",
         ratio(c("traffic.maintainer_applies"), double(un.updates)), "count", 0},
        {"rules.maintainer_rebuilds", c("traffic.maintainer_rebuilds"), "count", 0},
        {"rules.eager_recomputes", c("traffic.eager_recomputes"), "count", 0},
        {"relational.predicate_ns_per_row", per_row("relational.Eval"), "ns/row",
         count("relational.Eval")},
        {"fault.wal_bytes_per_commit", ratio(c("wal.bytes"), c("wal.records")), "B", 0},
        {"fault.wal_records_per_update",
         ratio(double(un.wal_records_updates), double(un.updates)), "count", 0},
        {"fault.wal_records_per_query",
         ratio(double(un.wal_records_queries), double(un.queries)), "count", 0},
        {"session.open_close_us", open_close, "us", tr.sessions_closed},
        {"session.snapshot_read_share",
         ratio(double(un.snapshot_reads), double(un.snapshot_reads + un.live_reads)),
         "ratio", 0},
        {"session.captures_per_mutation",
         ratio(c("session.captures"), c("session.mutations")), "count", 0},
        {"session.retired_snapshots_max", double(un.retired_max), "count", 0},
        {"flight.events_per_op", ratio(c("flight.events"), ops), "count", 0},
        {"obs.bench_trace_overhead_pct", (traced_s / untraced_s - 1.0) * 100.0, "%", 0},
    };
  }

  /// Correctness over every client, then the shared tallies.
  RunResult Collect() {
    RunResult res;
    std::vector<Client*> clients;
    for (auto& c : w_.clients) {
      clients.push_back(c.get());
      const Tally& t = c->tally();
      res.attempted += t.attempted;
      res.failed += t.failed;
      for (const std::string& p : t.problems) problems_.push_back(p);
      if (t.not_hit > 0) {
        problems_.push_back(std::to_string(t.not_hit) +
                            " summary_hits answers were not cache hits");
      }
    }
    const auto t0 = Clock::now();
    mismatches_ = Verify(*inputs_, sh_, clients, &problems_);
    verify_ms_ = MsSince(t0);
    res.correct = mismatches_ == 0 && problems_.empty();
    return res;
  }

  void WriteTraceFiles(const std::vector<SpanLog*>& logs,
                       const std::map<std::string, SpanTotals>& by_name) {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(opts_.out_dir, ec);
    const std::string stem = opts_.out_dir + "/" + spec_.name + "-seed" +
                             std::to_string(opts_.seed);
    trace_path_ = stem + ".trace.json";
    if (!WriteChromeTrace(trace_path_, {logs.begin(), logs.end()})) {
      Fail("cannot write " + trace_path_);
    }
    table_text_ = SelfTimeTable(by_name);
    std::ofstream(stem + ".layers.txt") << table_text_;
    if (!opts_.counters_out.empty()) {
      std::ofstream f(opts_.counters_out);
      f << "{\"input_fingerprint\":\"" << inputs_->Fingerprint() << "\"";
      for (const auto& [k, v] : counters_) f << ",\"" << k << "\":" << v;
      f << "}\n";
      if (!f) Fail("cannot write " + opts_.counters_out);
    }
  }

  void Report(const RunResult& res) {
    std::printf("workload %s seed %llu rows %llu disk_pool_pages %zu "
                "value_column_pages %llu view_pages %llu summary_entries %llu "
                "clients %zu\n",
                spec_.name.c_str(), (unsigned long long)opts_.seed,
                (unsigned long long)kRows, in_->disk_pool->capacity(),
                (unsigned long long)(kValueAttrs.size() * kColumnPages),
                (unsigned long long)(kViewColumns * kColumnPages),
                (unsigned long long)in_->summary->entry_count(),
                w_.clients.size());
    std::printf("setup_ms durability %.3f load %.3f view %.3f sessions %.3f "
                "prime %.3f\n",
                times_.durability_ms, times_.load_ms, times_.view_ms,
                times_.sessions_ms, times_.prime_ms);
    if (windows_ > 0) std::printf("windows %zu\n", windows_);
    for (size_t i = 0; i < window_lines_.size(); ++i) {
      static const char* kNames[] = {"ops_per_s", "query_p50_ms",
                                     "query_p95_ms"};
      std::printf("window %s:%s\n", kNames[i], window_lines_[i].c_str());
    }
    const std::vector<Metric>* lists[] = {&res.metrics, &extra_};
    for (const std::vector<Metric>* list : lists) {
      for (const Metric& m : *list) {
        std::printf("metric %-36s %16.6f %-8s samples %llu\n", m.name.c_str(),
                    m.value, m.unit.c_str(), (unsigned long long)m.samples);
      }
    }
    std::map<std::string, std::vector<double>> kinds;
    for (auto& c : w_.clients) {
      for (const auto& [k, v] : c->tally().by_kind) {
        const auto& [call, req, hit, wal] = k;
        std::string label = call;
        if (req != kNoRequest) {
          label += " " + sh_.reqs[req].function + (hit ? " hit" : " computed");
        }
        if (wal) label += " +wal";
        kinds[label].insert(kinds[label].end(), v.begin(), v.end());
      }
    }
    for (const auto& [k, v] : kinds) {
      std::printf("latency %-34s n %7zu  p50 %10.4f ms  p95 %10.4f ms\n",
                  k.c_str(), v.size(), Percentile(v, 0.5), Percentile(v, 0.95));
    }
    if (!table_text_.empty()) {
      std::printf("self time by layer (traced pass and probes):\n%s",
                  table_text_.c_str());
      std::printf("spans written to %s\n", trace_path_.c_str());
    }
    std::printf("verified in %.0f ms: %llu mismatches, %llu of %llu ops "
                "failed\n",
                verify_ms_, (unsigned long long)mismatches_,
                (unsigned long long)res.failed,
                (unsigned long long)res.attempted);
    for (const std::string& p : problems_) {
      std::fprintf(stderr, "problem: %s\n", p.c_str());
    }
  }

  const Options& opts_;
  const Spec& spec_;
  std::unique_ptr<Shadow> inputs_;  // the generated inputs, for the oracle
  Shared sh_;
  Workload w_;
  std::unique_ptr<Install> in_;
  SetupTimes times_;
  double space_amp_ = 0;
  double peak_rss_mb_ = 0;
  size_t windows_ = 0;
  std::vector<std::string> window_lines_;
  double probe_open_close_us_ = 0;
  uint64_t summary_entries_ = 0;
  int btree_height_ = 0;
  std::map<std::string, double> counters_;
  std::vector<Metric> extra_;
  std::vector<std::string> problems_;
  uint64_t mismatches_ = 0;
  double verify_ms_ = 0;
  std::string table_text_;
  std::string trace_path_;
};

}  // namespace

RunResult RunWorkload(const Options& opts) {
  for (const Spec& spec : Specs()) {
    if (spec.name == opts.workload) return Runner(opts, spec).Run();
  }
  Fail("unknown workload " + opts.workload);
}

}  // namespace perfbench
