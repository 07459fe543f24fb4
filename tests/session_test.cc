// Snapshot-isolated multi-analyst sessions (src/session, DESIGN.md §15):
// pinning, admission control, the rollback-during-read and sidecar
// invalidation regressions, and the lock-free buffer-pool read path the
// session layer rides on.

#include "session/session.h"

#include <atomic>
#include <thread>

#include "common/rng.h"
#include "core/dbms.h"
#include "exec/compressed_scan.h"
#include "gtest/gtest.h"
#include "relational/datagen.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

using session::Session;
using session::SessionConfig;
using session::SessionManager;

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = MakeTapeDiskStorage();
    dbms_ = std::make_unique<StatisticalDbms>(storage_.get());
    CensusOptions opts;
    opts.rows = 500;
    Rng rng(77);
    auto data = GenerateCensusMicrodata(opts, &rng);
    ASSERT_TRUE(data.ok());
    STATDB_ASSERT_OK(dbms_->LoadRawDataSet("census", *data, "synthetic"));
    ViewDefinition def;
    def.source = "census";
    auto vc = dbms_->CreateView("v", def, MaintenancePolicy::kInvalidate);
    ASSERT_TRUE(vc.ok());
  }

  SessionManager* Enable(SessionConfig config = {}) {
    auto mgr = dbms_->EnableSessions(config);
    EXPECT_TRUE(mgr.ok());
    return *mgr;
  }

  UpdateSpec DoubleYoungIncomes() {
    UpdateSpec spec;
    spec.predicate = Lt(Col("AGE"), Lit(int64_t{30}));
    spec.column = "INCOME";
    spec.value = Mul(Col("INCOME"), Lit(2.0));
    return spec;
  }

  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<StatisticalDbms> dbms_;
};

TEST_F(SessionTest, EnableIsIdempotentAndBootstrapsViews) {
  SessionManager* a = Enable();
  SessionManager* b = Enable();
  EXPECT_EQ(a, b);
  auto s = a->Open("alice");
  ASSERT_TRUE(s.ok());
  auto cols = (*s)->Columns("v");
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols->size(), dbms_->GetView("v").value()->schema().size());
  STATDB_ASSERT_OK((*s)->Close());
  EXPECT_EQ(a->open_sessions(), 0u);
}

TEST_F(SessionTest, QueryAgreesWithHeadPath) {
  SessionManager* mgr = Enable();
  auto s = mgr->Open("alice");
  ASSERT_TRUE(s.ok());
  // Every function class: moments, value counts and order statistics.
  for (const char* fn : {"mean", "variance", "stddev", "sum", "mode",
                         "distinct", "histogram", "median", "quartiles"}) {
    SCOPED_TRACE(fn);
    auto head = dbms_->Query("v", fn, "INCOME");
    ASSERT_TRUE(head.ok());
    auto pinned = (*s)->Query("v", fn, "INCOME");
    ASSERT_TRUE(pinned.ok());
    EXPECT_EQ(head->result, pinned->result);
    // Second identical query hits the session timeline.
    auto again = (*s)->Query("v", fn, "INCOME");
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->source, AnswerSource::kCacheHit);
    EXPECT_EQ(again->result, pinned->result);
  }
  STATDB_ASSERT_OK((*s)->Close());
}

TEST_F(SessionTest, ReaderKeepsSnapshotAcrossUpdate) {
  SessionManager* mgr = Enable();
  auto s1 = mgr->Open("alice");
  ASSERT_TRUE(s1.ok());
  auto before = (*s1)->Query("v", "mean", "INCOME");
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(dbms_->Update("v", DoubleYoungIncomes()).ok());

  // The pinned session still sees the pre-update data — bit-exact.
  auto still = (*s1)->Query("v", "mean", "INCOME");
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->result, before->result);

  // A session opened after the update pins the new contents and agrees
  // with the head path.
  auto s2 = mgr->Open("bob");
  ASSERT_TRUE(s2.ok());
  EXPECT_GT((*s2)->pinned_seq(), (*s1)->pinned_seq());
  auto fresh = (*s2)->Query("v", "mean", "INCOME");
  ASSERT_TRUE(fresh.ok());
  auto head = dbms_->Query("v", "mean", "INCOME");
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(fresh->result, head->result);
  EXPECT_NE(fresh->result, before->result);

  STATDB_ASSERT_OK((*s1)->Close());
  STATDB_ASSERT_OK((*s2)->Close());
}

// Satellite regression: Rollback's ClampVersions rewrites the head
// summary cache's version stamps; a pinned reader must resolve against
// the session timeline instead and keep its snapshot bit-exact.
TEST_F(SessionTest, RollbackDuringConcurrentReadKeepsPinnedSnapshot) {
  SessionManager* mgr = Enable();
  ASSERT_TRUE(dbms_->Update("v", DoubleYoungIncomes()).ok());

  auto s1 = mgr->Open("alice");
  ASSERT_TRUE(s1.ok());
  auto pinned_before = (*s1)->Query("v", "mean", "INCOME");
  ASSERT_TRUE(pinned_before.ok());
  auto pinned_col = (*s1)->ReadColumn("v", "INCOME");
  ASSERT_TRUE(pinned_col.ok());

  STATDB_ASSERT_OK(dbms_->Rollback("v", 0));

  // The pinned session still serves the updated timeline...
  auto pinned_after = (*s1)->Query("v", "mean", "INCOME");
  ASSERT_TRUE(pinned_after.ok());
  EXPECT_EQ(pinned_after->result, pinned_before->result);
  auto col_after = (*s1)->ReadColumn("v", "INCOME");
  ASSERT_TRUE(col_after.ok());
  EXPECT_EQ(*col_after, *pinned_col);

  // ...while the head (and any later pin) sees the rolled-back data.
  auto head = dbms_->Query("v", "mean", "INCOME");
  ASSERT_TRUE(head.ok());
  EXPECT_NE(head->result, pinned_before->result);
  auto s2 = mgr->Open("bob");
  ASSERT_TRUE(s2.ok());
  auto fresh = (*s2)->Query("v", "mean", "INCOME");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->result, head->result);

  STATDB_ASSERT_OK((*s1)->Close());
  STATDB_ASSERT_OK((*s2)->Close());
}

TEST_F(SessionTest, AdmissionRejectPolicy) {
  SessionConfig config;
  config.max_sessions = 2;
  config.policy = SessionConfig::OverflowPolicy::kReject;
  SessionManager* mgr = Enable(config);
  auto a = mgr->Open("a");
  auto b = mgr->Open("b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = mgr->Open("c");
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(mgr->stats().rejected, 1u);
  STATDB_ASSERT_OK((*a)->Close());
  auto retry = mgr->Open("c");
  ASSERT_TRUE(retry.ok());
  STATDB_ASSERT_OK((*retry)->Close());
  STATDB_ASSERT_OK((*b)->Close());
}

TEST_F(SessionTest, AdmissionQueueTimesOut) {
  SessionConfig config;
  config.max_sessions = 1;
  config.policy = SessionConfig::OverflowPolicy::kQueue;
  config.queue_timeout_ms = 50;
  SessionManager* mgr = Enable(config);
  auto a = mgr->Open("a");
  ASSERT_TRUE(a.ok());
  auto b = mgr->Open("b");
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(mgr->stats().queue_timeouts, 1u);
  STATDB_ASSERT_OK((*a)->Close());
}

TEST_F(SessionTest, AdmissionQueueAdmitsWhenSlotFrees) {
  SessionConfig config;
  config.max_sessions = 1;
  config.policy = SessionConfig::OverflowPolicy::kQueue;
  config.queue_timeout_ms = 10000;
  SessionManager* mgr = Enable(config);
  auto a = mgr->Open("a");
  ASSERT_TRUE(a.ok());
  std::atomic<bool> opened{false};
  std::thread waiter([&] {
    auto b = mgr->Open("b");
    EXPECT_TRUE(b.ok());
    opened.store(true);
    if (b.ok()) {
      EXPECT_TRUE((*b)->Close().ok());
    }
  });
  // Give the waiter time to queue, then free the slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(opened.load());
  STATDB_ASSERT_OK((*a)->Close());
  waiter.join();
  EXPECT_TRUE(opened.load());
}

TEST_F(SessionTest, DroppedViewStaysReadableAtOldPins) {
  SessionManager* mgr = Enable();
  auto s1 = mgr->Open("alice");
  ASSERT_TRUE(s1.ok());
  auto before = (*s1)->Query("v", "mean", "INCOME");
  ASSERT_TRUE(before.ok());

  STATDB_ASSERT_OK(dbms_->DropView("v"));

  auto still = (*s1)->Query("v", "mean", "INCOME");
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->result, before->result);
  auto col = (*s1)->ReadColumn("v", "INCOME");
  EXPECT_TRUE(col.ok());

  auto s2 = mgr->Open("bob");
  ASSERT_TRUE(s2.ok());
  auto gone = (*s2)->Query("v", "mean", "INCOME");
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);

  STATDB_ASSERT_OK((*s1)->Close());
  STATDB_ASSERT_OK((*s2)->Close());
}

TEST_F(SessionTest, SchemaEvolutionIsVersioned) {
  SessionManager* mgr = Enable();
  auto s1 = mgr->Open("alice");
  ASSERT_TRUE(s1.ok());

  DerivedColumnDef def;
  def.name = "AGE_X2";
  def.kind = DerivedRuleKind::kLocal;
  def.row_expr = Mul(Col("AGE"), Lit(2.0));
  STATDB_ASSERT_OK(dbms_->AddDerivedColumn("v", std::move(def)));

  // The old pin predates the column.
  auto old_read = (*s1)->Query("v", "mean", "AGE_X2");
  ASSERT_FALSE(old_read.ok());
  EXPECT_EQ(old_read.status().code(), StatusCode::kNotFound);

  auto s2 = mgr->Open("bob");
  ASSERT_TRUE(s2.ok());
  auto fresh = (*s2)->Query("v", "mean", "AGE_X2");
  EXPECT_TRUE(fresh.ok());

  STATDB_ASSERT_OK((*s1)->Close());
  STATDB_ASSERT_OK((*s2)->Close());
}

TEST_F(SessionTest, ViewCreatedAfterPinIsInvisible) {
  SessionManager* mgr = Enable();
  auto s1 = mgr->Open("alice");
  ASSERT_TRUE(s1.ok());

  ViewDefinition def;
  def.source = "census";
  def.predicate = Gt(Col("AGE"), Lit(int64_t{40}));
  auto vc = dbms_->CreateView("elders", def, MaintenancePolicy::kInvalidate);
  ASSERT_TRUE(vc.ok());

  auto invisible = (*s1)->Query("elders", "mean", "INCOME");
  ASSERT_FALSE(invisible.ok());
  EXPECT_EQ(invisible.status().code(), StatusCode::kNotFound);

  auto s2 = mgr->Open("bob");
  ASSERT_TRUE(s2.ok());
  EXPECT_TRUE((*s2)->Query("elders", "mean", "INCOME").ok());

  STATDB_ASSERT_OK((*s1)->Close());
  STATDB_ASSERT_OK((*s2)->Close());
}

TEST_F(SessionTest, CloseReclaimsRetiredSnapshots) {
  SessionManager* mgr = Enable();
  auto s1 = mgr->Open("alice");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(dbms_->Update("v", DoubleYoungIncomes()).ok());
  EXPECT_GT(mgr->RetiredSnapshots(), 0u);
  STATDB_ASSERT_OK((*s1)->Close());
  // Nobody can reach the pre-update captures any more.
  EXPECT_EQ(mgr->RetiredSnapshots(), 0u);
}

TEST_F(SessionTest, RecoverRefusesWhileSessionsOpen) {
  STATDB_ASSERT_OK(storage_->AddDevice("wal", DeviceCostModel::Disk(), 8));
  STATDB_ASSERT_OK(dbms_->EnableDurability("wal"));
  SessionManager* mgr = Enable();
  auto s = mgr->Open("alice");
  ASSERT_TRUE(s.ok());
  Status rec = dbms_->Recover();
  EXPECT_EQ(rec.code(), StatusCode::kFailedPrecondition);
  STATDB_ASSERT_OK((*s)->Close());
}

// Satellite regression: a compressed-domain scan holding the RLE sidecar
// must survive a concurrent WriteCell invalidating it — the shared ref
// keeps the retired sidecar alive; the view simply stops advertising it.
TEST_F(SessionTest, SidecarRefSurvivesInvalidation) {
  // Census data is run-hostile; load an RLE-friendly column so
  // CreateView builds a sidecar (same construction as simd_parity).
  Schema schema({Attribute::Numeric("RUNI", DataType::kInt64)});
  Table t(schema);
  for (size_t i = 0; i < 600; ++i) {
    Row row;
    row.push_back(Value::Int(static_cast<int64_t>(i / 50)));
    ASSERT_TRUE(t.AppendRow(std::move(row)).ok());
  }
  STATDB_ASSERT_OK(dbms_->LoadRawDataSet("runs", t, "rle-friendly"));
  ViewDefinition def;
  def.source = "runs";
  auto vc = dbms_->CreateView("rv", def, MaintenancePolicy::kInvalidate);
  ASSERT_TRUE(vc.ok());

  ConcreteView* view = dbms_->GetView("rv").value();
  std::shared_ptr<const CompressedColumnFile> ref =
      view->CompressedSidecarRef("RUNI");
  ASSERT_NE(ref, nullptr);
  const uint64_t rows = ref->size();

  // The invalidating entry point: a cell write detaches the sidecar.
  STATDB_ASSERT_OK(view->WriteCell(0, "RUNI", Value::Int(999)));
  EXPECT_EQ(view->CompressedSidecar("RUNI"), nullptr);

  // The detached sidecar still scans: its pages are alive via our ref.
  EXPECT_EQ(ref->size(), rows);
  auto scan = ScanCompressedColumn(*ref, simd::RunValueKind::kInt64,
                                   /*want_counts=*/true, /*pool=*/nullptr);
  EXPECT_TRUE(scan.ok());
}

// The lock-free buffer-pool fast path the session read path rides on.
TEST(ReadPinTest, FastPinHitsAfterFirstFetch) {
  TestStorage ts(8);
  auto page = ts.pool.NewPage();
  ASSERT_TRUE(page.ok());
  PageId id = page->first;
  STATDB_ASSERT_OK(ts.pool.UnpinPage(id, true));
  STATDB_ASSERT_OK(ts.pool.FlushAll());

  auto pin1 = ts.pool.FetchReadOnly(id);
  ASSERT_TRUE(pin1.ok());
  pin1->Release();

  // Regardless of how the first fetch was served, the frame is now
  // fast-published and the second fetch takes the lock-free path.
  auto pin2 = ts.pool.FetchReadOnly(id);
  ASSERT_TRUE(pin2.ok());
  EXPECT_TRUE(pin2->fast());
  EXPECT_EQ(pin2->id(), id);
  pin2->Release();

  BufferPoolStats stats = ts.pool.stats();
  EXPECT_GT(stats.fast_hits, 0u);
  // Folding invariant: fast hits count as ordinary hits.
  EXPECT_LE(stats.fast_hits, stats.hits);
}

TEST(ReadPinTest, EvictionSkipsFastPinnedFrames) {
  TestStorage ts(2);
  auto a = ts.pool.NewPage();
  auto b = ts.pool.NewPage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  STATDB_ASSERT_OK(ts.pool.UnpinPage(a->first, true));
  STATDB_ASSERT_OK(ts.pool.UnpinPage(b->first, true));
  STATDB_ASSERT_OK(ts.pool.FlushAll());

  // Hold a fast pin on `a`, then force evictions by filling the pool.
  auto pin = ts.pool.FetchReadOnly(a->first);
  ASSERT_TRUE(pin.ok());
  for (int i = 0; i < 4; ++i) {
    auto p = ts.pool.NewPage();
    ASSERT_TRUE(p.ok());
    STATDB_ASSERT_OK(ts.pool.UnpinPage(p->first, true));
    STATDB_ASSERT_OK(ts.pool.FlushAll());
  }
  // The fast-pinned page's bytes stayed valid throughout.
  EXPECT_TRUE(pin->valid());
  EXPECT_EQ(pin->id(), a->first);
  EXPECT_NE(pin->get(), nullptr);
  pin->Release();
}

}  // namespace
}  // namespace statdb
