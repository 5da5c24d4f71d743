// Resilience tests: freshness-aware rewriting, graceful degradation under
// injected faults, quarantine/revival, and the query guardrails. These are
// the behavioral guarantees documented in DESIGN.md ("Freshness and
// degradation semantics"): a summary table is an optimization — it must
// never change answers (staleness) and never reduce availability (failures).
#include <gtest/gtest.h>

#include <filesystem>

#include "common/fault_injection.h"
#include "common/reject_reason.h"
#include "serving/session.h"
#include "tests/reference.h"
#include "tests/test_util.h"

namespace sumtab {
namespace {

constexpr char kAstDef[] =
    "select faid, count(*) as c from trans group by faid";

std::vector<Row> MakeTransRows(int start_tid, int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row{Value::Int(start_tid + i), Value::Int(i % 50),
                       Value::Int(i % 12), Value::Int(i % 40),
                       Value::Date(19940101 + (i % 28)), Value::Int(1 + i % 5),
                       Value::Double(10.0), Value::Double(0.0)});
  }
  return rows;
}

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().Reset();
    db_ = testing::MakeCardDb(1000);
  }
  void TearDown() override { FaultInjector::Instance().Reset(); }

  QueryResult MustQuery(const std::string& sql, QueryOptions opts = {}) {
    StatusOr<QueryResult> result = db_->Query(sql, opts);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  engine::Relation BaseAnswer(const std::string& sql) {
    QueryOptions opts;
    opts.enable_rewrite = false;
    return MustQuery(sql, opts).relation;
  }

  AstState StateOf(const std::string& name) {
    StatusOr<SummaryTableInfo> info = db_->GetSummaryTableInfo(name);
    EXPECT_TRUE(info.ok()) << info.status().ToString();
    return info.ok() ? info->state : AstState::kDisabled;
  }

  std::unique_ptr<Database> db_;
};

// ---- fault injector unit behavior ----

TEST_F(ResilienceTest, FaultInjectorFailNTimesAndCounters) {
  auto& fi = FaultInjector::Instance();
  fi.Arm("executor/scan", Status::Internal("injected scan failure"), 2);
  QueryOptions opts;
  opts.enable_rewrite = false;
  EXPECT_FALSE(db_->Query("select count(*) as c from trans", opts).ok());
  EXPECT_FALSE(db_->Query("select count(*) as c from trans", opts).ok());
  // Budget exhausted: third query succeeds.
  EXPECT_TRUE(db_->Query("select count(*) as c from trans", opts).ok());
  EXPECT_EQ(fi.Trips("executor/scan"), 2);
  EXPECT_GE(fi.Hits("executor/scan"), 3);
}

TEST_F(ResilienceTest, ScopedFaultDisarmsOnExit) {
  QueryOptions opts;
  opts.enable_rewrite = false;
  {
    ScopedFault fault("executor/scan", Status::Internal("boom"), -1);
    EXPECT_FALSE(db_->Query("select count(*) as c from trans", opts).ok());
  }
  EXPECT_TRUE(db_->Query("select count(*) as c from trans", opts).ok());
}

// ---- (a) freshness: a stale AST is never used by default ----

TEST_F(ResilienceTest, BulkLoadMarksAstStaleAndRewriterSkipsIt) {
  ASSERT_TRUE(db_->DefineSummaryTable("s1", kAstDef).ok());
  EXPECT_EQ(StateOf("s1"), AstState::kFresh);
  QueryResult before = MustQuery(kAstDef);
  EXPECT_TRUE(before.used_summary_table);

  // BulkLoad does not maintain ASTs: the pre-change behavior silently served
  // pre-load data through s1. Now the epoch bump flips it to kStale...
  ASSERT_TRUE(db_->BulkLoad("trans", MakeTransRows(9000000, 100)).ok());
  EXPECT_EQ(StateOf("s1"), AstState::kStale);
  StatusOr<SummaryTableInfo> info = db_->GetSummaryTableInfo("s1");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->staleness, 1);

  // ...and the rewriter must answer from base tables, with the correct
  // post-load result (the regression this PR exists for).
  QueryResult after = MustQuery(kAstDef);
  EXPECT_FALSE(after.used_summary_table);
  EXPECT_TRUE(engine::SameRowMultiset(after.relation, BaseAnswer(kAstDef)));
  EXPECT_FALSE(engine::SameRowMultiset(after.relation, before.relation));
}

TEST_F(ResilienceTest, AllowStaleReadsOptsBackIn) {
  ASSERT_TRUE(db_->DefineSummaryTable("s1", kAstDef).ok());
  QueryResult before = MustQuery(kAstDef);
  ASSERT_TRUE(db_->BulkLoad("trans", MakeTransRows(9000000, 100)).ok());

  QueryOptions stale_ok;
  stale_ok.allow_stale_reads = true;
  QueryResult stale = MustQuery(kAstDef, stale_ok);
  EXPECT_TRUE(stale.used_summary_table);
  // A stale read serves the pre-load materialization, by design.
  EXPECT_TRUE(engine::SameRowMultiset(stale.relation, before.relation));
}

TEST_F(ResilienceTest, PerAstMaxStalenessBoundsTheLag) {
  ASSERT_TRUE(db_->DefineSummaryTable("s1", kAstDef).ok());
  ASSERT_TRUE(db_->SetMaxStaleness("s1", 2).ok());
  ASSERT_TRUE(db_->BulkLoad("trans", MakeTransRows(9000000, 50)).ok());
  ASSERT_TRUE(db_->BulkLoad("trans", MakeTransRows(9100000, 50)).ok());
  // Lag 2 <= max_staleness 2: still served.
  EXPECT_TRUE(MustQuery(kAstDef).used_summary_table);
  ASSERT_TRUE(db_->BulkLoad("trans", MakeTransRows(9200000, 50)).ok());
  // Lag 3 > 2: skipped.
  EXPECT_FALSE(MustQuery(kAstDef).used_summary_table);
  EXPECT_FALSE(db_->SetMaxStaleness("s1", -1).ok());
  EXPECT_FALSE(db_->SetMaxStaleness("ghost", 1).ok());
}

TEST_F(ResilienceTest, RefreshAndAppendRestoreFreshness) {
  ASSERT_TRUE(db_->DefineSummaryTable("s1", kAstDef).ok());
  ASSERT_TRUE(db_->BulkLoad("trans", MakeTransRows(9000000, 100)).ok());
  EXPECT_EQ(StateOf("s1"), AstState::kStale);
  ASSERT_TRUE(db_->RefreshSummaryTable("s1").ok());
  EXPECT_EQ(StateOf("s1"), AstState::kFresh);
  QueryResult routed = MustQuery(kAstDef);
  EXPECT_TRUE(routed.used_summary_table);
  EXPECT_TRUE(engine::SameRowMultiset(routed.relation, BaseAnswer(kAstDef)));

  // Append maintains the AST incrementally and keeps it fresh.
  auto report = db_->Append("trans", MakeTransRows(9500000, 100));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(StateOf("s1"), AstState::kFresh);
  QueryResult after = MustQuery(kAstDef);
  EXPECT_TRUE(after.used_summary_table);
  EXPECT_TRUE(engine::SameRowMultiset(after.relation, BaseAnswer(kAstDef)));
}

// ---- (b) graceful degradation on rewritten-plan execution failure ----

TEST_F(ResilienceTest, ExecutionFailureDegradesToBaseTables) {
  ASSERT_TRUE(db_->DefineSummaryTable("s1", kAstDef).ok());
  engine::Relation expected = BaseAnswer(kAstDef);

  // The first Execute (the rewritten plan) fails; the fallback base-table
  // execution must succeed and the result must be correct.
  FaultInjector::Instance().Arm("executor/execute",
                                Status::Internal("injected exec failure"), 1);
  QueryResult degraded = MustQuery(kAstDef);
  EXPECT_FALSE(degraded.used_summary_table);
  EXPECT_TRUE(degraded.degradation.degraded);
  EXPECT_EQ(degraded.degradation.stage, "execute");
  EXPECT_EQ(degraded.degradation.summary_table, "s1");
  EXPECT_NE(degraded.degradation.message.find("injected exec failure"),
            std::string::npos);
  EXPECT_TRUE(engine::SameRowMultiset(degraded.relation, expected));
  EXPECT_EQ(FaultInjector::Instance().Trips("executor/execute"), 1);

  // One failure is below the quarantine threshold: the next query routes
  // through the AST again, and the success clears the failure streak.
  QueryResult healthy = MustQuery(kAstDef);
  EXPECT_TRUE(healthy.used_summary_table);
  EXPECT_FALSE(healthy.degradation.degraded);
  StatusOr<SummaryTableInfo> info = db_->GetSummaryTableInfo("s1");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->consecutive_failures, 0);
}

TEST_F(ResilienceTest, ExecutionFailureOnPlanCacheHitDegradesToBaseTables) {
  // A cached plan that fails to execute falls back to its record's own
  // base-table graph, bound to the hit's literals, and is forgotten. Both a
  // rewritten and a compensated entry are served to other literals than
  // their own, so the fallback must bind them too.
  constexpr char kWarm[] =
      "select faid, count(*) as c from trans where faid > 10 group by faid";
  constexpr char kHit[] =
      "select faid, count(*) as c from trans where faid > 20 group by faid";
  ASSERT_TRUE(db_->DefineSummaryTable("s1", kAstDef).ok());
  auto fail_on_hit = [&](bool compensated) {
    QueryResult warm = MustQuery(kWarm);
    ASSERT_TRUE(warm.used_summary_table);
    ASSERT_EQ(warm.compensated, compensated);
    StatusOr<engine::Relation> expected = reference::Query(*db_, kHit);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    FaultInjector::Instance().Arm("executor/execute",
                                  Status::Internal("injected exec failure"), 1);
    QueryResult degraded = MustQuery(kHit);
    EXPECT_EQ(FaultInjector::Instance().Trips("executor/execute"), 1);
    FaultInjector::Instance().Reset();
    EXPECT_TRUE(degraded.plan_cache_hit);
    EXPECT_FALSE(degraded.used_summary_table);
    EXPECT_FALSE(degraded.compensated);
    EXPECT_TRUE(degraded.degradation.degraded);
    EXPECT_EQ(degraded.degradation.stage, "execute");
    EXPECT_EQ(degraded.degradation.summary_table, "s1");
    EXPECT_TRUE(engine::SameRowMultiset(degraded.relation, *expected));

    // The entry is gone: the next query re-plans through the AST again,
    // and its plan is cached anew.
    QueryResult replanned = MustQuery(kHit);
    EXPECT_FALSE(replanned.plan_cache_hit);
    EXPECT_TRUE(replanned.used_summary_table);
    EXPECT_EQ(replanned.compensated, compensated);
    EXPECT_TRUE(engine::SameRowMultiset(replanned.relation, *expected));
    EXPECT_TRUE(MustQuery(kHit).plan_cache_hit);
  };
  fail_on_hit(/*compensated=*/false);

  // A deferred append leaves s1 one retained epoch behind: compensated.
  Database::AppendOptions deferred;
  deferred.maintain = false;
  ASSERT_TRUE(db_->Append("trans", MakeTransRows(900000, 30), deferred).ok());
  fail_on_hit(/*compensated=*/true);
}

TEST_F(ResilienceTest, RewriteSearchFailureDegradesToBaseTables) {
  ASSERT_TRUE(db_->DefineSummaryTable("s1", kAstDef).ok());
  engine::Relation expected = BaseAnswer(kAstDef);
  ScopedFault fault("rewriter/rewrite",
                    Status::Internal("injected rewrite failure"), 1);
  QueryResult degraded = MustQuery(kAstDef);
  EXPECT_FALSE(degraded.used_summary_table);
  EXPECT_TRUE(degraded.degradation.degraded);
  EXPECT_EQ(degraded.degradation.stage, "rewrite");
  EXPECT_EQ(degraded.degradation.summary_table, "s1");
  EXPECT_TRUE(engine::SameRowMultiset(degraded.relation, expected));
}

TEST_F(ResilienceTest, TranslateFailureDegradesToBaseTables) {
  ASSERT_TRUE(db_->DefineSummaryTable("s1", kAstDef).ok());
  engine::Relation expected = BaseAnswer(kAstDef);
  ScopedFault fault("rewriter/translate",
                    Status::Internal("injected translate failure"), -1);
  QueryResult degraded = MustQuery(kAstDef);
  EXPECT_FALSE(degraded.used_summary_table);
  EXPECT_TRUE(degraded.degradation.degraded);
  EXPECT_TRUE(engine::SameRowMultiset(degraded.relation, expected));
  EXPECT_GE(FaultInjector::Instance().Trips("rewriter/translate"), 1);
}

TEST_F(ResilienceTest, MatcherFailureDegradesToBaseTables) {
  ASSERT_TRUE(db_->DefineSummaryTable("s1", kAstDef).ok());
  ScopedFault fault("matcher/navigate",
                    Status::Internal("injected matcher failure"), -1);
  QueryResult degraded = MustQuery(kAstDef);
  EXPECT_FALSE(degraded.used_summary_table);
  EXPECT_TRUE(degraded.degradation.degraded);
  EXPECT_TRUE(
      engine::SameRowMultiset(degraded.relation, BaseAnswer(kAstDef)));
}

// ---- (c) quarantine after repeated failures, revival by refresh ----

TEST_F(ResilienceTest, RepeatedFailuresQuarantineAstAndRefreshRevivesIt) {
  ASSERT_TRUE(db_->DefineSummaryTable("s1", kAstDef).ok());
  FaultInjector::Instance().Arm(
      "rewriter/rewrite", Status::Internal("injected rewrite failure"), -1);
  for (int i = 0; i < 3; ++i) {
    QueryResult degraded = MustQuery(kAstDef);
    EXPECT_FALSE(degraded.used_summary_table);
    EXPECT_TRUE(degraded.degradation.degraded);
  }
  EXPECT_EQ(StateOf("s1"), AstState::kDisabled);
  StatusOr<SummaryTableInfo> info = db_->GetSummaryTableInfo("s1");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->consecutive_failures, 3);

  // Quarantined: the AST is not even attempted (fault still armed, yet no
  // degradation and no additional trips), and allow_stale_reads does not
  // resurrect it.
  int64_t trips = FaultInjector::Instance().Trips("rewriter/rewrite");
  QueryOptions stale_ok;
  stale_ok.allow_stale_reads = true;
  QueryResult quarantined = MustQuery(kAstDef, stale_ok);
  EXPECT_FALSE(quarantined.used_summary_table);
  EXPECT_FALSE(quarantined.degradation.degraded);
  EXPECT_EQ(FaultInjector::Instance().Trips("rewriter/rewrite"), trips);

  // A successful refresh revives it.
  FaultInjector::Instance().Reset();
  ASSERT_TRUE(db_->RefreshSummaryTable("s1").ok());
  EXPECT_EQ(StateOf("s1"), AstState::kFresh);
  QueryResult revived = MustQuery(kAstDef);
  EXPECT_TRUE(revived.used_summary_table);
  EXPECT_EQ(revived.summary_table, "s1");
}

TEST_F(ResilienceTest, BrokenAstDoesNotBlockHealthyOnes) {
  ASSERT_TRUE(db_->DefineSummaryTable("s1", kAstDef).ok());
  ASSERT_TRUE(db_->DefineSummaryTable(
                    "s2",
                    "select flid, count(*) as c from trans group by flid")
                  .ok());
  // The fault trips once — s1 is attempted first and fails; s2 must still
  // serve its rewrite in the same query session.
  const char* sql = "select flid, count(*) as c from trans group by flid";
  ScopedFault fault("rewriter/rewrite",
                    Status::Internal("injected rewrite failure"), 1);
  QueryResult result = MustQuery(sql);
  EXPECT_TRUE(result.used_summary_table);
  EXPECT_EQ(result.summary_table, "s2");
  EXPECT_TRUE(result.degradation.degraded);  // s1's failure is surfaced
  EXPECT_EQ(result.degradation.summary_table, "s1");
}

// ---- maintenance resilience ----

TEST_F(ResilienceTest, AppendSurvivesRefreshFailure) {
  // avg() is not mergeable, so Append refreshes this AST by recomputation —
  // which we make fail. The append must still land the base rows and report
  // the AST as kFailed rather than erroring out.
  ASSERT_TRUE(db_->DefineSummaryTable(
                    "s_avg",
                    "select faid, avg(qty) as a from trans group by faid")
                  .ok());
  int64_t rows_before = db_->TableRows("trans");
  ScopedFault fault("maintenance/refresh",
                    Status::Internal("injected refresh failure"), 1);
  auto report = db_->Append("trans", MakeTransRows(9000000, 50));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->entries.size(), 1u);
  EXPECT_EQ(report->entries[0].mode, Database::RefreshMode::kFailed);
  EXPECT_NE(report->entries[0].error.find("injected refresh failure"),
            std::string::npos);
  EXPECT_EQ(db_->TableRows("trans"), rows_before + 50);
  EXPECT_EQ(StateOf("s_avg"), AstState::kStale);

  // Manual refresh heals it.
  ASSERT_TRUE(db_->RefreshSummaryTable("s_avg").ok());
  EXPECT_EQ(StateOf("s_avg"), AstState::kFresh);
}

TEST_F(ResilienceTest, IncrementalFaultFallsBackToRecompute) {
  ASSERT_TRUE(db_->DefineSummaryTable("s1", kAstDef).ok());
  ScopedFault fault("maintenance/incremental",
                    Status::Internal("injected incremental failure"), 1);
  auto report = db_->Append("trans", MakeTransRows(9000000, 50));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->entries.size(), 1u);
  EXPECT_EQ(report->entries[0].mode, Database::RefreshMode::kRecompute);
  EXPECT_EQ(StateOf("s1"), AstState::kFresh);
  // The recomputed AST answers correctly.
  QueryResult routed = MustQuery(kAstDef);
  EXPECT_TRUE(routed.used_summary_table);
  EXPECT_TRUE(engine::SameRowMultiset(routed.relation, BaseAnswer(kAstDef)));
}

// ---- (d) query guardrails ----

TEST_F(ResilienceTest, RowBudgetStopsRunawayCrossProduct) {
  QueryOptions opts;
  opts.enable_rewrite = false;
  opts.max_rows = 1000;
  // trans x cust cross product: 20000 rows, far over budget.
  auto result =
      db_->Query("select count(*) as c from trans, cust", opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), Status::Code::kResourceExhausted);
  // The same query under a generous budget succeeds (budget off = 0).
  QueryOptions unlimited;
  unlimited.enable_rewrite = false;
  EXPECT_TRUE(
      db_->Query("select count(*) as c from trans where qty > 2", unlimited)
          .ok());
}

TEST_F(ResilienceTest, TimeoutReturnsResourceExhausted) {
  QueryOptions opts;
  opts.enable_rewrite = false;
  opts.timeout_millis = 1e-6;  // expires before the first operator
  auto result = db_->Query(
      "select faid, count(*) as c from trans group by faid", opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), Status::Code::kResourceExhausted);
}

TEST_F(ResilienceTest, ParserDepthLimitIsCleanError) {
  std::string sql = "select " + std::string(300, '(') + "1" +
                    std::string(300, ')') + " as x from trans";
  auto result = db_->Query(sql);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), Status::Code::kResourceExhausted);
}

// Guardrail errors on the rewritten plan still degrade: the base answer is
// authoritative even when the AST plan blew its budget.
TEST_F(ResilienceTest, BudgetFailureOnRewrittenPlanFallsBack) {
  ASSERT_TRUE(db_->DefineSummaryTable("s1", kAstDef).ok());
  engine::Relation expected = BaseAnswer(kAstDef);
  // Fail only the first Execute via fault injection to emulate a plan-level
  // resource failure on the AST path.
  FaultInjector::Instance().Arm("executor/execute",
                                Status::ResourceExhausted("injected budget"),
                                1);
  QueryResult degraded = MustQuery(kAstDef);
  EXPECT_FALSE(degraded.used_summary_table);
  EXPECT_TRUE(degraded.degradation.degraded);
  EXPECT_TRUE(engine::SameRowMultiset(degraded.relation, expected));
}

// ---- serving-layer fault points ----
// The serving layer adds two seams: "serving/admission" (the admission
// decision itself fails — e.g. the controller's backing state is sick) and
// "serving/snapshot" (the pinned read point is reported unusable, and the
// session transparently re-pins).

TEST_F(ResilienceTest, AdmissionFaultSurfacesInjectedStatus) {
  serving::Server server(db_.get());
  auto session = server.CreateSession();
  ScopedFault fault("serving/admission",
                    Status::Internal("injected admission failure"), 1);
  auto result = session->Query("select count(*) as c from trans");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInternal);
  // The fault consumed its budget: the next query is admitted normally.
  auto retry = session->Query("select count(*) as c from trans");
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST_F(ResilienceTest, StaleSnapshotIsRetriedTransparently) {
  serving::Server server(db_.get());
  auto session = server.CreateSession();
  // Two stale reports, then the re-pin succeeds: the caller never sees the
  // retries except through the session stats.
  FaultInjector::Instance().Arm("serving/snapshot",
                                Status::NotSupported("injected stale snapshot"), 2);
  auto result = session->Query("select count(*) as c from trans");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->relation.rows[0][0].AsInt(), 1000);
  EXPECT_EQ(session->GetStats().snapshot_retries, 2);
  EXPECT_EQ(session->GetStats().queries, 1);
}

TEST_F(ResilienceTest, PersistentlyStaleSnapshotFailsAfterBoundedRetries) {
  serving::Server server(db_.get());
  auto session = server.CreateSession();
  ScopedFault fault("serving/snapshot",
                    Status::NotSupported("injected stale snapshot"), -1);
  auto result = session->Query("select count(*) as c from trans");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kNotSupported);
  // Retry ceiling, not an infinite loop: exactly kMaxSnapshotRetries trips.
  EXPECT_EQ(session->GetStats().snapshot_retries, 3);
  EXPECT_EQ(session->GetStats().rejected, 1);
}

// ---- durability fault points (wal/*, checkpoint/*, recovery/*) ----
//
// Same contract as the rewrite-path faults above, one layer down: a failing
// log device or checkpoint must degrade into a clean, structured error —
// never a half-published mutation, never a wedged database. Unit-level
// coverage of the points lives in wal_test/durability_test; these check the
// degradation story through the serving surface.

class DurableResilienceTest : public ResilienceTest {
 protected:
  void SetUp() override {
    ResilienceTest::SetUp();
    dir_ = ::testing::TempDir() + "sumtab_resilience_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    DatabaseOptions options;
    options.data_dir = dir_;
    StatusOr<std::unique_ptr<Database>> db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    durable_ = std::move(*db);
    ASSERT_TRUE(durable_
                    ->CreateTable("t", {{"a", Type::kInt, false}}, {"a"})
                    .ok());
    ASSERT_TRUE(durable_->BulkLoad("t", {Row{Value::Int(1)}}).ok());
  }
  void TearDown() override {
    durable_.reset();
    std::filesystem::remove_all(dir_);
    ResilienceTest::TearDown();
  }

  std::string dir_;
  std::unique_ptr<Database> durable_;
};

TEST_F(DurableResilienceTest, WalAppendFaultFailsMutationButKeepsServing) {
  {
    ScopedFault fault("wal/append", Status::Internal("injected append"), 1);
    EXPECT_FALSE(durable_->BulkLoad("t", {Row{Value::Int(2)}}).ok());
  }
  // Log-before-publish: the failed load is invisible, and the append fault
  // (unlike an fsync failure) is not sticky — the retry lands.
  EXPECT_EQ(durable_->TableRows("t"), 1);
  EXPECT_TRUE(durable_->BulkLoad("t", {Row{Value::Int(2)}}).ok());
  EXPECT_EQ(durable_->TableRows("t"), 2);
  QueryOptions opts;
  opts.enable_rewrite = false;
  EXPECT_TRUE(durable_->Query("select count(*) as c from t", opts).ok());
}

TEST_F(DurableResilienceTest, CheckpointWriteFaultFailsCheckpointOnly) {
  {
    ScopedFault fault("checkpoint/write",
                      RejectIo(RejectReason::kIoError, "injected"), 1);
    Status st = durable_->Checkpoint();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(RejectReasonFromStatus(st), RejectReason::kIoError);
  }
  // The WAL still covers everything: mutations and a later checkpoint work.
  EXPECT_TRUE(durable_->BulkLoad("t", {Row{Value::Int(3)}}).ok());
  EXPECT_TRUE(durable_->Checkpoint().ok());
  EXPECT_EQ(durable_->Stats().durability.checkpoints_written, 1);
}

TEST_F(DurableResilienceTest, RecoveryReplayFaultFailsOpenWithStructuredReason) {
  durable_.reset();  // leaves WAL records to replay on the next Open
  DatabaseOptions options;
  options.data_dir = dir_;
  {
    ScopedFault fault("recovery/replay", Status::Internal("injected replay"),
                      1);
    StatusOr<std::unique_ptr<Database>> reopened = Database::Open(options);
    ASSERT_FALSE(reopened.ok());
    EXPECT_EQ(RejectReasonFromStatus(reopened.status()),
              RejectReason::kRecoveryFailed);
  }
  // Recovery wrote nothing before failing: the next attempt succeeds.
  StatusOr<std::unique_ptr<Database>> reopened = Database::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->TableRows("t"), 1);
}

TEST_F(DurableResilienceTest, TornWriteFaultPoisonsWriterButRecoversCleanly) {
  {
    ScopedFault fault("wal/torn_write",
                      RejectIo(RejectReason::kWalTornTail, "injected tear"),
                      1);
    Status st = durable_->BulkLoad("t", {Row{Value::Int(9)}});
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(RejectReasonFromStatus(st), RejectReason::kWalTornTail);
  }
  // Sticky, like a dying disk: further mutations refuse...
  EXPECT_FALSE(durable_->BulkLoad("t", {Row{Value::Int(10)}}).ok());
  // ...but reads keep serving the last committed state.
  EXPECT_EQ(durable_->TableRows("t"), 1);
  durable_.reset();

  // And reopening truncates the tear and recovers the clean prefix.
  DatabaseOptions options;
  options.data_dir = dir_;
  StatusOr<std::unique_ptr<Database>> reopened = Database::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->TableRows("t"), 1);
  EXPECT_GT((*reopened)->Stats().durability.recovery_truncated_bytes, 0);
}

}  // namespace
}  // namespace sumtab
