// Tests for summary-table maintenance: incremental insert-delta propagation
// vs. full recomputation, catch-up of ASTs that deferred appends left
// behind, and the invariant that after any Append every summary table
// equals a from-scratch evaluation of its defining query.
#include <gtest/gtest.h>

#include "common/date.h"
#include "common/fault_injection.h"
#include "tests/test_util.h"

namespace sumtab {
namespace {

using Mode = Database::RefreshMode;

std::vector<Row> MakeTransDelta(int start_tid, int n, uint64_t seed) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    uint64_t h = (seed + i) * 0x9e3779b97f4a7c15ULL;
    rows.push_back(Row{
        Value::Int(start_tid + i), Value::Int(static_cast<int>(h % 50)),
        Value::Int(static_cast<int>((h >> 8) % 12)),
        Value::Int(static_cast<int>((h >> 16) % 40)),
        Value::Date(MakeDate(1990 + static_cast<int>((h >> 24) % 5),
                             1 + static_cast<int>((h >> 32) % 12),
                             1 + static_cast<int>((h >> 40) % 28))),
        Value::Int(1 + static_cast<int>((h >> 44) % 5)),
        Value::Double(5.0 + static_cast<double>((h >> 48) % 995)),
        Value::Double(0.0)});
  }
  return rows;
}

Mode ModeOf(const Database::MaintenanceReport& report,
            const std::string& name) {
  for (const auto& entry : report.entries) {
    if (entry.summary_table == name) return entry.mode;
  }
  ADD_FAILURE() << "no report entry for " << name;
  return Mode::kUnaffected;
}

class MaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().Reset();
    db_ = testing::MakeCardDb(2000);
  }
  void TearDown() override { FaultInjector::Instance().Reset(); }

  /// Compares the stored summary table against a fresh evaluation.
  void ExpectFresh(const std::string& name, const std::string& sql,
                   const std::string& select_stored) {
    QueryOptions opts;
    opts.enable_rewrite = false;
    auto fresh = db_->Query(sql, opts);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    auto stored = db_->Query(select_stored, opts);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    EXPECT_TRUE(engine::SameRowMultiset(fresh->relation, stored->relation))
        << name << " is stale\nfresh:\n"
        << fresh->relation.ToString(10) << "stored:\n"
        << stored->relation.ToString(10);
  }

  int64_t StalenessOf(const std::string& name) {
    StatusOr<SummaryTableInfo> info = db_->GetSummaryTableInfo(name);
    EXPECT_TRUE(info.ok()) << info.status().ToString();
    return info.ok() ? info->staleness : -1;
  }

  std::unique_ptr<Database> db_;
};

Database::AppendOptions Deferred() {
  Database::AppendOptions options;
  options.maintain = false;
  return options;
}

TEST_F(MaintenanceTest, IncrementalCountSum) {
  const char* def =
      "select faid, year(date) as y, count(*) as c, sum(qty) as q "
      "from trans group by faid, year(date)";
  ASSERT_TRUE(db_->DefineSummaryTable("s", def).ok());
  auto report = db_->Append("trans", MakeTransDelta(1000000, 500, 7));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(ModeOf(*report, "s"), Mode::kIncremental);
  ExpectFresh("s", def, "select faid, y, c, q from s");
}

TEST_F(MaintenanceTest, IncrementalMinMax) {
  const char* def =
      "select flid, min(price) as mn, max(price) as mx, count(*) as c "
      "from trans group by flid";
  ASSERT_TRUE(db_->DefineSummaryTable("s", def).ok());
  auto report = db_->Append("trans", MakeTransDelta(1000000, 300, 9));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(ModeOf(*report, "s"), Mode::kIncremental);
  ExpectFresh("s", def, "select flid, mn, mx, c from s");
}

TEST_F(MaintenanceTest, IncrementalWithDimensionJoinAndFilter) {
  const char* def =
      "select state, year(date) as y, count(*) as c "
      "from trans, loc where flid = lid and qty > 2 "
      "group by state, year(date)";
  ASSERT_TRUE(db_->DefineSummaryTable("s", def).ok());
  auto report = db_->Append("trans", MakeTransDelta(1000000, 400, 11));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(ModeOf(*report, "s"), Mode::kIncremental);
  ExpectFresh("s", def, "select state, y, c from s");
}

TEST_F(MaintenanceTest, IncrementalSpjAppend) {
  const char* def = "select tid, faid, qty * price as v from trans "
                    "where qty > 3";
  ASSERT_TRUE(db_->DefineSummaryTable("s", def).ok());
  auto report = db_->Append("trans", MakeTransDelta(1000000, 200, 13));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(ModeOf(*report, "s"), Mode::kIncremental);
  ExpectFresh("s", def, "select tid, faid, v from s");
}

TEST_F(MaintenanceTest, IncrementalGroupingSets) {
  const char* def =
      "select flid, year(date) as y, count(*) as c from trans "
      "group by rollup(flid, year(date))";
  ASSERT_TRUE(db_->DefineSummaryTable("s", def).ok());
  auto report = db_->Append("trans", MakeTransDelta(1000000, 250, 17));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(ModeOf(*report, "s"), Mode::kIncremental);
  ExpectFresh("s", def, "select flid, y, c from s");
}

TEST_F(MaintenanceTest, HavingForcesRecompute) {
  const char* def =
      "select faid, count(*) as c from trans group by faid "
      "having count(*) > 10";
  ASSERT_TRUE(db_->DefineSummaryTable("s", def).ok());
  auto report = db_->Append("trans", MakeTransDelta(1000000, 100, 19));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(ModeOf(*report, "s"), Mode::kRecompute);
  ExpectFresh("s", def, "select faid, c from s");
}

TEST_F(MaintenanceTest, CountDistinctForcesRecompute) {
  const char* def =
      "select flid, count(distinct faid) as cd from trans group by flid";
  ASSERT_TRUE(db_->DefineSummaryTable("s", def).ok());
  auto report = db_->Append("trans", MakeTransDelta(1000000, 100, 23));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(ModeOf(*report, "s"), Mode::kRecompute);
  ExpectFresh("s", def, "select flid, cd from s");
}

TEST_F(MaintenanceTest, ScalarSubqueryForcesRecompute) {
  const char* def =
      "select flid, count(*) as c, (select count(*) from trans) as tot "
      "from trans group by flid";
  ASSERT_TRUE(db_->DefineSummaryTable("s", def).ok());
  auto report = db_->Append("trans", MakeTransDelta(1000000, 100, 29));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(ModeOf(*report, "s"), Mode::kRecompute);
  ExpectFresh("s", def, "select flid, c, tot from s");
}

TEST_F(MaintenanceTest, NestedBlocksForceRecompute) {
  const char* def =
      "select tcnt, count(*) as n from (select faid, count(*) as tcnt "
      "from trans group by faid) group by tcnt";
  ASSERT_TRUE(db_->DefineSummaryTable("s", def).ok());
  auto report = db_->Append("trans", MakeTransDelta(1000000, 100, 31));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(ModeOf(*report, "s"), Mode::kRecompute);
  ExpectFresh("s", def, "select tcnt, n from s");
}

TEST_F(MaintenanceTest, UnrelatedTableUnaffected) {
  const char* def =
      "select status, count(*) as c from acct group by status";
  ASSERT_TRUE(db_->DefineSummaryTable("s", def).ok());
  auto report = db_->Append("trans", MakeTransDelta(1000000, 100, 37));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(ModeOf(*report, "s"), Mode::kUnaffected);
  ExpectFresh("s", def, "select status, c from s");
}

TEST_F(MaintenanceTest, AppendValidation) {
  ASSERT_TRUE(db_->DefineSummaryTable(
                    "s", "select faid, count(*) as c from trans group by faid")
                  .ok());
  EXPECT_FALSE(db_->Append("ghost", {}).ok());
  EXPECT_FALSE(db_->Append("s", {}).ok());  // summary tables are derived
  EXPECT_FALSE(db_->Append("trans", {{Value::Int(1)}}).ok());  // arity
}

TEST_F(MaintenanceTest, MultipleAppendsStayConsistent) {
  const char* def =
      "select year(date) as y, count(*) as c, sum(qty * price) as v "
      "from trans group by year(date)";
  ASSERT_TRUE(db_->DefineSummaryTable("s", def).ok());
  for (int round = 0; round < 5; ++round) {
    auto report =
        db_->Append("trans", MakeTransDelta(2000000 + round * 1000, 150,
                                            41 + round));
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(ModeOf(*report, "s"), Mode::kIncremental);
  }
  ExpectFresh("s", def, "select y, c, v from s");
  // And the maintained AST still serves rewrites correctly.
  testing::ExpectRewriteEquivalent(
      db_.get(),
      "select year(date) as y, sum(qty * price) as v from trans "
      "group by year(date)");
}

TEST_F(MaintenanceTest, ManualRefresh) {
  const char* def =
      "select faid, count(*) as c from trans group by faid";
  ASSERT_TRUE(db_->DefineSummaryTable("s", def).ok());
  // BulkLoad does NOT maintain: the AST goes stale...
  ASSERT_TRUE(db_->BulkLoad("trans", MakeTransDelta(3000000, 100, 43)).ok());
  QueryOptions opts;
  opts.enable_rewrite = false;
  auto fresh = db_->Query(def, opts);
  auto stored = db_->Query("select faid, c from s", opts);
  EXPECT_FALSE(engine::SameRowMultiset(fresh->relation, stored->relation));
  // ...until RefreshSummaryTable recomputes it.
  ASSERT_TRUE(db_->RefreshSummaryTable("s").ok());
  ExpectFresh("s", def, "select faid, c from s");
  EXPECT_FALSE(db_->RefreshSummaryTable("ghost").ok());
}

// ---- catch-up: an AST that deferred appends left behind merges the
// retained slices instead of recomputing ----

constexpr char kCatchUpDef[] =
    "select faid, year(date) as y, count(*) as c, sum(qty) as q, "
    "max(price) as mx from trans group by faid, year(date)";
constexpr char kCatchUpStored[] = "select faid, y, c, q, mx from s";

TEST_F(MaintenanceTest, EagerAppendAfterDeferredAppendsCatchesUp) {
  ASSERT_TRUE(db_->DefineSummaryTable("s", kCatchUpDef).ok());
  for (int k = 0; k < 3; ++k) {
    auto report =
        db_->Append("trans", MakeTransDelta(4000000 + k * 100, 60, 50 + k),
                    Deferred());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(ModeOf(*report, "s"), Mode::kDeferred);
  }
  EXPECT_EQ(StalenessOf("s"), 3);
  auto report = db_->Append("trans", MakeTransDelta(4001000, 80, 59));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(ModeOf(*report, "s"), Mode::kIncremental);
  EXPECT_EQ(StalenessOf("s"), 0);
  ExpectFresh("s", kCatchUpDef, kCatchUpStored);
}

TEST_F(MaintenanceTest, RefreshAfterDeferredAppendsMergesInsteadOfRecomputing) {
  ASSERT_TRUE(db_->DefineSummaryTable("s", kCatchUpDef).ok());
  ASSERT_TRUE(
      db_->Append("trans", MakeTransDelta(4100000, 70, 61), Deferred()).ok());
  ASSERT_TRUE(
      db_->Append("trans", MakeTransDelta(4100100, 40, 62), Deferred()).ok());
  // A recompute would trip the armed fault; the catch-up merge never runs
  // the recompute path.
  ScopedFault recompute("maintenance/refresh",
                        Status::Internal("refresh recomputed"), -1);
  ASSERT_TRUE(db_->RefreshSummaryTable("s").ok());
  EXPECT_EQ(FaultInjector::Instance().Trips("maintenance/refresh"), 0);
  EXPECT_EQ(StalenessOf("s"), 0);
  ExpectFresh("s", kCatchUpDef, kCatchUpStored);
}

TEST_F(MaintenanceTest, RefreshOfFreshAstRecomputes) {
  ASSERT_TRUE(db_->DefineSummaryTable("s", kCatchUpDef).ok());
  ScopedFault recompute("maintenance/refresh",
                        Status::Internal("refresh recomputed"), 1);
  EXPECT_FALSE(db_->RefreshSummaryTable("s").ok());
  EXPECT_EQ(FaultInjector::Instance().Trips("maintenance/refresh"), 1);
}

TEST_F(MaintenanceTest, BulkLoadStalenessRecomputesAfterDeferredAppend) {
  // The BulkLoad's epoch has no retained slice: the coverage gap forbids
  // catching up, so the eager append recomputes.
  ASSERT_TRUE(db_->DefineSummaryTable("s", kCatchUpDef).ok());
  ASSERT_TRUE(db_->BulkLoad("trans", MakeTransDelta(4200000, 50, 63)).ok());
  ASSERT_TRUE(
      db_->Append("trans", MakeTransDelta(4200100, 50, 64), Deferred()).ok());
  auto report = db_->Append("trans", MakeTransDelta(4200200, 50, 65));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(ModeOf(*report, "s"), Mode::kRecompute);
  ExpectFresh("s", kCatchUpDef, kCatchUpStored);
}

TEST_F(MaintenanceTest, LagPastRetainedDeltasRecomputes) {
  // One deferred append more than storage retains: the oldest slice is
  // gone, so the lag is no longer covered.
  ASSERT_TRUE(db_->DefineSummaryTable("s", kCatchUpDef).ok());
  const int deferred =
      static_cast<int>(engine::Storage::kMaxRetainedDeltas) + 1;
  for (int k = 0; k < deferred; ++k) {
    ASSERT_TRUE(db_->Append("trans",
                            MakeTransDelta(4300000 + k * 10, 5, 100 + k),
                            Deferred())
                    .ok());
  }
  auto report = db_->Append("trans", MakeTransDelta(4310000, 20, 99));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(ModeOf(*report, "s"), Mode::kRecompute);
  ExpectFresh("s", kCatchUpDef, kCatchUpStored);
}

TEST_F(MaintenanceTest, LagOnTwoTablesRecomputes) {
  const char* def =
      "select status, count(*) as c, sum(qty) as q from trans, acct "
      "where faid = aid group by status";
  ASSERT_TRUE(db_->DefineSummaryTable("s", def).ok());
  std::vector<Row> accounts;
  for (int i = 0; i < 5; ++i) {
    accounts.push_back(Row{Value::Int(5000 + i), Value::Int(i),
                           Value::String(i % 2 == 0 ? "gold" : "basic")});
  }
  ASSERT_TRUE(db_->Append("acct", std::move(accounts), Deferred()).ok());
  ASSERT_TRUE(
      db_->Append("trans", MakeTransDelta(4400000, 50, 66), Deferred()).ok());
  auto report = db_->Append("trans", MakeTransDelta(4400100, 50, 67));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(ModeOf(*report, "s"), Mode::kRecompute);
  ExpectFresh("s", def, "select status, c, q from s");
}

TEST_F(MaintenanceTest, QuarantinedAstRecomputes) {
  // Quarantine means the stored rows are untrusted: no delta merges into
  // them, and the recompute lifts the quarantine.
  ASSERT_TRUE(db_->DefineSummaryTable("s", kCatchUpDef).ok());
  {
    ScopedFault broken("rewriter/rewrite",
                       Status::Internal("injected rewrite failure"), -1);
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(db_->Query(kCatchUpDef).ok());
  }
  StatusOr<SummaryTableInfo> info = db_->GetSummaryTableInfo("s");
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->state, AstState::kDisabled);
  auto report = db_->Append("trans", MakeTransDelta(4500000, 50, 68));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(ModeOf(*report, "s"), Mode::kRecompute);
  info = db_->GetSummaryTableInfo("s");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, AstState::kFresh);
  ExpectFresh("s", kCatchUpDef, kCatchUpStored);
}

}  // namespace
}  // namespace sumtab
