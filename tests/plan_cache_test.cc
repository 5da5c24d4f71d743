// Rewrite-plan cache correctness (DESIGN.md, "Parallel execution and plan
// caching"): hits on textually-identical queries, and plans keyed by their
// planning context — the catalog generation plus the state of every AST over
// the query's base tables. Appends that leave those states alone keep the
// plan; a cached rewrite against a now-stale or quarantined AST must never
// be served as-is.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/fault_injection.h"
#include "common/str_util.h"
#include "tests/reference.h"
#include "tests/test_util.h"

namespace sumtab {
namespace {

constexpr char kAstDef[] =
    "select faid, flid, year(date) as y, count(*) as cnt, sum(qty) as sq "
    "from trans group by faid, flid, year(date)";
constexpr char kQuery[] =
    "select faid, count(*) as cnt from trans group by faid";

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

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().Reset();
    db_ = testing::MakeCardDb(1000);
  }
  void TearDown() override { FaultInjector::Instance().Reset(); }

  QueryResult MustQuery(const std::string& sql, QueryOptions opts = {}) {
    StatusOr<QueryResult> result = db_->Query(sql, opts);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  std::unique_ptr<Database> db_;
};

TEST_F(PlanCacheTest, NormalizeSqlText) {
  EXPECT_EQ(NormalizeSqlText("  SELECT  *\n FROM\tT  "), "select * from t");
  // String literals keep their case; surrounding SQL is folded.
  EXPECT_EQ(NormalizeSqlText("SELECT 'AbC'  FROM T"), "select 'AbC' from t");
  EXPECT_EQ(NormalizeSqlText("a"), NormalizeSqlText("  A  "));
}

TEST_F(PlanCacheTest, CaseFoldSharesOneEntry) {
  // Keyword/identifier case must not fragment the cache: SELECT vs select
  // is the same plan. (Regression guard for the key normalization.)
  QueryResult upper = MustQuery(
      "SELECT FAID, COUNT(*) AS CNT FROM TRANS GROUP BY FAID");
  EXPECT_FALSE(upper.plan_cache_hit);
  QueryResult lower = MustQuery(kQuery);
  EXPECT_TRUE(lower.plan_cache_hit);
  QueryResult mixed = MustQuery(
      "Select faid, Count(*) As cnt From trans Group By faid");
  EXPECT_TRUE(mixed.plan_cache_hit);
  DatabaseStats stats = db_->Stats();
  EXPECT_EQ(stats.plan_cache_entries, 1);
  EXPECT_EQ(stats.plan_cache_misses, 1);
  EXPECT_EQ(stats.plan_cache_hits, 2);
  EXPECT_TRUE(engine::SameRowMultiset(upper.relation, mixed.relation));
}

TEST_F(PlanCacheTest, QuotedLiteralsStayCaseSensitive) {
  // String literals are data, not syntax: 'Gold' and 'GOLD' share one
  // template entry, but each query is answered with its own literal, never
  // with the other's.
  constexpr char kGold[] =
      "select count(*) as c from acct where status = 'Gold'";
  constexpr char kUpper[] =
      "select count(*) as c from acct where status = 'GOLD'";
  constexpr char kActive[] =
      "select count(*) as c from acct where status = 'active'";
  QueryOptions no_cache;
  no_cache.enable_plan_cache = false;
  no_cache.enable_rewrite = false;
  QueryResult gold = MustQuery(kGold);
  EXPECT_FALSE(gold.plan_cache_hit);
  QueryResult upper = MustQuery(kUpper);
  EXPECT_TRUE(upper.plan_cache_hit);  // one template, one entry
  QueryResult active = MustQuery(kActive);
  EXPECT_TRUE(active.plan_cache_hit);
  EXPECT_EQ(db_->Stats().plan_cache_entries, 1);
  EXPECT_TRUE(engine::SameRowMultiset(gold.relation,
                                      MustQuery(kGold, no_cache).relation));
  EXPECT_TRUE(engine::SameRowMultiset(upper.relation,
                                      MustQuery(kUpper, no_cache).relation));
  EXPECT_TRUE(engine::SameRowMultiset(active.relation,
                                      MustQuery(kActive, no_cache).relation));
  // The bound literal reached the filter: most accounts are 'active'.
  ASSERT_EQ(active.relation.rows.size(), 1u);
  EXPECT_GT(active.relation.rows[0][0].AsInt(), 0);
  EXPECT_EQ(gold.relation.rows[0][0].AsInt(), 0);
  // Folding the SQL around the literal still hits the same entry.
  EXPECT_TRUE(MustQuery(
                  "SELECT count(*) AS c FROM acct WHERE status = 'Gold'")
                  .plan_cache_hit);
}

TEST_F(PlanCacheTest, HitAfterIdenticalQuery) {
  QueryResult first = MustQuery(kQuery);
  EXPECT_FALSE(first.plan_cache_hit);
  QueryResult second = MustQuery(kQuery);
  EXPECT_TRUE(second.plan_cache_hit);
  EXPECT_TRUE(engine::SameRowMultiset(first.relation, second.relation));
  DatabaseStats stats = db_->Stats();
  EXPECT_EQ(stats.plan_cache_hits, 1);
  EXPECT_EQ(stats.plan_cache_misses, 1);
  EXPECT_EQ(stats.plan_cache_entries, 1);
}

TEST_F(PlanCacheTest, HitIsTextuallyNormalized) {
  MustQuery(kQuery);
  QueryResult hit = MustQuery(
      "SELECT faid,   count(*) AS cnt\nFROM trans GROUP BY faid");
  EXPECT_TRUE(hit.plan_cache_hit);
}

TEST_F(PlanCacheTest, RewriteFlagPartitionsTheCache) {
  MustQuery(kQuery);
  QueryOptions off;
  off.enable_rewrite = false;
  QueryResult no_rewrite = MustQuery(kQuery, off);
  EXPECT_FALSE(no_rewrite.plan_cache_hit);  // different planning options
  QueryResult again = MustQuery(kQuery, off);
  EXPECT_TRUE(again.plan_cache_hit);
  EXPECT_FALSE(again.used_summary_table);
}

TEST_F(PlanCacheTest, CacheCanBeDisabledPerQuery) {
  MustQuery(kQuery);
  QueryOptions opts;
  opts.enable_plan_cache = false;
  EXPECT_FALSE(MustQuery(kQuery, opts).plan_cache_hit);
}

TEST_F(PlanCacheTest, CachedRewritePlanIsServedAndEquivalent) {
  ASSERT_TRUE(db_->DefineSummaryTable("ast1", kAstDef).ok());
  QueryOptions no_rewrite;
  no_rewrite.enable_rewrite = false;
  engine::Relation reference = MustQuery(kQuery, no_rewrite).relation;

  QueryResult cold = MustQuery(kQuery);
  EXPECT_FALSE(cold.plan_cache_hit);
  EXPECT_TRUE(cold.used_summary_table);
  QueryResult warm = MustQuery(kQuery);
  EXPECT_TRUE(warm.plan_cache_hit);
  EXPECT_TRUE(warm.used_summary_table);
  EXPECT_EQ(warm.summary_table, cold.summary_table);
  EXPECT_EQ(warm.rewritten_sql, cold.rewritten_sql);
  EXPECT_TRUE(engine::SameRowMultiset(reference, warm.relation));
}

TEST_F(PlanCacheTest, MissAfterDdlNewAstMustBeReSearched) {
  // Warm a base-table plan, then define an AST that covers the query: the
  // cached base plan is stale planning state and must be re-searched.
  QueryResult cold = MustQuery(kQuery);
  EXPECT_FALSE(cold.used_summary_table);
  EXPECT_TRUE(MustQuery(kQuery).plan_cache_hit);

  ASSERT_TRUE(db_->DefineSummaryTable("ast1", kAstDef).ok());
  QueryResult after_ddl = MustQuery(kQuery);
  EXPECT_FALSE(after_ddl.plan_cache_hit);
  EXPECT_TRUE(after_ddl.used_summary_table) << after_ddl.rewritten_sql;
  EXPECT_GE(db_->Stats().plan_cache_invalidations, 1);
}

TEST_F(PlanCacheTest, DropSummaryTableInvalidates) {
  ASSERT_TRUE(db_->DefineSummaryTable("ast1", kAstDef).ok());
  EXPECT_TRUE(MustQuery(kQuery).used_summary_table);
  ASSERT_TRUE(db_->DropSummaryTable("ast1").ok());
  QueryResult after = MustQuery(kQuery);
  EXPECT_FALSE(after.plan_cache_hit);
  EXPECT_FALSE(after.used_summary_table);
}

TEST_F(PlanCacheTest, BulkLoadWithoutAstsKeepsThePlan) {
  QueryResult cold = MustQuery(kQuery);
  EXPECT_TRUE(MustQuery(kQuery).plan_cache_hit);
  ASSERT_TRUE(db_->BulkLoad("trans", MakeTransRows(100000, 50)).ok());
  // No AST reads trans, so the planning context is unchanged: the cached
  // base-table plan is still the search's answer.
  QueryResult after = MustQuery(kQuery);
  EXPECT_TRUE(after.plan_cache_hit);
  // And it runs against the new snapshot, so the answer sees the new rows.
  int64_t total_cold = 0, total_after = 0;
  for (const Row& row : cold.relation.rows) total_cold += row[1].AsInt();
  for (const Row& row : after.relation.rows) total_after += row[1].AsInt();
  EXPECT_EQ(total_after, total_cold + 50);
  EXPECT_EQ(db_->Stats().plan_cache_invalidations, 0);
}

TEST_F(PlanCacheTest, EagerAppendKeepsThePlan) {
  ASSERT_TRUE(db_->DefineSummaryTable("ast1", kAstDef).ok());
  EXPECT_TRUE(MustQuery(kQuery).used_summary_table);
  EXPECT_TRUE(MustQuery(kQuery).plan_cache_hit);
  ASSERT_TRUE(db_->Append("trans", MakeTransRows(200000, 30)).ok());
  // Append maintained the AST, so it is fresh again at the new epoch: the
  // cached rewrite is still exact and is served.
  QueryResult after = MustQuery(kQuery);
  EXPECT_TRUE(after.plan_cache_hit);
  EXPECT_TRUE(after.used_summary_table);
  QueryOptions no_rewrite;
  no_rewrite.enable_rewrite = false;
  EXPECT_TRUE(engine::SameRowMultiset(
      MustQuery(kQuery, no_rewrite).relation, after.relation));
}

TEST_F(PlanCacheTest, CachedRewriteAgainstStaleAstIsNotServed) {
  ASSERT_TRUE(db_->DefineSummaryTable("ast1", kAstDef).ok());
  QueryResult cold = MustQuery(kQuery);
  ASSERT_TRUE(cold.used_summary_table);
  EXPECT_TRUE(MustQuery(kQuery).plan_cache_hit);

  // BulkLoad does NOT maintain ASTs: ast1 goes stale. The cached rewrite
  // must be invalidated, and the fresh search must answer from base tables.
  ASSERT_TRUE(db_->BulkLoad("trans", MakeTransRows(300000, 40)).ok());
  ASSERT_EQ(db_->GetSummaryTableInfo("ast1")->state, AstState::kStale);
  QueryResult after = MustQuery(kQuery);
  EXPECT_FALSE(after.plan_cache_hit);
  EXPECT_FALSE(after.used_summary_table);
  QueryOptions no_rewrite;
  no_rewrite.enable_rewrite = false;
  EXPECT_TRUE(engine::SameRowMultiset(
      MustQuery(kQuery, no_rewrite).relation, after.relation));
}

TEST_F(PlanCacheTest, CachedRewriteAgainstQuarantinedAstIsNotServed) {
  ASSERT_TRUE(db_->DefineSummaryTable("ast1", kAstDef).ok());
  ASSERT_TRUE(MustQuery(kQuery).used_summary_table);
  EXPECT_TRUE(MustQuery(kQuery).plan_cache_hit);

  // Drive the AST into quarantine with repeated execute-stage faults on a
  // DIFFERENT query so the cached entry for kQuery is untouched.
  constexpr char kOther[] =
      "select flid, count(*) as cnt from trans group by flid";
  {
    ScopedFault fault("executor/execute", Status::Internal("boom"), -1);
    // Both the rewritten attempt and the base fallback trip; the query
    // fails outright but each failure counts against the AST.
    for (int i = 0; i < 3; ++i) (void)db_->Query(kOther);
  }
  ASSERT_EQ(db_->GetSummaryTableInfo("ast1")->state, AstState::kDisabled);

  QueryResult after = MustQuery(kQuery);
  EXPECT_FALSE(after.plan_cache_hit);   // usability check rejected the entry
  EXPECT_FALSE(after.used_summary_table);
  EXPECT_GE(db_->Stats().plan_cache_invalidations, 1);
}

TEST_F(PlanCacheTest, StaleReadsUseDistinctKeyAndRespectStaleness) {
  ASSERT_TRUE(db_->DefineSummaryTable("ast1", kAstDef).ok());
  ASSERT_TRUE(MustQuery(kQuery).used_summary_table);
  ASSERT_TRUE(db_->BulkLoad("trans", MakeTransRows(400000, 10)).ok());

  // allow_stale_reads=true is a different planning context: first call
  // compiles (miss), serves the stale AST, and caches under its own key.
  QueryOptions stale;
  stale.allow_stale_reads = true;
  QueryResult stale_cold = MustQuery(kQuery, stale);
  EXPECT_FALSE(stale_cold.plan_cache_hit);
  EXPECT_TRUE(stale_cold.used_summary_table);
  QueryResult stale_warm = MustQuery(kQuery, stale);
  EXPECT_TRUE(stale_warm.plan_cache_hit);
  EXPECT_TRUE(stale_warm.used_summary_table);

  // The exact-freshness key still refuses the stale AST.
  EXPECT_FALSE(MustQuery(kQuery).used_summary_table);
}

// ---------------------------------------------------------------------------
// Delta-compensation plans in the cache: a stale-but-compensatable AST is a
// DISTINCT cache state from fresh and from allow_stale_reads — keyed by the
// delta high-water mark, re-served only while the exact retained range is
// still addressable, and invalidated with the delta-specific cause the
// moment a refresh absorbs the slices.
// ---------------------------------------------------------------------------

TEST_F(PlanCacheTest, CompensationPlanIsCachedAndInvalidatedByRefresh) {
  ASSERT_TRUE(db_->DefineSummaryTable("ast1", kAstDef).ok());
  Database::AppendOptions deferred;
  deferred.maintain = false;
  ASSERT_TRUE(db_->Append("trans", MakeTransRows(500000, 40), deferred).ok());
  ASSERT_EQ(db_->GetSummaryTableInfo("ast1")->state, AstState::kStale);

  QueryOptions no_rewrite;
  no_rewrite.enable_rewrite = false;
  engine::Relation reference = MustQuery(kQuery, no_rewrite).relation;

  QueryResult cold = MustQuery(kQuery);
  EXPECT_FALSE(cold.plan_cache_hit);
  EXPECT_TRUE(cold.used_summary_table);
  EXPECT_TRUE(cold.compensated);
  EXPECT_EQ(cold.compensation_delta_rows, 40);
  EXPECT_TRUE(engine::SameRowMultiset(reference, cold.relation));

  // Warm hit: the memoized compensation plan is re-validated (same
  // materialized epoch, same high-water mark, coverage intact) and re-run.
  QueryResult warm = MustQuery(kQuery);
  EXPECT_TRUE(warm.plan_cache_hit);
  EXPECT_TRUE(warm.compensated);
  EXPECT_EQ(warm.compensation_delta_rows, cold.compensation_delta_rows);
  EXPECT_TRUE(engine::SameRowMultiset(reference, warm.relation));
  EXPECT_EQ(db_->GetSummaryTableInfo("ast1")->compensated_queries, 2);

  // Refresh absorbs the delta range. The refresh also bumps the catalog
  // generation, but the cause must name the REAL reason the entry died:
  // its pinned delta range no longer matches the AST's materialized epoch.
  ASSERT_TRUE(db_->RefreshSummaryTable("ast1").ok());
  QueryOptions traced;
  traced.collect_trace = true;
  QueryResult after = MustQuery(kQuery, traced);
  EXPECT_FALSE(after.plan_cache_hit);
  ASSERT_NE(after.trace, nullptr);
  EXPECT_EQ(after.trace->plan_cache_outcome(), PlanCacheOutcome::kInvalidated);
  EXPECT_EQ(after.trace->plan_cache_detail(), "delta:trans");
  EXPECT_TRUE(after.used_summary_table);
  EXPECT_FALSE(after.compensated);
  EXPECT_TRUE(engine::SameRowMultiset(reference, after.relation));
}

TEST_F(PlanCacheTest, CompensationPlanInvalidatedWhenDeltaRangeMoves) {
  ASSERT_TRUE(db_->DefineSummaryTable("ast1", kAstDef).ok());
  Database::AppendOptions deferred;
  deferred.maintain = false;
  ASSERT_TRUE(db_->Append("trans", MakeTransRows(600000, 20), deferred).ok());
  QueryResult cold = MustQuery(kQuery);
  ASSERT_TRUE(cold.compensated);
  EXPECT_EQ(cold.compensation_epochs, 1);
  EXPECT_TRUE(MustQuery(kQuery).plan_cache_hit);

  // Another deferred append moves the high-water mark: the cached plan's
  // pinned [from, to] range is no longer the full staleness window, so
  // serving it would silently drop the new rows. It must die as
  // "delta:trans" and replan with the WIDER two-epoch range.
  ASSERT_TRUE(db_->Append("trans", MakeTransRows(700000, 30), deferred).ok());
  QueryOptions traced;
  traced.collect_trace = true;
  QueryResult after = MustQuery(kQuery, traced);
  EXPECT_FALSE(after.plan_cache_hit);
  ASSERT_NE(after.trace, nullptr);
  EXPECT_EQ(after.trace->plan_cache_detail(), "delta:trans");
  EXPECT_TRUE(after.compensated);
  EXPECT_EQ(after.compensation_epochs, 2);
  EXPECT_EQ(after.compensation_delta_rows, 50);

  QueryOptions no_rewrite;
  no_rewrite.enable_rewrite = false;
  EXPECT_TRUE(engine::SameRowMultiset(MustQuery(kQuery, no_rewrite).relation,
                                      after.relation));
}

TEST_F(PlanCacheTest, CompensatedAndFallbackPlansWarmTheirOwnEntries) {
  ASSERT_TRUE(db_->DefineSummaryTable("ast1", kAstDef).ok());
  Database::AppendOptions deferred;
  deferred.maintain = false;
  ASSERT_TRUE(db_->Append("trans", MakeTransRows(800000, 10), deferred).ok());
  ASSERT_TRUE(MustQuery(kQuery).compensated);
  QueryResult comp_warm = MustQuery(kQuery);
  EXPECT_TRUE(comp_warm.plan_cache_hit);
  EXPECT_TRUE(comp_warm.compensated);

  // A BulkLoad retains no slice, so ast1 now lags by an epoch it cannot be
  // compensated over: a distinct planning context under the same key. It
  // must NOT hit the compensated entry; it falls back to base tables.
  ASSERT_TRUE(db_->BulkLoad("trans", MakeTransRows(810000, 10)).ok());
  QueryResult fallback = MustQuery(kQuery);
  EXPECT_FALSE(fallback.plan_cache_hit);
  EXPECT_FALSE(fallback.compensated);
  EXPECT_FALSE(fallback.used_summary_table);

  // The fallback plan warms its own entry beside the compensated one.
  QueryResult fallback_warm = MustQuery(kQuery);
  EXPECT_TRUE(fallback_warm.plan_cache_hit);
  EXPECT_FALSE(fallback_warm.used_summary_table);
  EXPECT_EQ(db_->Stats().plan_cache_entries, 2);
  QueryOptions no_rewrite;
  no_rewrite.enable_rewrite = false;
  EXPECT_TRUE(engine::SameRowMultiset(MustQuery(kQuery, no_rewrite).relation,
                                      fallback_warm.relation));
}

TEST_F(PlanCacheTest, CachedRewriteOverDeferredStaleAstIsNeverServedAsIs) {
  // Three rewrites over ast1: kQuery, a histogram of its counts, and a
  // COUNT(DISTINCT) block. Compensation merges deltas per aggregate block,
  // so once ast1 lags the first two re-plan to compensate; a DISTINCT
  // aggregate does not decompose under union, so the third must go back
  // to base tables.
  constexpr char kNested[] =
      "select cnt, count(*) as n from "
      "(select faid, count(*) as cnt from trans group by faid) "
      "group by cnt";
  constexpr char kDistinct[] =
      "select faid, count(distinct flid) as c from trans group by faid";
  ASSERT_TRUE(db_->DefineSummaryTable("ast1", kAstDef).ok());
  for (const char* sql : {kQuery, kNested, kDistinct}) {
    ASSERT_TRUE(MustQuery(sql).used_summary_table) << sql;
    ASSERT_TRUE(MustQuery(sql).plan_cache_hit) << sql;
  }

  // A deferred append leaves ast1 behind: reading it as stored would drop
  // the 35 new rows.
  Database::AppendOptions deferred;
  deferred.maintain = false;
  ASSERT_TRUE(db_->Append("trans", MakeTransRows(900000, 35), deferred).ok());
  ASSERT_EQ(db_->GetSummaryTableInfo("ast1")->state, AstState::kStale);
  QueryOptions no_rewrite;
  no_rewrite.enable_rewrite = false;

  // The single-block and the nested query re-plan to compensate.
  QueryOptions traced;
  traced.collect_trace = true;
  for (const char* sql : {kQuery, kNested}) {
    QueryResult comp = MustQuery(sql, traced);
    EXPECT_FALSE(comp.plan_cache_hit) << sql;
    ASSERT_NE(comp.trace, nullptr);
    EXPECT_EQ(comp.trace->plan_cache_detail(), "delta:trans") << sql;
    EXPECT_TRUE(comp.compensated) << sql;
    EXPECT_EQ(comp.compensation_delta_rows, 35) << sql;
    EXPECT_TRUE(engine::SameRowMultiset(MustQuery(sql, no_rewrite).relation,
                                        comp.relation))
        << sql;
  }

  // The DISTINCT aggregate re-plans to base tables.
  QueryResult base = MustQuery(kDistinct);
  EXPECT_FALSE(base.plan_cache_hit);
  EXPECT_FALSE(base.used_summary_table);
  EXPECT_TRUE(engine::SameRowMultiset(
      MustQuery(kDistinct, no_rewrite).relation, base.relation));
}

TEST_F(PlanCacheTest, CompensatedPlanIsServedAgainAfterCatchUp) {
  ASSERT_TRUE(db_->DefineSummaryTable("ast1", kAstDef).ok());
  Database::AppendOptions deferred;
  deferred.maintain = false;
  QueryOptions no_rewrite;
  no_rewrite.enable_rewrite = false;

  ASSERT_TRUE(db_->Append("trans", MakeTransRows(1000000, 40), deferred).ok());
  QueryResult first = MustQuery(kQuery);
  ASSERT_TRUE(first.compensated);
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_EQ(first.compensation_delta_rows, 40);

  // The eager append catches ast1 up: the fresh rewrite is a second plan
  // beside the compensated one.
  ASSERT_TRUE(db_->Append("trans", MakeTransRows(1100000, 10)).ok());
  QueryResult fresh = MustQuery(kQuery);
  EXPECT_FALSE(fresh.plan_cache_hit);
  EXPECT_TRUE(fresh.used_summary_table);
  EXPECT_FALSE(fresh.compensated);
  EXPECT_EQ(db_->Stats().plan_cache_entries, 2);

  // A second deferred append puts ast1 one epoch behind again, over a new
  // epoch range: the compensated plan is served, its delta leg over the
  // current lag.
  ASSERT_TRUE(db_->Append("trans", MakeTransRows(1200000, 25), deferred).ok());
  QueryResult again = MustQuery(kQuery);
  EXPECT_TRUE(again.plan_cache_hit);
  EXPECT_TRUE(again.compensated);
  EXPECT_EQ(again.compensation_epochs, 1);
  EXPECT_EQ(again.compensation_delta_rows, 25);
  EXPECT_TRUE(engine::SameRowMultiset(MustQuery(kQuery, no_rewrite).relation,
                                      again.relation));

  // And the next eager append serves the fresh rewrite from the cache.
  ASSERT_TRUE(db_->Append("trans", MakeTransRows(1300000, 5)).ok());
  QueryResult warm = MustQuery(kQuery);
  EXPECT_TRUE(warm.plan_cache_hit);
  EXPECT_TRUE(warm.used_summary_table);
  EXPECT_FALSE(warm.compensated);
  EXPECT_TRUE(engine::SameRowMultiset(MustQuery(kQuery, no_rewrite).relation,
                                      warm.relation));
}

TEST_F(PlanCacheTest, AppendToUnrelatedTableKeepsTheEntry) {
  ASSERT_TRUE(db_->DefineSummaryTable("ast1", kAstDef).ok());
  ASSERT_TRUE(db_->DefineSummaryTable(
                     "ast_loc",
                     "select state, count(*) as cnt from loc group by state")
                  .ok());
  ASSERT_TRUE(MustQuery(kQuery).used_summary_table);

  // ast_loc falls behind on loc; nothing the trans query reads changed.
  Database::AppendOptions deferred;
  deferred.maintain = false;
  ASSERT_TRUE(db_->Append("loc",
                          {Row{Value::Int(9001), Value::String("Springfield"),
                               Value::String("IL"), Value::String("USA")}},
                          deferred)
                  .ok());
  ASSERT_EQ(db_->GetSummaryTableInfo("ast_loc")->state, AstState::kStale);
  QueryResult after = MustQuery(kQuery);
  EXPECT_TRUE(after.plan_cache_hit);
  EXPECT_TRUE(after.used_summary_table);
  EXPECT_EQ(db_->Stats().plan_cache_invalidations, 0);
}

TEST_F(PlanCacheTest, StatsCountersAreConsistent) {
  DatabaseStats before = db_->Stats();
  EXPECT_EQ(before.plan_cache_hits, 0);
  EXPECT_EQ(before.plan_cache_entries, 0);
  MustQuery(kQuery);
  MustQuery(kQuery);
  MustQuery(kQuery);
  DatabaseStats after = db_->Stats();
  EXPECT_EQ(after.plan_cache_misses, 1);
  EXPECT_EQ(after.plan_cache_hits, 2);
  EXPECT_GT(after.catalog_generation, 0);  // schema DDL during setup
}

// ---------------------------------------------------------------------------
// Plan templates (DESIGN.md §8): the key lifts literals into slots, so
// queries that differ only in their constants share one plan; a plan whose
// search read a literal's value serves only the literals it was made with.
// ---------------------------------------------------------------------------

class PlanCacheTemplateTest : public PlanCacheTest {
 protected:
  /// The query with the cache and rewriting off: the reference answer.
  engine::Relation Direct(const std::string& sql) {
    QueryOptions direct;
    direct.enable_plan_cache = false;
    direct.enable_rewrite = false;
    return MustQuery(sql, direct).relation;
  }

  /// Runs `sql` traced; expects the answer to be Direct's.
  QueryResult Traced(const std::string& sql) {
    QueryOptions traced;
    traced.collect_trace = true;
    QueryResult result = MustQuery(sql, traced);
    EXPECT_TRUE(engine::SameRowMultiset(result.relation, Direct(sql))) << sql;
    return result;
  }

  static std::string TemplateOf(const QueryResult& result) {
    std::string text = result.trace->ToString();
    size_t at = text.find("plan template: ");
    return at == std::string::npos
               ? ""
               : text.substr(at, text.find('\n', at) - at);
  }
};

TEST_F(PlanCacheTemplateTest, DrillDownsShareOnePlan) {
  ASSERT_TRUE(db_->DefineSummaryTable("ast1", kAstDef).ok());
  auto drill = [](int faid, int year) {
    return "select faid, year(date) as y, count(*) as cnt from trans "
           "where faid = " +
           std::to_string(faid) + " and year(date) <= " +
           std::to_string(year) + " group by faid, year(date)";
  };
  QueryResult first = Traced(drill(3, 1992));
  EXPECT_FALSE(first.plan_cache_hit);
  ASSERT_TRUE(first.used_summary_table);
  QueryResult second = Traced(drill(7, 1993));
  EXPECT_TRUE(second.plan_cache_hit);
  EXPECT_TRUE(second.used_summary_table);
  EXPECT_EQ(second.trace->plan_cache_detail(), "template");
  EXPECT_EQ(TemplateOf(first), TemplateOf(second));
  // The bound plan renders its own literals, exactly as a fresh plan would.
  QueryOptions no_cache;
  no_cache.enable_plan_cache = false;
  EXPECT_EQ(second.rewritten_sql, MustQuery(drill(7, 1993), no_cache)
                                      .rewritten_sql);
  EXPECT_NE(second.rewritten_sql.find("= 7"), std::string::npos)
      << second.rewritten_sql;
  DatabaseStats stats = db_->Stats();
  EXPECT_EQ(stats.plan_cache_entries, 1);
  EXPECT_EQ(stats.plan_cache_literal_sensitive, 0);
}

TEST_F(PlanCacheTemplateTest, SubsumptionFlipReplans) {
  // Paper 4.1: the AST keeps only 1993 on, so a query's year bound decides
  // whether the AST's rows cover it. That decision read the literal, so the
  // plan serves only the literals it was made with.
  ASSERT_TRUE(db_->DefineSummaryTable(
                     "ast_recent",
                     "select faid, year(date) as y, count(*) as cnt from trans "
                     "where year(date) >= 1993 group by faid, year(date)")
                  .ok());
  auto query = [](int year) {
    return "select faid, count(*) as cnt from trans where year(date) >= " +
           std::to_string(year) + " group by faid";
  };
  QueryResult covered = Traced(query(1994));
  EXPECT_TRUE(covered.used_summary_table);
  QueryResult uncovered = Traced(query(1991));
  EXPECT_FALSE(uncovered.plan_cache_hit);
  EXPECT_EQ(uncovered.trace->plan_cache_outcome(),
            PlanCacheOutcome::kLiteralSensitive);
  EXPECT_FALSE(uncovered.used_summary_table);
  QueryResult covered_again = Traced(query(1993));
  EXPECT_FALSE(covered_again.plan_cache_hit);
  EXPECT_TRUE(covered_again.used_summary_table);
  // Each binding keeps its own entry and is served again.
  QueryResult repeat = Traced(query(1991));
  EXPECT_TRUE(repeat.plan_cache_hit);
  EXPECT_FALSE(repeat.used_summary_table);
  EXPECT_EQ(db_->Stats().plan_cache_literal_sensitive, 3);
}

TEST_F(PlanCacheTemplateTest, CompensatedTwoBlockTemplateBindsEveryLeg) {
  // Fig. 11's shape with a literal in each block and one in the HAVING
  // between them: after a deferred append both blocks merge deltas, and a
  // hit with other literals must bind the residual and every leg.
  ASSERT_TRUE(db_->DefineSummaryTable("ast1", kAstDef).ok());
  Database::AppendOptions deferred;
  deferred.maintain = false;
  ASSERT_TRUE(db_->Append("trans", MakeTransRows(950000, 45), deferred).ok());
  auto query = [](int flid, int below, int having) {
    return "select faid, count(*) as cnt, (select count(*) from trans "
           "where flid < " +
           std::to_string(below) + ") as low from trans where flid = " +
           std::to_string(flid) + " group by faid having count(*) > " +
           std::to_string(having);
  };
  QueryResult first = Traced(query(3, 7, 1));
  EXPECT_FALSE(first.plan_cache_hit);
  ASSERT_TRUE(first.compensated);
  EXPECT_EQ(first.compensation_delta_rows, 2 * 45);
  for (const std::string& sql : {query(5, 9, 0), query(11, 4, 1)}) {
    QueryResult hit = Traced(sql);
    EXPECT_TRUE(hit.plan_cache_hit) << sql;
    EXPECT_TRUE(hit.compensated) << sql;
    EXPECT_EQ(hit.compensation_delta_rows, 2 * 45) << sql;
    EXPECT_EQ(TemplateOf(hit), TemplateOf(first)) << sql;
    StatusOr<engine::Relation> want = reference::Query(*db_, sql);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_TRUE(reference::MatchesReference(hit.relation, *want)) << sql;
    ASSERT_FALSE(hit.relation.rows.empty()) << sql;
    QueryOptions no_cache;
    no_cache.enable_plan_cache = false;
    EXPECT_EQ(hit.rewritten_sql, MustQuery(sql, no_cache).rewritten_sql)
        << sql;
  }
}

TEST_F(PlanCacheTemplateTest, EqualLiteralsShapeTheTemplate) {
  ASSERT_TRUE(db_->DefineSummaryTable(
                     "ast_ym",
                     "select year(date) as y, month(date) as m, count(*) as "
                     "cnt from trans group by year(date), month(date)")
                  .ok());
  // One slot for both sides of `% 100`: the grouping expression and the
  // select item stay the same expression for every binding.
  auto modulo = [](int m) {
    return "select year(date) % " + std::to_string(m) +
           " as yy, count(*) as cnt from trans group by year(date) % " +
           std::to_string(m);
  };
  QueryResult by100 = Traced(modulo(100));
  QueryResult by7 = Traced(modulo(7));
  EXPECT_TRUE(by7.plan_cache_hit);
  EXPECT_NE(TemplateOf(by7).find("% ?0 as yy"), std::string::npos)
      << TemplateOf(by7);
  EXPECT_NE(TemplateOf(by7).find("group by year(date) % ?0"),
            std::string::npos)
      << TemplateOf(by7);
  // A one-month range and a wider one are different templates.
  auto months = [](int lo, int hi) {
    return "select year(date) as y, count(*) as cnt from trans where "
           "month(date) >= " +
           std::to_string(lo) + " and month(date) <= " + std::to_string(hi) +
           " group by year(date)";
  };
  QueryResult one = Traced(months(3, 3));
  QueryResult wide = Traced(months(3, 5));
  EXPECT_FALSE(wide.plan_cache_hit);
  EXPECT_NE(TemplateOf(one), TemplateOf(wide));
  EXPECT_TRUE(Traced(months(6, 6)).plan_cache_hit);
  EXPECT_TRUE(Traced(months(1, 11)).plan_cache_hit);
}

TEST_F(PlanCacheTemplateTest, LiteralKindsAreInTheKey) {
  constexpr char kInt[] =
      "select count(*) as c from trans where price < 600";
  constexpr char kDouble[] =
      "select count(*) as c from trans where price < 600.5";
  EXPECT_FALSE(Traced(kInt).plan_cache_hit);
  EXPECT_FALSE(Traced(kDouble).plan_cache_hit);
  EXPECT_EQ(db_->Stats().plan_cache_entries, 2);
  EXPECT_TRUE(Traced("select count(*) as c from trans where price < 700")
                  .plan_cache_hit);
  EXPECT_TRUE(Traced("select count(*) as c from trans where price < 0.25")
                  .plan_cache_hit);
}

TEST_F(PlanCacheTemplateTest, OrderByPositionStaysInTheText) {
  constexpr char kBySecond[] =
      "select faid, count(*) as cnt from trans group by faid order by 2, 1";
  constexpr char kByFirst[] =
      "select faid, count(*) as cnt from trans group by faid order by 1";
  QueryResult second = Traced(kBySecond);
  QueryResult first = Traced(kByFirst);
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_NE(TemplateOf(second).find("order by 2, 1"), std::string::npos)
      << TemplateOf(second);
  // The rows come back in each query's own order.
  EXPECT_TRUE(second.relation.rows == Direct(kBySecond).rows);
  EXPECT_TRUE(first.relation.rows == Direct(kByFirst).rows);
}

TEST_F(PlanCacheTemplateTest, ConcurrentBindsOfOneEntry) {
  ASSERT_TRUE(db_->DefineSummaryTable("ast1", kAstDef).ok());
  auto query = [](int faid) {
    return "select flid, count(*) as cnt, sum(qty) as sq from trans "
           "where faid = " +
           std::to_string(faid) + " group by flid";
  };
  constexpr int kValues = 8;
  std::vector<engine::Relation> expected;
  for (int v = 0; v < kValues; ++v) expected.push_back(Direct(query(v)));
  ASSERT_TRUE(MustQuery(query(0)).used_summary_table);
  std::atomic<int> wrong{0}, misses{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        int v = (t * 3 + i) % kValues;
        StatusOr<QueryResult> got = db_->Query(query(v));
        if (!got.ok() || !got->used_summary_table ||
            !engine::SameRowMultiset(got->relation, expected[v])) {
          wrong.fetch_add(1);
        } else if (!got->plan_cache_hit) {
          misses.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(misses.load(), 0);
  EXPECT_EQ(db_->Stats().plan_cache_entries, 1);
}

}  // namespace
}  // namespace sumtab
