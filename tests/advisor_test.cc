// Tests for the workload advisor: candidate generation from query blocks
// (including cuboid-lattice and merged multi-query candidates), dedup by
// normalized text, matcher-verified coverage, budgeted greedy selection,
// all-or-nothing apply, the workload log feeding AdviseAndApply, and the
// TUNE statement closing the loop end to end.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "advisor/advisor.h"
#include "common/fault_injection.h"
#include "common/str_util.h"
#include "tests/test_util.h"

namespace sumtab {
namespace {

namespace fs = std::filesystem;

using advisor::AdviseAndApply;
using advisor::AdvisorOptions;
using advisor::ApplyRecommendation;
using advisor::Recommendation;
using advisor::RecommendForWorkload;
using advisor::RecommendSummaryTables;
using advisor::WorkloadQuery;

class AdvisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().Reset();
    db_ = testing::MakeCardDb(5000);
  }
  void TearDown() override { FaultInjector::Instance().Reset(); }
  std::unique_ptr<Database> db_;
};

TEST_F(AdvisorTest, GeneratesAndChoosesCandidates) {
  std::vector<std::string> workload = {
      "select faid, count(*) as c from trans group by faid",
      "select faid, year(date) as y, count(*) as c from trans "
      "group by faid, year(date)",
      "select year(date) as y, sum(qty) as q from trans group by year(date)",
  };
  auto rec = RecommendSummaryTables(db_.get(), workload, /*budget=*/100000);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_GE(rec->candidates.size(), 3u);
  int chosen = 0;
  for (const auto& candidate : rec->candidates) chosen += candidate.chosen;
  EXPECT_GE(chosen, 1);
  EXPECT_LT(rec->workload_cost_after, rec->workload_cost_before);
  EXPECT_LE(rec->total_rows_used, 100000);
}

TEST_F(AdvisorTest, FinerCandidateCoversCoarserQueries) {
  // The per-(faid, year) candidate answers both queries; with a generous
  // budget the advisor should not need two separate ASTs if one dominates
  // on benefit-per-row.
  std::vector<std::string> workload = {
      "select faid, year(date) as y, count(*) as c from trans "
      "group by faid, year(date)",
      "select faid, count(*) as c from trans group by faid",
  };
  auto rec = RecommendSummaryTables(db_.get(), workload, 100000);
  ASSERT_TRUE(rec.ok());
  // The finest candidate covers both workload queries.
  bool some_covers_both = false;
  for (const auto& candidate : rec->candidates) {
    some_covers_both =
        some_covers_both || candidate.covered_queries.size() == 2;
  }
  EXPECT_TRUE(some_covers_both);
}

TEST_F(AdvisorTest, BudgetIsRespected) {
  std::vector<std::string> workload = {
      "select faid, flid, year(date) as y, month(date) as m, count(*) as c "
      "from trans group by faid, flid, year(date), month(date)",
      "select year(date) as y, count(*) as c from trans group by year(date)",
  };
  // A tiny budget excludes the big fine-grained candidate but admits the
  // yearly one.
  auto rec = RecommendSummaryTables(db_.get(), workload, /*budget=*/100);
  ASSERT_TRUE(rec.ok());
  EXPECT_LE(rec->total_rows_used, 100);
  for (const auto& candidate : rec->candidates) {
    if (candidate.chosen) {
      EXPECT_LE(candidate.estimated_rows, 100);
    }
  }
}

TEST_F(AdvisorTest, ZeroBudgetChoosesNothing) {
  std::vector<std::string> workload = {
      "select faid, count(*) as c from trans group by faid"};
  auto rec = RecommendSummaryTables(db_.get(), workload, 0);
  ASSERT_TRUE(rec.ok());
  for (const auto& candidate : rec->candidates) {
    EXPECT_FALSE(candidate.chosen);
  }
  EXPECT_EQ(rec->workload_cost_after, rec->workload_cost_before);
}

TEST_F(AdvisorTest, NonAggregateQueriesYieldNoCandidates) {
  std::vector<std::string> workload = {
      "select faid, qty from trans where qty > 3"};
  auto rec = RecommendSummaryTables(db_.get(), workload, 100000);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->candidates.empty());
}

TEST_F(AdvisorTest, ApplyRecommendationEndToEnd) {
  std::vector<std::string> workload = {
      "select faid, year(date) as y, count(*) as c from trans "
      "group by faid, year(date)",
      "select year(date) as y, count(*) as c from trans group by year(date)",
      "select state, count(*) as c from trans, loc where flid = lid "
      "group by state",
  };
  // Direct answers, before any AST exists.
  QueryOptions direct;
  direct.enable_rewrite = false;
  std::vector<engine::Relation> before;
  for (const std::string& sql : workload) {
    auto r = db_->Query(sql, direct);
    ASSERT_TRUE(r.ok());
    before.push_back(std::move(r->relation));
  }
  auto rec = RecommendSummaryTables(db_.get(), workload, 100000);
  ASSERT_TRUE(rec.ok());
  auto names = ApplyRecommendation(db_.get(), *rec);
  ASSERT_TRUE(names.ok()) << names.status().ToString();
  ASSERT_FALSE(names->empty());
  // Workload answers are unchanged, and at least one query now rewrites.
  int rewrites = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    auto r = db_->Query(workload[i]);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(engine::SameRowMultiset(before[i], r->relation))
        << workload[i];
    rewrites += r->used_summary_table;
  }
  EXPECT_GE(rewrites, 2);
}

TEST_F(AdvisorTest, DedupesCandidatesByNormalizedText) {
  // The same block submitted with different whitespace/case must collapse to
  // ONE candidate whose coverage spans both workload entries.
  std::vector<std::string> workload = {
      "select faid, count(*) as c from trans group by faid",
      "SELECT faid,   COUNT(*) AS c   FROM trans GROUP BY faid",
  };
  auto rec = RecommendSummaryTables(db_.get(), workload, 100000);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  std::set<std::string> seen;
  for (const auto& candidate : rec->candidates) {
    EXPECT_TRUE(seen.insert(NormalizeSqlText(candidate.sql)).second)
        << "duplicate candidate: " << candidate.sql;
  }
  bool covers_both = false;
  for (const auto& candidate : rec->candidates) {
    covers_both = covers_both || candidate.covered_queries.size() == 2;
  }
  EXPECT_TRUE(covers_both);
}

TEST_F(AdvisorTest, CandidateLargerThanBudgetIsNeverChosen) {
  std::vector<std::string> workload = {
      "select faid, count(*) as c from trans group by faid"};
  // Every per-faid candidate has more groups than a budget of one row.
  auto rec = RecommendSummaryTables(db_.get(), workload, /*budget=*/1);
  ASSERT_TRUE(rec.ok());
  for (const auto& candidate : rec->candidates) {
    EXPECT_FALSE(candidate.chosen);
  }
  EXPECT_EQ(rec->total_rows_used, 0);
  EXPECT_EQ(rec->workload_cost_after, rec->workload_cost_before);
}

TEST_F(AdvisorTest, RecommendationIsDeterministic) {
  std::vector<WorkloadQuery> workload = {
      {"select faid, count(*) as c from trans group by faid", 7},
      {"select faid, year(date) as y, sum(qty) as q from trans "
       "group by faid, year(date)",
       3},
      {"select flid, count(*) as c from trans group by flid", 5},
  };
  AdvisorOptions options;
  options.budget_rows = 100000;
  auto first = RecommendForWorkload(db_.get(), workload, options);
  auto second = RecommendForWorkload(db_.get(), workload, options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->candidates.size(), second->candidates.size());
  for (size_t i = 0; i < first->candidates.size(); ++i) {
    EXPECT_EQ(first->candidates[i].sql, second->candidates[i].sql);
    EXPECT_EQ(first->candidates[i].chosen, second->candidates[i].chosen);
    EXPECT_EQ(first->candidates[i].estimated_rows,
              second->candidates[i].estimated_rows);
  }
  EXPECT_EQ(first->workload_cost_after, second->workload_cost_after);
  EXPECT_EQ(first->total_rows_used, second->total_rows_used);
}

TEST_F(AdvisorTest, MergedCandidateCoversCompatibleBlocks) {
  // Two blocks over the same table with identical (empty) predicates but
  // different grouping columns merge into one shared candidate that answers
  // both by re-aggregation (multi-query optimization).
  std::vector<std::string> workload = {
      "select faid, sum(qty) as q from trans group by faid",
      "select flid, count(*) as c from trans group by flid",
  };
  auto rec = RecommendSummaryTables(db_.get(), workload, 100000);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  bool merged_covers_both = false;
  for (const auto& candidate : rec->candidates) {
    merged_covers_both =
        merged_covers_both || (candidate.origin == "merged" &&
                               candidate.covered_queries.size() == 2);
  }
  EXPECT_TRUE(merged_covers_both);
}

TEST_F(AdvisorTest, CuboidCandidatesFromGroupingSets) {
  // A ROLLUP query contributes its lattice points: the finest single-set
  // cuboid plus each observed coarser set.
  std::vector<std::string> workload = {
      "select flid, year(date) as y, sum(qty) as q, count(*) as c "
      "from trans group by rollup(flid, year(date))"};
  auto rec = RecommendSummaryTables(db_.get(), workload, 100000);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  int cuboids = 0;
  for (const auto& candidate : rec->candidates) {
    cuboids += candidate.origin == "cuboid";
  }
  // rollup(flid, y) observes sets {flid,y}, {flid}, {}: the finest cuboid
  // plus the two coarser observed sets.
  EXPECT_GE(cuboids, 3);
  bool covered = false;
  for (const auto& candidate : rec->candidates) {
    covered = covered || !candidate.covered_queries.empty();
  }
  EXPECT_TRUE(covered);
}

TEST_F(AdvisorTest, ApplyRollsBackOnInjectedFailure) {
  std::vector<std::string> workload = {
      "select faid, count(*) as c from trans group by faid",
      "select year(date) as y, sum(qty) as q from trans group by year(date)",
  };
  auto rec = RecommendSummaryTables(db_.get(), workload, 100000);
  ASSERT_TRUE(rec.ok());
  int chosen = 0;
  for (const auto& candidate : rec->candidates) chosen += candidate.chosen;
  ASSERT_GE(chosen, 1);
  // Trip after the first successful define: the apply must undo it and
  // surface the error — never a half-applied recommendation.
  ScopedFault fault("advisor/apply", Status::Internal("injected apply fault"),
                    1);
  auto names = ApplyRecommendation(db_.get(), *rec);
  EXPECT_FALSE(names.ok());
  EXPECT_EQ(FaultInjector::Instance().Trips("advisor/apply"), 1);
  EXPECT_TRUE(db_->SummaryTableNames().empty());
}

TEST_F(AdvisorTest, ApplyUniquifiesNamesAgainstCatalog) {
  // "advisor_ast0" is already taken; the apply must skip over it instead of
  // failing the whole recommendation on a name collision.
  ASSERT_TRUE(db_->DefineSummaryTable(
                     "advisor_ast0",
                     "select lid, count(*) as c from loc group by lid")
                  .ok());
  std::vector<std::string> workload = {
      "select faid, count(*) as c from trans group by faid"};
  auto rec = RecommendSummaryTables(db_.get(), workload, 100000);
  ASSERT_TRUE(rec.ok());
  auto names = ApplyRecommendation(db_.get(), *rec);
  ASSERT_TRUE(names.ok()) << names.status().ToString();
  ASSERT_FALSE(names->empty());
  std::set<std::string> unique(names->begin(), names->end());
  EXPECT_EQ(unique.size(), names->size());
  EXPECT_EQ(unique.count("advisor_ast0"), 0u);
}

TEST_F(AdvisorTest, ProbeNameCollisionWithUserAst) {
  // A user AST squatting on the advisor's old fixed probe name
  // "advisor_candidate" must not break costing: the probe name is gensym'd
  // against the catalog.
  ASSERT_TRUE(db_->DefineSummaryTable(
                     "advisor_candidate",
                     "select lid, count(*) as c from loc group by lid")
                  .ok());
  std::vector<std::string> workload = {
      "select faid, count(*) as c from trans group by faid"};
  auto rec = RecommendSummaryTables(db_.get(), workload, 100000);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  bool covered = false;
  for (const auto& candidate : rec->candidates) {
    covered = covered || !candidate.covered_queries.empty();
  }
  EXPECT_TRUE(covered);
  EXPECT_LT(rec->workload_cost_after, rec->workload_cost_before);
}

TEST_F(AdvisorTest, WorkloadLogRecordsQueriesAndAppends) {
  const std::string q1 = "select faid, count(*) as c from trans group by faid";
  const std::string q2 =
      "select state, count(*) as c from trans, loc where flid = lid "
      "group by state";
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(db_->Query(q1).ok());
  ASSERT_TRUE(db_->Query(q2).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back(Row{Value::Int(100000 + i), Value::Int(i % 5),
                       Value::Int(i % 3), Value::Int(i % 7),
                       Value::Date(19940101 + i % 28), Value::Int(1 + i % 4),
                       Value::Double(9.5), Value::Double(0.0)});
  }
  ASSERT_TRUE(db_->Append("trans", std::move(rows)).ok());

  WorkloadSnapshot snap = db_->WorkloadLogSnapshot();
  const WorkloadQueryStats* s1 = nullptr;
  const WorkloadQueryStats* s2 = nullptr;
  for (const auto& q : snap.queries) {
    if (q.normalized_sql == NormalizeSqlText(q1)) s1 = &q;
    if (q.normalized_sql == NormalizeSqlText(q2)) s2 = &q;
  }
  ASSERT_NE(s1, nullptr);
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ(s1->executions, 3);
  EXPECT_GT(s1->base_leaf_rows, 0);
  EXPECT_EQ(s1->total_leaf_rows, 3 * s1->base_leaf_rows);
  EXPECT_EQ(s1->last_reject, "no_match");
  EXPECT_EQ(s2->executions, 1);
  ASSERT_EQ(snap.appends.count("trans"), 1u);
  EXPECT_EQ(snap.appends.at("trans").batches, 1);
  EXPECT_EQ(snap.appends.at("trans").rows, 10);
}

TEST_F(AdvisorTest, WorkloadLogRecordsRewriteOutcomes) {
  ASSERT_TRUE(db_->DefineSummaryTable(
                     "by_faid",
                     "select faid, count(*) as c, sum(qty) as s from trans "
                     "group by faid")
                  .ok());
  const std::string q = "select faid, count(*) as c from trans group by faid";
  for (int i = 0; i < 2; ++i) {
    auto r = db_->Query(q);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->used_summary_table);
  }
  WorkloadSnapshot snap = db_->WorkloadLogSnapshot();
  const WorkloadQueryStats* stats = nullptr;
  for (const auto& entry : snap.queries) {
    if (entry.normalized_sql == NormalizeSqlText(q)) stats = &entry;
  }
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->rewritten, 2);
  EXPECT_EQ(stats->last_reject, "");
  ASSERT_EQ(stats->ast_hits.count("by_faid"), 1u);
  EXPECT_EQ(stats->ast_hits.at("by_faid"), 2);
}

TEST_F(AdvisorTest, WorkloadLogSurvivesRestart) {
  std::string dir = ::testing::TempDir() + "sumtab_advisor_workload_restart";
  fs::remove_all(dir);
  DatabaseOptions options;
  options.data_dir = dir;
  const std::string q = "select faid, count(*) as c from trans group by faid";
  {
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    data::CardSchemaParams params;
    params.num_trans = 600;
    ASSERT_TRUE(data::SetupCardSchema(db->get(), params).ok());
    for (int i = 0; i < 4; ++i) ASSERT_TRUE((*db)->Query(q).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  WorkloadSnapshot snap = (*db)->WorkloadLogSnapshot();
  const WorkloadQueryStats* stats = nullptr;
  for (const auto& entry : snap.queries) {
    if (entry.normalized_sql == NormalizeSqlText(q)) stats = &entry;
  }
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->executions, 4);
  // The query counter re-seeds from the restored log, so recovered ASTs'
  // decay windows stay anchored to it rather than restarting from zero.
  EXPECT_EQ((*db)->QueriesObserved(), 4);
  fs::remove_all(dir);
}

TEST_F(AdvisorTest, WorkloadLogCachedHitRecordsCurrentLeafRows) {
  ASSERT_TRUE(db_->DefineSummaryTable(
                     "by_faid",
                     "select faid, count(*) as c, sum(qty) as s from trans "
                     "group by faid")
                  .ok());
  const std::string q = "select faid, count(*) as c from trans group by faid";
  const int64_t before = db_->TableRows("trans");
  ASSERT_TRUE(db_->Query(q).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back(Row{Value::Int(200000 + i), Value::Int(i % 5),
                       Value::Int(i % 3), Value::Int(i % 7),
                       Value::Date(19940101 + i % 28), Value::Int(1 + i % 4),
                       Value::Double(9.5), Value::Double(0.0)});
  }
  ASSERT_TRUE(db_->Append("trans", std::move(rows)).ok());
  // The eager append kept by_faid fresh, so the plan is served from the
  // cache; its cost figure is still the base-table form's current size.
  auto hit = db_->Query(q);
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit->plan_cache_hit);
  WorkloadSnapshot snap = db_->WorkloadLogSnapshot();
  const WorkloadQueryStats* stats = nullptr;
  for (const auto& entry : snap.queries) {
    if (entry.normalized_sql == NormalizeSqlText(q)) stats = &entry;
  }
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->base_leaf_rows, before + 10);
  EXPECT_EQ(stats->total_leaf_rows, 2 * before + 10);
}

TEST(WorkloadLogTest, EvictsLeastExecutedThenLastText) {
  WorkloadLog log(3);
  auto record = [&log](const std::string& text) {
    WorkloadLog::QueryObservation obs;
    obs.normalized_sql = text;
    log.RecordQuery(obs);
  };
  auto texts = [&log]() {
    std::string out;
    for (const WorkloadQueryStats& q : log.Snapshot().queries) {
      out += q.normalized_sql + "=" + std::to_string(q.executions) + " ";
    }
    return out;
  };
  record("b");
  record("a");
  record("c");
  record("a");
  EXPECT_EQ(texts(), "a=2 b=1 c=1 ");
  // b and c tie at one execution: the lexicographically last goes.
  record("d");
  EXPECT_EQ(texts(), "a=2 b=1 d=1 ");
  record("e");
  EXPECT_EQ(texts(), "a=2 b=1 e=1 ");
  // Re-executions lift b above the tie at one.
  record("b");
  record("b");
  record("f");
  EXPECT_EQ(texts(), "a=2 b=3 f=1 ");
  // f catches up with a; the tie at two evicts f, the later text.
  record("f");
  record("g");
  EXPECT_EQ(texts(), "a=2 b=3 g=1 ");
  record("g");
  record("h");
  EXPECT_EQ(texts(), "a=2 b=3 h=1 ");
  EXPECT_EQ(log.Snapshot().evicted, 5);

  // A restored log evicts in the same order.
  WorkloadLog restored(3);
  restored.Restore(log.Snapshot());
  WorkloadLog::QueryObservation obs;
  obs.normalized_sql = "0";
  restored.RecordQuery(obs);
  restored.RecordQuery(obs);
  obs.normalized_sql = "i";
  restored.RecordQuery(obs);
  std::string kept;
  for (const WorkloadQueryStats& q : restored.Snapshot().queries) {
    kept += q.normalized_sql + " ";
  }
  // h (one execution) went for "0"; then the tie at two evicted a.
  EXPECT_EQ(kept, "0 b i ");
}

TEST_F(AdvisorTest, AdviseAndApplyDropsDecayedAsts) {
  // An advisor-owned AST nobody's queries hit any more decays out; a
  // user-owned AST with the same (lack of) traffic is never touched.
  ASSERT_TRUE(db_->DefineSummaryTable(
                      "stale_advisor_ast",
                      "select faid, count(*) as c, sum(qty) as s from trans "
                      "group by faid",
                      /*advisor_owned=*/true)
                  .ok());
  ASSERT_TRUE(db_->DefineSummaryTable(
                     "stale_user_ast",
                     "select flid, count(*) as c, sum(qty) as s from trans "
                     "group by flid")
                  .ok());
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(
        db_->Query("select state, count(*) as c from loc group by state")
            .ok());
  }
  AdvisorOptions options;
  options.budget_rows = 0;  // this run only drops; nothing new is created
  auto outcome = AdviseAndApply(db_.get(), options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->dropped.size(), 1u);
  EXPECT_EQ(outcome->dropped[0], "stale_advisor_ast");
  EXPECT_TRUE(outcome->created.empty());
  std::vector<std::string> remaining = db_->SummaryTableNames();
  EXPECT_EQ(remaining, std::vector<std::string>{"stale_user_ast"});
}

TEST_F(AdvisorTest, TuneStatementClosesTheLoop) {
  std::vector<std::string> workload = {
      "select faid, count(*) as c from trans group by faid",
      "select faid, year(date) as y, count(*) as c from trans "
      "group by faid, year(date)",
      "select year(date) as y, sum(qty) as q from trans group by year(date)",
      "select flid, year(date) as y, count(*) as c from trans "
      "group by rollup(flid, year(date))",
  };
  // Appends before the replays: the log carries an append rate for the
  // maintenance-cost model, and both replays see the same data.
  for (int k = 0; k < 4; ++k) {
    std::vector<Row> rows;
    for (int i = 0; i < 500; ++i) {
      const int j = k * 500 + i;
      rows.push_back(Row{Value::Int(5000000 + j), Value::Int(j % 50),
                         Value::Int(j % 12), Value::Int(j % 40),
                         Value::Date(19940101 + j % 28), Value::Int(1 + j % 5),
                         Value::Double(10.0), Value::Double(0.0)});
    }
    ASSERT_TRUE(db_->Append("trans", std::move(rows)).ok());
  }
  std::vector<engine::Relation> before;
  for (const std::string& sql : workload) {
    for (int i = 0; i < 3; ++i) {
      auto r = db_->Query(sql);
      ASSERT_TRUE(r.ok());
      EXPECT_FALSE(r->used_summary_table);
      if (i == 0) before.push_back(std::move(r->relation));
    }
  }

  // The recommendation TUNE applies lowers the modeled workload cost.
  std::vector<WorkloadQuery> mined;
  for (const WorkloadQueryStats& q : db_->WorkloadLogSnapshot().queries) {
    mined.push_back({q.normalized_sql, q.executions});
  }
  auto rec = RecommendForWorkload(db_.get(), mined, AdvisorOptions{});
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_LT(rec->workload_cost_after, rec->workload_cost_before);

  auto tune = db_->Query("tune");
  ASSERT_TRUE(tune.ok()) << tune.status().ToString();
  ASSERT_EQ(tune->relation.column_names,
            (std::vector<std::string>{"action", "name", "rows", "detail"}));
  int creates = 0;
  for (const Row& row : tune->relation.rows) {
    creates += row[0].AsString() == "create";
  }
  EXPECT_GE(creates, 1);
  EXPECT_FALSE(db_->SummaryTableNames().empty());

  // The tuned database answers the same workload identically, faster.
  int rewrites = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    auto r = db_->Query(workload[i]);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(engine::SameRowMultiset(before[i], r->relation))
        << workload[i];
    rewrites += r->used_summary_table;
  }
  EXPECT_GE(rewrites, 2);

  // TUNE is idempotent for an unchanged workload: the second run finds every
  // chosen candidate already materialized and creates nothing.
  auto again = db_->Query("tune");
  ASSERT_TRUE(again.ok());
  for (const Row& row : again->relation.rows) {
    EXPECT_NE(row[0].AsString(), "create") << row[3].AsString();
  }
}

TEST_F(AdvisorTest, TuneWithExplicitBudgetZeroCreatesNothing) {
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        db_->Query("select faid, count(*) as c from trans group by faid")
            .ok());
  }
  auto tune = db_->Query("tune budget 0");
  ASSERT_TRUE(tune.ok()) << tune.status().ToString();
  EXPECT_TRUE(db_->SummaryTableNames().empty());
}

}  // namespace
}  // namespace sumtab
