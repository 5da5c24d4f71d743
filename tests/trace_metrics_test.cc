// Observability layer tests: the metrics registry (counters, histograms,
// Database::Stats), opt-in query traces (phase timings, match attempts,
// plan-cache fate, rows counted from parallel executor lanes), and
// EXPLAIN REWRITE — including one test per match-pattern reject that breaks
// the pattern on purpose and asserts the structured reason token appears
// verbatim in the rendered trace.
//
// Suite names deliberately contain Trace/Metrics/Explain so the TSan CI job
// (-R ".*Trace|Metrics|Explain.*") picks them up: traces are written from
// morsel-parallel lanes and must be race-free.
#include <algorithm>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/reject_reason.h"
#include "common/trace.h"
#include "qgm/qgm_builder.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace sumtab {
namespace {

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterIncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42);
  c.Reset();
  EXPECT_EQ(c.Value(), 0);
}

TEST(MetricsTest, HistogramQuantilesBracketTheSamples) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Record(100);
  Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 1000);
  EXPECT_EQ(s.sum_micros, 100 * 1000);
  EXPECT_EQ(s.max_micros, 100);
  // Power-of-two buckets: every quantile reports the upper bound of the
  // [64, 128) bucket that holds all samples.
  EXPECT_EQ(s.p50_micros, 127);
  EXPECT_EQ(s.p95_micros, 127);
  EXPECT_EQ(s.p99_micros, 127);
}

TEST(MetricsTest, HistogramSeparatesFastAndSlowSamples) {
  Histogram h;
  for (int i = 0; i < 95; ++i) h.Record(10);
  for (int i = 0; i < 5; ++i) h.Record(100000);
  Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 100);
  EXPECT_EQ(s.max_micros, 100000);
  EXPECT_LT(s.p50_micros, 100);
  EXPECT_GE(s.p99_micros, 100000);
}

TEST(MetricsTest, RegistryPointersAreStable) {
  MetricsRegistry reg;
  Counter* a = reg.counter("x");
  Counter* b = reg.counter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.counter("y"), a);
  Histogram* ha = reg.histogram("h");
  EXPECT_EQ(ha, reg.histogram("h"));
}

TEST(MetricsTest, ConcurrentRecordingIsExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      Counter* c = reg.counter("shared");
      Histogram* h = reg.histogram("lat");
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Record(i % 128);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MetricsRegistry::Snapshot snap = reg.Snap();
  EXPECT_EQ(snap.counters["shared"], kThreads * kPerThread);
  EXPECT_EQ(snap.histograms["lat"].count, kThreads * kPerThread);
}

TEST(MetricsTest, QueryCountersFlowIntoDatabaseStats) {
  std::unique_ptr<Database> db = testing::MakeCardDb(500);
  int64_t before = MetricsRegistry::Global()
                       .Snap()
                       .counters["query.total"];  // global: other tests count
  ASSERT_TRUE(
      db->Query("select faid, count(*) as c from trans group by faid").ok());
  ASSERT_TRUE(db->Query("select count(*) as c from acct").ok());
  DatabaseStats stats = db->Stats();
  EXPECT_GE(stats.metrics.counters["query.total"], before + 2);
  EXPECT_GE(stats.metrics.histograms["query.latency"].count, before + 2);
  EXPECT_GT(stats.metrics.histograms["phase.execute"].count, 0);
}

// ---------------------------------------------------------------------------
// Query traces
// ---------------------------------------------------------------------------

class QueryTraceTest : public ::testing::Test {
 protected:
  void SetUp() override { db_ = testing::MakeCardDb(2000); }

  QueryResult MustQuery(const std::string& sql, QueryOptions opts = {}) {
    StatusOr<QueryResult> result = db_->Query(sql, opts);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  std::unique_ptr<Database> db_;
};

TEST_F(QueryTraceTest, OffByDefault) {
  QueryResult r = MustQuery("select count(*) as c from trans");
  EXPECT_EQ(r.trace, nullptr);
}

TEST_F(QueryTraceTest, PhasesAndRowsAreRecorded) {
  QueryOptions opts;
  opts.collect_trace = true;
  QueryResult r = MustQuery(
      "select faid, count(*) as c from trans group by faid", opts);
  ASSERT_NE(r.trace, nullptr);
  EXPECT_GT(r.trace->PhaseMicros(QueryTrace::kPhaseExecute), 0);
  EXPECT_GE(r.trace->RowsProcessed(), 2000);  // at least the base scan
  EXPECT_EQ(r.trace->plan_cache_outcome(), PlanCacheOutcome::kMiss);
  std::string text = r.trace->ToString();
  EXPECT_NE(text.find("plan cache: miss"), std::string::npos) << text;
  EXPECT_NE(text.find("phases: parse="), std::string::npos) << text;
  EXPECT_NE(text.find("rows processed: "), std::string::npos) << text;
}

TEST_F(QueryTraceTest, RecordsChosenAstAndMatchAttempts) {
  ASSERT_TRUE(db_->DefineSummaryTable(
                    "ast1",
                    "select faid, flid, count(*) as cnt, sum(qty) as sq "
                    "from trans group by faid, flid")
                  .ok());
  QueryOptions opts;
  opts.collect_trace = true;
  QueryResult r = MustQuery(
      "select faid, count(*) as c from trans group by faid", opts);
  ASSERT_NE(r.trace, nullptr);
  ASSERT_TRUE(r.used_summary_table);
  std::vector<AstAttemptTrace> attempts = r.trace->AstAttempts();
  ASSERT_FALSE(attempts.empty());
  bool chosen = false;
  for (const AstAttemptTrace& a : attempts) {
    if (a.ast_name == "ast1" && a.chosen) {
      chosen = true;
      EXPECT_TRUE(a.produced);
      EXPECT_GT(a.num_matches, 0);
      EXPECT_LT(a.cost_after, a.cost_before);
      EXPECT_FALSE(a.match_attempts.empty());
    }
  }
  EXPECT_TRUE(chosen);
  std::string text = r.trace->ToString();
  EXPECT_NE(text.find("rewrite: using summary table 'ast1'"),
            std::string::npos)
      << text;
}

TEST_F(QueryTraceTest, PlanCacheHitIsTraced) {
  MustQuery("select flid, count(*) as c from trans group by flid");
  QueryOptions opts;
  opts.collect_trace = true;
  QueryResult warm = MustQuery(
      "select flid, count(*) as c from trans group by flid", opts);
  ASSERT_NE(warm.trace, nullptr);
  EXPECT_TRUE(warm.plan_cache_hit);
  EXPECT_EQ(warm.trace->plan_cache_outcome(), PlanCacheOutcome::kHit);
}

TEST_F(QueryTraceTest, ParallelLanesCountRowsRaceFree) {
  // The interesting part runs under TSan in CI: executor lanes write the
  // trace's row counter concurrently while phases/notes are written from
  // the coordinating thread.
  QueryOptions opts;
  opts.collect_trace = true;
  opts.max_threads = 4;
  QueryResult parallel = MustQuery(
      "select faid, flid, count(*) as c, sum(qty) as s from trans "
      "group by faid, flid",
      opts);
  ASSERT_NE(parallel.trace, nullptr);
  EXPECT_GE(parallel.trace->RowsProcessed(), 2000);

  opts.max_threads = 1;
  opts.enable_plan_cache = false;
  QueryResult serial = MustQuery(
      "select faid, flid, count(*) as c, sum(qty) as s from trans "
      "group by faid, flid",
      opts);
  ASSERT_NE(serial.trace, nullptr);
  // Same plan => same number of materialized rows, regardless of lanes.
  EXPECT_EQ(parallel.trace->RowsProcessed(), serial.trace->RowsProcessed());
}

TEST_F(QueryTraceTest, TraceOverheadIsConfinedToTracedQueries) {
  // Not a timing test (those flake); asserts the untraced path leaves no
  // trace object behind while the traced path fills every phase we expect.
  QueryOptions traced;
  traced.collect_trace = true;
  traced.enable_plan_cache = false;
  QueryResult r = MustQuery(
      "select faid, count(*) as c from trans group by faid", traced);
  ASSERT_NE(r.trace, nullptr);
  EXPECT_GT(r.trace->PhaseMicros(QueryTrace::kPhaseParse) +
                r.trace->PhaseMicros(QueryTrace::kPhaseQgmBuild) +
                r.trace->PhaseMicros(QueryTrace::kPhaseRewrite) +
                r.trace->PhaseMicros(QueryTrace::kPhaseExecute),
            0);
  QueryOptions untraced;
  untraced.enable_plan_cache = false;
  EXPECT_EQ(MustQuery("select faid, count(*) as c from trans group by faid",
                      untraced)
                .trace,
            nullptr);
}

// ---------------------------------------------------------------------------
// EXPLAIN REWRITE
// ---------------------------------------------------------------------------

TEST(ExplainRewriteParseTest, PrefixDetection) {
  std::string inner;
  EXPECT_TRUE(sql::IsExplainRewrite("explain rewrite select 1", &inner));
  EXPECT_EQ(inner, "select 1");
  EXPECT_TRUE(sql::IsExplainRewrite("  EXPLAIN\n REWRITE  select a from t",
                                    &inner));
  EXPECT_EQ(inner, "select a from t");
  EXPECT_FALSE(sql::IsExplainRewrite("explain select 1", &inner));
  EXPECT_FALSE(sql::IsExplainRewrite("select explain from t", &inner));
  EXPECT_FALSE(sql::IsExplainRewrite("explain rewrite", &inner));
  EXPECT_FALSE(sql::IsExplainRewrite("", &inner));
}

class ExplainRewriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing::MakeCardDb(1000);
    ASSERT_TRUE(db_->DefineSummaryTable(
                      "ast1",
                      "select faid, flid, count(*) as cnt, sum(qty) as sq "
                      "from trans group by faid, flid")
                    .ok());
  }

  std::string Explain(const std::string& sql, QueryOptions opts = {}) {
    StatusOr<std::string> text = db_->ExplainRewrite(sql, opts);
    EXPECT_TRUE(text.ok()) << text.status().ToString() << "\n" << sql;
    return text.ok() ? *text : "";
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ExplainRewriteTest, ReportsChosenAstAndMaintenanceVerdict) {
  std::string text =
      Explain("select faid, count(*) as c from trans group by faid");
  EXPECT_NE(text.find("== EXPLAIN REWRITE =="), std::string::npos) << text;
  EXPECT_NE(text.find("candidates: 1"), std::string::npos) << text;
  EXPECT_NE(text.find("rewrite: using summary table 'ast1'"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rewritten sql: "), std::string::npos) << text;
  EXPECT_NE(text.find("maintenance: trans=incremental"), std::string::npos)
      << text;
  EXPECT_NE(text.find("matched"), std::string::npos) << text;
}

TEST_F(ExplainRewriteTest, StatementFormRoutesThroughQuery) {
  StatusOr<QueryResult> r = db_->Query(
      "EXPLAIN REWRITE select faid, count(*) as c from trans group by faid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->relation.column_names,
            std::vector<std::string>{"explain rewrite"});
  ASSERT_GT(r->relation.rows.size(), 3u);
  std::string all;
  for (const Row& row : r->relation.rows) all += row[0].AsString() + "\n";
  EXPECT_NE(all.find("rewrite: using summary table 'ast1'"),
            std::string::npos)
      << all;
}

TEST_F(ExplainRewriteTest, ReportsPlanCacheFate) {
  const char* sql = "select faid, count(*) as c from trans group by faid";
  // Nothing cached yet: the report-only lookup misses (and does not insert).
  EXPECT_NE(Explain(sql).find("plan cache: miss"), std::string::npos);
  EXPECT_NE(Explain(sql).find("plan cache: miss"), std::string::npos);
  // A real query populates the cache; EXPLAIN then reports a hit, and so
  // it does for other literals of the same template.
  ASSERT_TRUE(db_->Query(sql).ok());
  EXPECT_NE(Explain(sql).find("plan cache: hit (template)"),
            std::string::npos);
  const char* drill =
      "select faid, count(*) as c from trans where flid = 3 group by faid";
  ASSERT_TRUE(db_->Query(drill).ok());
  std::string bound =
      Explain("select faid, count(*) as c from trans where flid = 9 "
              "group by faid");
  EXPECT_NE(bound.find("plan cache: hit (template)"), std::string::npos)
      << bound;
  EXPECT_NE(bound.find("plan template: select faid, count(*) as c from "
                       "trans where flid = ?0 group by faid"),
            std::string::npos)
      << bound;
  // A plan whose search compared a literal with the AST's own serves only
  // that literal: another one reports which decision read it — the §4.1
  // subsumption that satisfied `faid < 20`, not the exact-match attempt
  // that failed before it.
  ASSERT_TRUE(db_->DefineSummaryTable(
                     "ast_low",
                     "select faid, count(*) as cnt from trans where faid < 20 "
                     "group by faid")
                  .ok());
  ASSERT_TRUE(
      db_->Query("select faid, count(*) as c from trans where faid < 10 "
                 "group by faid")
          .ok());
  std::string sensitive =
      Explain("select faid, count(*) as c from trans where faid < 30 "
              "group by faid");
  EXPECT_NE(
      sensitive.find("plan cache: literal-sensitive (predicate subsumption)"),
      std::string::npos)
      << sensitive;
  EXPECT_EQ(db_->Stats().plan_cache_literal_sensitive, 1);
  // A BulkLoad leaves ast1 stale beyond compensation: that invalidates,
  // and the cause names the table.
  std::vector<Row> rows;
  rows.push_back(Row{Value::Int(999999), Value::Int(1), Value::Int(1),
                     Value::Int(1), Value::Date(19940101), Value::Int(1),
                     Value::Double(1.0), Value::Double(0.0)});
  ASSERT_TRUE(db_->BulkLoad("trans", std::move(rows)).ok());
  std::string text = Explain(sql);
  EXPECT_NE(text.find("plan cache: invalidated (cause: epoch:trans)"),
            std::string::npos)
      << text;
}

TEST_F(ExplainRewriteTest, ReportsDisabledRewriting) {
  QueryOptions opts;
  opts.enable_rewrite = false;
  std::string text =
      Explain("select faid, count(*) as c from trans group by faid", opts);
  EXPECT_NE(text.find("rewrite: none (original plan)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("note: rewriting disabled by options"),
            std::string::npos)
      << text;
}

TEST_F(ExplainRewriteTest, ReportsSkippedStaleAst) {
  std::vector<Row> rows;
  rows.push_back(Row{Value::Int(888888), Value::Int(1), Value::Int(1),
                     Value::Int(1), Value::Date(19940101), Value::Int(1),
                     Value::Double(1.0), Value::Double(0.0)});
  ASSERT_TRUE(db_->BulkLoad("trans", std::move(rows)).ok());  // ast1 stale
  std::string text =
      Explain("select faid, count(*) as c from trans group by faid");
  // A BulkLoad-stale AST is not skipped silently anymore: the rewriter
  // attempts delta compensation and reports why it refused (a BulkLoad
  // never retains delta slices, so coverage is missing).
  EXPECT_NE(text.find("ast 'ast1'"), std::string::npos) << text;
  EXPECT_NE(text.find("comp_delta_unavailable"), std::string::npos) << text;
  EXPECT_NE(text.find("rewrite: none (original plan)"), std::string::npos)
      << text;
}

TEST_F(ExplainRewriteTest, ReportsOneCompensationVerdictPerBlock) {
  // Fig. 11's shape: a scalar subquery reads trans a second time, so the
  // query has two aggregate blocks. After a deferred append each block is
  // compensated on its own, and EXPLAIN REWRITE names both verdicts.
  std::vector<Row> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back(Row{Value::Int(7000000 + i), Value::Int(i % 50),
                       Value::Int(i % 12), Value::Int(i % 40),
                       Value::Date(19940101 + i), Value::Int(1 + i % 5),
                       Value::Double(10.0), Value::Double(0.0)});
  }
  Database::AppendOptions deferred;
  deferred.maintain = false;
  ASSERT_TRUE(db_->Append("trans", std::move(rows), deferred).ok());
  const std::string sql =
      "select flid, count(*) as cnt, count(*) / (select count(*) from trans) "
      "as cntpct from trans group by flid";
  std::string text = Explain(sql);
  const std::string verdict = "=compensated(20 delta rows, 1 epochs)";
  const size_t first = text.find(verdict);
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_NE(text.find(verdict, first + verdict.size()), std::string::npos)
      << text;
  EXPECT_NE(text.find("rewrite: using summary table 'ast1'"),
            std::string::npos)
      << text;

  // The attempt's match lines number the query's boxes, as the verdicts
  // do: each names a block that owns a verdict or a box under one, of the
  // kind its pattern matches, and every block is named by some line.
  StatusOr<std::shared_ptr<sql::SelectStmt>> stmt = sql::Parse(sql);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  StatusOr<qgm::Graph> graph = qgm::BuildGraph(**stmt, db_->catalog());
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  std::vector<int> blocks;
  const std::regex verdict_re("q(\\d+)=compensated");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), verdict_re);
       it != std::sregex_iterator(); ++it) {
    blocks.push_back(std::stoi((*it)[1]));
  }
  EXPECT_EQ(blocks.size(), 2u) << text;
  std::set<int> covered;  // the verdict blocks and every box under them
  std::vector<int> pending = blocks;
  while (!pending.empty()) {
    const int box = pending.back();
    pending.pop_back();
    if (!covered.insert(box).second) continue;
    for (const qgm::Quantifier& q : graph->box(box)->quantifiers) {
      pending.push_back(q.child);
    }
  }
  std::set<int> named;
  const std::regex match_re("match q(\\d+) vs a\\d+ \\[([a-z/]+)\\]");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), match_re);
       it != std::sregex_iterator(); ++it) {
    const int box = std::stoi((*it)[1]);
    const std::string pattern = (*it)[2];
    named.insert(box);
    ASSERT_TRUE(covered.count(box) > 0)
        << (*it)[0] << " names no box of a compensated block\n"
        << text;
    const qgm::Box* query_box = graph->box(box);
    if (pattern == "seed") {
      EXPECT_EQ(query_box->kind, qgm::Box::Kind::kBase) << (*it)[0];
    } else if (pattern == "groupby/groupby") {
      EXPECT_TRUE(query_box->IsGroupBy()) << (*it)[0];
    } else if (pattern == "select/select") {
      // The bare projection over a block prints as the block.
      const bool is_block =
          std::find(blocks.begin(), blocks.end(), box) != blocks.end();
      EXPECT_TRUE(query_box->kind == qgm::Box::Kind::kSelect || is_block)
          << (*it)[0];
    }
  }
  for (int block : blocks) {
    EXPECT_TRUE(named.count(block) > 0)
        << "no match line names block q" << block << "\n"
        << text;
  }

  // The answer sums the delta rows over the blocks and matches the
  // base tables.
  StatusOr<QueryResult> got = db_->Query(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->compensated);
  EXPECT_EQ(got->compensation_delta_rows, 40);
  EXPECT_EQ(got->compensation_epochs, 1);
  QueryOptions no_rewrite;
  no_rewrite.enable_rewrite = false;
  StatusOr<QueryResult> base = db_->Query(sql, no_rewrite);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_TRUE(engine::SameRowMultiset(base->relation, got->relation));
}

// ---------------------------------------------------------------------------
// Structured reject reasons, surfaced verbatim through EXPLAIN REWRITE.
// Each test breaks one match pattern on purpose and asserts its token.
// ---------------------------------------------------------------------------

class ExplainRejectTest : public ::testing::Test {
 protected:
  void SetUp() override { db_ = testing::MakeCardDb(1000); }

  void Define(const std::string& name, const std::string& sql) {
    StatusOr<int64_t> rows = db_->DefineSummaryTable(name, sql);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString() << "\n" << sql;
  }

  /// EXPLAIN REWRITE output for `sql`, asserting no rewrite happened.
  std::string ExplainRejected(const std::string& sql) {
    StatusOr<std::string> text = db_->ExplainRewrite(sql);
    EXPECT_TRUE(text.ok()) << text.status().ToString() << "\n" << sql;
    if (!text.ok()) return "";
    EXPECT_NE(text->find("rewrite: none (original plan)"), std::string::npos)
        << *text;
    return *text;
  }

  void ExpectToken(const std::string& text, RejectReason reason) {
    std::string needle = std::string("reason=") + RejectReasonToken(reason);
    EXPECT_NE(text.find(needle), std::string::npos)
        << "expected " << needle << " in:\n"
        << text;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ExplainRejectTest, SelectSelectColumnNotPreserved) {
  // The AST's lower SELECT aggregates date away; the query's month(date)
  // grouping needs it, so the select/select child match rejects.
  Define("ast_g", "select faid, count(*) as cnt from trans group by faid");
  std::string text = ExplainRejected(
      "select month(date) as m, count(*) as c from trans group by "
      "month(date)");
  ExpectToken(text, RejectReason::kColumnNotPreserved);
}

TEST_F(ExplainRejectTest, AggregateNotDerivable) {
  // The children match (both need faid, qty) but the AST only kept
  // SUM(qty): MIN cannot be rebuilt from sum partials, so the
  // groupby/groupby pattern rejects on aggregate derivation.
  Define("ast_a", "select faid, sum(qty) as sq from trans group by faid");
  std::string text = ExplainRejected(
      "select faid, min(qty) as m from trans group by faid");
  ExpectToken(text, RejectReason::kAggregateNotDerivable);
}

TEST_F(ExplainRejectTest, SubsumerPredicateUnmatched) {
  // The AST filters rows the query needs (qty > 3): its predicate has no
  // counterpart on the query side, so the select/select match rejects.
  Define("ast_f",
         "select faid, count(*) as cnt from trans where qty > 3 "
         "group by faid");
  std::string text = ExplainRejected(
      "select faid, count(*) as c from trans group by faid");
  ExpectToken(text, RejectReason::kSubsumerPredUnmatched);
}

TEST_F(ExplainRejectTest, BaseTableMismatch) {
  // AST over a different base table: the seed pairing rejects, and the
  // traced navigator records the attempt EXPLAIN-side.
  Define("ast_b", "select status, count(*) as cnt from acct group by status");
  std::string text = ExplainRejected(
      "select faid, count(*) as c from trans group by faid");
  ExpectToken(text, RejectReason::kBaseTableMismatch);
}

TEST_F(ExplainRejectTest, CuboidNotCovered) {
  // The AST has only the two 1-D cuboids; the query's CUBE also needs the
  // finest (faid, flid) cuboid, which cannot be rebuilt from either.
  Define("ast_c",
         "select faid, flid, count(*) as cnt from trans "
         "group by grouping sets ((faid), (flid))");
  std::string text = ExplainRejected(
      "select faid, flid, count(*) as c from trans "
      "group by cube(faid, flid)");
  ExpectToken(text, RejectReason::kCuboidNotCovered);
}

TEST_F(ExplainRejectTest, MaintenanceVerdictSurfacesRejectToken) {
  // HAVING blocks incremental maintenance; the verdict names the reason.
  Define("ast_h",
         "select faid, count(*) as cnt from trans group by faid "
         "having count(*) > 0");
  StatusOr<std::string> explained = db_->ExplainRewrite(
      "select faid, count(*) as c from trans group by faid");
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  std::string text = *explained;
  EXPECT_NE(text.find("maintenance: trans=maint_having_predicate"),
            std::string::npos)
      << text;
}

TEST_F(ExplainRejectTest, MaintenanceVerdictReportsCatchUpOrTheLagReject) {
  // For a stale AST the verdict says what the next eager append would do:
  // merge the retained slices the AST lags by, or recompute for the lag
  // check's reason.
  Define("ast_d", "select faid, count(*) as cnt from trans group by faid");
  auto rows = [](int start_tid, int n) {
    std::vector<Row> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(Row{Value::Int(start_tid + i), Value::Int(i % 50),
                        Value::Int(i % 12), Value::Int(i % 40),
                        Value::Date(19940101 + (i % 28)),
                        Value::Int(1 + i % 5), Value::Double(10.0),
                        Value::Double(0.0)});
    }
    return out;
  };
  Database::AppendOptions deferred;
  deferred.maintain = false;
  ASSERT_TRUE(db_->Append("trans", rows(9000000, 20), deferred).ok());
  ASSERT_TRUE(db_->Append("trans", rows(9000100, 20), deferred).ok());
  const std::string sql =
      "select faid, count(*) as c from trans group by faid";
  StatusOr<std::string> explained = db_->ExplainRewrite(sql);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_NE(explained->find("maintenance: trans=catch_up(2 epochs)"),
            std::string::npos)
      << *explained;

  // A BulkLoad's epoch has no retained slice: the lag is not covered.
  ASSERT_TRUE(db_->BulkLoad("trans", rows(9000200, 20)).ok());
  explained = db_->ExplainRewrite(sql);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_NE(explained->find("maintenance: trans=comp_delta_unavailable"),
            std::string::npos)
      << *explained;
}

TEST_F(ExplainRejectTest, EveryMatchRejectTokenRoundTrips) {
  // The token vocabulary is an API: every enum value must render to a
  // stable snake_case token and parse back through a stamped Status.
  for (int v = 1; v <= 115; ++v) {
    RejectReason reason = static_cast<RejectReason>(v);
    std::string token = RejectReasonToken(reason);
    if (token == "unknown") continue;  // gaps in the numbering
    Status st = RejectMatch(reason, "detail");
    EXPECT_EQ(RejectReasonFromStatus(st), reason) << token;
    EXPECT_NE(st.ToString().find("[" + token + "]"), std::string::npos);
  }
}

}  // namespace
}  // namespace sumtab
