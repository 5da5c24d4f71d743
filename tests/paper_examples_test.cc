// End-to-end reproduction of every paper artifact in bench/paper_cases.h,
// one test per case (PaperExamplesTest.<case id>): each query must (a) get
// the paper's verdict, rewritten through an AST or not, (b) answer exactly
// like direct execution, (c) at one lane and at four, and (d) again from the
// plan cache, also for its template with other literals; (e) its rewritten
// SQL must have the case's NewQ shape, and (f) where the case gives the
// exact answer, the query must return it.
#include <gtest/gtest.h>

#include "bench/paper_cases.h"
#include "tests/reference.h"
#include "tests/test_util.h"

namespace sumtab {
namespace {

using paper_cases::PaperCase;
using paper_cases::Schema;

// Fact rows per schema: small enough for tier-1, large enough to keep each
// case's plan shapes (the bench runs the same cases at scale).
constexpr int64_t kCardTrans = 5000;
constexpr int64_t kTpcdLineitems = 20000;

/// testing::ExpectRewriteEquivalent, then the figure's second and third
/// runs at max_threads 1 and 4: both are plan-cache hits, and both answer
/// like direct execution. Last, the figure with its integer literals shifted
/// by one answers like direct execution, and a plan-cache hit for it shows
/// the fresh plan's rewritten SQL.
std::string ExpectFigureRewrite(Database* db, const std::string& sql,
                                bool expect_rewrite) {
  std::string rewritten =
      testing::ExpectRewriteEquivalent(db, sql, expect_rewrite);
  QueryOptions no_rewrite;
  no_rewrite.enable_rewrite = false;
  StatusOr<QueryResult> direct = db->Query(sql, no_rewrite);
  EXPECT_TRUE(direct.ok()) << direct.status().ToString() << "\n" << sql;
  if (!direct.ok()) return rewritten;
  for (int threads : {1, 4}) {
    QueryOptions options;
    options.max_threads = threads;
    StatusOr<QueryResult> again = db->Query(sql, options);
    EXPECT_TRUE(again.ok()) << again.status().ToString() << "\n" << sql;
    if (!again.ok()) continue;
    EXPECT_TRUE(again->plan_cache_hit) << "threads=" << threads << "\n" << sql;
    EXPECT_EQ(again->used_summary_table, expect_rewrite) << sql;
    EXPECT_TRUE(engine::SameRowMultiset(direct->relation, again->relation))
        << "threads=" << threads << "\n" << sql;
  }
  // The figure's template with other integer literals: a plan-cache hit is
  // bound to them, and says and answers what a fresh plan would.
  const std::string variant = testing::ShiftIntLiterals(sql, 1);
  if (variant == sql) return rewritten;
  QueryOptions no_cache;
  no_cache.enable_plan_cache = false;
  StatusOr<QueryResult> fresh = db->Query(variant, no_cache);
  StatusOr<QueryResult> bound = db->Query(variant);
  StatusOr<QueryResult> variant_direct = db->Query(variant, no_rewrite);
  EXPECT_TRUE(fresh.ok() && bound.ok() && variant_direct.ok()) << variant;
  if (!fresh.ok() || !bound.ok() || !variant_direct.ok()) return rewritten;
  if (bound->plan_cache_hit) {
    EXPECT_EQ(bound->rewritten_sql, fresh->rewritten_sql) << variant;
    EXPECT_EQ(bound->used_summary_table, fresh->used_summary_table)
        << variant;
    EXPECT_EQ(bound->compensated, fresh->compensated) << variant;
  }
  EXPECT_TRUE(engine::SameRowMultiset(variant_direct->relation,
                                      bound->relation))
      << variant << "\nrewritten: " << bound->rewritten_sql;
  return rewritten;
}

class PaperExamplesTest : public ::testing::Test {
 public:
  explicit PaperExamplesTest(const PaperCase* paper_case)
      : case_(*paper_case) {}

  void TestBody() override {
    Database db;
    const int64_t fact_rows =
        case_.schema == Schema::kTpcd ? kTpcdLineitems : kCardTrans;
    Status setup = paper_cases::SetupSchema(&db, case_.schema, fact_rows);
    ASSERT_TRUE(setup.ok()) << setup.ToString();
    for (const paper_cases::Ast& ast : case_.asts) {
      StatusOr<int64_t> rows = db.DefineSummaryTable(ast.name, ast.sql);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString() << "\n" << ast.sql;
    }
    for (const paper_cases::Query& query : case_.queries) {
      SCOPED_TRACE(query.label);
      const std::string rewritten =
          ExpectFigureRewrite(&db, query.sql, query.rewrites);
      for (const std::string& part : query.newq_has) {
        EXPECT_NE(rewritten.find(part), std::string::npos)
            << "NewQ lacks '" << part << "': " << rewritten;
      }
      for (const std::string& part : query.newq_lacks) {
        EXPECT_EQ(rewritten.find(part), std::string::npos)
            << "NewQ holds '" << part << "': " << rewritten;
      }
      if (query.rows.has_value() || query.some_rows) {
        StatusOr<QueryResult> got = db.Query(query.sql);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        if (query.rows.has_value()) {
          EXPECT_TRUE(reference::SameRowsExactly(got->relation.rows,
                                                 *query.rows))
              << got->relation.ToString();
        }
        EXPECT_TRUE(!query.some_rows || got->relation.NumRows() > 0)
            << "no rows: " << query.sql;
      }
    }
  }

 private:
  const PaperCase& case_;
};

// Registered at static initialization, before gtest_main lists the tests.
const std::vector<PaperCase> kCases = paper_cases::Cases(kTpcdLineitems);
const bool kRegistered = [] {
  for (const PaperCase& paper_case : kCases) {
    ::testing::RegisterTest(
        "PaperExamplesTest", paper_case.id, nullptr, nullptr, __FILE__,
        __LINE__, [&paper_case]() -> ::testing::Test* {
          return new PaperExamplesTest(&paper_case);
        });
  }
  return true;
}();

}  // namespace
}  // namespace sumtab
