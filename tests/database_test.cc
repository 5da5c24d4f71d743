// Facade tests: schema management, loading, summary-table lifecycle, query
// options, EXPLAIN, and the multi-AST cost-based routing.
#include <filesystem>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace sumtab {
namespace {

using catalog::Column;

TEST(DatabaseTest, CreateTableValidation) {
  Database db;
  EXPECT_TRUE(db.CreateTable("t", {Column{"a", Type::kInt, false}}, {"a"}).ok());
  // Duplicate table.
  EXPECT_FALSE(db.CreateTable("T", {Column{"a", Type::kInt, false}}).ok());
  // Bad primary key.
  EXPECT_FALSE(
      db.CreateTable("u", {Column{"a", Type::kInt, false}}, {"nope"}).ok());
}

TEST(DatabaseTest, ForeignKeyValidation) {
  Database db;
  ASSERT_TRUE(db.CreateTable("p", {Column{"id", Type::kInt, false}}, {"id"}).ok());
  ASSERT_TRUE(db.CreateTable("c", {Column{"pid", Type::kInt, false},
                                   Column{"x", Type::kInt, false}}).ok());
  EXPECT_TRUE(db.AddForeignKey("c", "pid", "p", "id").ok());
  EXPECT_FALSE(db.AddForeignKey("c", "nosuch", "p", "id").ok());
  EXPECT_FALSE(db.AddForeignKey("c", "pid", "p", "x").ok());    // not PK
  EXPECT_FALSE(db.AddForeignKey("c", "pid", "ghost", "id").ok());
}

TEST(DatabaseTest, BulkLoadArityChecked) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", {Column{"a", Type::kInt, false},
                                   Column{"b", Type::kInt, false}}).ok());
  EXPECT_FALSE(db.BulkLoad("t", {{Value::Int(1)}}).ok());
  EXPECT_TRUE(db.BulkLoad("t", {{Value::Int(1), Value::Int(2)}}).ok());
  EXPECT_EQ(db.TableRows("t"), 1);
  // Incremental loads append.
  EXPECT_TRUE(db.BulkLoad("t", {{Value::Int(3), Value::Int(4)}}).ok());
  EXPECT_EQ(db.TableRows("t"), 2);
  EXPECT_FALSE(db.BulkLoad("ghost", {}).ok());
}

TEST(DatabaseTest, BulkLoadIntoSummaryTableIsRejected) {
  // A summary table's rows are derived from its base tables: a row loaded
  // into one would surface in every answer rewritten through it, so the
  // load must be refused before it reaches the WAL.
  std::string dir = ::testing::TempDir() + "sumtab_bulkload_into_ast";
  std::filesystem::remove_all(dir);
  DatabaseOptions options;
  options.data_dir = dir;
  StatusOr<std::unique_ptr<Database>> db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->CreateTable("t", {Column{"a", Type::kInt, false},
                                       Column{"b", Type::kInt, false}})
                  .ok());
  std::vector<Row> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back({Value::Int(i % 2), Value::Int(i)});
  }
  ASSERT_TRUE((*db)->BulkLoad("t", rows).ok());
  ASSERT_TRUE((*db)
                  ->DefineSummaryTable(
                      "ast", "select a, sum(b) as s from t group by a")
                  .ok());
  const int64_t wal_records = (*db)->Stats().durability.wal_records;

  Status loaded = (*db)->BulkLoad("ast", {{Value::Int(1), Value::Int(999)}});
  EXPECT_EQ(loaded.code(), Status::Code::kInvalidArgument)
      << loaded.ToString();
  // Rejected before the WAL saw it: nothing to replay on restart either.
  EXPECT_EQ((*db)->Stats().durability.wal_records, wal_records);
  EXPECT_EQ((*db)->TableRows("ast"), 2);

  const std::string sql = "select a, sum(b) from t group by a";
  engine::Relation want;
  want.rows = {{Value::Int(0), Value::Int(90)},
               {Value::Int(1), Value::Int(100)}};
  StatusOr<QueryResult> got = (*db)->Query(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->used_summary_table);
  EXPECT_TRUE(engine::SameRowMultiset(got->relation, want))
      << got->relation.ToString();

  db->reset();
  StatusOr<std::unique_ptr<Database>> reopened = Database::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  got = (*reopened)->Query(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(engine::SameRowMultiset(got->relation, want))
      << got->relation.ToString();
  reopened->reset();
  std::filesystem::remove_all(dir);
}

TEST(DatabaseTest, SummaryTableLifecycle) {
  auto db = testing::MakeCardDb(500);
  auto rows = db->DefineSummaryTable(
      "s1", "select faid, count(*) as c from trans group by faid");
  ASSERT_TRUE(rows.ok());
  EXPECT_GT(*rows, 0);
  // The materialized table is queryable like any table.
  QueryOptions opts;
  opts.enable_rewrite = false;
  auto direct = db->Query("select faid, c from s1", opts);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(static_cast<int64_t>(direct->relation.NumRows()), *rows);
  // Name collision with an existing table is rejected.
  EXPECT_FALSE(db->DefineSummaryTable("trans", "select faid from trans").ok());
  EXPECT_FALSE(db->DefineSummaryTable("s1", "select faid from trans").ok());
  // Bad SQL is rejected.
  EXPECT_FALSE(db->DefineSummaryTable("s2", "selec oops").ok());
  EXPECT_EQ(db->SummaryTableNames().size(), 1u);
  // Drop removes it from routing.
  EXPECT_TRUE(db->DropSummaryTable("s1").ok());
  EXPECT_FALSE(db->DropSummaryTable("s1").ok());
  auto result =
      db->Query("select faid, count(*) as c from trans group by faid");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->used_summary_table);
}

TEST(DatabaseTest, RewriteTogglePerQuery) {
  auto db = testing::MakeCardDb(500);
  ASSERT_TRUE(db->DefineSummaryTable(
                    "s1", "select faid, count(*) as c from trans group by faid")
                  .ok());
  auto on = db->Query("select faid, count(*) as c from trans group by faid");
  ASSERT_TRUE(on.ok());
  EXPECT_TRUE(on->used_summary_table);
  QueryOptions opts;
  opts.enable_rewrite = false;
  auto off = db->Query("select faid, count(*) as c from trans group by faid",
                       opts);
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off->used_summary_table);
  EXPECT_TRUE(engine::SameRowMultiset(on->relation, off->relation));
}

TEST(DatabaseTest, CostBasedRoutingPicksSmallestAst) {
  auto db = testing::MakeCardDb(2000);
  ASSERT_TRUE(db->DefineSummaryTable(
                    "fine",
                    "select faid, flid, year(date) as y, count(*) as c "
                    "from trans group by faid, flid, year(date)")
                  .ok());
  ASSERT_TRUE(db->DefineSummaryTable(
                    "coarse",
                    "select year(date) as y, count(*) as c from trans "
                    "group by year(date)")
                  .ok());
  auto result =
      db->Query("select year(date) as y, count(*) as c from trans "
                "group by year(date)");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->used_summary_table);
  EXPECT_EQ(result->summary_table, "coarse");
  EXPECT_EQ(result->candidate_rewrites, 2);
}

TEST(DatabaseTest, ExplainShowsDecision) {
  auto db = testing::MakeCardDb(500);
  ASSERT_TRUE(db->DefineSummaryTable(
                    "s1", "select faid, count(*) as c from trans group by faid")
                  .ok());
  auto hit =
      db->ExplainRewrite("select faid, count(*) as c from trans group by faid");
  ASSERT_TRUE(hit.ok());
  EXPECT_NE(hit->find("rewrite: using summary table 's1'"), std::string::npos);
  EXPECT_NE(hit->find("ast 's1' round 0: chosen"), std::string::npos);
  auto miss = db->ExplainRewrite("select fpgid, sum(qty) as q from trans "
                                 "group by fpgid");
  ASSERT_TRUE(miss.ok());
  EXPECT_NE(miss->find("rewrite: none (original plan)"), std::string::npos);
  EXPECT_EQ(miss->find(": chosen"), std::string::npos);
}

TEST(DatabaseTest, RewrittenSqlReparsesAndAgrees) {
  auto db = testing::MakeCardDb(2000);
  ASSERT_TRUE(db->DefineSummaryTable(
                    "s1",
                    "select faid, year(date) as y, count(*) as c, "
                    "sum(qty) as q from trans group by faid, year(date)")
                  .ok());
  const char* sql =
      "select year(date) as y, sum(qty) as q from trans group by year(date)";
  auto routed = db->Query(sql);
  ASSERT_TRUE(routed.ok());
  ASSERT_TRUE(routed->used_summary_table);
  // The emitted NewQ SQL is valid in our dialect: run it directly.
  QueryOptions opts;
  opts.enable_rewrite = false;
  auto reparsed = db->Query(routed->rewritten_sql, opts);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                             << routed->rewritten_sql;
  EXPECT_TRUE(engine::SameRowMultiset(routed->relation, reparsed->relation));
}

TEST(DatabaseTest, OrderByPreservedThroughRewrite) {
  auto db = testing::MakeCardDb(2000);
  ASSERT_TRUE(db->DefineSummaryTable(
                    "s1",
                    "select year(date) as y, count(*) as c from trans "
                    "group by year(date)")
                  .ok());
  auto result = db->Query(
      "select year(date) as y, count(*) as c from trans group by year(date) "
      "order by c desc");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->used_summary_table);
  const auto& rows = result->relation.rows;
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i][1].AsInt(), rows[i - 1][1].AsInt());
  }
}

TEST(DatabaseTest, SummaryTableOverSummaryDefinitionUsesBaseData) {
  // Defining a summary table must execute against base tables and register
  // its own graph for future matching; a second AST defined after the first
  // still matches the same queries.
  auto db = testing::MakeCardDb(1000);
  ASSERT_TRUE(db->DefineSummaryTable(
                    "monthly",
                    "select year(date) as y, month(date) as m, count(*) as c "
                    "from trans group by year(date), month(date)")
                  .ok());
  ASSERT_TRUE(db->DefineSummaryTable(
                    "yearly",
                    "select year(date) as y, count(*) as c from trans "
                    "group by year(date)")
                  .ok());
  auto result = db->Query(
      "select year(date) as y, count(*) as c from trans group by year(date)");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->used_summary_table);
  EXPECT_EQ(result->summary_table, "yearly");  // smaller than monthly
}

TEST(DatabaseIterativeTest, TwoAstsServeOneQuery) {
  // Paper Sec. 7: iterative rerouting across multiple ASTs. The main block
  // reroutes through the per-flid summary; the scalar subquery then reroutes
  // through the global-count summary in a second iteration.
  auto db = testing::MakeCardDb(3000);
  ASSERT_TRUE(db->DefineSummaryTable(
                    "per_flid",
                    "select flid, count(*) as c from trans group by flid")
                  .ok());
  ASSERT_TRUE(db->DefineSummaryTable("global",
                                     "select count(*) as cnt from trans")
                  .ok());
  const char* sql =
      "select flid, count(*) / (select count(*) from trans) as pct "
      "from trans group by flid";
  QueryOptions off;
  off.enable_rewrite = false;
  auto direct = db->Query(sql, off);
  ASSERT_TRUE(direct.ok());
  auto routed = db->Query(sql);
  ASSERT_TRUE(routed.ok());
  EXPECT_TRUE(routed->used_summary_table);
  EXPECT_TRUE(engine::SameRowMultiset(direct->relation, routed->relation));
  // Both summary tables appear in the final plan.
  EXPECT_NE(routed->summary_table.find("per_flid"), std::string::npos)
      << routed->summary_table;
  EXPECT_NE(routed->summary_table.find("global"), std::string::npos)
      << routed->summary_table << "\n" << routed->rewritten_sql;
  EXPECT_NE(routed->rewritten_sql.find("per_flid"), std::string::npos);
  EXPECT_NE(routed->rewritten_sql.find("global"), std::string::npos)
      << routed->rewritten_sql;
}

}  // namespace
}  // namespace sumtab
