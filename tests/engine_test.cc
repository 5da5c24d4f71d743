// Unit tests for the engine: storage, joins (hash + nested-loop fallback),
// filters, projection, DISTINCT, scalar subqueries, aggregation incl.
// grouping sets, empty-input semantics, ORDER BY.
#include <gtest/gtest.h>

#include "common/date.h"
#include "engine/aggregator.h"
#include "sumtab/database.h"
#include "tests/reference.h"

namespace sumtab {
namespace {

using catalog::Column;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("t",
                                {Column{"id", Type::kInt, false},
                                 Column{"grp", Type::kString, false},
                                 Column{"val", Type::kInt, true}},
                                {"id"})
                    .ok());
    ASSERT_TRUE(db_.CreateTable("d",
                                {Column{"id", Type::kInt, false},
                                 Column{"label", Type::kString, false}},
                                {"id"})
                    .ok());
    ASSERT_TRUE(db_.BulkLoad("t", {{Value::Int(1), Value::String("a"),
                                    Value::Int(10)},
                                   {Value::Int(2), Value::String("a"),
                                    Value::Int(20)},
                                   {Value::Int(3), Value::String("b"),
                                    Value::Null()},
                                   {Value::Int(4), Value::String("b"),
                                    Value::Int(40)},
                                   {Value::Int(5), Value::String("c"),
                                    Value::Int(50)}})
                    .ok());
    ASSERT_TRUE(db_.BulkLoad("d", {{Value::Int(1), Value::String("one")},
                                   {Value::Int(2), Value::String("two")},
                                   {Value::Int(3), Value::String("three")}})
                    .ok());
  }

  engine::Relation Run(const std::string& sql, bool hash_join = true) {
    QueryOptions opts;
    opts.enable_rewrite = false;
    opts.disable_hash_join = !hash_join;
    StatusOr<QueryResult> r = db_.Query(sql, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << sql;
    return r.ok() ? std::move(r->relation) : engine::Relation{};
  }

  Database db_;
};

TEST_F(EngineTest, ScanFilterProject) {
  engine::Relation r = Run("select id, val + 1 as v from t where val >= 20");
  ASSERT_EQ(r.NumRows(), 3u);  // NULL val row is rejected
  engine::SortRows(&r);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.rows[0][1].AsInt(), 21);
}

TEST_F(EngineTest, HashJoinAndNestedLoopAgree) {
  const char* sql =
      "select t.id, label from t, d where t.id = d.id and val is not null";
  engine::Relation hash = Run(sql, /*hash_join=*/true);
  engine::Relation loop = Run(sql, /*hash_join=*/false);
  EXPECT_EQ(hash.NumRows(), 2u);
  EXPECT_TRUE(engine::SameRowMultiset(hash, loop));
}

TEST_F(EngineTest, JoinOnNullNeverMatches) {
  ASSERT_TRUE(db_.CreateTable("n", {Column{"k", Type::kInt, true}}, {}).ok());
  ASSERT_TRUE(db_.BulkLoad("n", {{Value::Null()}, {Value::Int(3)}}).ok());
  engine::Relation r = Run("select t.id from t, n where val = k");
  EXPECT_EQ(r.NumRows(), 0u);  // val 3 never appears; NULL = NULL is not true
}

TEST_F(EngineTest, CrossJoinFallback) {
  engine::Relation r = Run("select t.id, d.id from t, d where t.id > d.id");
  // Pairs with t.id > d.id: (2,1),(3,1),(3,2),(4,*3),(5,*3) => 1+2+3+3 = 9.
  EXPECT_EQ(r.NumRows(), 9u);
}

TEST_F(EngineTest, ThreeWayJoin) {
  engine::Relation r = Run(
      "select t.id, d.label, e.label as l2 from t, d, d e "
      "where t.id = d.id and t.id = e.id");
  EXPECT_EQ(r.NumRows(), 3u);
}

TEST_F(EngineTest, Distinct) {
  engine::Relation r = Run("select distinct grp from t");
  EXPECT_EQ(r.NumRows(), 3u);
}

TEST_F(EngineTest, ScalarSubquery) {
  engine::Relation r =
      Run("select id from t where val = (select max(val) from t)");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
}

TEST_F(EngineTest, ScalarSubqueryEmptyYieldsNull) {
  engine::Relation r = Run(
      "select id, (select max(val) from t where id > 100) as m from t "
      "where id = 1");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(EngineTest, AggregatesSkipNulls) {
  engine::Relation r = Run(
      "select count(*) as c, count(val) as cv, sum(val) as s, min(val) as mn, "
      "max(val) as mx, avg(val) as a from t");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
  EXPECT_EQ(r.rows[0][1].AsInt(), 4);   // NULL not counted
  EXPECT_EQ(r.rows[0][2].AsInt(), 120);
  EXPECT_EQ(r.rows[0][3].AsInt(), 10);
  EXPECT_EQ(r.rows[0][4].AsInt(), 50);
  EXPECT_DOUBLE_EQ(r.rows[0][5].AsDouble(), 30.0);
}

TEST_F(EngineTest, GroupByWithHaving) {
  engine::Relation r = Run(
      "select grp, count(*) as c from t group by grp having count(*) > 1 "
      "order by grp");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "a");
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);
  EXPECT_EQ(r.rows[1][0].AsString(), "b");
}

TEST_F(EngineTest, CountAndSumDistinct) {
  engine::Relation r = Run(
      "select count(distinct grp) as cg, sum(distinct val) as sv from t");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  EXPECT_EQ(r.rows[0][1].AsInt(), 120);  // values are unique here
}

TEST_F(EngineTest, EmptyInputScalarAggregate) {
  engine::Relation r = Run("select count(*) as c, sum(val) as s from t "
                           "where id > 100");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(EngineTest, EmptyInputGroupByYieldsNoRows) {
  engine::Relation r =
      Run("select grp, count(*) from t where id > 100 group by grp");
  EXPECT_EQ(r.NumRows(), 0u);
}

TEST_F(EngineTest, GroupingSetsNullPadding) {
  engine::Relation r = Run(
      "select grp, val, count(*) as c from t "
      "group by grouping sets ((grp), (val), ())");
  // 3 grp groups + 4 distinct non-null vals + 1 NULL val group + 1 global.
  EXPECT_EQ(r.NumRows(), 3u + 5u + 1u);
  int global_rows = 0;
  for (const Row& row : r.rows) {
    if (row[0].is_null() && row[1].is_null() && row[2].AsInt() == 5) {
      ++global_rows;
    }
  }
  EXPECT_EQ(global_rows, 1);
}

TEST_F(EngineTest, RollupMatchesManualUnion) {
  engine::Relation rollup = Run(
      "select grp, val, count(*) as c from t group by rollup(grp, val)");
  engine::Relation manual = Run(
      "select grp, val, count(*) as c from t group by grp, val");
  engine::Relation by_grp =
      Run("select grp, count(*) as c from t group by grp");
  engine::Relation global = Run("select count(*) as c from t");
  EXPECT_EQ(rollup.NumRows(),
            manual.NumRows() + by_grp.NumRows() + global.NumRows());
}

TEST_F(EngineTest, OrderByAppliesToFinalResult) {
  engine::Relation r = Run("select id, val from t order by val desc, id");
  ASSERT_EQ(r.NumRows(), 5u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
  // NULL sorts first ascending => last in descending order.
  EXPECT_TRUE(r.rows[4][1].is_null());
}

TEST_F(EngineTest, OrderByTotalOrderSharedAcrossEngines) {
  // The engine and the reference evaluator order through the one
  // exec_internal::ApplyOrderBy / Value::Compare definition: NULL first
  // ascending, identical full order.
  const char* sql = "select id, val from t order by val, id desc";
  QueryOptions opts;
  opts.enable_rewrite = false;
  StatusOr<QueryResult> got = db_.Query(sql, opts);
  StatusOr<engine::Relation> want = reference::Query(db_, sql);
  ASSERT_TRUE(got.ok() && want.ok());
  ASSERT_EQ(got->relation.NumRows(), 5u);
  EXPECT_TRUE(got->relation.rows[0][1].is_null());
  EXPECT_EQ(got->relation.rows[0][0].AsInt(), 3);
  ASSERT_EQ(want->NumRows(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(Value::CompareRows(got->relation.rows[i], want->rows[i]), 0)
        << "row " << i;
  }
}

TEST_F(EngineTest, OrderByDoesNotMutateStoredRelation) {
  // Sorting the result of a plain scan must sort a copy, never the stored
  // table the scan read.
  QueryOptions opts;
  opts.enable_rewrite = false;
  StatusOr<QueryResult> sorted =
      db_.Query("select id, grp, val from t order by id desc", opts);
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(sorted->relation.rows[0][0].AsInt(), 5);
  StatusOr<QueryResult> scan = db_.Query("select id, grp, val from t", opts);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->relation.NumRows(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(scan->relation.rows[i][0].AsInt(), i + 1)
        << "storage order disturbed";
  }
}

TEST_F(EngineTest, DerivedTable) {
  engine::Relation r = Run(
      "select g, c from (select grp as g, count(*) as c from t group by grp) "
      "where c > 1 order by g");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "a");
}

TEST_F(EngineTest, MissingTableDataFails) {
  QueryOptions opts;
  opts.enable_rewrite = false;
  EXPECT_FALSE(db_.Query("select x from nosuch", opts).ok());
}

/// AggregateBatch over `input`, checked against the reference's grouping
/// of the same rows in the same order (exactly, Value kinds included).
std::vector<Row> AggregateLikeReference(
    const std::vector<Row>& input, int num_cols,
    const std::vector<int>& grouping_cols,
    const std::vector<std::vector<int>>& sets,
    const std::vector<engine::AggSpec>& aggs) {
  auto got = engine::AggregateBatch(engine::BatchFromRows(input, num_cols),
                                    grouping_cols, sets, aggs);
  auto want = reference::Aggregate(input, grouping_cols, sets, aggs);
  EXPECT_TRUE(got.ok() && want.ok());
  if (!got.ok() || !want.ok()) return {};
  EXPECT_TRUE(reference::SameRowsExactly(*got, *want));
  return *got;
}

TEST(AggregatorTest, MixedIntDoubleSumPromotes) {
  std::vector<Row> input = {{Value::Int(1)}, {Value::Double(2.5)},
                            {Value::Int(3)}};
  engine::AggSpec sum;
  sum.func = expr::AggFunc::kSum;
  sum.arg_col = 0;
  std::vector<Row> rows = AggregateLikeReference(input, 1, {}, {{}}, {sum});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].kind(), Value::Kind::kDouble);
  EXPECT_DOUBLE_EQ(rows[0][0].AsDouble(), 6.5);
}

TEST(AggregatorTest, NullGroupKeysFormOneGroup) {
  std::vector<Row> input = {{Value::Null(), Value::Int(1)},
                            {Value::Null(), Value::Int(2)},
                            {Value::Int(7), Value::Int(3)}};
  engine::AggSpec cnt;
  cnt.func = expr::AggFunc::kCount;
  cnt.star = true;
  std::vector<Row> rows = AggregateLikeReference(input, 2, {0}, {{0}}, {cnt});
  EXPECT_EQ(rows.size(), 2u);  // NULL group + 7 group
}

TEST(StorageTest, AddDropFind) {
  engine::Storage storage;
  engine::Relation rel;
  rel.column_names = {"a"};
  EXPECT_TRUE(storage.AddTable("T1", std::move(rel)).ok());
  EXPECT_NE(storage.FindTable("t1"), nullptr);  // case-insensitive
  EXPECT_FALSE(storage.AddTable("t1", {}).ok());
  EXPECT_TRUE(storage.DropTable("T1").ok());
  EXPECT_EQ(storage.FindTable("t1"), nullptr);
  EXPECT_FALSE(storage.DropTable("t1").ok());
}

}  // namespace
}  // namespace sumtab
