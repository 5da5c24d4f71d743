// Unit tests for the engine: storage, joins (hash + nested-loop fallback),
// filters, projection, DISTINCT, scalar subqueries, aggregation incl.
// grouping sets, empty-input semantics, ORDER BY.
#include <gtest/gtest.h>

#include "common/date.h"
#include "engine/aggregator.h"
#include "sumtab/database.h"
#include "tests/reference.h"
#include "tests/test_util.h"

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

  engine::Relation Run(const std::string& sql) {
    QueryOptions opts;
    opts.enable_rewrite = false;
    StatusOr<QueryResult> r = db_.Query(sql, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << sql;
    return r.ok() ? std::move(r->relation) : engine::Relation{};
  }

  Database db_;
};

TEST_F(EngineTest, ScanFilterProject) {
  engine::Relation r =
      Run("select id, val + 1 as v from t where val >= 20 order by id");
  ASSERT_EQ(r.NumRows(), 3u);  // NULL val row is rejected
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.rows[0][1].AsInt(), 21);
}

TEST_F(EngineTest, HashJoinAndNestedLoopAgree) {
  // `t.id = d.id` is a hash-join key; `t.id + 0 = d.id` is not (IsEquiJoin
  // keys only column = column), so it joins through the cartesian step and
  // a residual filter. Both answer like the reference evaluator.
  const char* hash_sql =
      "select t.id, label from t, d where t.id = d.id and val is not null";
  const char* loop_sql =
      "select t.id, label from t, d where t.id + 0 = d.id and val is not null";
  engine::Relation hash = Run(hash_sql);
  engine::Relation loop = Run(loop_sql);
  EXPECT_EQ(hash.NumRows(), 2u);
  EXPECT_TRUE(engine::SameRowMultiset(hash, loop));
  for (const char* sql : {hash_sql, loop_sql}) {
    StatusOr<engine::Relation> want = reference::Query(db_, sql);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_TRUE(reference::MatchesReference(Run(sql), *want)) << sql;
  }

  // Which path each query took: both charge the 8 scanned rows, then the
  // hash join materializes its 2 matches (10 rows in all) and the cartesian
  // step all 4 x 3 pairs before the residual filter (20), so a budget of 15
  // admits only the hash join.
  QueryOptions budget;
  budget.enable_rewrite = false;
  budget.enable_plan_cache = false;
  budget.max_rows = 15;
  StatusOr<QueryResult> hashed = db_.Query(hash_sql, budget);
  EXPECT_TRUE(hashed.ok()) << hashed.status().ToString();
  StatusOr<QueryResult> looped = db_.Query(loop_sql, budget);
  ASSERT_FALSE(looped.ok());
  EXPECT_EQ(looped.status().code(), Status::Code::kResourceExhausted)
      << looped.status().ToString();
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

TEST(JoinTest, PrunedGathersAndSmallerBuildSideMatchReference) {
  // A 12k-row fact against a 60-row dimension (and a 5-row one): hash joins
  // build on the smaller side and gather only the columns a box reads.
  // Every shape — swapped and unswapped build, NULL keys, residuals across
  // sides, a three-way join, a scalar subquery — and every kind of key must
  // equal the reference at one lane and at four, and the two lane counts
  // must agree bit for bit. The keys cover each way a key becomes one code
  // per row: one int, date or dictionary column read as its own code (a
  // dictionary across two tables, one string absent from the build side;
  // a self-join on one dictionary; int = double and double = double read
  // as double bits, 3 meeting 3.0 and 0 meeting -0.0), and pass-1 ids for
  // an int and a double column, a 3-column encodable key, a 5-column key
  // past kMaxEncodedKeyCols, and a composite key with NULLs in either
  // column.
  using catalog::Column;
  Database db;
  ASSERT_TRUE(db.CreateTable("f",
                             {Column{"k", Type::kInt, true},
                              Column{"g", Type::kString, false},
                              Column{"v", Type::kInt, false},
                              Column{"x", Type::kDouble, false},
                              Column{"unused", Type::kString, false},
                              Column{"d", Type::kDate, true},
                              Column{"s", Type::kString, true}},
                             {})
                  .ok());
  ASSERT_TRUE(db.CreateTable("dm",
                             {Column{"k", Type::kInt, true},
                              Column{"g2", Type::kString, false},
                              Column{"w", Type::kInt, false},
                              Column{"c", Type::kInt, false},
                              Column{"kd", Type::kDouble, false},
                              Column{"d", Type::kDate, false},
                              Column{"s", Type::kString, false}},
                             {})
                  .ok());
  ASSERT_TRUE(db.CreateTable("cat",
                             {Column{"c", Type::kInt, false},
                              Column{"label", Type::kString, false}},
                             {"c"})
                  .ok());
  std::vector<Row> f;
  for (int64_t i = 0; i < 12000; ++i) {
    f.push_back({i % 97 == 0 ? Value::Null() : Value::Int(i % 70),
                 Value::String(i % 3 == 0 ? "a" : "b"), Value::Int(i % 50),
                 Value::Double((i % 13) * 0.25),
                 Value::String("pad" + std::to_string(i % 5)),
                 i % 89 == 0 ? Value::Null()
                             : Value::Date(20000101 + (i % 70) % 10),
                 i % 101 == 0 ? Value::Null()
                              : Value::String("s" + std::to_string(i % 9))});
  }
  std::vector<Row> dm;
  for (int64_t k = 0; k < 60; ++k) {
    dm.push_back({k == 7 ? Value::Null() : Value::Int(k),
                  Value::String(k % 2 == 0 ? "a" : "b"), Value::Int(k % 40),
                  Value::Int(k % 5),
                  Value::Double(k == 0       ? -0.0
                                : k % 6 == 3 ? k + 0.5
                                             : static_cast<double>(k)),
                  Value::Date(20000101 + k % 10 + (k % 7 == 3 ? 100 : 0)),
                  Value::String("s" + std::to_string(k % 12))});
  }
  std::vector<Row> cat;
  for (int64_t c = 0; c < 5; ++c) {
    cat.push_back({Value::Int(c), Value::String("c" + std::to_string(c))});
  }
  ASSERT_TRUE(db.BulkLoad("f", f).ok());
  ASSERT_TRUE(db.BulkLoad("dm", dm).ok());
  ASSERT_TRUE(db.BulkLoad("cat", cat).ok());
  for (const char* sql : {
           "select dm.c, count(*) as n, sum(f.x) as sx from f, dm "
           "where f.k = dm.k group by dm.c",
           "select f.k, dm.w from f, dm where f.k = dm.k and f.v < 1",
           "select f.g, count(*) as n from f, dm "
           "where f.k = dm.k and f.g = dm.g2 group by f.g",
           "select dm.k, f.v from f, dm where f.k = dm.k and f.v > dm.w",
           "select label, sum(f.v) as sv from f, dm, cat "
           "where f.k = dm.k and dm.c = cat.c group by label",
           "select f.k, count(*) as n, count(*) / (select count(*) from dm) "
           "as share from f, dm where f.k = dm.k group by f.k",
           "select dm.k, count(*) as n from f, dm where f.k = dm.kd "
           "group by dm.k",
           "select dm.k, count(*) as n from f, dm where f.x = dm.kd "
           "group by dm.k",
           "select f.d, count(*) as n from f, dm where f.d = dm.d group by f.d",
           "select dm.s, count(*) as n, sum(f.v) as sv from f, dm "
           "where f.s = dm.s group by dm.s",
           "select a.s, count(*) as n from f a, f b "
           "where a.s = b.s and b.v = 0 and b.k < 10 group by a.s",
           "select f.k, count(*) as n from f, dm "
           "where f.k = dm.k and f.g = dm.g2 and f.d = dm.d group by f.k",
           "select f.k, f.v, count(*) as n from f, dm where f.k = dm.k "
           "and f.g = dm.g2 and f.d = dm.d and f.s = dm.s and f.v = dm.w "
           "group by f.k, f.v",
           "select f.k, count(*) as n from f, dm "
           "where f.k = dm.k and f.x = dm.kd group by f.k",
           "select dm.k, count(*) as n from f, dm "
           "where f.k = dm.k and f.s = dm.s group by dm.k",
       }) {
    StatusOr<engine::Relation> want = reference::Query(db, sql);
    ASSERT_TRUE(want.ok()) << want.status().ToString() << "\n" << sql;
    EXPECT_GT(want->NumRows(), 0u) << sql;
    std::vector<Row> serial;
    for (int threads : {1, 4}) {
      QueryOptions opts;
      opts.enable_rewrite = false;
      opts.max_threads = threads;
      StatusOr<QueryResult> got = db.Query(sql, opts);
      ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << sql;
      EXPECT_TRUE(reference::MatchesReference(got->relation, *want))
          << sql << " threads=" << threads;
      if (threads == 1) {
        serial = got->relation.rows;
      } else {
        EXPECT_TRUE(reference::SameRowsExactly(got->relation.rows, serial))
            << sql;
      }
    }
  }
}

/// A 12k-row table with NULLs in its key, argument and predicate columns,
/// an int column past 2^53, and a 60-row dimension: enough rows for four
/// lanes to split every filter, probe and aggregate.
class EngineSelectionTest : public ::testing::Test {
 protected:
  static constexpr int64_t kTwoTo53 = int64_t{1} << 53;

  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("s",
                                {Column{"k", Type::kInt, true},
                                 Column{"g", Type::kString, true},
                                 Column{"v", Type::kInt, true},
                                 Column{"x", Type::kDouble, true},
                                 Column{"big", Type::kInt, false}},
                                {})
                    .ok());
    ASSERT_TRUE(db_.CreateTable("dm",
                                {Column{"k", Type::kInt, true},
                                 Column{"g2", Type::kString, false},
                                 Column{"w", Type::kInt, false},
                                 Column{"c", Type::kInt, false}},
                                {})
                    .ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 12000; ++i) {
      rows.push_back(
          {i % 11 == 0 ? Value::Null() : Value::Int(i % 70),
           i % 13 == 0 ? Value::Null() : Value::String(i % 3 ? "a" : "b"),
           i % 7 == 0 ? Value::Null() : Value::Int(i % 50),
           i % 5 == 0 ? Value::Null() : Value::Double((i % 17) * 0.25 - 1),
           Value::Int(kTwoTo53 + i % 4)});
    }
    std::vector<Row> dm;
    for (int64_t k = 0; k < 60; ++k) {
      dm.push_back({k == 7 ? Value::Null() : Value::Int(k),
                    Value::String(k % 2 == 0 ? "a" : "b"), Value::Int(k % 40),
                    Value::Int(k % 5)});
    }
    ASSERT_TRUE(db_.BulkLoad("s", rows).ok());
    ASSERT_TRUE(db_.BulkLoad("dm", dm).ok());
  }

  /// The query's answer at one lane, after checking it and the four-lane
  /// answer against the reference, and the two against each other bit for
  /// bit.
  std::vector<Row> ExpectLikeReference(const std::string& sql) {
    StatusOr<engine::Relation> want = reference::Query(db_, sql);
    EXPECT_TRUE(want.ok()) << want.status().ToString() << "\n" << sql;
    std::vector<Row> serial;
    for (int threads : {1, 4}) {
      QueryOptions opts;
      opts.enable_rewrite = false;
      opts.max_threads = threads;
      StatusOr<QueryResult> got = db_.Query(sql, opts);
      EXPECT_TRUE(got.ok()) << got.status().ToString() << "\n" << sql;
      if (!got.ok() || !want.ok()) return {};
      EXPECT_TRUE(reference::MatchesReference(got->relation, *want))
          << sql << " threads=" << threads;
      if (threads == 1) {
        serial = got->relation.rows;
      } else {
        EXPECT_TRUE(reference::SameRowsExactly(got->relation.rows, serial))
            << sql;
      }
    }
    return serial;
  }

  Database db_;
};

TEST_F(EngineSelectionTest, FilterThenAggregateOverNulls) {
  for (const char* sql : {
           "select k, count(*) as n, count(v) as cv, sum(v) as sv, "
           "sum(x) as sx, min(x) as mn, max(g) as mg from s "
           "where v > 10 group by k",
           "select g, k, count(*) as n, sum(x) as sx, avg(v) as av from s "
           "where x < 2.5 and k is not null group by g, k",
           "select count(*) as n, count(x) as cx, sum(v) as sv, sum(x) as sx, "
           "min(v) as mn, max(x) as mx from s where g = 'a'",
           "select k, sum(v * 2) as s2, count(*) as n from s "
           "where v is null or x > 1 group by k",
           "select x, count(*) as n from s where g <> 'b' and v < 25 "
           "group by x",
           "select distinct k, g from s where v < 20",
           "select k, v from s where v > 45 and x >= 0",
           "select count(*) as n from s "
           "where v > (select max(w) from dm where c = 2)",
       }) {
    EXPECT_FALSE(ExpectLikeReference(sql).empty()) << sql;
  }
}

TEST_F(EngineSelectionTest, EveryRowFilteredOut) {
  // A global aggregate still answers one row: COUNT 0 and SUM NULL; a
  // grouped one answers none.
  std::vector<Row> global = ExpectLikeReference(
      "select count(*) as n, count(v) as cv, sum(v) as sv, sum(x) as sx "
      "from s where v > 1000");
  ASSERT_EQ(global.size(), 1u);
  EXPECT_EQ(global[0][0], Value::Int(0));
  EXPECT_EQ(global[0][1], Value::Int(0));
  EXPECT_TRUE(global[0][2].is_null());
  EXPECT_TRUE(global[0][3].is_null());
  EXPECT_TRUE(ExpectLikeReference(
                  "select k, count(*) as n from s where v > 1000 group by k")
                  .empty());
  // The second filter sees an empty selection.
  EXPECT_TRUE(ExpectLikeReference("select k, x from s "
                                  "where g = 'absent' and x > 0")
                  .empty());
}

TEST_F(EngineSelectionTest, IntsPastTwoToThe53CompareAsDoubles) {
  // big holds 2^53 + i % 4. As doubles 2^53 + 1 rounds to 2^53 and
  // 2^53 + 3 to 2^53 + 4, so Value::Compare finds half the rows equal to
  // the literal 2^53 + 1 and the other half greater.
  const std::string lit = std::to_string(kTwoTo53 + 1);
  std::vector<Row> eq =
      ExpectLikeReference("select count(*) as n from s where big = " + lit);
  ASSERT_EQ(eq.size(), 1u);
  EXPECT_EQ(eq[0][0], Value::Int(6000));
  std::vector<Row> gt =
      ExpectLikeReference("select count(*) as n from s where big > " + lit);
  ASSERT_EQ(gt.size(), 1u);
  EXPECT_EQ(gt[0][0], Value::Int(6000));
  std::vector<Row> le = ExpectLikeReference(
      "select count(*) as n from s where " + lit + " >= big");
  ASSERT_EQ(le.size(), 1u);
  EXPECT_EQ(le[0][0], Value::Int(6000));
}

TEST_F(EngineSelectionTest, CubeAndGroupingSetsOverASelection) {
  for (const char* sql : {
           "select k, g, count(*) as n, sum(x) as sx from s where v >= 5 "
           "group by cube(k, g)",
           "select k, g, count(v) as cv, sum(v) as sv, max(x) as mx from s "
           "where x is not null and v < 30 "
           "group by grouping sets ((k, g), (g), ())",
       }) {
    EXPECT_FALSE(ExpectLikeReference(sql).empty()) << sql;
  }
}

TEST_F(EngineSelectionTest, HashJoinWithBothSidesFiltered) {
  for (const char* sql : {
           "select dm.c, count(*) as n, sum(s.x) as sx from s, dm "
           "where s.k = dm.k and s.v > 5 and dm.w < 30 group by dm.c",
           "select s.k, dm.w, s.x from s, dm where s.k = dm.k and s.v < 3 "
           "and dm.c = 1 and s.v < dm.w",
           "select s.g, count(*) as n from s, dm where s.g = dm.g2 "
           "and s.v < 10 and dm.c <> 3 and s.k = dm.k group by s.g",
           "select count(*) as n, sum(s.v * dm.w) as p from s, dm "
           "where s.k = dm.k and s.x > 0 and dm.g2 = 'b'",
       }) {
    EXPECT_FALSE(ExpectLikeReference(sql).empty()) << sql;
  }
}

/// AggregateBatch over `input`, checked against the reference's grouping
/// of the same rows in the same order (exactly, Value kinds included).
std::vector<Row> AggregateLikeReference(
    const std::vector<Row>& input, int num_cols,
    const std::vector<int>& grouping_cols,
    const std::vector<std::vector<int>>& sets,
    const std::vector<engine::AggSpec>& aggs) {
  auto got = testing::AggregateRows(engine::BatchFromRows(input, num_cols),
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
  EXPECT_TRUE(
      storage.AddTable("T1", {"a"}, engine::BatchFromRows({}, 1)).ok());
  EXPECT_NE(storage.FindColumnar("t1"), nullptr);  // case-insensitive
  EXPECT_FALSE(storage.AddTable("t1", {}, {}).ok());
  EXPECT_TRUE(storage.DropTable("T1").ok());
  EXPECT_EQ(storage.FindColumnar("t1"), nullptr);
  EXPECT_FALSE(storage.DropTable("t1").ok());
}

}  // namespace
}  // namespace sumtab
