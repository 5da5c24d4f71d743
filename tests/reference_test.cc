// The reference evaluator checked against hand-computed answers, edge by
// edge: grouping-set padding NULLs vs data NULLs, the one-row global
// aggregate over an empty input, sticky int->double SUM, COUNT DISTINCT,
// three-valued WHERE, scalar subqueries returning 0 and 2 rows, joins that
// must never match NULL, table overrides, and ORDER BY with NULLs first.
// Every query that has an answer is also run on the engine, which must agree
// with the reference.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qgm/qgm_builder.h"
#include "sql/parser.h"
#include "sumtab/database.h"
#include "tests/reference.h"

namespace sumtab {
namespace {

using catalog::Column;

const Value N = Value::Null();
Value I(int64_t v) { return Value::Int(v); }
Value D(double v) { return Value::Double(v); }
Value S(const char* v) { return Value::String(v); }

/// Exact comparison: same rows in the same order, same Values of the same
/// kind (an Int 3 where a Double 3.0 is expected is a failure).
::testing::AssertionResult SameRowsInOrder(const std::vector<Row>& got,
                                           const std::vector<Row>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " rows, expected " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].size() != want[i].size()) {
      return ::testing::AssertionFailure() << "arity differs at row " << i;
    }
    for (size_t j = 0; j < got[i].size(); ++j) {
      if (got[i][j].kind() != want[i][j].kind() || !(got[i][j] == want[i][j])) {
        return ::testing::AssertionFailure()
               << "row " << i << " col " << j << ": " << got[i][j].ToString()
               << ", expected " << want[i][j].ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return Value::CompareRows(a, b) < 0;
  });
  return rows;
}

class ReferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("t",
                                {Column{"id", Type::kInt, false},
                                 Column{"g", Type::kInt, true},
                                 Column{"v", Type::kInt, true},
                                 Column{"d", Type::kDouble, true}},
                                {"id"})
                    .ok());
    ASSERT_TRUE(db_.CreateTable("dim",
                                {Column{"gid", Type::kInt, false},
                                 Column{"name", Type::kString, false}},
                                {"gid"})
                    .ok());
    ASSERT_TRUE(db_.BulkLoad("t", {{I(1), N, N, D(1.5)},
                                   {I(2), I(1), I(1), N},
                                   {I(3), I(1), I(2), D(2.5)},
                                   {I(4), I(2), I(2), D(0.5)},
                                   {I(5), I(2), I(3), N},
                                   {I(6), N, I(3), D(4.0)}})
                    .ok());
    ASSERT_TRUE(db_.BulkLoad("dim", {{I(1), S("one")},
                                     {I(2), S("two")},
                                     {I(3), S("three")}})
                    .ok());
  }

  /// The reference's answer to `sql`; the engine must agree with it.
  std::vector<Row> Ref(const std::string& sql) {
    StatusOr<engine::Relation> want = reference::Query(db_, sql);
    EXPECT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
    if (!want.ok()) return {};
    QueryOptions no_rewrite;
    no_rewrite.enable_rewrite = false;
    StatusOr<QueryResult> got = db_.Query(sql, no_rewrite);
    EXPECT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
    if (got.ok()) {
      EXPECT_TRUE(reference::MatchesReference(got->relation, *want))
          << sql << "\nengine:\n"
          << got->relation.ToString(20) << "reference:\n"
          << want->ToString(20);
    }
    return want->rows;
  }

  Database db_;
};

TEST_F(ReferenceTest, GroupingSetPaddingNullIsNotDataNull) {
  // g's data-NULL group (ids 1, 6) and the rollup's grand total (g padded
  // with NULL) are different rows.
  EXPECT_TRUE(SameRowsInOrder(
      Sorted(Ref("select g, count(*) as c from t group by rollup(g)")),
      Sorted({{N, I(2)}, {I(1), I(2)}, {I(2), I(2)}, {N, I(6)}})));
  // Each cuboid pads the other column: (NULL, NULL, 2) is g's NULL group,
  // (NULL, NULL, 1) is v's NULL group (id 1).
  EXPECT_TRUE(SameRowsInOrder(
      Sorted(Ref("select g, v, count(*) as c from t "
                 "group by grouping sets ((g), (v))")),
      Sorted({{N, N, I(2)},
              {I(1), N, I(2)},
              {I(2), N, I(2)},
              {N, N, I(1)},
              {N, I(1), I(1)},
              {N, I(2), I(2)},
              {N, I(3), I(2)}})));
}

TEST_F(ReferenceTest, GlobalAggregateOverEmptyInputIsOneRow) {
  EXPECT_TRUE(SameRowsInOrder(
      Ref("select count(*) as c, count(v) as cv, sum(v) as s, min(v) as mn, "
          "max(d) as mx, avg(v) as a from t where id > 100"),
      {{I(0), I(0), N, N, N, N}}));
  // A grouped aggregate over the same empty input has no groups at all.
  EXPECT_TRUE(SameRowsInOrder(
      Ref("select g, count(*) as c from t where id > 100 group by g"), {}));
}

TEST_F(ReferenceTest, StickySumPromotesIntToDouble) {
  // An int column sums to an Int, a double column to a Double.
  EXPECT_TRUE(SameRowsInOrder(Ref("select sum(v) as s, sum(d) as sd from t"),
                              {{I(11), D(8.5)}}));
  engine::AggSpec sum;
  sum.func = expr::AggFunc::kSum;
  sum.arg_col = 0;
  // Once a double arrives the running sum stays double: 2^53 + 1.0 rounds
  // back to 2^53, and so does adding the trailing integer 1 as a double.
  // Summing the integers exactly first would give 2^53 + 2.
  const int64_t big = int64_t{1} << 53;
  StatusOr<std::vector<Row>> promoted = reference::Aggregate(
      {{I(big)}, {D(1.0)}, {I(1)}}, {}, {{}}, {sum});
  ASSERT_TRUE(promoted.ok());
  EXPECT_TRUE(SameRowsInOrder(*promoted, {{D(9007199254740992.0)}}));
  StatusOr<std::vector<Row>> ints =
      reference::Aggregate({{I(2)}, {N}, {I(3)}}, {}, {{}}, {sum});
  ASSERT_TRUE(ints.ok());
  EXPECT_TRUE(SameRowsInOrder(*ints, {{I(5)}}));
}

TEST_F(ReferenceTest, CountDistinctIgnoresNullsAndDuplicates) {
  // v = NULL, 1, 2, 2, 3, 3.
  EXPECT_TRUE(SameRowsInOrder(
      Ref("select count(distinct v) as cd, sum(distinct v) as sd, "
          "count(v) as cv, count(*) as c from t"),
      {{I(3), I(6), I(5), I(6)}}));
  EXPECT_TRUE(SameRowsInOrder(
      Sorted(Ref("select g, count(distinct v) as cd from t group by g")),
      Sorted({{N, I(1)}, {I(1), I(2)}, {I(2), I(2)}})));
}

TEST_F(ReferenceTest, WhereUsesThreeValuedLogic) {
  // NOT (NULL > 1) is NULL: row 1 is rejected, not kept.
  EXPECT_TRUE(SameRowsInOrder(
      Sorted(Ref("select id from t where not (v > 1)")), {{I(2)}}));
  // NULL OR TRUE is TRUE.
  EXPECT_TRUE(SameRowsInOrder(
      Sorted(Ref("select id from t where v > 1 or id = 1")),
      {{I(1)}, {I(3)}, {I(4)}, {I(5)}, {I(6)}}));
  // NULL AND TRUE is NULL.
  EXPECT_TRUE(
      SameRowsInOrder(Ref("select id from t where v > 1 and id = 1"), {}));
  EXPECT_TRUE(SameRowsInOrder(
      Sorted(Ref("select id from t where v is null or g is null")),
      {{I(1)}, {I(6)}}));
}

TEST_F(ReferenceTest, ScalarSubqueryOfZeroRowsIsNull) {
  EXPECT_TRUE(SameRowsInOrder(
      Sorted(Ref("select id, (select v from t where id = 99) as x from t "
                 "where id < 3")),
      {{I(1), N}, {I(2), N}}));
}

TEST_F(ReferenceTest, ScalarSubqueryOfTwoRowsIsAnError) {
  const std::string sql =
      "select id, (select v from t where g = 1) as x from t";
  StatusOr<engine::Relation> want = reference::Query(db_, sql);
  ASSERT_FALSE(want.ok());
  EXPECT_EQ(want.status().code(), Status::Code::kInvalidArgument)
      << want.status().ToString();
  // The engine refuses it the same way.
  QueryOptions no_rewrite;
  no_rewrite.enable_rewrite = false;
  StatusOr<QueryResult> got = db_.Query(sql, no_rewrite);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), Status::Code::kInvalidArgument);
}

TEST_F(ReferenceTest, EquiJoinNeverMatchesNull) {
  // Rows 1 and 6 have g = NULL and join nothing; dim 3 has no fact rows.
  EXPECT_TRUE(SameRowsInOrder(
      Sorted(Ref("select name, count(*) as c, sum(v) as s from t, dim "
                 "where t.g = dim.gid group by name")),
      Sorted({{S("one"), I(2), I(3)}, {S("two"), I(2), I(5)}})));
  // Declared order puts the dimension first; the answer is the same.
  EXPECT_TRUE(SameRowsInOrder(
      Sorted(Ref("select name, id from dim, t where dim.gid = t.g "
                 "and v > 1")),
      Sorted({{S("one"), I(3)}, {S("two"), I(4)}, {S("two"), I(5)}})));
}

TEST_F(ReferenceTest, TableOverridesReplaceTheSnapshotTable) {
  StatusOr<std::shared_ptr<sql::SelectStmt>> stmt =
      sql::Parse("select count(*) as c, sum(v) as s from t");
  ASSERT_TRUE(stmt.ok());
  StatusOr<qgm::Graph> graph = qgm::BuildGraph(**stmt, db_.catalog());
  ASSERT_TRUE(graph.ok());
  engine::Relation delta;
  delta.column_names = {"id", "g", "v", "d"};
  delta.rows = {{I(7), I(1), I(10), N}, {I(8), N, I(20), D(1.0)}};
  reference::TableOverrides overrides = {{"t", &delta}};
  StatusOr<engine::Relation> got =
      reference::Evaluate(*graph, db_.storage().Snap(), &overrides);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(SameRowsInOrder(got->rows, {{I(2), I(30)}}));
}

TEST_F(ReferenceTest, OrderBySortsNullsFirst) {
  EXPECT_TRUE(SameRowsInOrder(
      Ref("select id, v from t order by v, id"),
      {{I(1), N}, {I(2), I(1)}, {I(3), I(2)}, {I(4), I(2)}, {I(5), I(3)},
       {I(6), I(3)}}));
  // Descending puts them last.
  EXPECT_TRUE(SameRowsInOrder(
      Ref("select id, v from t order by v desc, id"),
      {{I(5), I(3)}, {I(6), I(3)}, {I(3), I(2)}, {I(4), I(2)}, {I(2), I(1)},
       {I(1), N}}));
}

}  // namespace
}  // namespace sumtab
