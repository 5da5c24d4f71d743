// Parameterized sweep over multidimensional shapes: every (query grouping
// spec, AST definition) pair is executed both ways; when cuboid coverage
// predicts a match the rewrite must fire, and answers must always agree.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace sumtab {
namespace {

struct CubeCase {
  const char* name;
  const char* query_group_by;  // GROUP BY clause text for the query
  const char* ast_sql;         // full AST definition
  bool expect_rewrite;
};

constexpr const char* kRollupFY =
    "select flid, year(date) as y, count(*) as cnt, sum(qty) as sq "
    "from trans group by rollup(flid, year(date))";
constexpr const char* kCubeFY =
    "select flid, year(date) as y, count(*) as cnt, sum(qty) as sq "
    "from trans group by cube(flid, year(date))";
constexpr const char* kCubeFAY =
    "select flid, faid, year(date) as y, count(*) as cnt, sum(qty) as sq "
    "from trans group by cube(flid, faid, year(date))";
constexpr const char* kGsFY_AY =
    "select flid, faid, year(date) as y, count(*) as cnt, sum(qty) as sq "
    "from trans group by grouping sets ((flid, year(date)), "
    "(faid, year(date)))";
constexpr const char* kGsThree =
    "select flid, year(date) as y, count(*) as cnt, sum(qty) as sq "
    "from trans group by grouping sets ((flid), (year(date)), "
    "(flid, year(date)))";
constexpr const char* kGsUnionOnly =
    "select flid, year(date) as y, count(*) as cnt, sum(qty) as sq "
    "from trans group by grouping sets ((flid, year(date)))";
constexpr const char* kSimpleFY =
    "select flid, year(date) as y, count(*) as cnt, sum(qty) as sq "
    "from trans group by flid, year(date)";

const CubeCase kCases[] = {
    {"simple_vs_rollup_exact", "flid, year(date)", kRollupFY, true},
    {"simple_vs_rollup_prefix", "flid", kRollupFY, true},
    {"global_vs_rollup", "grouping sets (())", kRollupFY, true},
    {"simple_vs_cube_any_subset", "year(date)", kCubeFY, true},
    {"simple_vs_gs_missing_combo", "faid, month(date)", kGsFY_AY, false},
    {"rollup_vs_cube", "rollup(flid, year(date))", kCubeFY, true},
    {"cube_vs_finer_cube", "cube(flid, year(date))", kCubeFAY, true},
    {"gs_vs_gs_exact", "grouping sets ((flid), (year(date)))", kGsThree,
     true},
    {"gs_needs_fallback", "grouping sets ((flid), (year(date)))",
     kGsUnionOnly, true},  // GS^E fallback regroup
    {"cube_vs_simple_ast", "cube(flid, year(date))", kSimpleFY,
     true},  // simple AST = one cuboid covering GS^E; regroup by the gs
    {"rollup_column_not_in_ast", "rollup(fpgid)", kCubeFY, false},
    {"regroup_from_finer_cuboid", "faid", kCubeFAY, true},
};

class CubePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(CubePropertyTest, AgreesAndMatchesWhenCovered) {
  const CubeCase& c = kCases[std::get<0>(GetParam())];
  uint64_t seed = std::get<1>(GetParam());
  auto db = testing::MakeCardDb(2500, seed);
  ASSERT_TRUE(db->DefineSummaryTable("cube_ast", c.ast_sql).ok()) << c.ast_sql;
  std::string query =
      std::string("select count(*) as cnt, sum(qty) as sq from trans "
                  "group by ") +
      c.query_group_by;
  testing::ExpectRewriteEquivalent(db.get(), query, c.expect_rewrite);
}

std::string CubeParamName(
    const ::testing::TestParamInfo<std::tuple<int, uint64_t>>& info) {
  return std::string(kCases[std::get<0>(info.param)].name) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CubePropertyTest,
    ::testing::Combine(::testing::Range(0, static_cast<int>(std::size(kCases))),
                       ::testing::Values<uint64_t>(2, 4242)),
    CubeParamName);

// A grouping-sets AST over a nullable grouping column: slicing a cuboid out
// with IS [NOT] NULL cannot tell a data NULL from the padding NULL of a
// coarser cuboid, so patterns 5.1 and 5.2 must not slice such an AST. Every
// query below used to rewrite and answer wrongly: GROUP BY b returned each b
// twice, GROUP BY a and GROUP BY a, b dropped the NULL-a groups.
class NullableGroupingSetsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->CreateTable("t", {{"a", Type::kInt, /*nullable=*/true},
                                       {"b", Type::kInt},
                                       {"v", Type::kInt}})
                    .ok());
    std::vector<Row> rows;
    for (int i = 0; i < 2004; ++i) {
      rows.push_back(Row{i % 4 == 0 ? Value::Null() : Value::Int(i % 7),
                         Value::Int(i % 2 == 0 ? 10 : 20),
                         Value::Int(i % 13)});
    }
    ASSERT_TRUE(db_->BulkLoad("t", std::move(rows)).ok());
    ASSERT_TRUE(db_->DefineSummaryTable(
                       "gs_ast",
                       "select a, b, count(*) as cnt, sum(v) as sv from t "
                       "group by grouping sets ((a, b), (b))")
                    .ok());
  }

  /// The query answers like the base tables, and EXPLAIN REWRITE names the
  /// refused slice.
  void ExpectNoSlice(const std::string& sql) {
    testing::ExpectRewriteEquivalent(db_.get(), sql, /*expect_rewrite=*/false);
    StatusOr<QueryResult> explain = db_->Query("explain rewrite " + sql);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    std::string text;
    for (const Row& row : explain->relation.rows) text += row[0].AsString();
    EXPECT_NE(text.find("nullable_grouping_slice"), std::string::npos) << text;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(NullableGroupingSetsTest, CoarseCuboidKeepsDataNullsOut) {
  ExpectNoSlice("select b, count(*) as cnt, sum(v) as sv from t group by b");
}

TEST_F(NullableGroupingSetsTest, RegroupKeepsNullGroups) {
  ExpectNoSlice("select a, count(*) as cnt, sum(v) as sv from t group by a");
}

TEST_F(NullableGroupingSetsTest, FineCuboidKeepsNullGroups) {
  ExpectNoSlice(
      "select a, b, count(*) as cnt, sum(v) as sv from t group by a, b");
}

}  // namespace
}  // namespace sumtab
