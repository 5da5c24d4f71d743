// The aggregation kernel against the reference evaluator: engine::
// AggregateBatch at one lane and at four, each compared bit-exactly
// (SameRowsExactly: same Values of the same kinds) with reference::Aggregate
// over the same rows in the same order. Inputs are large enough for the
// four-lane runs to hash-partition. Also SELECT DISTINCT, which assigns ids
// through the same kernel, against reference::Query.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/aggregator.h"
#include "engine/column_vector.h"
#include "sumtab/database.h"
#include "tests/reference.h"
#include "tests/test_util.h"

namespace sumtab {
namespace {

using engine::AggSpec;
using engine::Batch;
using engine::ColumnVector;
using expr::AggFunc;

/// Rows enough that four lanes really partition (ParallelLanes needs two
/// 4096-row chunks).
constexpr int64_t kRows = 12000;

/// Deterministic pseudo-random stream.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  int64_t Next(int64_t bound) {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<int64_t>((state_ >> 33) % static_cast<uint64_t>(bound));
  }

 private:
  uint64_t state_;
};

AggSpec Star() {
  AggSpec spec;
  spec.star = true;
  return spec;
}

AggSpec Agg(AggFunc func, int col, bool distinct = false) {
  AggSpec spec;
  spec.func = func;
  spec.arg_col = col;
  spec.distinct = distinct;
  return spec;
}

/// COUNT, SUM, AVG, MIN and MAX of column `col`.
std::vector<AggSpec> AllOf(int col) {
  return {Agg(AggFunc::kCount, col), Agg(AggFunc::kSum, col),
          Agg(AggFunc::kAvg, col), Agg(AggFunc::kMin, col),
          Agg(AggFunc::kMax, col)};
}

/// Aggregates `batch` (built from `input`) serially and at four lanes and
/// checks both against the reference; returns the serial answer.
std::vector<Row> ExpectLikeReference(const Batch& batch,
                                     const std::vector<Row>& input,
                                     const std::vector<int>& grouping_cols,
                                     const std::vector<std::vector<int>>& sets,
                                     const std::vector<AggSpec>& aggs) {
  StatusOr<std::vector<Row>> want =
      reference::Aggregate(input, grouping_cols, sets, aggs);
  EXPECT_TRUE(want.ok());
  std::vector<Row> serial;
  for (int threads : {1, 4}) {
    StatusOr<std::vector<Row>> got =
        testing::AggregateRows(batch, grouping_cols, sets, aggs, threads);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (!got.ok() || !want.ok()) return {};
    EXPECT_TRUE(reference::SameRowsExactly(*got, *want))
        << "threads=" << threads;
    if (threads == 1) serial = std::move(*got);
  }
  return serial;
}

/// Same, over rows converted to a batch with raw strings dictionary-encoded
/// as storage does.
std::vector<Row> ExpectLikeReference(const std::vector<Row>& input,
                                     int num_cols,
                                     const std::vector<int>& grouping_cols,
                                     const std::vector<std::vector<int>>& sets,
                                     const std::vector<AggSpec>& aggs) {
  Batch batch = engine::BatchFromRows(input, num_cols);
  engine::DictEncodeBatch(&batch, {});
  return ExpectLikeReference(batch, input, grouping_cols, sets, aggs);
}

TEST(AggregatorTest, HundredThousandGroupsGrowTheTableManyTimes) {
  // 130k rows over 110k keys: the group-id table starts at 16 slots and
  // doubles past 2^17. Keys arrive scattered, and every group has an int, a
  // double and a dictionary-string argument.
  Lcg rng(1);
  std::vector<Row> input;
  for (int64_t i = 0; i < 130000; ++i) {
    const int64_t key = i * 7919 % 110000;
    input.push_back({Value::Int(key), Value::Int(rng.Next(1000) - 500),
                     Value::Double(static_cast<double>(rng.Next(1000)) * 0.1),
                     Value::String("s" + std::to_string(rng.Next(50)))});
  }
  std::vector<AggSpec> aggs = {Star(), Agg(AggFunc::kSum, 1),
                               Agg(AggFunc::kSum, 2), Agg(AggFunc::kMax, 2),
                               Agg(AggFunc::kMin, 3)};
  std::vector<Row> got = ExpectLikeReference(input, 4, {0}, {{0}}, aggs);
  EXPECT_EQ(got.size(), 110000u);
  // A composite key (int, dictionary string) with as many groups.
  got = ExpectLikeReference(input, 4, {0, 3}, {{0, 1}}, aggs);
  EXPECT_GT(got.size(), 100000u);
}

TEST(AggregatorTest, EmptyInputGlobalAndGrouped) {
  Batch empty = engine::BatchFromRows({}, 3);
  std::vector<AggSpec> aggs = AllOf(1);
  aggs.push_back(Star());
  // A global set yields its one row, a grouped set nothing: alone, and as
  // the cuboids of one CUBE.
  std::vector<Row> global = ExpectLikeReference(empty, {}, {}, {{}}, aggs);
  ASSERT_EQ(global.size(), 1u);
  EXPECT_EQ(global[0][0].AsInt(), 0);  // COUNT(col)
  EXPECT_TRUE(global[0][1].is_null());  // SUM
  EXPECT_EQ(ExpectLikeReference(empty, {}, {0}, {{0}}, aggs).size(), 0u);
  std::vector<Row> cube =
      ExpectLikeReference(empty, {}, {0, 2}, {{0, 1}, {0}, {1}, {}}, aggs);
  ASSERT_EQ(cube.size(), 1u);
  EXPECT_TRUE(cube[0][0].is_null() && cube[0][1].is_null());
}

TEST(AggregatorTest, AllNullArgumentGroups) {
  // Group 0 sees only NULL arguments in every column; the others mix.
  Lcg rng(2);
  std::vector<Row> input;
  for (int64_t i = 0; i < kRows; ++i) {
    const int64_t key = rng.Next(40);
    const bool null = key == 0 || rng.Next(4) == 0;
    input.push_back(
        {Value::Int(key), null ? Value::Null() : Value::Int(rng.Next(100)),
         null ? Value::Null() : Value::Double(rng.Next(100) * 0.25),
         null ? Value::Null() : Value::String("v" + std::to_string(key % 7)),
         null ? Value::Null() : Value::Date(20000101 + rng.Next(28))});
  }
  for (int col : {1, 2, 3, 4}) {
    std::vector<AggSpec> aggs = AllOf(col);
    if (col >= 3) aggs = {aggs[0], aggs[3], aggs[4]};  // no SUM of text/dates
    aggs.push_back(Star());
    std::vector<Row> got = ExpectLikeReference(input, 5, {0}, {{0}}, aggs);
    for (const Row& row : got) {
      if (row[0].AsInt() != 0) continue;
      EXPECT_EQ(row[1].AsInt(), 0) << "COUNT of col " << col;
      for (size_t a = 2; a + 1 < row.size(); ++a) {
        EXPECT_TRUE(row[a].is_null()) << "col " << col << " agg " << a;
      }
    }
  }
}

TEST(AggregatorTest, MinMaxOverIntDateDoubleAndDictionaryStrings) {
  Lcg rng(3);
  const char* words[] = {"pear", "apple", "", "zebra", "Apple", "apple "};
  std::vector<Row> input;
  for (int64_t i = 0; i < kRows; ++i) {
    const int64_t d = rng.Next(9);
    input.push_back(
        {Value::Int(rng.Next(300)),
         Value::Int(rng.Next(2000) - 1000),
         Value::Date(19991225 + rng.Next(10)),
         // -0.0 and 0.0 tie under Value::Compare: the first one wins.
         Value::Double(d == 0 ? -0.0 : d == 1 ? 0.0 : (d - 4) * 1.5),
         Value::String(words[rng.Next(6)]),
         Value::Bool(rng.Next(2) == 0)});
  }
  Batch batch = engine::BatchFromRows(input, 6);
  engine::DictEncodeBatch(&batch, {});
  ASSERT_TRUE(batch.columns[4].dict_encoded());
  for (int col : {1, 2, 3, 4, 5}) {
    std::vector<AggSpec> aggs = {Agg(AggFunc::kMin, col),
                                 Agg(AggFunc::kMax, col)};
    ExpectLikeReference(batch, input, {0}, {{0}}, aggs);
    ExpectLikeReference(batch, input, {0}, {{}}, aggs);
  }
  // MIN/MAX of a dictionary column comes out still encoded.
  StatusOr<Batch> out = engine::AggregateBatch(
      batch, {0}, {{0}}, {Agg(AggFunc::kMin, 4)}, 1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->columns[1].dict(), batch.columns[4].dict());
}

TEST(AggregatorTest, StickySumPromotesPartWayThroughAVariantGroup) {
  // Column 1 mixes Int and Double (kVariant). Group k % 3 == 0 turns double
  // part-way through, group 1 stays int, group 2 is double from its first
  // value; each group promotes at exactly the reference's row.
  std::vector<Row> input;
  for (int64_t i = 0; i < kRows; ++i) {
    const int64_t key = i % 30;
    Value v = Value::Int(i);
    if (key % 3 == 0 && i >= kRows / 2) v = Value::Double(i * 0.1);
    if (key % 3 == 2) v = i < 30 ? Value::Double(0.3) : Value::Int(1 << 20);
    if (i % 17 == 0 && i >= 30) v = Value::Null();
    input.push_back({Value::Int(key), v});
  }
  Batch batch = engine::BatchFromRows(input, 2);
  ASSERT_EQ(batch.columns[1].tag(), ColumnVector::Tag::kVariant);
  std::vector<AggSpec> aggs = AllOf(1);
  aggs.push_back(Agg(AggFunc::kCount, 1, /*distinct=*/true));
  std::vector<Row> got = ExpectLikeReference(batch, input, {0}, {{0}}, aggs);
  for (const Row& row : got) {
    const Value::Kind want =
        row[0].AsInt() % 3 == 1 ? Value::Kind::kInt : Value::Kind::kDouble;
    EXPECT_EQ(row[2].kind(), want) << "SUM of group " << row[0].AsInt();
  }
}

TEST(AggregatorTest, DoubleKeysAndFiveColumnKeysTakeTheValuePath) {
  Lcg rng(4);
  std::vector<Row> input;
  for (int64_t i = 0; i < kRows; ++i) {
    const int64_t d = rng.Next(8);
    input.push_back(
        {d == 0   ? Value::Null()
         : d == 1 ? Value::Double(-0.0)  // one group with 0.0
         : d == 2 ? Value::Double(0.0)
                  : Value::Double(d * 0.5),
         Value::Int(rng.Next(3)), Value::String(rng.Next(2) ? "x" : "y"),
         Value::Date(20010101 + rng.Next(2)), Value::Bool(rng.Next(2) == 0),
         rng.Next(5) == 0 ? Value::Null() : Value::Int(rng.Next(4)),
         Value::Double(rng.Next(100) * 0.01)});
  }
  std::vector<AggSpec> aggs = {Star(), Agg(AggFunc::kSum, 6),
                               Agg(AggFunc::kMax, 6)};
  std::vector<Row> got = ExpectLikeReference(input, 7, {0}, {{0}}, aggs);
  EXPECT_EQ(got.size(), 7u);  // NULL, +-0.0, 1.5, 2.0, 2.5, 3.0, 3.5
  // Five encodable columns: wider than one composite code key.
  ExpectLikeReference(input, 7, {1, 2, 3, 4, 5}, {{0, 1, 2, 3, 4}}, aggs);
  // A double key beside encodable ones, and in the cuboids of a ROLLUP.
  ExpectLikeReference(input, 7, {0, 1, 2}, {{0, 1, 2}, {0, 1}, {0}, {}},
                      aggs);
}

TEST(AggregatorTest, CubeKeepsDataNullsApartFromPaddingNulls) {
  // Column 0 holds data NULLs. In CUBE(a, b) the group (a = NULL, b = x)
  // from cuboid {a, b} and the padded (NULL, x) from cuboid {b} are
  // different rows with different counts; the multiset compare counts both.
  Lcg rng(5);
  std::vector<Row> input;
  for (int64_t i = 0; i < kRows; ++i) {
    input.push_back(
        {rng.Next(3) == 0 ? Value::Null() : Value::Int(rng.Next(4)),
         rng.Next(5) == 0 ? Value::Null()
                          : Value::String(rng.Next(2) ? "x" : "y"),
         Value::Int(rng.Next(50))});
  }
  std::vector<AggSpec> aggs = {Star(), Agg(AggFunc::kSum, 2)};
  std::vector<Row> got = ExpectLikeReference(
      input, 3, {0, 1}, {{0, 1}, {0}, {1}, {}}, aggs);
  int64_t null_x = 0;
  for (const Row& row : got) {
    if (row[0].is_null() && !row[1].is_null() && row[1].AsString() == "x") {
      ++null_x;
    }
  }
  EXPECT_EQ(null_x, 2);  // one data-NULL group, one padded group
}

/// Aggregates the rows of `batch` (built from `input`) that `sel` lists,
/// read through the selection, serially and at four lanes, and checks both
/// against the reference over those rows; returns the serial answer.
std::vector<Row> ExpectSelectionLikeReference(
    const Batch& batch, const std::vector<Row>& input,
    const engine::Selection& sel, const std::vector<int>& grouping_cols,
    const std::vector<std::vector<int>>& sets,
    const std::vector<AggSpec>& aggs) {
  std::vector<Row> kept;
  for (int64_t r : sel) kept.push_back(input[r]);
  StatusOr<std::vector<Row>> want =
      reference::Aggregate(kept, grouping_cols, sets, aggs);
  EXPECT_TRUE(want.ok());
  engine::BatchView view = engine::BatchView::Of(batch);
  view.sel = std::make_shared<engine::Selection>(sel);
  view.num_rows = static_cast<int64_t>(sel.size());
  std::vector<Row> serial;
  for (int threads : {1, 4}) {
    StatusOr<Batch> got =
        engine::AggregateBatch(view, grouping_cols, sets, aggs, threads);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (!got.ok() || !want.ok()) return {};
    std::vector<Row> rows = engine::BatchToRelation(*got, {}).rows;
    EXPECT_TRUE(reference::SameRowsExactly(rows, *want))
        << "threads=" << threads;
    if (threads == 1) serial = std::move(rows);
  }
  return serial;
}

TEST(AggregatorTest, SelectionIsReadWhereItLies) {
  // NULLs in int, dictionary-string and double keys and in every argument;
  // the selection skips two rows in three and keeps runs, so four lanes
  // still partition what it lists.
  Lcg rng(7);
  std::vector<Row> input;
  for (int64_t i = 0; i < 3 * kRows; ++i) {
    input.push_back(
        {rng.Next(9) == 0 ? Value::Null() : Value::Int(rng.Next(40)),
         rng.Next(7) == 0 ? Value::Null()
                          : Value::String("g" + std::to_string(rng.Next(5))),
         rng.Next(6) == 0 ? Value::Null() : Value::Int(rng.Next(1000) - 500),
         rng.Next(5) == 0 ? Value::Null()
                          : Value::Double(rng.Next(64) * 0.125 - 4),
         Value::Date(19950101 + rng.Next(300))});
  }
  Batch batch = engine::BatchFromRows(input, 5);
  engine::DictEncodeBatch(&batch, {});
  engine::Selection sel;
  for (int64_t i = 0; i < static_cast<int64_t>(input.size()); ++i) {
    if (i % 3 == 1 || (i / 500) % 4 == 0) sel.push_back(i);
  }
  std::vector<AggSpec> aggs = AllOf(2);
  for (const AggSpec& spec : AllOf(3)) aggs.push_back(spec);
  aggs.push_back(Star());
  aggs.push_back(Agg(AggFunc::kMin, 1));
  aggs.push_back(Agg(AggFunc::kMax, 4));
  aggs.push_back(Agg(AggFunc::kCount, 0, /*distinct=*/true));
  for (const std::vector<int>& keys :
       std::vector<std::vector<int>>{{}, {0}, {1}, {3}, {0, 1, 4}}) {
    std::vector<int> set(keys.size());
    for (size_t k = 0; k < keys.size(); ++k) set[k] = static_cast<int>(k);
    std::vector<Row> got =
        ExpectSelectionLikeReference(batch, input, sel, keys, {set}, aggs);
    EXPECT_FALSE(got.empty());
  }
  // CUBE and grouping sets over the selection.
  ExpectSelectionLikeReference(batch, input, sel, {0, 1},
                               {{0, 1}, {0}, {1}, {}}, aggs);
  ExpectSelectionLikeReference(batch, input, sel, {1, 3, 0},
                               {{0, 1, 2}, {1}, {}}, aggs);
}

TEST(AggregatorTest, EmptySelectionGlobalAndGrouped) {
  std::vector<Row> input;
  for (int64_t i = 0; i < 100; ++i) {
    input.push_back({Value::Int(i % 4), Value::Int(i), Value::Double(0.5)});
  }
  Batch batch = engine::BatchFromRows(input, 3);
  std::vector<AggSpec> aggs = AllOf(1);
  for (const AggSpec& spec : AllOf(2)) aggs.push_back(spec);
  aggs.push_back(Star());
  std::vector<Row> global =
      ExpectSelectionLikeReference(batch, input, {}, {}, {{}}, aggs);
  ASSERT_EQ(global.size(), 1u);
  EXPECT_EQ(global[0][0], Value::Int(0));  // COUNT(col)
  EXPECT_TRUE(global[0][1].is_null());     // SUM
  EXPECT_EQ(global[0][10], Value::Int(0));  // COUNT(*)
  EXPECT_TRUE(
      ExpectSelectionLikeReference(batch, input, {}, {0}, {{0}}, aggs)
          .empty());
  EXPECT_EQ(ExpectSelectionLikeReference(batch, input, {}, {0, 2},
                                         {{0, 1}, {0}, {}}, aggs)
                .size(),
            1u);
}

TEST(AggregatorTest, SelectDistinctMatchesReference) {
  Database db;
  ASSERT_TRUE(db.CreateTable("u",
                             {catalog::Column{"s", Type::kString, true},
                              catalog::Column{"d", Type::kDouble, true},
                              catalog::Column{"i", Type::kInt, true},
                              catalog::Column{"t", Type::kDate, true},
                              catalog::Column{"b", Type::kBool, true}},
                             {})
                  .ok());
  Lcg rng(6);
  std::vector<Row> rows;
  for (int64_t i = 0; i < kRows; ++i) {
    const int64_t d = rng.Next(5);
    rows.push_back(
        {rng.Next(6) == 0 ? Value::Null()
                          : Value::String("s" + std::to_string(rng.Next(4))),
         d == 0   ? Value::Null()
         : d == 1 ? Value::Double(-0.0)
         : d == 2 ? Value::Double(0.0)
                  : Value::Double(d * 0.25),
         rng.Next(7) == 0 ? Value::Null() : Value::Int(rng.Next(3)),
         Value::Date(20200101 + rng.Next(2)), Value::Bool(rng.Next(2) == 0)});
  }
  ASSERT_TRUE(db.BulkLoad("u", rows).ok());
  for (const char* sql :
       {"select distinct s from u", "select distinct s, i from u",
        "select distinct d from u", "select distinct s, d, i from u",
        "select distinct s, d, i, t, b from u"}) {
    StatusOr<engine::Relation> want = reference::Query(db, sql);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    for (int threads : {1, 4}) {
      QueryOptions opts;
      opts.enable_rewrite = false;
      opts.max_threads = threads;
      StatusOr<QueryResult> got = db.Query(sql, opts);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(
          reference::SameRowsExactly(got->relation.rows, want->rows))
          << sql << " threads=" << threads;
    }
  }
  // -0.0 and 0.0 are one value: NULL, +-0.0, 0.75 and 1.0.
  StatusOr<QueryResult> d = db.Query("select distinct d from u");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->relation.NumRows(), 4u);
}

}  // namespace
}  // namespace sumtab
