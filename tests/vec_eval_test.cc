// Vectorized-evaluator semantics: every edge the scalar interpreter defines
// — NULL propagation before type checks, division by zero -> NULL, 3VL
// AND/OR, sticky int/double SUM promotion — must reproduce bit-for-bit on
// the columnar path. Each test evaluates the same expression through the
// scalar Eval and through EvalVec over a batch built from the same rows and
// asserts exact Value equality row by row; the aggregation tests do the same
// for AggregateBatch against the reference evaluator's grouping
// (tests/reference.h), which walks the same rows in the same order. Also
// covers the engine-wide NULL total order (Value::CompareRows) that
// SortRows/SameRowMultiset and the columnar null bitmap share — data-NULLs
// and grouping-set padding-NULLs must be indistinguishable to it.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/aggregator.h"
#include "engine/column_vector.h"
#include "engine/relation.h"
#include "expr/expr.h"
#include "expr/expr_eval.h"
#include "expr/expr_vec_eval.h"
#include "tests/reference.h"

namespace sumtab {
namespace {

using engine::AggSpec;
using engine::AggregateBatch;
using engine::Batch;
using engine::BatchFromRows;
using engine::ColumnVector;
using expr::AggFunc;
using expr::BinaryOp;
using expr::ExprPtr;
using expr::UnaryOp;

/// Evaluates e over `rows` both ways and asserts identical outcomes:
/// same Values bit-for-bit when scalar evaluation succeeds on every row,
/// and a vectorized error whenever any scalar evaluation errors.
void CheckBothPaths(const ExprPtr& e, const std::vector<Row>& rows,
                    int num_cols, const std::string& label) {
  std::vector<int> offsets = {0};
  bool scalar_error = false;
  std::vector<Value> expected;
  for (const Row& row : rows) {
    expr::EvalContext ctx{&offsets, &row};
    StatusOr<Value> v = expr::Eval(e, ctx);
    if (!v.ok()) {
      scalar_error = true;
      break;
    }
    expected.push_back(std::move(*v));
  }
  Batch batch = BatchFromRows(rows, num_cols);
  expr::VecEvalContext vctx{&offsets, &batch, 0, batch.num_rows};
  StatusOr<ColumnVector> col = expr::EvalVec(e, vctx);
  if (scalar_error) {
    EXPECT_FALSE(col.ok()) << label << ": scalar errors but vectorized ok";
    return;
  }
  ASSERT_TRUE(col.ok()) << label << ": " << col.status().ToString();
  ASSERT_EQ(col->size(), static_cast<int64_t>(rows.size())) << label;
  for (size_t i = 0; i < rows.size(); ++i) {
    Value got = col->ValueAt(static_cast<int64_t>(i));
    // operator== admits Int(2) == Double(2.0); bit-exact means same kind too.
    EXPECT_TRUE(got == expected[i] && got.kind() == expected[i].kind())
        << label << " row " << i << ": scalar " << expected[i].ToString()
        << " vs vectorized " << got.ToString();
  }
  // The predicate path must agree with the scalar EvalPredicate too.
  std::vector<uint8_t> mask;
  Status pred_status = expr::EvalPredicateVec(e, vctx, &mask);
  bool scalar_pred_error = false;
  std::vector<bool> expected_mask;
  for (const Row& row : rows) {
    expr::EvalContext ctx{&offsets, &row};
    StatusOr<bool> pass = expr::EvalPredicate(e, ctx);
    if (!pass.ok()) {
      scalar_pred_error = true;
      break;
    }
    expected_mask.push_back(*pass);
  }
  if (scalar_pred_error) {
    EXPECT_FALSE(pred_status.ok())
        << label << ": scalar predicate errors but vectorized ok";
    return;
  }
  ASSERT_TRUE(pred_status.ok()) << label << ": " << pred_status.ToString();
  for (size_t i = 0; i < expected_mask.size(); ++i) {
    EXPECT_EQ(mask[i] != 0, expected_mask[i]) << label << " mask row " << i;
  }
}

Row R1(Value v) { return Row{std::move(v)}; }

TEST(VecEvalTest, DivisionByZeroYieldsNullNotError) {
  // col / 0, 0 / col, col / col with zero rows — int and double flavors.
  std::vector<Row> rows = {
      Row{Value::Int(10), Value::Int(0)},
      Row{Value::Int(10), Value::Int(2)},
      Row{Value::Double(3.5), Value::Double(0.0)},
      Row{Value::Null(), Value::Int(0)},
      Row{Value::Int(7), Value::Null()},
  };
  ExprPtr e = expr::Binary(BinaryOp::kDiv, expr::ColRef(0, 0),
                           expr::ColRef(0, 1));
  CheckBothPaths(e, rows, 2, "col0 / col1");
  CheckBothPaths(expr::Binary(BinaryOp::kDiv, expr::ColRef(0, 0),
                              expr::LitInt(0)),
                 rows, 2, "col0 / 0");
  CheckBothPaths(expr::Binary(BinaryOp::kMod, expr::ColRef(0, 0),
                              expr::LitInt(0)),
                 rows, 2, "col0 % 0");
  // Pure int rows so the typed int loops (not the variant fallback) run.
  std::vector<Row> ints = {Row{Value::Int(9), Value::Int(3)},
                           Row{Value::Int(9), Value::Int(0)},
                           Row{Value::Int(-7), Value::Int(2)}};
  CheckBothPaths(expr::Binary(BinaryOp::kDiv, expr::ColRef(0, 0),
                              expr::ColRef(0, 1)),
                 ints, 2, "int col0 / col1");
  CheckBothPaths(expr::Binary(BinaryOp::kMod, expr::ColRef(0, 0),
                              expr::ColRef(0, 1)),
                 ints, 2, "int col0 % col1");
}

TEST(VecEvalTest, NullPropagatesThroughComparisonsAndArithmetic) {
  std::vector<Row> rows = {R1(Value::Int(1)), R1(Value::Null()),
                           R1(Value::Int(-3))};
  for (BinaryOp op : {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                      BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe,
                      BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                      BinaryOp::kDiv}) {
    CheckBothPaths(expr::Binary(op, expr::ColRef(0, 0), expr::LitInt(2)),
                   rows, 1, std::string("col op lit, op #") +
                                expr::BinaryOpName(op));
    CheckBothPaths(
        expr::Binary(op, expr::ColRef(0, 0), expr::Lit(Value::Null())),
        rows, 1, std::string("col op NULL, op ") + expr::BinaryOpName(op));
  }
  // NULL propagates BEFORE type checking: NULL + 'x' is NULL, not an error.
  CheckBothPaths(expr::Binary(BinaryOp::kAdd, expr::Lit(Value::Null()),
                              expr::LitString("x")),
                 rows, 1, "NULL + 'x'");
  // But a non-null string operand IS an arithmetic type error on both paths.
  std::vector<Row> strings = {R1(Value::String("a")), R1(Value::Null())};
  CheckBothPaths(expr::Binary(BinaryOp::kAdd, expr::ColRef(0, 0),
                              expr::LitInt(1)),
                 strings, 1, "'a' + 1");
  // Mixed-kind column (int + double + string) exercises the variant
  // fallback, which shares the scalar binary core by construction.
  std::vector<Row> mixed = {R1(Value::Int(2)), R1(Value::Double(2.0)),
                            R1(Value::Null()), R1(Value::String("2"))};
  CheckBothPaths(expr::Binary(BinaryOp::kEq, expr::ColRef(0, 0),
                              expr::LitInt(2)),
                 mixed, 1, "mixed = 2");
}

TEST(VecEvalTest, ThreeValuedAndOr) {
  // All nine truth combinations of {true, false, NULL} x {true, false, NULL}.
  std::vector<Row> rows;
  std::vector<Value> tv = {Value::Bool(true), Value::Bool(false),
                           Value::Null()};
  for (const Value& a : tv) {
    for (const Value& b : tv) rows.push_back(Row{a, b});
  }
  ExprPtr a = expr::ColRef(0, 0);
  ExprPtr b = expr::ColRef(0, 1);
  CheckBothPaths(expr::Binary(BinaryOp::kAnd, a, b), rows, 2, "a AND b");
  CheckBothPaths(expr::Binary(BinaryOp::kOr, a, b), rows, 2, "a OR b");
  CheckBothPaths(expr::Unary(UnaryOp::kNot, a), rows, 2, "NOT a");
  // Composite predicate mixing comparisons with 3VL connectives over NULLs.
  std::vector<Row> data = {Row{Value::Int(5), Value::Null()},
                           Row{Value::Int(1), Value::Int(9)},
                           Row{Value::Null(), Value::Null()},
                           Row{Value::Int(7), Value::Int(2)}};
  ExprPtr pred = expr::Binary(
      BinaryOp::kOr,
      expr::Binary(BinaryOp::kAnd,
                   expr::Binary(BinaryOp::kGt, expr::ColRef(0, 0),
                                expr::LitInt(3)),
                   expr::Binary(BinaryOp::kLt, expr::ColRef(0, 1),
                                expr::LitInt(5))),
      expr::IsNull(expr::ColRef(0, 1), /*negated=*/false));
  CheckBothPaths(pred, data, 2, "(c0>3 AND c1<5) OR c1 IS NULL");
}

TEST(VecEvalTest, UnaryFunctionsAndIsNull) {
  std::vector<Row> rows = {
      Row{Value::Int(4), Value::Date(19951231), Value::Double(-2.5)},
      Row{Value::Null(), Value::Null(), Value::Null()},
      Row{Value::Int(-4), Value::Date(20000101), Value::Double(0.25)},
  };
  CheckBothPaths(expr::Unary(UnaryOp::kNeg, expr::ColRef(0, 0)), rows, 3,
                 "-int");
  CheckBothPaths(expr::Unary(UnaryOp::kNeg, expr::ColRef(0, 2)), rows, 3,
                 "-double");
  for (const char* fn : {"year", "month", "day"}) {
    CheckBothPaths(expr::Function(fn, {expr::ColRef(0, 1)}), rows, 3, fn);
  }
  // year() of a non-date errors identically.
  CheckBothPaths(expr::Function("year", {expr::ColRef(0, 0)}), rows, 3,
                 "year(int)");
  CheckBothPaths(expr::IsNull(expr::ColRef(0, 0), false), rows, 3,
                 "c0 IS NULL");
  CheckBothPaths(expr::IsNull(expr::ColRef(0, 0), true), rows, 3,
                 "c0 IS NOT NULL");
}

TEST(VecEvalTest, MorselRangesSeeTheSameRows) {
  // Evaluating [begin, end) sub-ranges must match the full-range rows.
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(R1(i % 7 == 0 ? Value::Null() : Value::Int(i)));
  }
  Batch batch = BatchFromRows(rows, 1);
  std::vector<int> offsets = {0};
  ExprPtr e = expr::Binary(BinaryOp::kMul, expr::ColRef(0, 0),
                           expr::LitInt(3));
  expr::VecEvalContext full{&offsets, &batch, 0, batch.num_rows};
  StatusOr<ColumnVector> whole = expr::EvalVec(e, full);
  ASSERT_TRUE(whole.ok());
  for (int64_t begin : {int64_t{0}, int64_t{13}, int64_t{99}, int64_t{100}}) {
    int64_t end = std::min<int64_t>(batch.num_rows, begin + 31);
    expr::VecEvalContext part{&offsets, &batch, begin, end};
    StatusOr<ColumnVector> piece = expr::EvalVec(e, part);
    ASSERT_TRUE(piece.ok());
    ASSERT_EQ(piece->size(), end - begin);
    for (int64_t i = begin; i < end; ++i) {
      EXPECT_TRUE(piece->ValueAt(i - begin) == whole->ValueAt(i))
          << "range [" << begin << "," << end << ") row " << i;
    }
  }
}

/// Runs AggregateBatch (serial and 4-lane) and asserts results bit-exact
/// to the reference's grouping, Value kinds included: a SUM that promoted
/// to double on one side but stayed int on the other would fail.
void CheckAggBothPaths(const std::vector<Row>& input, int num_cols,
                       const std::vector<int>& grouping_cols,
                       const std::vector<std::vector<int>>& sets,
                       const std::vector<AggSpec>& aggs,
                       const std::string& label) {
  Batch batch = BatchFromRows(input, num_cols);
  StatusOr<std::vector<Row>> want =
      reference::Aggregate(input, grouping_cols, sets, aggs);
  ASSERT_TRUE(want.ok()) << label;
  for (int threads : {1, 4}) {
    StatusOr<std::vector<Row>> got =
        AggregateBatch(batch, grouping_cols, sets, aggs, threads);
    ASSERT_TRUE(got.ok()) << label;
    EXPECT_TRUE(reference::SameRowsExactly(*got, *want))
        << label << " threads=" << threads;
  }
}

AggSpec Spec(AggFunc func, int col, bool distinct = false) {
  AggSpec spec;
  spec.func = func;
  spec.arg_col = col;
  spec.distinct = distinct;
  return spec;
}

TEST(VecEvalTest, StickyDoubleSumMatchesRowAggregator) {
  AggSpec star;
  star.star = true;
  // Column 0: int group key. Column 1: int/double/NULL mix whose per-group
  // accumulation order decides when SUM promotes to double — the batch path
  // must promote at exactly the same row as the reference.
  std::vector<Row> input = {
      Row{Value::Int(1), Value::Int(3)},
      Row{Value::Int(1), Value::Double(0.5)},   // group 1 promotes here
      Row{Value::Int(1), Value::Int(2)},
      Row{Value::Int(2), Value::Int(7)},        // group 2 stays int
      Row{Value::Int(2), Value::Null()},
      Row{Value::Int(3), Value::Double(1e18)},  // double from the start
      Row{Value::Int(3), Value::Int(1)},
      Row{Value::Int(4), Value::Null()},        // all-NULL group: SUM is NULL
  };
  for (AggFunc func : {AggFunc::kSum, AggFunc::kAvg, AggFunc::kMin,
                       AggFunc::kMax, AggFunc::kCount}) {
    CheckAggBothPaths(input, 2, {0}, {{0}},
                      {Spec(func, 1), star},
                      std::string("func ") + expr::AggFuncName(func));
  }
  CheckAggBothPaths(input, 2, {0}, {{0}},
                    {Spec(AggFunc::kSum, 1, /*distinct=*/true),
                     Spec(AggFunc::kCount, 1, /*distinct=*/true)},
                    "distinct sum/count");
  // Global aggregation (empty set), over data and over an empty input.
  CheckAggBothPaths(input, 2, {}, {{}},
                    {Spec(AggFunc::kSum, 1), star}, "global sum");
  CheckAggBothPaths({}, 2, {}, {{}},
                    {Spec(AggFunc::kSum, 1), star}, "empty input global");
  CheckAggBothPaths({}, 2, {0}, {{0}},
                    {Spec(AggFunc::kSum, 1), star}, "empty input grouped");
}

TEST(VecEvalTest, GroupingSetsMixDataNullsAndPaddingNulls) {
  AggSpec star;
  star.star = true;
  // Key columns contain data NULLs; rollup-style grouping sets add padding
  // NULLs for grouped-out columns. Both sides must agree bit-for-bit,
  // which also exercises the shared NULL-first total order used to sort.
  std::vector<Row> input = {
      Row{Value::Int(1), Value::String("a"), Value::Int(10)},
      Row{Value::Null(), Value::String("a"), Value::Int(20)},
      Row{Value::Int(1), Value::Null(), Value::Double(2.5)},
      Row{Value::Null(), Value::Null(), Value::Int(40)},
      Row{Value::Int(2), Value::String("b"), Value::Null()},
  };
  CheckAggBothPaths(input, 3, {0, 1}, {{0, 1}, {0}, {}},
                    {Spec(AggFunc::kSum, 2), star}, "rollup with data nulls");
  // Single int key with data NULLs: the fast int64-keyed path must put the
  // NULL group exactly where the reference puts it.
  CheckAggBothPaths(input, 3, {0}, {{0}},
                    {Spec(AggFunc::kSum, 2), Spec(AggFunc::kMin, 2), star},
                    "int key with nulls");
}

TEST(VecEvalTest, NullTotalOrderIsSharedAndNullSourceInvisible) {
  // Value::CompareRows: NULL sorts first and equals NULL, regardless of
  // whether the NULL came from data or from grouping-set padding (there is
  // no representational difference — this pins that down).
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_LT(Value::Null().Compare(Value::Int(-1000)), 0);
  EXPECT_GT(Value::Int(0).Compare(Value::Null()), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Double(2.5)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(2.0)), 0);

  // Two relations whose NULLs come from different "sources" (explicit data
  // NULL vs a padded row built by grouping-set emission) must compare equal
  // under SameRowMultiset and sort identically under SortRows.
  engine::Relation left;
  left.column_names = {"k", "c"};
  left.rows = {Row{Value::Null(), Value::Int(1)},
               Row{Value::Int(3), Value::Int(2)},
               Row{Value::Null(), Value::Int(1)}};
  engine::Relation right;
  right.column_names = {"k", "c"};
  // Same multiset, different order; NULLs constructed through the columnar
  // round-trip instead of directly.
  Batch b = BatchFromRows({Row{Value::Int(3), Value::Int(2)},
                           Row{Value::Null(), Value::Int(1)},
                           Row{Value::Null(), Value::Int(1)}},
                          2);
  right.rows = {b.RowAt(0), b.RowAt(1), b.RowAt(2)};
  EXPECT_TRUE(engine::SameRowMultiset(left, right));
  engine::SortRows(&left);
  engine::SortRows(&right);
  for (size_t i = 0; i < left.rows.size(); ++i) {
    for (size_t j = 0; j < left.rows[i].size(); ++j) {
      EXPECT_TRUE(left.rows[i][j] == right.rows[i][j]) << i << "," << j;
    }
  }
  // NULL-first: after sorting, the padded/data NULL rows lead.
  EXPECT_TRUE(left.rows[0][0].is_null());
  EXPECT_TRUE(left.rows[1][0].is_null());
  EXPECT_TRUE(left.rows[2][0] == Value::Int(3));
}

TEST(VecEvalTest, DictEncodedConstantComparisonMatchesScalar) {
  // The vectorized evaluator compares a dictionary-encoded string column
  // against a constant with one Find() and an int loop — results must match
  // the scalar interpreter exactly, including the absent-string and NULL
  // cases and the empty string as an ordinary value.
  std::vector<Row> rows = {R1(Value::String("a")), R1(Value::String("b")),
                           R1(Value::Null()),      R1(Value::String("")),
                           R1(Value::String("a"))};
  Batch batch = BatchFromRows(rows, 1);
  engine::DictEncodeBatch(&batch, {});
  ASSERT_TRUE(batch.columns[0].dict_encoded());
  std::vector<int> offsets = {0};
  expr::VecEvalContext vctx{&offsets, &batch, 0, batch.num_rows};
  for (const char* lit : {"a", "", "absent"}) {
    for (BinaryOp op : {BinaryOp::kEq, BinaryOp::kNe}) {
      for (bool const_on_left : {false, true}) {
        ExprPtr col = expr::ColRef(0, 0);
        ExprPtr c = expr::LitString(lit);
        ExprPtr e = const_on_left ? expr::Binary(op, c, col)
                                  : expr::Binary(op, col, c);
        StatusOr<ColumnVector> got = expr::EvalVec(e, vctx);
        ASSERT_TRUE(got.ok()) << lit;
        for (size_t i = 0; i < rows.size(); ++i) {
          expr::EvalContext ctx{&offsets, &rows[i]};
          StatusOr<Value> want = expr::Eval(e, ctx);
          ASSERT_TRUE(want.ok());
          EXPECT_TRUE(got->ValueAt(static_cast<int64_t>(i)) == *want)
              << "lit '" << lit << "' op " << expr::BinaryOpName(op)
              << " row " << i;
        }
      }
    }
  }
  // Ordering comparisons must NOT use arrival-ordered codes: 'b' < 'a' would
  // be true by code but false by collation. They decode instead.
  ExprPtr lt = expr::Binary(BinaryOp::kLt, expr::ColRef(0, 0),
                            expr::LitString("b"));
  StatusOr<ColumnVector> got = expr::EvalVec(lt, vctx);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->ValueAt(0) == Value::Bool(true));   // "a" < "b"
  EXPECT_TRUE(got->ValueAt(1) == Value::Bool(false));  // "b" < "b"
  EXPECT_TRUE(got->ValueAt(2).is_null());
  EXPECT_TRUE(got->ValueAt(3) == Value::Bool(true));   // "" < "b"
}

TEST(VecEvalTest, DictEncodedGroupingMatchesRowAggregator) {
  AggSpec star;
  star.star = true;
  // Composite keys over dict-encoded strings + ints route through the
  // encoded multi-column grouping path; the reference's grouping is the
  // oracle.
  std::vector<Row> input;
  const char* regions[] = {"east", "west", "", "east"};
  for (int i = 0; i < 40; ++i) {
    input.push_back(Row{
        i % 5 == 0 ? Value::Null() : Value::String(regions[i % 4]),
        Value::Int(i % 3),
        i % 7 == 0 ? Value::Null() : Value::String("p" + std::to_string(i % 2)),
        i % 11 == 0 ? Value::Double(i * 0.5) : Value::Int(i)});
  }
  Batch batch = BatchFromRows(input, 4);
  engine::DictEncodeBatch(&batch, {});
  ASSERT_TRUE(batch.columns[0].dict_encoded());
  ASSERT_TRUE(batch.columns[2].dict_encoded());
  std::vector<AggSpec> aggs = {Spec(AggFunc::kSum, 3), Spec(AggFunc::kMin, 3),
                               star};
  // Rollup-style grouping sets: padding NULLs for grouped-out dict columns
  // must land exactly where the reference puts them.
  std::vector<std::vector<int>> sets = {{0, 1, 2}, {0, 1}, {0}, {}};
  StatusOr<std::vector<Row>> want =
      reference::Aggregate(input, {0, 1, 2}, sets, aggs);
  ASSERT_TRUE(want.ok());
  for (int threads : {1, 4}) {
    StatusOr<std::vector<Row>> by_batch =
        AggregateBatch(batch, {0, 1, 2}, sets, aggs, threads);
    ASSERT_TRUE(by_batch.ok());
    EXPECT_TRUE(reference::SameRowsExactly(*by_batch, *want))
        << "dict rollup threads=" << threads;
  }
  // Raw (non-encoded) string keys can't use the code path — the generic
  // fallback must still agree.
  Batch raw = BatchFromRows(input, 4);
  ASSERT_FALSE(raw.columns[0].dict_encoded());
  StatusOr<std::vector<Row>> by_raw =
      AggregateBatch(raw, {0, 1, 2}, sets, aggs, 4);
  ASSERT_TRUE(by_raw.ok());
  EXPECT_TRUE(reference::SameRowsExactly(*by_raw, *want))
      << "raw string fallback";
}

TEST(VecEvalTest, ColumnVectorMixedKindsRoundTrip) {
  // Tag inference: all-null prefix re-binds; mixed kinds promote to variant;
  // ValueAt reconstructs exactly what was appended.
  std::vector<Row> rows = {R1(Value::Null()), R1(Value::Int(5)),
                           R1(Value::Double(5.0)), R1(Value::String("x")),
                           R1(Value::Bool(true)), R1(Value::Date(19990101)),
                           R1(Value::Null())};
  Batch batch = BatchFromRows(rows, 1);
  ASSERT_EQ(batch.columns[0].tag(), ColumnVector::Tag::kVariant);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(batch.columns[0].ValueAt(static_cast<int64_t>(i)) ==
                rows[i][0])
        << i;
  }
  // Int(5) and Double(5.0) survived as distinct kinds through the round
  // trip (a lossy widening here would silently change query outputs).
  EXPECT_EQ(batch.columns[0].ValueAt(1).kind(), Value::Kind::kInt);
  EXPECT_EQ(batch.columns[0].ValueAt(2).kind(), Value::Kind::kDouble);
}

}  // namespace
}  // namespace sumtab
