// Unit tests for incremental maintenance: AnalyzeMergePlan's accept/reject
// decisions (the shared delta analysis' comp_* subcodes plus its own
// maint_* stored-layout subcodes, from sumtab/maintenance.h) and
// engine::MergeGroups, the keyed merge that folds
// a delta aggregate into a stored one — in particular the SUM type rules
// (NULL identity, Int stays Int, any Double side promotes) that must
// mirror a full recompute exactly, grouping-set padding keys, the keyless
// global aggregate, and string keys and extremes under dictionaries.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/reject_reason.h"
#include "engine/aggregator.h"
#include "matching/compensation.h"
#include "qgm/qgm_builder.h"
#include "sql/parser.h"
#include "sumtab/maintenance.h"
#include "tests/test_util.h"

namespace sumtab {
namespace {

using maintenance::AnalyzeMergePlan;
using matching::DeltaMerge;
using expr::AggFunc;

class MaintenanceUnitTest : public ::testing::Test {
 protected:
  void SetUp() override { db_ = testing::MakeCardDb(200); }

  qgm::Graph BuildAst(const std::string& sql) {
    StatusOr<std::shared_ptr<sql::SelectStmt>> stmt = sql::Parse(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString() << "\n" << sql;
    StatusOr<qgm::Graph> graph = qgm::BuildGraph(**stmt, db_->catalog());
    EXPECT_TRUE(graph.ok()) << graph.status().ToString() << "\n" << sql;
    return std::move(*graph);
  }

  RejectReason AnalyzeReject(const std::string& sql,
                             const std::string& delta_table = "trans") {
    qgm::Graph graph = BuildAst(sql);
    StatusOr<DeltaMerge> plan = AnalyzeMergePlan(graph, delta_table);
    EXPECT_FALSE(plan.ok()) << sql;
    return plan.ok() ? RejectReason::kNone
                     : RejectReasonFromStatus(plan.status());
  }

  std::unique_ptr<Database> db_;
};

// ---------------------------------------------------------------------------
// AnalyzeMergePlan: accepted shapes
// ---------------------------------------------------------------------------

TEST_F(MaintenanceUnitTest, SimpleAggregateIsMergeable) {
  qgm::Graph graph = BuildAst(
      "select faid, flid, count(*) as cnt, sum(qty) as sq, min(price) as mn "
      "from trans group by faid, flid");
  StatusOr<DeltaMerge> plan = AnalyzeMergePlan(graph, "trans");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->spj);
  EXPECT_EQ(plan->key_cols, (std::vector<int>{0, 1}));
  ASSERT_EQ(plan->agg_cols.size(), 3u);
  EXPECT_EQ(plan->agg_cols[0].col, 2);
  EXPECT_EQ(plan->agg_cols[0].func, AggFunc::kCount);
  EXPECT_EQ(plan->agg_cols[1].func, AggFunc::kSum);
  EXPECT_EQ(plan->agg_cols[2].func, AggFunc::kMin);
}

TEST_F(MaintenanceUnitTest, SpjAstAppendsVerbatim) {
  qgm::Graph graph =
      BuildAst("select faid, qty, price from trans where qty > 2");
  StatusOr<DeltaMerge> plan = AnalyzeMergePlan(graph, "trans");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->spj);
}

TEST_F(MaintenanceUnitTest, SpjJoinIsMergeablePerDelta) {
  // Insert-only deltas distribute over joins: delta(trans) x acct appends.
  // Valid for ANY root quantifier count as long as no GROUPBY exists.
  qgm::Graph graph = BuildAst(
      "select trans.faid as faid, status, qty from trans, acct "
      "where trans.faid = acct.aid");
  StatusOr<DeltaMerge> plan = AnalyzeMergePlan(graph, "trans");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->spj);
}

TEST_F(MaintenanceUnitTest, RollupOverNonNullableColumnsIsMergeable) {
  // Grouping-set padding NULLs collide with data NULLs only when a grouping
  // source can actually be NULL; the card schema's columns cannot, so the
  // per-cuboid keyed merge stays correct (seed behavior, guarded here).
  qgm::Graph graph = BuildAst(
      "select faid, flid, count(*) as cnt from trans "
      "group by rollup(faid, flid)");
  StatusOr<DeltaMerge> plan = AnalyzeMergePlan(graph, "trans");
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
}

// ---------------------------------------------------------------------------
// AnalyzeMergePlan: structured rejections
// ---------------------------------------------------------------------------

TEST_F(MaintenanceUnitTest, MultiQuantifierRootWithAggregationIsRejected) {
  // A join above an aggregation: the delta cannot be folded into the
  // materialized groups by a keyed merge. Must be an explicit, typed reject
  // (kCompQueryShape), not a crash or a silent wrong merge.
  EXPECT_EQ(AnalyzeReject(
                "select status, cnt from "
                "(select faid, count(*) as cnt from trans group by faid) d, "
                "acct where d.faid = acct.aid"),
            RejectReason::kCompQueryShape);
}

TEST_F(MaintenanceUnitTest, AggregationBelowJoinIsRejected) {
  EXPECT_EQ(AnalyzeReject(
                "select d.faid as faid, cnt, status from "
                "(select faid, count(*) as cnt from trans group by faid) d, "
                "acct where d.faid = acct.aid",
                "acct"),
            RejectReason::kCompQueryShape);
}

TEST_F(MaintenanceUnitTest, PartialGroupKeyProjectionIsRejected) {
  // The root projects only faid out of (faid, flid): merging by the visible
  // key would conflate distinct groups.
  EXPECT_EQ(AnalyzeReject(
                "select faid, cnt from "
                "(select faid, flid, count(*) as cnt from trans "
                "group by faid, flid) d"),
            RejectReason::kMaintPartialGroupKey);
}

TEST_F(MaintenanceUnitTest, HavingIsRejected) {
  EXPECT_EQ(AnalyzeReject("select faid, count(*) as cnt from trans "
                          "group by faid having count(*) > 3"),
            RejectReason::kMaintHavingPredicate);
}

TEST_F(MaintenanceUnitTest, AvgIsRejectedAsComputedOutput) {
  // AVG is lowered to sum/count at QGM build, so the root projects a
  // computed division — not a bare aggregate column — and the merge
  // analysis rejects it as a computed output.
  EXPECT_EQ(AnalyzeReject("select faid, avg(qty) as a from trans "
                          "group by faid"),
            RejectReason::kMaintComputedOutput);
}

TEST_F(MaintenanceUnitTest, DistinctAggregateIsRejected) {
  // COUNT(DISTINCT x) partials cannot be combined without the underlying
  // distinct sets.
  EXPECT_EQ(AnalyzeReject("select faid, count(distinct qty) as cd "
                          "from trans group by faid"),
            RejectReason::kCompDistinctAggregate);
}

TEST_F(MaintenanceUnitTest, SelfJoinDeltaIsRejected) {
  // trans referenced twice: ΔR ⋈ R misses the R ⋈ ΔR half.
  EXPECT_EQ(AnalyzeReject("select a.faid as faid, b.qty as qty "
                          "from trans a, trans b where a.tid = b.tid"),
            RejectReason::kCompDeltaRefCount);
}

TEST_F(MaintenanceUnitTest, UnreferencedDeltaTableIsRejectedAsRefCount) {
  // Append() keys "unaffected" off this subcode — it must be stable.
  EXPECT_EQ(AnalyzeReject("select faid, count(*) as cnt from trans "
                          "group by faid",
                          "acct"),
            RejectReason::kCompDeltaRefCount);
}

TEST_F(MaintenanceUnitTest, NullableGroupingColumnUnderRollupIsRejected) {
  // With a nullable grouping source, a data NULL is indistinguishable from
  // grouping-set padding: the keyed merge would fold the (g) cuboid's
  // g=NULL group into the () cuboid. Must recompute.
  Database db;
  ASSERT_TRUE(db.CreateTable("t", {{"g", Type::kInt, true},
                                   {"h", Type::kInt, false},
                                   {"v", Type::kInt, false}})
                  .ok());
  StatusOr<std::shared_ptr<sql::SelectStmt>> stmt = sql::Parse(
      "select g, h, count(*) as cnt from t group by rollup(g, h)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  StatusOr<qgm::Graph> graph = qgm::BuildGraph(**stmt, db.catalog());
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  StatusOr<DeltaMerge> plan = AnalyzeMergePlan(*graph, "t");
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(RejectReasonFromStatus(plan.status()),
            RejectReason::kCompNullableGroupingSet);

  // The same shape with a simple GROUP BY is fine: there is only one
  // cuboid, so NULL keys cannot collide across grouping sets.
  stmt = sql::Parse("select g, h, count(*) as cnt from t group by g, h");
  ASSERT_TRUE(stmt.ok());
  graph = qgm::BuildGraph(**stmt, db.catalog());
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(AnalyzeMergePlan(*graph, "t").ok());
}

TEST_F(MaintenanceUnitTest, SharedRejectsCarryOneCodeFromBothEntryPoints) {
  // Compensation's query analysis and maintenance's merge analysis are one
  // decision of delta decomposability: every shared reject comes back from
  // both entry points with the same comp_* code.
  ASSERT_TRUE(db_->CreateTable("nt", {{"g", Type::kInt, true},
                                      {"h", Type::kInt, false}})
                  .ok());
  struct Case {
    const char* what;
    const char* sql;
    const char* table;
    RejectReason want;
  };
  const Case cases[] = {
      {"DISTINCT block", "select distinct faid, flid from trans", "trans",
       RejectReason::kCompDistinct},
      {"scalar subquery",
       "select flid, count(*) as c, (select count(*) from acct) as tot "
       "from trans group by flid",
       "trans", RejectReason::kCompScalarSubquery},
      {"self-join",
       "select a.faid as faid, b.qty as qty from trans a, trans b "
       "where a.tid = b.tid",
       "trans", RejectReason::kCompDeltaRefCount},
      {"nested block",
       "select tcnt, count(*) as n from (select faid, count(*) as tcnt "
       "from trans group by faid) group by tcnt",
       "trans", RejectReason::kCompQueryShape},
      {"aggregation below a join",
       "select status, cnt from "
       "(select faid, count(*) as cnt from trans group by faid) d, "
       "acct where d.faid = acct.aid",
       "trans", RejectReason::kCompQueryShape},
      {"DISTINCT aggregate",
       "select faid, count(distinct qty) as cd from trans group by faid",
       "trans", RejectReason::kCompDistinctAggregate},
      {"nullable grouping column under ROLLUP",
       "select g, h, count(*) as cnt from nt group by rollup(g, h)", "nt",
       RejectReason::kCompNullableGroupingSet},
  };
  for (const Case& c : cases) {
    qgm::Graph graph = BuildAst(c.sql);
    StatusOr<matching::DeltaMerge> comp =
        matching::AnalyzeCompensableQuery(graph, c.table);
    StatusOr<DeltaMerge> maint = AnalyzeMergePlan(graph, c.table);
    ASSERT_FALSE(comp.ok()) << c.what;
    ASSERT_FALSE(maint.ok()) << c.what;
    EXPECT_EQ(RejectReasonFromStatus(comp.status()), c.want) << c.what;
    EXPECT_EQ(RejectReasonFromStatus(maint.status()), c.want) << c.what;
  }
}

// ---------------------------------------------------------------------------
// MergeAggregateValuesTest: SUM/COUNT/MIN/MAX combine semantics, each case
// a two-batch merge of one group through engine::MergeGroups
// ---------------------------------------------------------------------------

/// Merges the one-group batches {key 1, current} and {key 1, delta} with
/// `func` on the second column; returns the merged cell.
Value MergeAggregateValues(AggFunc func, const Value& current,
                           const Value& delta) {
  StatusOr<engine::Batch> merged = engine::MergeGroups(
      engine::BatchFromRows({Row{Value::Int(1), current}}, 2),
      engine::BatchFromRows({Row{Value::Int(1), delta}}, 2), {0},
      {expr::AggColumn{1, func}});
  EXPECT_TRUE(merged.ok()) << merged.status().ToString();
  if (!merged.ok()) return Value::Null();
  EXPECT_EQ(merged->num_rows, 1);
  return merged->columns[1].ValueAt(0);
}

TEST(MergeAggregateValuesTest, CountAdds) {
  Value v = MergeAggregateValues(AggFunc::kCount, Value::Int(5),
                                 Value::Int(7));
  ASSERT_EQ(v.kind(), Value::Kind::kInt);
  EXPECT_EQ(v.AsInt(), 12);
}

TEST(MergeAggregateValuesTest, SumIntStaysInt) {
  // A recompute over all-Int inputs yields an Int SUM; the merge of two
  // Int partials must not leak a Double into the materialized table.
  Value v = MergeAggregateValues(AggFunc::kSum, Value::Int(5), Value::Int(7));
  ASSERT_EQ(v.kind(), Value::Kind::kInt);
  EXPECT_EQ(v.AsInt(), 12);
}

TEST(MergeAggregateValuesTest, SumDoublePromotes) {
  // Sticky-double: if either partition saw a double, the combined SUM is
  // Double — exactly what the executor's accumulator would produce.
  Value a = MergeAggregateValues(AggFunc::kSum, Value::Int(5),
                                 Value::Double(2.5));
  ASSERT_EQ(a.kind(), Value::Kind::kDouble);
  EXPECT_DOUBLE_EQ(a.AsDouble(), 7.5);
  Value b = MergeAggregateValues(AggFunc::kSum, Value::Double(1.25),
                                 Value::Int(2));
  ASSERT_EQ(b.kind(), Value::Kind::kDouble);
  EXPECT_DOUBLE_EQ(b.AsDouble(), 3.25);
  Value c = MergeAggregateValues(AggFunc::kSum, Value::Double(1.5),
                                 Value::Double(2.5));
  ASSERT_EQ(c.kind(), Value::Kind::kDouble);
  EXPECT_DOUBLE_EQ(c.AsDouble(), 4.0);
}

TEST(MergeAggregateValuesTest, SumNullIsIdentity) {
  // SUM over an empty/all-NULL partition is NULL; merging it must keep the
  // other side's value AND kind.
  Value left = MergeAggregateValues(AggFunc::kSum, Value::Null(),
                                    Value::Int(3));
  ASSERT_EQ(left.kind(), Value::Kind::kInt);
  EXPECT_EQ(left.AsInt(), 3);
  Value right = MergeAggregateValues(AggFunc::kSum, Value::Double(2.5),
                                     Value::Null());
  ASSERT_EQ(right.kind(), Value::Kind::kDouble);
  EXPECT_DOUBLE_EQ(right.AsDouble(), 2.5);
  EXPECT_TRUE(
      MergeAggregateValues(AggFunc::kSum, Value::Null(), Value::Null())
          .is_null());
}

TEST(MergeAggregateValuesTest, MinMaxCombine) {
  EXPECT_EQ(MergeAggregateValues(AggFunc::kMin, Value::Int(5), Value::Int(3))
                .AsInt(),
            3);
  EXPECT_EQ(MergeAggregateValues(AggFunc::kMax, Value::Int(5), Value::Int(3))
                .AsInt(),
            5);
  // NULL identity on either side.
  EXPECT_EQ(MergeAggregateValues(AggFunc::kMin, Value::Null(), Value::Int(3))
                .AsInt(),
            3);
  EXPECT_EQ(MergeAggregateValues(AggFunc::kMax, Value::Int(5), Value::Null())
                .AsInt(),
            5);
  // Cross-kind numeric comparison keeps the winning side's kind.
  Value m = MergeAggregateValues(AggFunc::kMin, Value::Double(2.5),
                                 Value::Int(3));
  ASSERT_EQ(m.kind(), Value::Kind::kDouble);
  EXPECT_DOUBLE_EQ(m.AsDouble(), 2.5);
}

// ---------------------------------------------------------------------------
// MergeGroupsTest: keys, group order and dictionaries of the keyed merge
// ---------------------------------------------------------------------------

engine::Batch Rows(const std::vector<Row>& rows, int width) {
  return engine::BatchFromRows(rows, width);
}

/// The merged batch's rows, in order.
std::vector<Row> RowsOf(const engine::Batch& batch) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < batch.num_rows; ++i) rows.push_back(batch.RowAt(i));
  return rows;
}

::testing::AssertionResult SameRows(const std::vector<Row>& got,
                                    const std::vector<Row>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " rows, want " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].size() != want[i].size()) {
      return ::testing::AssertionFailure() << "arity differs at row " << i;
    }
    for (size_t j = 0; j < got[i].size(); ++j) {
      // operator== is exact: Int(3) != Double(3.0).
      if (!(got[i][j] == want[i][j]) ||
          got[i][j].kind() != want[i][j].kind()) {
        return ::testing::AssertionFailure()
               << "row " << i << " col " << j << ": "
               << got[i][j].ToString() << ", want " << want[i][j].ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(MergeGroupsTest, ExistingGroupsStayInPlaceAndNewGroupsFollowInDeltaOrder) {
  // Columns interleave aggregates and keys: (cnt, k, s). Every lane count
  // merges the same multiset; one lane also keeps the stored order.
  const engine::Batch current =
      Rows({{Value::Int(2), Value::Int(30), Value::Int(7)},
            {Value::Int(1), Value::Int(10), Value::Int(5)}},
           3);
  const engine::Batch delta =
      Rows({{Value::Int(4), Value::Int(40), Value::Int(1)},
            {Value::Int(3), Value::Int(10), Value::Int(-2)},
            {Value::Int(1), Value::Int(20), Value::Int(9)}},
           3);
  const std::vector<Row> want = {
      {Value::Int(2), Value::Int(30), Value::Int(7)},
      {Value::Int(4), Value::Int(10), Value::Int(3)},
      {Value::Int(4), Value::Int(40), Value::Int(1)},
      {Value::Int(1), Value::Int(20), Value::Int(9)}};
  for (int threads : {1, 4}) {
    StatusOr<engine::Batch> merged = engine::MergeGroups(
        current, delta, {1},
        {expr::AggColumn{0, AggFunc::kCount}, expr::AggColumn{2, AggFunc::kSum}},
        threads);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    if (threads == 1) {
      EXPECT_TRUE(SameRows(RowsOf(*merged), want));
    } else {
      EXPECT_TRUE(engine::SameRowMultiset(
          engine::BatchToRelation(*merged, {"cnt", "k", "s"}),
          engine::BatchToRelation(Rows(want, 3), {"cnt", "k", "s"})));
    }
  }
}

TEST(MergeGroupsTest, KeysMustCoverTheBatchOnce) {
  const engine::Batch batch = Rows({{Value::Int(1), Value::Int(2)}}, 2);
  EXPECT_FALSE(engine::MergeGroups(batch, batch, {0}, {}).ok());
  EXPECT_FALSE(engine::MergeGroups(batch, batch, {0, 0}, {}).ok());
  EXPECT_FALSE(
      engine::MergeGroups(batch, batch, {0},
                          {expr::AggColumn{2, AggFunc::kSum}})
          .ok());
}

TEST(MergeGroupsTest, PaddingNullKeysMergePerCuboid) {
  // ROLLUP(a, b) rows: (a, b), (a, NULL) and (NULL, NULL) are three
  // cuboids; a delta row lands on the group with its own padding pattern.
  const Value null = Value::Null();
  const engine::Batch current =
      Rows({{Value::Int(1), Value::Int(1), Value::Int(2)},
            {Value::Int(1), null, Value::Int(2)},
            {null, null, Value::Int(2)}},
           3);
  const engine::Batch delta =
      Rows({{Value::Int(1), Value::Int(2), Value::Int(1)},
            {Value::Int(1), null, Value::Int(1)},
            {null, null, Value::Int(1)}},
           3);
  StatusOr<engine::Batch> merged = engine::MergeGroups(
      current, delta, {0, 1}, {expr::AggColumn{2, AggFunc::kCount}});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(SameRows(RowsOf(*merged),
                       {{Value::Int(1), Value::Int(1), Value::Int(2)},
                        {Value::Int(1), null, Value::Int(3)},
                        {null, null, Value::Int(3)},
                        {Value::Int(1), Value::Int(2), Value::Int(1)}}));
}

TEST(MergeGroupsTest, KeylessGlobalAggregateStaysOneRow) {
  const engine::Batch current = Rows(
      {{Value::Int(4), Value::Int(10), Value::Int(1), Value::Null()}}, 4);
  const engine::Batch delta = Rows(
      {{Value::Int(2), Value::Double(0.5), Value::Int(-3), Value::Int(8)}},
      4);
  StatusOr<engine::Batch> merged = engine::MergeGroups(
      current, delta, {},
      {expr::AggColumn{0, AggFunc::kCount}, expr::AggColumn{1, AggFunc::kSum},
       expr::AggColumn{2, AggFunc::kMin}, expr::AggColumn{3, AggFunc::kMax}});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(SameRows(RowsOf(*merged), {{Value::Int(6), Value::Double(10.5),
                                          Value::Int(-3), Value::Int(8)}}));
}

TEST(MergeGroupsTest, StringKeysAndExtremesUnderOneDictionary) {
  // Both sides encoded against one dictionary, as Append phase 2 encodes
  // the delta against the AST: keys group on codes, MIN/MAX compare the
  // strings, and the output keeps the dictionary.
  auto dict = std::make_shared<engine::StringDictionary>();
  auto encoded = [&dict](const std::vector<Row>& rows) {
    engine::Batch batch = engine::BatchFromRows(rows, 3);
    engine::DictEncodeBatch(&batch, {dict, dict, dict});
    return batch;
  };
  const Value s = Value::String("s");
  const engine::Batch current =
      encoded({{Value::String("east"), Value::String("m"), Value::String("q")},
               {Value::String("west"), Value::String("b"), Value::Null()}});
  const engine::Batch delta =
      encoded({{Value::String("west"), Value::String("a"), s},
               {Value::String("east"), Value::String("n"), Value::String("c")},
               {Value::String("north"), Value::Null(), Value::Null()}});
  StatusOr<engine::Batch> merged = engine::MergeGroups(
      current, delta, {0},
      {expr::AggColumn{1, AggFunc::kMin}, expr::AggColumn{2, AggFunc::kMax}});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(SameRows(
      RowsOf(*merged),
      {{Value::String("east"), Value::String("m"), Value::String("q")},
       {Value::String("west"), Value::String("a"), s},
       {Value::String("north"), Value::Null(), Value::Null()}}));
  EXPECT_EQ(merged->columns[0].dict(), dict);
  EXPECT_EQ(merged->columns[1].dict(), dict);
}

TEST(MergeGroupsTest, DeltaUnderAnotherDictionaryGrowsNeither) {
  // The AST leg of a compensated query carries the stored AST's
  // dictionary, the delta leg another one (or raw strings): the merge must
  // not intern the delta's strings into the stored dictionary.
  auto stored = std::make_shared<engine::StringDictionary>();
  auto other = std::make_shared<engine::StringDictionary>();
  engine::Batch current = engine::BatchFromRows(
      {{Value::String("east"), Value::Int(2)},
       {Value::String("west"), Value::Int(1)}},
      2);
  engine::DictEncodeBatch(&current, {stored, nullptr});
  const engine::Batch raw_delta = engine::BatchFromRows(
      {{Value::String("south"), Value::Int(5)},
       {Value::String("east"), Value::Int(1)}},
      2);
  engine::Batch coded_delta = raw_delta;
  engine::DictEncodeBatch(&coded_delta, {other, nullptr});
  const int32_t stored_size = stored->size();
  const int32_t other_size = other->size();
  for (const engine::Batch* delta :
       std::vector<const engine::Batch*>{&raw_delta, &coded_delta}) {
    StatusOr<engine::Batch> merged = engine::MergeGroups(
        current, *delta, {0}, {expr::AggColumn{1, AggFunc::kCount}});
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_TRUE(SameRows(RowsOf(*merged),
                         {{Value::String("east"), Value::Int(3)},
                          {Value::String("west"), Value::Int(1)},
                          {Value::String("south"), Value::Int(5)}}));
    EXPECT_EQ(stored->size(), stored_size);
    EXPECT_EQ(other->size(), other_size);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the SUM type rules hold through Append's incremental merge
// ---------------------------------------------------------------------------

TEST(MergeAggregateValuesTest, IncrementalSumMatchesRecomputeOnMixedTypes) {
  Database db;
  ASSERT_TRUE(db.CreateTable("m", {{"g", Type::kInt, false},
                                   {"iv", Type::kInt, false},
                                   {"dv", Type::kDouble, false}})
                  .ok());
  ASSERT_TRUE(db.BulkLoad("m", {Row{Value::Int(1), Value::Int(2),
                                    Value::Double(0.5)},
                                Row{Value::Int(1), Value::Int(3),
                                    Value::Double(1.5)},
                                Row{Value::Int(2), Value::Int(4),
                                    Value::Double(2.0)}})
                  .ok());
  ASSERT_TRUE(db.DefineSummaryTable(
                    "msum",
                    "select g, count(*) as c, sum(iv) as si, sum(dv) as sd "
                    "from m group by g")
                  .ok());
  StatusOr<Database::MaintenanceReport> report = db.Append(
      "m", {Row{Value::Int(1), Value::Int(10), Value::Double(0.25)},
            Row{Value::Int(3), Value::Int(20), Value::Double(4.0)}});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->entries.size(), 1u);
  EXPECT_EQ(report->entries[0].mode, Database::RefreshMode::kIncremental);

  QueryOptions no_rewrite;
  no_rewrite.enable_rewrite = false;
  StatusOr<QueryResult> stored =
      db.Query("select g, c, si, sd from msum", no_rewrite);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  ASSERT_EQ(stored->relation.rows.size(), 3u);
  for (const Row& row : stored->relation.rows) {
    // The Int SUM column stays Int and the Double SUM stays Double after
    // the merge — kind drift would break later rewrites' type expectations.
    EXPECT_EQ(row[2].kind(), Value::Kind::kInt) << row[2].ToString();
    EXPECT_EQ(row[3].kind(), Value::Kind::kDouble) << row[3].ToString();
    if (row[0].AsInt() == 1) {
      EXPECT_EQ(row[1].AsInt(), 3);
      EXPECT_EQ(row[2].AsInt(), 15);
      EXPECT_DOUBLE_EQ(row[3].AsDouble(), 2.25);
    }
  }
  // And the merged table is bit-equal to a recompute.
  StatusOr<QueryResult> fresh = db.Query(
      "select g, count(*) as c, sum(iv) as si, sum(dv) as sd "
      "from m group by g",
      no_rewrite);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(
      engine::SameRowMultiset(fresh->relation, stored->relation));
}

}  // namespace
}  // namespace sumtab
