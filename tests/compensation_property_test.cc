// Property tests for delta-compensation decomposability: for random seeded
// splits of one logical table into a loaded base partition plus retained
// append deltas, a compensated rewrite (stale AST scan ∪ same-shape aggregate
// over only the delta rows) must be BIT-IDENTICAL to a full recompute over
// the union. Exercised both at the MergeAggregateValues core (pure partition
// algebra on random Values) and end to end through Database, including the
// edge shapes that historically break incremental aggregation: NULL-heavy and
// all-NULL deltas, the empty delta, and delta-only groups the base partition
// never saw.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "engine/relation.h"
#include "expr/expr.h"
#include "sumtab/database.h"
#include "sumtab/maintenance.h"
#include "tests/test_util.h"

namespace sumtab {
namespace {

using expr::AggFunc;

/// Strict equality of sorted row sets (Value::operator== is exact).
::testing::AssertionResult BitIdenticalSorted(const engine::Relation& a,
                                              const engine::Relation& b) {
  if (a.rows.size() != b.rows.size()) {
    return ::testing::AssertionFailure()
           << "row count " << a.rows.size() << " vs " << b.rows.size();
  }
  std::vector<Row> left = a.rows;
  std::vector<Row> right = b.rows;
  auto cmp = [](const Row& x, const Row& y) {
    return std::lexicographical_compare(x.begin(), x.end(), y.begin(),
                                        y.end());
  };
  std::sort(left.begin(), left.end(), cmp);
  std::sort(right.begin(), right.end(), cmp);
  for (size_t i = 0; i < left.size(); ++i) {
    if (left[i].size() != right[i].size()) {
      return ::testing::AssertionFailure() << "arity differs at row " << i;
    }
    for (size_t j = 0; j < left[i].size(); ++j) {
      if (!(left[i][j] == right[i][j])) {
        return ::testing::AssertionFailure()
               << "value differs at sorted row " << i << " col " << j << ": "
               << left[i][j].ToString() << " vs " << right[i][j].ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Unit-level property: MergeAggregateValues is exactly "aggregate of the
// union" for every decomposable function, over random partitions of random
// (possibly NULL, possibly mixed int/double) value lists.
// ---------------------------------------------------------------------------

Value AggregateList(AggFunc func, const std::vector<Value>& values) {
  Value acc = func == AggFunc::kCount ? Value::Int(0) : Value::Null();
  for (const Value& v : values) {
    switch (func) {
      case AggFunc::kCount:
        if (!v.is_null()) acc = Value::Int(acc.AsInt() + 1);
        break;
      case AggFunc::kSum:
        if (v.is_null()) break;
        if (acc.is_null()) {
          acc = v;
        } else if (acc.kind() == Value::Kind::kInt &&
                   v.kind() == Value::Kind::kInt) {
          acc = Value::Int(acc.AsInt() + v.AsInt());
        } else {
          acc = Value::Double(acc.ToDouble() + v.ToDouble());
        }
        break;
      case AggFunc::kMin:
        if (v.is_null()) break;
        if (acc.is_null() || v < acc) acc = v;
        break;
      case AggFunc::kMax:
        if (v.is_null()) break;
        if (acc.is_null() || acc < v) acc = v;
        break;
      case AggFunc::kAvg:
        ADD_FAILURE() << "AVG is lowered before aggregation";
        break;
    }
  }
  return acc;
}

TEST(CompensationMergeProperty, MergeEqualsAggregateOfUnion) {
  const AggFunc kFuncs[] = {AggFunc::kCount, AggFunc::kSum, AggFunc::kMin,
                            AggFunc::kMax};
  for (uint64_t seed : {1ULL, 77ULL, 4242ULL, 90210ULL}) {
    std::mt19937_64 rng(seed);
    for (int trial = 0; trial < 200; ++trial) {
      // Random list: ints, doubles, NULLs; sometimes all-NULL or empty.
      size_t n = rng() % 12;
      int mode = static_cast<int>(rng() % 4);  // 3 => all-NULL
      std::vector<Value> values;
      for (size_t i = 0; i < n; ++i) {
        uint64_t r = rng();
        if (mode == 3 || r % 3 == 0) {
          values.push_back(Value::Null());
        } else if (mode != 0 && r % 3 == 1) {
          values.push_back(
              Value::Double(static_cast<double>(static_cast<int64_t>(r % 97)) +
                            0.25));
        } else {
          values.push_back(Value::Int(static_cast<int64_t>(r % 1000) - 500));
        }
      }
      // Random split point: empty prefixes/suffixes are legal partitions.
      size_t split = n == 0 ? 0 : rng() % (n + 1);
      std::vector<Value> base(values.begin(), values.begin() + split);
      std::vector<Value> delta(values.begin() + split, values.end());
      for (AggFunc func : kFuncs) {
        Value whole = AggregateList(func, values);
        Value merged = maintenance::MergeAggregateValues(
            func, AggregateList(func, base), AggregateList(func, delta));
        EXPECT_TRUE(merged == whole)
            << "func=" << static_cast<int>(func) << " seed=" << seed
            << " trial=" << trial << " split=" << split << " merged "
            << merged.ToString() << " vs " << whole.ToString();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end properties through Database: base partition bulk-loaded and
// materialized into the AST, delta partition appended with maintenance
// deferred, then compensated answers compared bit-for-bit against a
// rewrite-disabled recompute over the union.
// ---------------------------------------------------------------------------

struct SplitCase {
  std::string name;
  // Fraction of rows (x1000) routed to the delta partition.
  int delta_permille;
  bool delta_all_null;     // every v/d in the delta is NULL
  bool delta_new_groups;   // delta group keys disjoint from the base's
};

class CompensationPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, SplitCase>> {};

Row MakeRow(int64_t id, int64_t g, Value v, Value d) {
  return {Value::Int(id), Value::Int(g), std::move(v), std::move(d)};
}

TEST_P(CompensationPropertyTest, CompensatedMatchesFullRecompute) {
  const uint64_t seed = std::get<0>(GetParam());
  const SplitCase& split = std::get<1>(GetParam());
  std::mt19937_64 rng(seed ^ 0x5eedf00dULL);

  Database db;
  ASSERT_TRUE(db.CreateTable("t",
                             {{"id", Type::kInt},
                              {"g", Type::kInt},
                              {"v", Type::kInt, /*nullable=*/true},
                              {"d", Type::kDouble, /*nullable=*/true}},
                             {"id"})
                  .ok());

  // Generate the full logical table, then split it.
  const int kTotal = 600;
  std::vector<Row> base, delta;
  for (int i = 0; i < kTotal; ++i) {
    bool to_delta = static_cast<int>(rng() % 1000) < split.delta_permille;
    int64_t g = static_cast<int64_t>(rng() % 8);
    if (to_delta && split.delta_new_groups) g += 1000;  // groups base lacks
    Value v, d;
    if ((to_delta && split.delta_all_null) || rng() % 4 == 0) {
      v = Value::Null();
    } else {
      v = Value::Int(static_cast<int64_t>(rng() % 200) - 100);
    }
    if ((to_delta && split.delta_all_null) || rng() % 4 == 0) {
      d = Value::Null();
    } else {
      d = Value::Double(static_cast<double>(rng() % 1000) / 8.0);
    }
    (to_delta ? delta : base)
        .push_back(MakeRow(i, g, std::move(v), std::move(d)));
  }
  ASSERT_TRUE(db.BulkLoad("t", std::move(base)).ok());
  ASSERT_TRUE(db.DefineSummaryTable(
                    "ast_t",
                    "select g, count(*) as cnt, count(v) as cv, "
                    "sum(v) as sv, min(v) as mn, max(v) as mx, "
                    "sum(d) as sd, count(d) as cd "
                    "from t group by g")
                  .ok());

  // Ship the delta as deferred appends (possibly several epochs, possibly
  // zero rows — the from==to empty-delta edge still must compensate cleanly).
  Database::AppendOptions deferred;
  deferred.maintain = false;
  size_t shipped = 0;
  int epochs = 0;
  while (shipped < delta.size() || epochs == 0) {
    size_t take = delta.empty()
                      ? 0
                      : std::min(delta.size() - shipped,
                                 1 + static_cast<size_t>(rng() % 64));
    std::vector<Row> batch(delta.begin() + shipped,
                           delta.begin() + shipped + take);
    shipped += take;
    ++epochs;
    auto report = db.Append("t", std::move(batch), deferred);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }

  const std::vector<std::string> kQueries = {
      // Int-only aggregates: exact under any regrouping.
      "select g, count(*) as c, sum(v) as s, min(v) as mn, max(v) as mx "
      "from t group by g",
      // COUNT(col): NULLs in either partition must not count.
      "select g, count(v) as cv, count(d) as cd from t group by g",
      // AVG lowered to SUM/COUNT division over int inputs: one division on
      // merged partials == one division on the recomputed totals.
      "select g, count(*) as c, avg(v) as av from t group by g",
      // Double SUM/AVG with sticky int->double promotion in the merge.
      "select g, sum(d) as sd, avg(d) as ad from t group by g",
      // Residual predicate + HAVING on top of the merged aggregate.
      "select g, count(*) as c, sum(v) as s from t where g < 1004 "
      "group by g having count(*) > 2",
      // ORDER BY re-applied after the merge.
      "select g, max(v) as mx from t group by g order by g",
  };

  QueryOptions no_rewrite;
  no_rewrite.enable_rewrite = false;
  no_rewrite.max_threads = 1;
  for (const std::string& sql : kQueries) {
    StatusOr<QueryResult> reference = db.Query(sql, no_rewrite);
    ASSERT_TRUE(reference.ok()) << sql << "\n"
                                << reference.status().ToString();
    QueryOptions opts;
    opts.max_threads = 1;
    StatusOr<QueryResult> got = db.Query(sql, opts);
    ASSERT_TRUE(got.ok()) << sql << "\n" << got.status().ToString();
    EXPECT_TRUE(got->used_summary_table) << sql;
    EXPECT_TRUE(got->compensated) << sql;
    EXPECT_EQ(got->summary_table, "ast_t") << sql;
    EXPECT_EQ(got->compensation_delta_rows, static_cast<int64_t>(delta.size()))
        << sql;
    EXPECT_EQ(got->compensation_epochs, epochs) << sql;
    EXPECT_FALSE(got->degradation.degraded) << sql;
    EXPECT_TRUE(BitIdenticalSorted(reference->relation, got->relation))
        << sql << "\nreference:\n"
        << reference->relation.ToString(20) << "\ngot:\n"
        << got->relation.ToString(20);
  }

  // Refresh absorbs the deltas: same queries now rewrite WITHOUT
  // compensation and still agree.
  ASSERT_TRUE(db.RefreshSummaryTable("ast_t").ok());
  for (const std::string& sql : kQueries) {
    StatusOr<QueryResult> reference = db.Query(sql, no_rewrite);
    ASSERT_TRUE(reference.ok()) << sql;
    StatusOr<QueryResult> got = db.Query(sql);
    ASSERT_TRUE(got.ok()) << sql;
    EXPECT_TRUE(got->used_summary_table) << sql;
    EXPECT_FALSE(got->compensated) << sql;
    EXPECT_TRUE(BitIdenticalSorted(reference->relation, got->relation)) << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Splits, CompensationPropertyTest,
    ::testing::Combine(
        ::testing::Values<uint64_t>(1, 77, 4242),
        ::testing::Values(SplitCase{"third", 333, false, false},
                          SplitCase{"sliver", 40, false, false},
                          SplitCase{"empty_delta", 0, false, false},
                          SplitCase{"all_null_delta", 300, true, false},
                          SplitCase{"new_groups", 250, false, true})),
    [](const ::testing::TestParamInfo<
        std::tuple<uint64_t, SplitCase>>& info) {
      return std::get<1>(info.param).name + "_seed" +
             std::to_string(std::get<0>(info.param));
    });

}  // namespace
}  // namespace sumtab
