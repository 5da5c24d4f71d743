// Property tests for delta-compensation decomposability: for random seeded
// splits of one logical table into a loaded base partition plus retained
// append deltas, a compensated rewrite (stale AST scan ∪ same-shape aggregate
// over only the delta rows) must be BIT-IDENTICAL to a full recompute over
// the union. Exercised both at the engine::MergeGroups core (pure partition
// algebra on random Values) and end to end through Database, including the
// edge shapes that historically break incremental aggregation: NULL-heavy and
// all-NULL deltas, the empty delta, and delta-only groups the base partition
// never saw.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "engine/aggregator.h"
#include "engine/column_vector.h"
#include "engine/relation.h"
#include "expr/expr.h"
#include "sumtab/database.h"
#include "tests/reference.h"
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
// Unit-level property: engine::MergeGroups is exactly "aggregate of the
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
  // Each trial is one group: key = trial, then one partial per function.
  // Enough trials that the four-lane merge really partitions its input.
  const int kTrials = 8192;
  std::vector<expr::AggColumn> agg_cols;
  for (int f = 0; f < 4; ++f) {
    agg_cols.push_back(expr::AggColumn{1 + f, kFuncs[f]});
  }
  for (uint64_t seed : {1ULL, 77ULL, 4242ULL, 90210ULL}) {
    std::mt19937_64 rng(seed);
    std::vector<Row> base_rows, delta_rows, whole_rows;
    std::vector<size_t> splits;
    for (int trial = 0; trial < kTrials; ++trial) {
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
      splits.push_back(split);
      std::vector<Value> base(values.begin(), values.begin() + split);
      std::vector<Value> delta(values.begin() + split, values.end());
      Row base_row = {Value::Int(trial)};
      Row delta_row = {Value::Int(trial)};
      Row whole_row = {Value::Int(trial)};
      for (AggFunc func : kFuncs) {
        base_row.push_back(AggregateList(func, base));
        delta_row.push_back(AggregateList(func, delta));
        whole_row.push_back(AggregateList(func, values));
      }
      base_rows.push_back(std::move(base_row));
      delta_rows.push_back(std::move(delta_row));
      whole_rows.push_back(std::move(whole_row));
    }
    const engine::Batch current = engine::BatchFromRows(base_rows, 5);
    const engine::Batch delta = engine::BatchFromRows(delta_rows, 5);
    for (int threads : {1, 4}) {
      StatusOr<engine::Batch> merged =
          engine::MergeGroups(current, delta, {0}, agg_cols, threads);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      ASSERT_EQ(merged->num_rows, kTrials);
      for (int64_t i = 0; i < merged->num_rows; ++i) {
        const Row got = merged->RowAt(i);
        const int64_t trial = got[0].AsInt();
        for (int f = 0; f < 4; ++f) {
          const Value& whole = whole_rows[trial][1 + f];
          EXPECT_TRUE(got[1 + f] == whole)
              << "func=" << static_cast<int>(kFuncs[f]) << " seed=" << seed
              << " trial=" << trial << " split=" << splits[trial]
              << " threads=" << threads << " merged "
              << got[1 + f].ToString() << " vs " << whole.ToString();
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end properties through Database: base partition bulk-loaded and
// materialized into the ASTs, delta partition appended with maintenance
// deferred, then compensated answers compared bit-for-bit against a
// rewrite-disabled recompute over the union and against tests/reference,
// at 1 and 4 lanes, from a cold and a warm plan cache. Nested (Fig. 10) and
// scalar-subquery (Fig. 11) queries merge deltas block by block.
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
  ASSERT_TRUE(db.DefineSummaryTable("ast_total",
                                    "select count(*) as cnt, sum(v) as sv "
                                    "from t")
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

  // Each query with the number of aggregate blocks compensation merges
  // deltas into (each block's delta leg reads every delta row).
  const std::vector<std::pair<std::string, int>> kQueries = {
      // Int-only aggregates: exact under any regrouping.
      {"select g, count(*) as c, sum(v) as s, min(v) as mn, max(v) as mx "
       "from t group by g",
       1},
      // COUNT(col): NULLs in either partition must not count.
      {"select g, count(v) as cv, count(d) as cd from t group by g", 1},
      // AVG lowered to SUM/COUNT division over int inputs: one division on
      // merged partials == one division on the recomputed totals.
      {"select g, count(*) as c, avg(v) as av from t group by g", 1},
      // Double SUM/AVG with sticky int->double promotion in the merge.
      {"select g, sum(d) as sd, avg(d) as ad from t group by g", 1},
      // Residual predicate + HAVING on top of the merged aggregate.
      {"select g, count(*) as c, sum(v) as s from t where g < 1004 "
       "group by g having count(*) > 2",
       1},
      // ORDER BY re-applied after the merge.
      {"select g, max(v) as mx from t group by g order by g", 1},
      // Fig. 10's shape: an aggregate over an aggregate, with a HAVING
      // between the blocks. Only the inner block merges deltas; the HAVING
      // and the outer GROUP BY run over the merged groups.
      {"select c, count(*) as n from (select g, count(*) as c from t "
       "group by g having count(*) > 5) group by c",
       1},
      {"select mx, count(*) as n, sum(s) as ss from (select g, max(v) as mx, "
       "sum(v) as s from t where g < 1004 group by g having count(v) > 2) "
       "group by mx",
       1},
      // Fig. 11's shape: a scalar subquery reads t a second time. Its block
      // and the main block merge deltas separately, the subquery's through
      // ast_total and the main block's through ast_t.
      {"select g, count(*) as c, (select count(*) from t) as total "
       "from t group by g having count(*) > 1",
       2},
      {"select g, sum(v) as s, (select sum(v) from t) as tot, "
       "count(*) * 1000 / (select count(*) from t) as permille "
       "from t group by g",
       3},
  };

  QueryOptions no_rewrite;
  no_rewrite.enable_rewrite = false;
  no_rewrite.max_threads = 1;
  for (const auto& [sql, blocks] : kQueries) {
    StatusOr<QueryResult> recompute = db.Query(sql, no_rewrite);
    ASSERT_TRUE(recompute.ok()) << sql << "\n"
                                << recompute.status().ToString();
    StatusOr<engine::Relation> reference = reference::Query(db, sql);
    ASSERT_TRUE(reference.ok()) << sql << "\n"
                                << reference.status().ToString();
    // One lane from a cold plan cache, then four from the warm entry.
    for (int threads : {1, 4}) {
      QueryOptions opts;
      opts.max_threads = threads;
      StatusOr<QueryResult> got = db.Query(sql, opts);
      ASSERT_TRUE(got.ok()) << sql << "\n" << got.status().ToString();
      EXPECT_EQ(got->plan_cache_hit, threads == 4) << sql;
      EXPECT_TRUE(got->used_summary_table) << sql;
      EXPECT_TRUE(got->compensated) << sql;
      EXPECT_EQ(got->summary_table,
                sql.find("select count(*) from t") != std::string::npos ||
                        sql.find("select sum(v) from t") != std::string::npos
                    ? "ast_t+ast_total"
                    : "ast_t")
          << sql;
      EXPECT_EQ(got->compensation_delta_rows,
                blocks * static_cast<int64_t>(delta.size()))
          << sql;
      EXPECT_EQ(got->compensation_epochs, epochs) << sql;
      EXPECT_FALSE(got->degradation.degraded) << sql;
      EXPECT_TRUE(BitIdenticalSorted(recompute->relation, got->relation))
          << sql << " threads=" << threads << "\nrecompute:\n"
          << recompute->relation.ToString(20) << "\ngot:\n"
          << got->relation.ToString(20);
      EXPECT_TRUE(reference::MatchesReference(got->relation, *reference))
          << sql << " threads=" << threads;
    }
  }

  // Refresh absorbs the deltas: same queries now rewrite WITHOUT
  // compensation and still agree.
  ASSERT_TRUE(db.RefreshSummaryTable("ast_t").ok());
  ASSERT_TRUE(db.RefreshSummaryTable("ast_total").ok());
  for (const auto& [sql, blocks] : kQueries) {
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

// ---------------------------------------------------------------------------
// Delta size: a COUNT/SUM AST over 100k base rows falls behind by 1k, 10k or
// 100k rows appended with maintenance deferred over four epochs. The
// compensated plan must answer like a recompute while reading fewer rows
// than the base-table plan does.
// ---------------------------------------------------------------------------

class CompensationDeltaSizeTest : public ::testing::TestWithParam<int64_t> {};

std::vector<Row> MakeTRows(int64_t first, int64_t n) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t a = first; a < first + n; ++a) {
    rows.push_back({Value::Int(a), Value::Int(a % 97), Value::Int(a % 16)});
  }
  return rows;
}

TEST_P(CompensationDeltaSizeTest, CompensatedPlanReadsFewerRowsThanBase) {
  const int64_t delta_rows = GetParam();
  constexpr int64_t kBaseRows = 100000;
  constexpr int kEpochs = 4;
  const std::string sql =
      "select g, count(*) as c, sum(b) as s from t group by g";
  Database db;
  ASSERT_TRUE(db.CreateTable("t",
                             {{"a", Type::kInt},
                              {"b", Type::kInt},
                              {"g", Type::kInt}},
                             {"a"})
                  .ok());
  ASSERT_TRUE(db.BulkLoad("t", MakeTRows(0, kBaseRows)).ok());
  ASSERT_TRUE(db.DefineSummaryTable("ast_g", sql).ok());
  Database::AppendOptions deferred;
  deferred.maintain = false;
  const int64_t per_epoch = delta_rows / kEpochs;
  for (int e = 0; e < kEpochs; ++e) {
    ASSERT_TRUE(
        db.Append("t", MakeTRows(kBaseRows + e * per_epoch, per_epoch),
                  deferred)
            .ok());
  }

  QueryOptions no_rewrite;
  no_rewrite.enable_rewrite = false;
  no_rewrite.collect_trace = true;
  StatusOr<QueryResult> reference = db.Query(sql, no_rewrite);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  QueryOptions traced;
  traced.collect_trace = true;
  StatusOr<QueryResult> got = db.Query(sql, traced);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->compensated);
  EXPECT_EQ(got->compensation_delta_rows, delta_rows);
  EXPECT_EQ(got->compensation_epochs, kEpochs);
  EXPECT_TRUE(BitIdenticalSorted(reference->relation, got->relation));
  ASSERT_NE(reference->trace, nullptr);
  ASSERT_NE(got->trace, nullptr);
  // The delta leg reads every appended row; the base-table plan reads them
  // and the 100k base rows too.
  EXPECT_GE(got->trace->RowsProcessed(), delta_rows);
  EXPECT_LT(got->trace->RowsProcessed(), reference->trace->RowsProcessed());
}

INSTANTIATE_TEST_SUITE_P(Deltas, CompensationDeltaSizeTest,
                         ::testing::Values<int64_t>(1000, 10000, 100000),
                         [](const ::testing::TestParamInfo<int64_t>& info) {
                           return "rows" + std::to_string(info.param);
                         });

// A recovered AST holds its own dictionaries while the retained slices it
// is compensated with carry the base table's: the merge must answer over
// both without interning a query's strings into the stored AST's
// dictionary.
TEST(CompensationDictionaryTest, CompensatedQueryLeavesTheAstDictionaryAlone) {
  const std::string dir = ::testing::TempDir() + "sumtab_comp_dictionary";
  std::filesystem::remove_all(dir);
  DatabaseOptions options;
  options.data_dir = dir;
  auto rows = [](int first, int n) {
    std::vector<Row> out;
    for (int id = first; id < first + n; ++id) {
      out.push_back({Value::Int(id),
                     Value::String("name" + std::to_string(id % 13))});
    }
    return out;
  };
  {
    StatusOr<std::unique_ptr<Database>> db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->CreateTable("t", {{"id", Type::kInt},
                                          {"name", Type::kString}})
                    .ok());
    ASSERT_TRUE((*db)->BulkLoad("t", rows(0, 8)).ok());
    ASSERT_TRUE((*db)->DefineSummaryTable(
                         "by_name",
                         "select name, count(*) as c, min(name) as lo, "
                         "max(id) as hi from t group by name")
                    .ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  StatusOr<std::unique_ptr<Database>> db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Database::AppendOptions deferred;
  deferred.maintain = false;
  ASSERT_TRUE((*db)->Append("t", rows(8, 20), deferred).ok());

  const engine::DictionaryPtr ast_dict =
      (*db)->storage().Snap().FindColumnar("by_name")->columns[0].dict();
  ASSERT_NE(ast_dict, nullptr);
  ASSERT_NE(ast_dict,
            (*db)->storage().Snap().FindColumnar("t")->columns[1].dict());
  const int32_t ast_dict_size = ast_dict->size();

  const std::string sql =
      "select name, count(*) as c, min(name) as lo, max(id) as hi from t "
      "group by name";
  QueryOptions no_rewrite;
  no_rewrite.enable_rewrite = false;
  StatusOr<QueryResult> reference = (*db)->Query(sql, no_rewrite);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (int threads : {1, 4}) {
    QueryOptions query_options;
    query_options.max_threads = threads;
    StatusOr<QueryResult> got = (*db)->Query(sql, query_options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->compensated);
    EXPECT_TRUE(BitIdenticalSorted(reference->relation, got->relation))
        << "reference:\n" << reference->relation.ToString(20) << "\ngot:\n"
        << got->relation.ToString(20);
  }
  EXPECT_EQ(ast_dict->size(), ast_dict_size);
  db->reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sumtab
