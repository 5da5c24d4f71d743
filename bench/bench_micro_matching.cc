// Google-benchmark microbenchmarks for the hot paths of the matcher and the
// engine: navigator runs, full parse->build->match->rewrite pipelines, and
// hash aggregation. Complements bench_matching_overhead with
// statistically-stable per-operation numbers.
#include <benchmark/benchmark.h>

#include "data/card_schema.h"
#include "engine/aggregator.h"
#include "matching/navigator.h"
#include "matching/rewriter.h"
#include "qgm/qgm_builder.h"
#include "sql/parser.h"
#include "sumtab/database.h"

namespace sumtab {
namespace {

struct Fixture {
  Fixture() {
    data::CardSchemaParams params;
    params.num_trans = 1000;  // matching cost is data-independent
    Status st = data::SetupCardSchema(&db, params);
    if (!st.ok()) std::abort();
    auto rows = db.DefineSummaryTable(
        "ast1",
        "select faid, flid, year(date) as year, count(*) as cnt "
        "from trans group by faid, flid, year(date)");
    if (!rows.ok()) std::abort();
  }
  Database db;
};

Fixture& Shared() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

constexpr const char* kQ1 =
    "select faid, state, year(date) as year, count(*) as cnt "
    "from trans, loc where flid = lid and country = 'USA' "
    "group by faid, state, year(date) having count(*) > 100";

void BM_ParseOnly(benchmark::State& state) {
  for (auto _ : state) {
    auto stmt = sql::Parse(kQ1);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_ParseOnly);

void BM_ParseAndBuildQgm(benchmark::State& state) {
  Fixture& f = Shared();
  for (auto _ : state) {
    auto stmt = sql::Parse(kQ1);
    auto graph = qgm::BuildGraph(**stmt, f.db.catalog());
    benchmark::DoNotOptimize(graph);
  }
}
BENCHMARK(BM_ParseAndBuildQgm);

void BM_NavigatorMatch(benchmark::State& state) {
  Fixture& f = Shared();
  auto qstmt = sql::Parse(kQ1);
  auto astmt = sql::Parse(
      "select faid, flid, year(date) as year, count(*) as cnt "
      "from trans group by faid, flid, year(date)");
  auto qgraph = qgm::BuildGraph(**qstmt, f.db.catalog());
  auto agraph = qgm::BuildGraph(**astmt, f.db.catalog());
  for (auto _ : state) {
    matching::MatchSession session(*qgraph, *agraph, f.db.catalog());
    Status st = matching::RunNavigator(&session);
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_NavigatorMatch);

void BM_FullRewrite(benchmark::State& state) {
  Fixture& f = Shared();
  auto qstmt = sql::Parse(kQ1);
  auto astmt = sql::Parse(
      "select faid, flid, year(date) as year, count(*) as cnt "
      "from trans group by faid, flid, year(date)");
  auto qgraph = qgm::BuildGraph(**qstmt, f.db.catalog());
  auto agraph = qgm::BuildGraph(**astmt, f.db.catalog());
  matching::SummaryTableDef def{"ast1", &*agraph};
  for (auto _ : state) {
    auto rewrite = matching::RewriteQuery(*qgraph, def, f.db.catalog());
    benchmark::DoNotOptimize(rewrite);
  }
}
BENCHMARK(BM_FullRewrite);

void BM_EndToEndQuery(benchmark::State& state) {
  Fixture& f = Shared();
  for (auto _ : state) {
    auto result = f.db.Query(kQ1);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EndToEndQuery);

/// AggregateBatch straight over the columnar trans table, grouping by
/// (faid, flid) — no parse, plan or projection in the loop.
void RunAggregate(benchmark::State& state,
                  const std::vector<std::vector<int>>& sets) {
  Fixture& f = Shared();
  std::shared_ptr<const engine::Batch> trans =
      f.db.storage().Snap().FindColumnar("trans");
  if (trans == nullptr) std::abort();
  const std::vector<int> grouping_cols = {1, 3};  // faid, flid
  engine::AggSpec count;
  count.star = true;
  engine::AggSpec sum_qty;
  sum_qty.func = expr::AggFunc::kSum;
  sum_qty.arg_col = 5;  // qty
  for (auto _ : state) {
    auto result =
        engine::AggregateBatch(*trans, grouping_cols, sets, {count, sum_qty});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * trans->num_rows);
}

void BM_HashAggregate(benchmark::State& state) {
  RunAggregate(state, {{0, 1}});
}
BENCHMARK(BM_HashAggregate);

void BM_GroupingSetsAggregate(benchmark::State& state) {
  // cube(faid, flid)
  RunAggregate(state, {{0, 1}, {0}, {1}, {}});
}
BENCHMARK(BM_GroupingSetsAggregate);

}  // namespace
}  // namespace sumtab

BENCHMARK_MAIN();
