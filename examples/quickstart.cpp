// Quickstart: create a schema, load data, define a summary table, and watch
// a query get transparently rerouted through it.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "common/date.h"
#include "sumtab/database.h"

using sumtab::catalog::Column;
using sumtab::Type;
using sumtab::Value;

int main() {
  sumtab::Database db;

  // 1. Schema: a sales fact table and a store dimension with an RI
  //    constraint (sales.store_id references stores.store_id).
  auto check = [](const sumtab::Status& st) {
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  };
  check(db.CreateTable("stores",
                       {Column{"store_id", Type::kInt, false},
                        Column{"city", Type::kString, false},
                        Column{"region", Type::kString, false}},
                       {"store_id"}));
  check(db.CreateTable("sales",
                       {Column{"sale_id", Type::kInt, false},
                        Column{"store_id", Type::kInt, false},
                        Column{"date", Type::kDate, false},
                        Column{"amount", Type::kDouble, false}},
                       {"sale_id"}));
  check(db.AddForeignKey("sales", "store_id", "stores", "store_id"));

  // 2. Data.
  std::vector<sumtab::Row> stores = {
      {Value::Int(1), Value::String("Berlin"), Value::String("EU")},
      {Value::Int(2), Value::String("Munich"), Value::String("EU")},
      {Value::Int(3), Value::String("Austin"), Value::String("US")},
  };
  check(db.BulkLoad("stores", std::move(stores)));
  std::vector<sumtab::Row> sales;
  for (int i = 0; i < 5000; ++i) {
    sales.push_back({Value::Int(i), Value::Int(1 + i % 3),
                     Value::Date(sumtab::MakeDate(2024 + i % 2, 1 + i % 12, 5)),
                     Value::Double(10.0 + (i % 97))});
  }
  check(db.BulkLoad("sales", std::move(sales)));

  // 3. A summary table: monthly revenue per store.
  auto rows = db.DefineSummaryTable(
      "monthly_store_sales",
      "select store_id, year(date) as y, month(date) as m, "
      "count(*) as cnt, sum(amount) as revenue "
      "from sales group by store_id, year(date), month(date)");
  if (!rows.ok()) {
    std::fprintf(stderr, "%s\n", rows.status().ToString().c_str());
    return 1;
  }
  std::printf("materialized monthly_store_sales: %lld rows (fact: %lld)\n\n",
              static_cast<long long>(*rows),
              static_cast<long long>(db.TableRows("sales")));

  // 4. A coarser analytical query: yearly revenue per region. The engine
  //    proves that it can be answered from the summary table (rejoining the
  //    stores dimension, re-aggregating months into years) and rewrites it.
  const char* query =
      "select region, year(date) as y, sum(amount) as revenue "
      "from sales, stores where sales.store_id = stores.store_id "
      "group by region, year(date) order by region, y";
  auto result = db.Query(query);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("query: %s\n\n", query);
  std::printf("used summary table: %s\n",
              result->used_summary_table ? result->summary_table.c_str()
                                         : "(none)");
  std::printf("rewritten SQL:\n  %s\n\n", result->rewritten_sql.c_str());
  std::printf("%s\n", result->relation.ToString().c_str());

  // 5. EXPLAIN REWRITE shows the rewrite decision and every match attempt.
  auto explain = db.ExplainRewrite(query);
  if (!explain.ok()) {
    std::fprintf(stderr, "%s\n", explain.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", explain->c_str());
  return 0;
}
