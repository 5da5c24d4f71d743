// Unified bench driver: runs the figure workloads (card schema) and the
// TPC-D workload through the full configuration matrix
//
//     threads in {1, hardware} x plan cache in {off, on}
//
// validating that every configuration returns the same answer, and emits a
// machine-readable BENCH_pr3.json with per-query latencies, the parallel
// speedup (threads=N vs threads=1, cache off), and the plan-cache speedup
// (cold compile+rewrite vs warm cached plan). hardware_concurrency is
// recorded in the JSON: on a single-core runner the parallel column is a
// no-regression check, not a speedup claim.
//
// A second leg exercises the serving layer under a mixed workload: an
// open-loop stream of cheap warm-cache queries (fixed arrival schedule, so
// queueing delay is charged to latency — no coordinated omission), a heavy
// closed-loop analytical query, and a background appender, all through
// serving::Server sessions over the TPC-D schema. A solo baseline for the
// cheap query is measured first; BENCH_pr7.json reports QPS/p50/p99 per
// stream and the headline p99_vs_solo_ratio (how much the heavy+append
// traffic inflates cheap-query tail latency).
//
// A third leg prices durability: append throughput with the WAL off
// (in-memory), in strict fsync-per-commit mode, and in relaxed group-commit
// mode; checkpoint write cost; and the restart path (Database::Open over a
// checkpoint + WAL suffix until the first query answers), reported as
// restart-to-first-query time and replay records/sec in BENCH_pr8.json.
//
// The compensation leg measures what a stale AST costs with and without
// delta compensation (fresh rewrite vs base-table fallback vs compensated
// two-leg plan) at several retained-delta sizes; BENCH_pr9.json.
//
// The advisor leg replays a mixed weighted workload against a database with
// no ASTs, lets TUNE mine the resulting workload log, and replays again:
// BENCH_pr10.json reports before/after rewrite rate and workload cost with
// bit-identical cross-checked answers.
//
// Usage: bench_runner [--quick] [--out PATH] [--out-serving PATH]
//                     [--out-durability PATH] [--out-compensation PATH]
//                     [--out-advisor PATH]
//   --quick           small data sizes + fewer reps (CI smoke mode)
//   --out             matrix-leg JSON path (default BENCH_pr3.json)
//   --out-serving     serving-leg JSON path (default BENCH_pr7.json)
//   --out-durability  durability-leg JSON path (default BENCH_pr8.json)
//   --out-compensation  compensation-leg JSON path (default BENCH_pr9.json)
//   --out-advisor     advisor-leg JSON path (default BENCH_pr10.json)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "advisor/advisor.h"
#include "bench/bench_util.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "data/card_schema.h"
#include "data/tpcd_schema.h"
#include "serving/session.h"

namespace sumtab {
namespace {

struct BenchQuery {
  const char* label;
  const char* sql;
};

struct QueryRow {
  std::string label;
  std::string sql;
  bool rewritten = false;
  size_t result_rows = 0;
  double t1_nocache_ms = 0;   // threads=1, cache off (serial reference)
  double tn_nocache_ms = 0;   // threads=hardware, cache off
  double t1_cold_ms = 0;      // first cache-on run: compile + populate
  double t1_warm_ms = 0;      // cache hit, threads=1
  double tn_warm_ms = 0;      // cache hit, threads=hardware
  bool valid = true;
};

struct SuiteResult {
  std::string name;
  int64_t fact_rows = 0;
  std::vector<QueryRow> queries;
  DatabaseStats stats;
};

double OnceMs(Database* db, const std::string& sql, const QueryOptions& opts,
              QueryResult* out) {
  auto start = std::chrono::steady_clock::now();
  StatusOr<QueryResult> result = db->Query(sql, opts);
  auto end = std::chrono::steady_clock::now();
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n  %s\n",
                 result.status().ToString().c_str(), sql.c_str());
    std::exit(1);
  }
  if (out != nullptr) *out = std::move(*result);
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double BestMs(Database* db, const std::string& sql, const QueryOptions& opts,
              int reps, QueryResult* out) {
  double best = 1e18;
  for (int i = 0; i < reps; ++i) {
    QueryResult result;
    double ms = OnceMs(db, sql, opts, &result);
    if (ms < best) best = ms;
    if (out != nullptr) *out = std::move(result);
  }
  return best;
}

QueryRow RunMatrix(Database* db, const BenchQuery& q, int reps) {
  QueryRow row;
  row.label = q.label;
  row.sql = q.sql;

  QueryOptions t1;
  t1.max_threads = 1;
  t1.enable_plan_cache = false;
  QueryResult serial;
  row.t1_nocache_ms = BestMs(db, q.sql, t1, reps, &serial);
  row.rewritten = serial.used_summary_table;
  row.result_rows = serial.relation.NumRows();

  QueryOptions tn = t1;
  tn.max_threads = 0;  // resolve to hardware concurrency
  QueryResult parallel;
  row.tn_nocache_ms = BestMs(db, q.sql, tn, reps, &parallel);
  row.valid = engine::SameRowMultiset(serial.relation, parallel.relation);

  QueryOptions cached1 = t1;
  cached1.enable_plan_cache = true;
  QueryResult cold;
  row.t1_cold_ms = OnceMs(db, q.sql, cached1, &cold);
  QueryResult warm;
  row.t1_warm_ms = BestMs(db, q.sql, cached1, reps, &warm);
  if (!warm.plan_cache_hit) {
    std::fprintf(stderr, "expected a plan-cache hit: %s\n", q.sql);
    std::exit(1);
  }
  row.valid = row.valid &&
              engine::SameRowMultiset(serial.relation, warm.relation);

  QueryOptions cachedn = cached1;
  cachedn.max_threads = 0;
  QueryResult warm_parallel;
  row.tn_warm_ms = BestMs(db, q.sql, cachedn, reps, &warm_parallel);
  row.valid = row.valid &&
              engine::SameRowMultiset(serial.relation, warm_parallel.relation);

  if (!row.valid) {
    std::fprintf(stderr, "BENCH FAILURE: configurations disagree on %s\n",
                 q.sql);
    std::exit(1);
  }
  std::printf(
      "%-22s t1 %8.2f ms | tN %8.2f ms | cold %8.2f ms | warm %8.2f ms"
      " | %s\n",
      row.label.c_str(), row.t1_nocache_ms, row.tn_nocache_ms, row.t1_cold_ms,
      row.t1_warm_ms, row.rewritten ? "REWRITTEN" : "base");
  return row;
}

SuiteResult RunCardSuite(bool quick, int reps) {
  bench::PrintHeader("card schema: figure workloads (fig2-fig14 shapes)");
  Database db;
  data::CardSchemaParams params;
  params.num_trans = quick ? 20000 : 100000;
  if (!data::SetupCardSchema(&db, params).ok()) std::exit(1);

  const BenchQuery asts[] = {
      {"ast1",
       "select faid, flid, year(date) as year, count(*) as cnt "
       "from trans group by faid, flid, year(date)"},
      {"ast_ym",
       "select year(date) as year, month(date) as month, "
       "sum(qty * price) as value from trans group by year(date), "
       "month(date)"},
      {"ast7",
       "select flid, year(date) as year, count(*) as cnt "
       "from trans group by flid, year(date)"},
      {"ast10",
       "select flid, year(date) as year, count(*) as cnt, "
       "(select count(*) from trans) as totcnt "
       "from trans group by flid, year(date)"},
      {"ast12",
       "select flid, faid, year(date) as year, month(date) as month, "
       "count(*) as cnt from trans "
       "group by grouping sets ((flid, faid, year(date)), (flid, year(date)), "
       "(flid, year(date), month(date)), (year(date)))"},
  };
  for (const BenchQuery& ast : asts) {
    auto rows = db.DefineSummaryTable(ast.label, ast.sql);
    if (!rows.ok()) {
      std::fprintf(stderr, "AST %s failed: %s\n", ast.label,
                   rows.status().ToString().c_str());
      std::exit(1);
    }
  }

  const BenchQuery queries[] = {
      {"fig2 basic rewrite",
       "select faid, state, year(date) as year, count(*) as cnt "
       "from trans, loc where flid = lid and country = 'USA' "
       "group by faid, state, year(date) having count(*) > 5"},
      {"fig6 regroup",
       "select year(date) % 100 as yy, sum(qty * price) as value "
       "from trans where month(date) >= 6 group by year(date) % 100"},
      {"fig7 gb rejoin",
       "select state, year(date) as year, count(*) as cnt "
       "from trans, loc where flid = lid and country = 'USA' "
       "group by state, year(date)"},
      {"fig10 nested gb",
       "select tcnt, count(*) as ycnt from "
       "(select year(date) as year, count(*) as tcnt "
       "from trans group by year(date)) group by tcnt"},
      {"fig11 subquery",
       "select flid, count(*) as cnt, "
       "count(*) / (select count(*) from trans) as cntpct "
       "from trans, loc where flid = lid and country = 'USA' "
       "group by flid having count(*) > 2"},
      {"fig12 grouping sets",
       "select flid, year(date) as year, count(*) as cnt "
       "from trans where year(date) > 1990 "
       "group by grouping sets ((flid, year(date)), (year(date)))"},
      {"fig13 gs slice",
       "select flid, year(date) as year, count(*) as cnt "
       "from trans where month(date) >= 6 group by flid, year(date)"},
      {"fig14 cube",
       "select flid, year(date) as year, count(*) as cnt "
       "from trans group by cube(flid, year(date))"},
  };
  SuiteResult suite;
  suite.name = "card";
  suite.fact_rows = db.TableRows("trans");
  for (const BenchQuery& q : queries) {
    suite.queries.push_back(RunMatrix(&db, q, reps));
  }

  suite.stats = db.Stats();
  return suite;
}

SuiteResult RunTpcdSuite(bool quick, int reps) {
  bench::PrintHeader("tpcd schema: decision-support workload (W1-W8)");
  Database db;
  data::TpcdParams params;
  params.num_lineitems = quick ? 20000 : 100000;
  params.num_orders = quick ? 2000 : 10000;
  if (!data::SetupTpcdSchema(&db, params).ok()) std::exit(1);

  const BenchQuery asts[] = {
      {"ast_part_year",
       "select lineitem.pkey as pkey, pbrand, ptype, year(shipdate) as y, "
       "count(*) as cnt, sum(lqty) as qty, sum(lprice) as price, "
       "sum(lprice * (1 - ldisc)) as rev "
       "from lineitem, part where lineitem.pkey = part.pkey "
       "group by lineitem.pkey, pbrand, ptype, year(shipdate)"},
      {"ast_order_year",
       "select year(odate) as y, opriority, count(*) as cnt from orders "
       "group by year(odate), opriority"},
      {"ast_ship_month",
       "select year(shipdate) as y, month(shipdate) as m, count(*) as cnt, "
       "sum(lprice * (1 - ldisc)) as rev from lineitem "
       "group by year(shipdate), month(shipdate)"},
  };
  for (const BenchQuery& ast : asts) {
    auto rows = db.DefineSummaryTable(ast.label, ast.sql);
    if (!rows.ok()) {
      std::fprintf(stderr, "AST %s failed: %s\n", ast.label,
                   rows.status().ToString().c_str());
      std::exit(1);
    }
  }

  const BenchQuery queries[] = {
      {"W1 revenue by year",
       "select year(shipdate) as y, sum(lprice * (1 - ldisc)) as rev "
       "from lineitem group by year(shipdate)"},
      {"W2 brand-year revenue",
       "select pbrand, year(shipdate) as y, sum(lprice * (1 - ldisc)) as rev "
       "from lineitem, part where lineitem.pkey = part.pkey "
       "group by pbrand, year(shipdate)"},
      {"W3 volume by type",
       "select ptype, sum(lqty) as vol from lineitem, part "
       "where lineitem.pkey = part.pkey and year(shipdate) >= 1994 "
       "group by ptype"},
      {"W4 parts histogram",
       "select pkey, count(*) as cnt from lineitem group by pkey "
       "having count(*) > 40"},
      {"W5 orders by year",
       "select year(odate) as y, count(*) as cnt from orders "
       "group by year(odate)"},
      {"W6 priority 1995",
       "select opriority, count(*) as cnt from orders "
       "where year(odate) = 1995 group by opriority"},
      {"W7 region revenue",
       "select rname, sum(lprice) as rev "
       "from lineitem, orders, customer, nation "
       "where lineitem.okey = orders.okey and orders.ckey = customer.ckey "
       "and customer.nkey = nation.nkey group by rname"},
      {"W8 avg discount",
       "select pkey, avg(ldisc) as d from lineitem group by pkey"},
  };
  SuiteResult suite;
  suite.name = "tpcd";
  suite.fact_rows = db.TableRows("lineitem");
  for (const BenchQuery& q : queries) {
    suite.queries.push_back(RunMatrix(&db, q, reps));
  }

  suite.stats = db.Stats();
  return suite;
}

// ---- serving leg: mixed workload through Server/Session ----

using BenchClock = std::chrono::steady_clock;

/// One latency stream's summary. Latencies are milliseconds; for the
/// open-loop stream they are measured from the SCHEDULED arrival, so time
/// spent queued behind heavy work counts against the tail.
struct StreamStats {
  int64_t count = 0;
  int64_t rejected = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

StreamStats Summarize(const std::vector<double>& latencies, int64_t rejected,
                      double wall_seconds) {
  StreamStats s;
  s.count = static_cast<int64_t>(latencies.size());
  s.rejected = rejected;
  s.qps = wall_seconds > 0 ? static_cast<double>(s.count) / wall_seconds : 0;
  s.p50_ms = Percentile(latencies, 0.50);
  s.p99_ms = Percentile(latencies, 0.99);
  s.max_ms = latencies.empty()
                 ? 0
                 : *std::max_element(latencies.begin(), latencies.end());
  return s;
}

std::vector<Row> MakeLineitemRows(int64_t start_lkey, int n, int num_orders,
                                  int num_parts) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row{Value::Int(start_lkey + i), Value::Int(i % num_orders),
                       Value::Int(i % num_parts), Value::Int(1 + i % 50),
                       Value::Double(900.0 + (i % 1000)),
                       Value::Double((i % 11) / 100.0),
                       Value::Date(19940101 + (i % 28))});
  }
  return rows;
}

void RunServingLeg(bool quick, const std::string& path) {
  bench::PrintHeader("serving: mixed workload (open-loop cheap + heavy + appends)");
  Database db;
  data::TpcdParams params;
  params.num_lineitems = quick ? 20000 : 100000;
  params.num_orders = quick ? 2000 : 10000;
  if (!data::SetupTpcdSchema(&db, params).ok()) std::exit(1);
  // The cheap stream's AST: W5 collapses to a handful of (year, priority)
  // groups, so a warm-cache rewritten run is microseconds.
  auto ast = db.DefineSummaryTable(
      "ast_order_year",
      "select year(odate) as y, opriority, count(*) as cnt from orders "
      "group by year(odate), opriority");
  if (!ast.ok()) {
    std::fprintf(stderr, "serving leg AST failed: %s\n",
                 ast.status().ToString().c_str());
    std::exit(1);
  }

  const std::string cheap_sql =
      "select year(odate) as y, count(*) as cnt from orders "
      "group by year(odate)";
  const std::string heavy_sql =
      "select rname, sum(lprice) as rev "
      "from lineitem, orders, customer, nation "
      "where lineitem.okey = orders.okey and orders.ckey = customer.ckey "
      "and customer.nkey = nation.nkey group by rname";

  serving::AdmissionOptions admission;
  admission.max_concurrent = 16;
  admission.max_queued = 64;
  admission.max_wait_millis = 30000;
  serving::Server server(&db, admission);

  // ---- solo baseline: the cheap query alone, warm cache ----
  const int solo_reps = quick ? 300 : 1000;
  auto cheap_session = server.CreateSession();
  for (int i = 0; i < 3; ++i) {  // warm the plan cache + any lazy state
    if (!cheap_session->Query(cheap_sql).ok()) std::exit(1);
  }
  std::vector<double> solo_lat;
  solo_lat.reserve(static_cast<size_t>(solo_reps));
  auto solo_start = BenchClock::now();
  for (int i = 0; i < solo_reps; ++i) {
    auto t0 = BenchClock::now();
    if (!cheap_session->Query(cheap_sql).ok()) std::exit(1);
    solo_lat.push_back(
        std::chrono::duration<double, std::milli>(BenchClock::now() - t0)
            .count());
  }
  double solo_seconds =
      std::chrono::duration<double>(BenchClock::now() - solo_start).count();
  StreamStats solo = Summarize(solo_lat, 0, solo_seconds);

  // ---- mixed phase ----
  const auto duration =
      std::chrono::milliseconds(quick ? 1500 : 4000);
  const auto cheap_interval = std::chrono::microseconds(quick ? 4000 : 2000);
  const auto append_interval = std::chrono::milliseconds(50);
  const int append_batch = quick ? 100 : 200;

  std::vector<double> cheap_lat, heavy_lat;
  std::atomic<int64_t> cheap_rejected{0}, heavy_rejected{0};
  std::atomic<int64_t> appends_done{0};
  std::atomic<bool> append_failed{false};

  auto mixed_start = BenchClock::now();
  auto deadline = mixed_start + duration;

  // Open-loop cheap stream: arrivals happen on schedule whether or not the
  // previous query finished; a late finish eats into the next slot and the
  // delay shows up in the measured latency.
  std::thread cheap_thread([&] {
    auto session = server.CreateSession({.max_in_flight = 64, .weight = 2});
    for (int64_t i = 0;; ++i) {
      auto scheduled = mixed_start + i * cheap_interval;
      if (scheduled >= deadline) break;
      std::this_thread::sleep_until(scheduled);
      StatusOr<QueryResult> result = session->Query(cheap_sql);
      if (!result.ok()) {
        cheap_rejected.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      cheap_lat.push_back(
          std::chrono::duration<double, std::milli>(BenchClock::now() -
                                                    scheduled)
              .count());
    }
  });

  // Heavy closed-loop stream: back-to-back four-way joins.
  std::thread heavy_thread([&] {
    auto session = server.CreateSession({.weight = 1});
    while (BenchClock::now() < deadline) {
      auto t0 = BenchClock::now();
      StatusOr<QueryResult> result = session->Query(heavy_sql);
      if (!result.ok()) {
        heavy_rejected.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      heavy_lat.push_back(
          std::chrono::duration<double, std::milli>(BenchClock::now() - t0)
              .count());
    }
  });

  // Background appender: periodic batches into the fact table, exercising
  // the exclusive-lock maintenance path (incremental AST upkeep included)
  // while both query streams run.
  std::thread append_thread([&] {
    int64_t next_lkey = params.num_lineitems + 1000000;
    for (int64_t k = 0;; ++k) {
      auto scheduled = mixed_start + k * append_interval;
      if (scheduled >= deadline) break;
      std::this_thread::sleep_until(scheduled);
      auto report = db.Append(
          "lineitem", MakeLineitemRows(next_lkey, append_batch,
                                       params.num_orders, params.num_parts));
      if (!report.ok()) {
        std::fprintf(stderr, "serving leg append failed: %s\n",
                     report.status().ToString().c_str());
        append_failed.store(true, std::memory_order_relaxed);
        break;
      }
      next_lkey += append_batch;
      appends_done.fetch_add(1, std::memory_order_relaxed);
    }
  });

  cheap_thread.join();
  heavy_thread.join();
  append_thread.join();
  if (append_failed.load(std::memory_order_relaxed)) std::exit(1);
  double mixed_seconds =
      std::chrono::duration<double>(BenchClock::now() - mixed_start).count();

  StreamStats cheap = Summarize(
      cheap_lat, cheap_rejected.load(std::memory_order_relaxed),
      mixed_seconds);
  StreamStats heavy = Summarize(
      heavy_lat, heavy_rejected.load(std::memory_order_relaxed),
      mixed_seconds);
  int64_t appends = appends_done.load(std::memory_order_relaxed);
  double ratio = solo.p99_ms > 0 ? cheap.p99_ms / solo.p99_ms : 0;

  std::printf("solo cheap : %6lld q  %8.1f qps  p50 %7.3f ms  p99 %7.3f ms\n",
              static_cast<long long>(solo.count), solo.qps, solo.p50_ms,
              solo.p99_ms);
  std::printf("mixed cheap: %6lld q  %8.1f qps  p50 %7.3f ms  p99 %7.3f ms"
              "  (%lld rejected)\n",
              static_cast<long long>(cheap.count), cheap.qps, cheap.p50_ms,
              cheap.p99_ms, static_cast<long long>(cheap.rejected));
  std::printf("mixed heavy: %6lld q  %8.1f qps  p50 %7.3f ms  p99 %7.3f ms"
              "  (%lld rejected)\n",
              static_cast<long long>(heavy.count), heavy.qps, heavy.p50_ms,
              heavy.p99_ms, static_cast<long long>(heavy.rejected));
  std::printf("appends    : %6lld batches x %d rows\n",
              static_cast<long long>(appends), append_batch);
  std::printf("cheap p99 under load vs solo: %.2fx\n", ratio);

  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  auto stream_json = [&](const char* name, const StreamStats& s,
                         const char* trailing) {
    std::fprintf(f,
                 "    \"%s\": {\"count\": %lld, \"rejected\": %lld, "
                 "\"qps\": %.2f, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
                 "\"max_ms\": %.4f}%s\n",
                 name, static_cast<long long>(s.count),
                 static_cast<long long>(s.rejected), s.qps, s.p50_ms, s.p99_ms,
                 s.max_ms, trailing);
  };
  std::fprintf(f, "{\n  \"bench\": \"pr7\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  std::fprintf(f, "  \"hardware_concurrency\": %d,\n",
               ThreadPool::HardwareParallelism());
  std::fprintf(f, "  \"fact_rows\": %lld,\n",
               static_cast<long long>(params.num_lineitems));
  std::fprintf(f, "  \"mixed_duration_s\": %.3f,\n", mixed_seconds);
  std::fprintf(f, "  \"solo\": {\n");
  stream_json("cheap", solo, "");
  std::fprintf(f, "  },\n  \"mixed\": {\n");
  stream_json("cheap", cheap, ",");
  stream_json("heavy", heavy, ",");
  std::fprintf(f,
               "    \"appends\": {\"count\": %lld, \"batch_rows\": %d, "
               "\"qps\": %.2f}\n",
               static_cast<long long>(appends), append_batch,
               mixed_seconds > 0 ? static_cast<double>(appends) / mixed_seconds
                                 : 0);
  std::fprintf(f, "  },\n  \"p99_vs_solo_ratio\": %.3f\n}\n", ratio);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

// ---- durability leg (BENCH_pr8.json) ----

struct AppendThroughput {
  double seconds = 0;
  int64_t rows = 0;
  double rows_per_sec() const { return seconds > 0 ? rows / seconds : 0; }
};

std::vector<Row> DurabilityRows(int64_t start_a, int n) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row{Value::Int(start_a + i), Value::Int((start_a + i) % 97),
                       Value::Int((start_a + i) % 16)});
  }
  return rows;
}

// Schema + AST + seed data shared by every mode, so the appends always pay
// for incremental AST maintenance too (that is the realistic write path).
void SetupDurabilitySchema(Database* db) {
  Status st = db->CreateTable("t",
                              {{"a", Type::kInt, false},
                               {"b", Type::kInt, false},
                               {"g", Type::kInt, false}},
                              {"a"});
  if (st.ok()) st = db->BulkLoad("t", DurabilityRows(0, 5000));
  if (st.ok()) {
    st = db->DefineSummaryTable(
               "ast_g", "select g, count(*) as c, sum(b) as s from t group by g")
             .status();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "durability leg setup failed: %s\n",
                 st.ToString().c_str());
    std::exit(1);
  }
}

AppendThroughput RunAppendWorkload(Database* db, int batches, int batch_rows,
                                   int64_t start_a) {
  AppendThroughput result;
  auto t0 = BenchClock::now();
  for (int i = 0; i < batches; ++i) {
    auto report =
        db->Append("t", DurabilityRows(start_a + i * batch_rows, batch_rows));
    if (!report.ok()) {
      std::fprintf(stderr, "durability leg append failed: %s\n",
                   report.status().ToString().c_str());
      std::exit(1);
    }
    result.rows += batch_rows;
  }
  result.seconds =
      std::chrono::duration<double>(BenchClock::now() - t0).count();
  return result;
}

void RunDurabilityLeg(bool quick, const std::string& path) {
  namespace fs = std::filesystem;
  bench::PrintHeader("durability: WAL append cost, checkpoint, restart");
  const int batches = quick ? 40 : 150;
  const int batch_rows = 200;
  const std::string root =
      (fs::temp_directory_path() / "sumtab_bench_durability").string();
  fs::remove_all(root);

  // WAL off: the pure in-memory append path as the baseline.
  AppendThroughput memory;
  {
    Database db;
    SetupDurabilitySchema(&db);
    memory = RunAppendWorkload(&db, batches, batch_rows, 1000000);
  }

  // Strict: fsync'd group commit before every publish.
  AppendThroughput strict;
  double checkpoint_ms = 0;
  int64_t checkpoint_bytes = 0;
  int64_t strict_wal_records = 0, strict_wal_bytes = 0;
  double restart_ms = 0, replay_per_sec = 0;
  int64_t replayed = 0;
  {
    DatabaseOptions options;
    options.data_dir = root + "/strict";
    auto db = Database::Open(options);
    if (!db.ok()) {
      std::fprintf(stderr, "durability leg open failed: %s\n",
                   db.status().ToString().c_str());
      std::exit(1);
    }
    SetupDurabilitySchema(db->get());
    strict = RunAppendWorkload(db->get(), batches, batch_rows, 1000000);

    auto t0 = BenchClock::now();
    Status st = (*db)->Checkpoint();
    checkpoint_ms =
        std::chrono::duration<double, std::milli>(BenchClock::now() - t0)
            .count();
    if (!st.ok()) {
      std::fprintf(stderr, "durability leg checkpoint failed: %s\n",
                   st.ToString().c_str());
      std::exit(1);
    }
    for (const auto& entry : fs::directory_iterator(options.data_dir)) {
      if (entry.path().filename().string().rfind("ckpt-", 0) == 0) {
        checkpoint_bytes = static_cast<int64_t>(entry.file_size());
      }
    }
    // Leave a WAL suffix behind the checkpoint so the restart below has
    // records to replay (half the workload again).
    RunAppendWorkload(db->get(), batches / 2, batch_rows, 2000000);
    DurabilityStats ds = (*db)->Stats().durability;
    strict_wal_records = ds.wal_records;
    strict_wal_bytes = ds.wal_bytes;
  }
  {
    // Restart-to-first-query: open (checkpoint load + WAL replay) plus one
    // warm-path query, timed as one figure — what a process restart costs.
    DatabaseOptions options;
    options.data_dir = root + "/strict";
    auto t0 = BenchClock::now();
    auto db = Database::Open(options);
    if (!db.ok()) std::exit(1);
    auto first = (*db)->Query("select g, count(*) as c from t group by g");
    restart_ms =
        std::chrono::duration<double, std::milli>(BenchClock::now() - t0)
            .count();
    if (!first.ok()) std::exit(1);
    replayed = (*db)->Stats().durability.recovery_replayed_records;
    replay_per_sec =
        restart_ms > 0 ? replayed / (restart_ms / 1000.0) : 0;
  }

  // Relaxed: group commit within the flush interval, no per-op fsync.
  AppendThroughput relaxed;
  {
    DatabaseOptions options;
    options.data_dir = root + "/relaxed";
    options.wal_sync = false;
    auto db = Database::Open(options);
    if (!db.ok()) std::exit(1);
    SetupDurabilitySchema(db->get());
    relaxed = RunAppendWorkload(db->get(), batches, batch_rows, 1000000);
  }
  fs::remove_all(root);

  auto slowdown = [](const AppendThroughput& base,
                     const AppendThroughput& mode) {
    return mode.rows_per_sec() > 0
               ? base.rows_per_sec() / mode.rows_per_sec()
               : 0.0;
  };
  std::printf("append    : memory %10.0f rows/s | strict %10.0f rows/s "
              "(%.2fx slower) | relaxed %10.0f rows/s (%.2fx slower)\n",
              memory.rows_per_sec(), strict.rows_per_sec(),
              slowdown(memory, strict), relaxed.rows_per_sec(),
              slowdown(memory, relaxed));
  std::printf("checkpoint: %.2f ms, %lld bytes\n", checkpoint_ms,
              static_cast<long long>(checkpoint_bytes));
  std::printf("restart   : %.2f ms to first query, %lld records replayed "
              "(%.0f records/s)\n",
              restart_ms, static_cast<long long>(replayed), replay_per_sec);

  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  auto mode_json = [&](const char* name, const AppendThroughput& t,
                       const char* trailing) {
    std::fprintf(f,
                 "    \"%s\": {\"rows\": %lld, \"seconds\": %.4f, "
                 "\"rows_per_sec\": %.1f, \"slowdown_vs_memory\": %.3f}%s\n",
                 name, static_cast<long long>(t.rows), t.seconds,
                 t.rows_per_sec(), slowdown(memory, t), trailing);
  };
  std::fprintf(f, "{\n  \"bench\": \"pr8\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  std::fprintf(f, "  \"append\": {\n");
  std::fprintf(f, "    \"batches\": %d,\n    \"batch_rows\": %d,\n", batches,
               batch_rows);
  mode_json("memory", memory, ",");
  mode_json("wal_strict", strict, ",");
  mode_json("wal_relaxed", relaxed, "");
  std::fprintf(f, "  },\n");
  std::fprintf(f,
               "  \"checkpoint\": {\"write_ms\": %.4f, \"bytes\": %lld, "
               "\"wal_records\": %lld, \"wal_bytes\": %lld},\n",
               checkpoint_ms, static_cast<long long>(checkpoint_bytes),
               static_cast<long long>(strict_wal_records),
               static_cast<long long>(strict_wal_bytes));
  std::fprintf(f,
               "  \"restart\": {\"restart_to_first_query_ms\": %.4f, "
               "\"replayed_records\": %lld, "
               "\"replay_records_per_sec\": %.1f}\n}\n",
               restart_ms, static_cast<long long>(replayed), replay_per_sec);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

// ---- compensation leg (BENCH_pr9.json) ----
//
// What a stale AST costs with and without delta compensation: per retained
// delta size, the same aggregate query is measured (a) against a FRESH AST
// (plain rewrite — the floor), (b) against the stale AST with compensation
// disabled (the query falls back to the full base-table scan), and (c)
// against the stale AST with compensation (AST scan ∪ delta aggregate).
// Answers are cross-checked between all three modes; (c) must beat (b) at
// every delta size for the leg to pass.
void RunCompensationLeg(bool quick, const std::string& path) {
  bench::PrintHeader("compensation: fresh vs stale-fallback vs compensated");
  const int64_t base_rows = quick ? 100000 : 200000;
  const int reps = quick ? 3 : 7;
  const int64_t delta_sizes[] = {1000, 10000, 100000};
  const char* query = "select g, count(*) as c, sum(b) as s from t group by g";

  struct DeltaRow {
    int64_t delta_rows = 0;
    int64_t epochs = 0;
    double fresh_ms = 0;
    double fallback_ms = 0;
    double compensated_ms = 0;
    double compensated_rewrite_rate = 0;
  };
  std::vector<DeltaRow> rows;

  QueryOptions fresh_opts;
  fresh_opts.enable_plan_cache = false;
  QueryOptions fallback_opts;
  fallback_opts.enable_plan_cache = false;
  fallback_opts.enable_compensation = false;
  QueryOptions comp_opts;
  comp_opts.enable_plan_cache = false;

  for (int64_t delta : delta_sizes) {
    Database db;
    SetupDurabilitySchema(&db);  // t(a,b,g) + ast_g, 5k seed rows
    Status st = db.BulkLoad("t", DurabilityRows(10000, static_cast<int>(
                                                           base_rows - 5000)));
    if (st.ok()) st = db.RefreshSummaryTable("ast_g");
    if (!st.ok()) {
      std::fprintf(stderr, "compensation leg setup failed: %s\n",
                   st.ToString().c_str());
      std::exit(1);
    }

    DeltaRow row;
    row.delta_rows = delta;
    engine::Relation fresh_answer;
    row.fresh_ms = bench::TimeQueryMs(&db, query, fresh_opts, reps,
                                      &fresh_answer);

    // Retain the delta as deferred appends: ast_g goes stale with exact
    // coverage. Several epochs, so the merge spans a multi-slice range.
    Database::AppendOptions deferred;
    deferred.maintain = false;
    const int64_t batch = std::max<int64_t>(1, delta / 4);
    int64_t appended = 0;
    while (appended < delta) {
      int64_t n = std::min(batch, delta - appended);
      auto report = db.Append(
          "t", DurabilityRows(2000000 + appended, static_cast<int>(n)),
          deferred);
      if (!report.ok()) {
        std::fprintf(stderr, "compensation leg append failed: %s\n",
                     report.status().ToString().c_str());
        std::exit(1);
      }
      appended += n;
      ++row.epochs;
    }

    engine::Relation comp_answer;
    row.compensated_ms =
        bench::TimeQueryMs(&db, query, comp_opts, reps, &comp_answer);
    engine::Relation fallback_answer;
    row.fallback_ms = bench::TimeQueryMs(&db, query, fallback_opts, reps,
                                         &fallback_answer);

    // Sanity: the compensated run really compensated, the fallback really
    // did not, and all three answers agree (fresh predates the delta, so it
    // is checked against a rewrite-off recompute instead).
    StatusOr<QueryResult> comp_probe = db.Query(query, comp_opts);
    StatusOr<QueryResult> fallback_probe = db.Query(query, fallback_opts);
    if (!comp_probe.ok() || !fallback_probe.ok() || !comp_probe->compensated ||
        comp_probe->compensation_delta_rows != delta ||
        fallback_probe->used_summary_table) {
      std::fprintf(stderr,
                   "BENCH FAILURE: compensation mode flags wrong at delta "
                   "%lld\n",
                   static_cast<long long>(delta));
      std::exit(1);
    }
    row.compensated_rewrite_rate = 1.0;
    QueryOptions off;
    off.enable_rewrite = false;
    StatusOr<QueryResult> recompute = db.Query(query, off);
    if (!recompute.ok() ||
        !engine::SameRowMultiset(recompute->relation, comp_answer) ||
        !engine::SameRowMultiset(recompute->relation, fallback_answer)) {
      std::fprintf(stderr,
                   "BENCH FAILURE: compensated answer diverges at delta "
                   "%lld\n",
                   static_cast<long long>(delta));
      std::exit(1);
    }

    std::printf(
        "delta %7lld rows (%lld epochs): fresh %8.3f ms | fallback %8.3f ms "
        "| compensated %8.3f ms (%.2fx vs fallback)\n",
        static_cast<long long>(row.delta_rows),
        static_cast<long long>(row.epochs), row.fresh_ms, row.fallback_ms,
        row.compensated_ms,
        row.compensated_ms > 0 ? row.fallback_ms / row.compensated_ms : 0.0);
    if (row.compensated_ms >= row.fallback_ms) {
      std::fprintf(stderr,
                   "BENCH FAILURE: compensated (%.3f ms) not faster than "
                   "stale fallback (%.3f ms) at delta %lld\n",
                   row.compensated_ms, row.fallback_ms,
                   static_cast<long long>(delta));
      std::exit(1);
    }
    rows.push_back(row);
  }

  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"pr9\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  std::fprintf(f, "  \"base_rows\": %lld,\n",
               static_cast<long long>(base_rows));
  std::fprintf(f, "  \"query\": \"%s\",\n", query);
  std::fprintf(f, "  \"deltas\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const DeltaRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"delta_rows\": %lld, \"epochs\": %lld, \"fresh_ms\": %.4f, "
        "\"stale_fallback_ms\": %.4f, \"compensated_ms\": %.4f, "
        "\"compensated_speedup_vs_fallback\": %.3f, "
        "\"compensated_rewrite_rate\": %.3f}%s\n",
        static_cast<long long>(r.delta_rows),
        static_cast<long long>(r.epochs), r.fresh_ms, r.fallback_ms,
        r.compensated_ms,
        r.compensated_ms > 0 ? r.fallback_ms / r.compensated_ms : 0.0,
        r.compensated_rewrite_rate, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

// ---- advisor leg (BENCH_pr10.json) ----
//
// The closed tuning loop, priced: a mixed aggregate workload (with
// per-query frequencies, a grouping-sets query, and background appends) is
// replayed against a fresh card database with NO summary tables, so every
// query scans base data and the database's workload log fills up. TUNE then
// mines that log and materializes its chosen ASTs. The same workload is
// replayed again and the leg asserts bit-identical answers, a strictly
// higher rewrite rate, and a lower modeled workload cost; the
// recommendation itself is computed twice and must be identical (the
// advisor is deterministic for a fixed log and budget).
void RunAdvisorLeg(bool quick, const std::string& path) {
  bench::PrintHeader("advisor: workload-log-driven tuning (before/after)");
  Database db;
  data::CardSchemaParams params;
  params.num_trans = quick ? 20000 : 100000;
  if (!data::SetupCardSchema(&db, params).ok()) std::exit(1);

  struct AdvQuery {
    const char* label;
    const char* sql;
    int freq;
  };
  const AdvQuery workload[] = {
      {"aq1 faid-year",
       "select faid, year(date) as y, count(*) as c from trans "
       "group by faid, year(date)",
       quick ? 4 : 8},
      {"aq2 yearly qty",
       "select year(date) as y, sum(qty) as q from trans group by year(date)",
       quick ? 6 : 12},
      {"aq3 rollup",
       "select flid, year(date) as y, count(*) as c from trans "
       "group by rollup(flid, year(date))",
       3},
      {"aq4 flid value",
       "select flid, sum(qty * price) as v from trans group by flid",
       quick ? 5 : 10},
      {"aq5 state join",
       "select state, count(*) as c from trans, loc where flid = lid "
       "group by state",
       4},
      {"aq6 one-off",
       "select faid, flid, count(*) as c from trans group by faid, flid", 1},
  };
  const size_t num_queries = std::size(workload);

  // Background append traffic BEFORE the replays, so (a) the log carries
  // append rates for the maintenance-cost model and (b) both replay phases
  // see identical data and answers stay comparable.
  for (int k = 0; k < 4; ++k) {
    std::vector<Row> rows;
    for (int i = 0; i < 500; ++i) {
      int64_t j = k * 500 + i;
      rows.push_back(Row{Value::Int(5000000 + j), Value::Int(j % 50),
                         Value::Int(j % 12), Value::Int(j % 40),
                         Value::Date(19940101 + (j % 28)),
                         Value::Int(1 + j % 5), Value::Double(10.0),
                         Value::Double(0.0)});
    }
    if (!db.Append("trans", std::move(rows)).ok()) {
      std::fprintf(stderr, "advisor leg append failed\n");
      std::exit(1);
    }
  }

  struct PhaseStats {
    int64_t executions = 0;
    int64_t rewritten = 0;
    double ms = 0;
    double rate() const {
      return executions > 0
                 ? static_cast<double>(rewritten) /
                       static_cast<double>(executions)
                 : 0;
    }
  };
  std::vector<engine::Relation> answers(num_queries);
  auto replay = [&](bool check_answers) {
    PhaseStats stats;
    for (size_t i = 0; i < num_queries; ++i) {
      for (int rep = 0; rep < workload[i].freq; ++rep) {
        auto t0 = BenchClock::now();
        StatusOr<QueryResult> result = db.Query(workload[i].sql);
        stats.ms += std::chrono::duration<double, std::milli>(
                        BenchClock::now() - t0)
                        .count();
        if (!result.ok()) {
          std::fprintf(stderr, "advisor leg query failed: %s\n  %s\n",
                       result.status().ToString().c_str(), workload[i].sql);
          std::exit(1);
        }
        ++stats.executions;
        stats.rewritten += result->used_summary_table;
        if (rep == 0) {
          if (check_answers &&
              !engine::SameRowMultiset(answers[i], result->relation)) {
            std::fprintf(stderr,
                         "BENCH FAILURE: tuned answer diverges on %s\n",
                         workload[i].sql);
            std::exit(1);
          }
          if (!check_answers) answers[i] = std::move(result->relation);
        }
      }
    }
    return stats;
  };

  PhaseStats pre = replay(/*check_answers=*/false);

  // Determinism: the same log and budget must produce the same choice set.
  advisor::AdvisorOptions options;  // default budget = total base rows
  WorkloadSnapshot log = db.WorkloadLogSnapshot();
  std::vector<advisor::WorkloadQuery> mined;
  for (const WorkloadQueryStats& q : log.queries) {
    mined.push_back({q.normalized_sql, q.executions});
  }
  auto rec1 = advisor::RecommendForWorkload(&db, mined, options);
  auto rec2 = advisor::RecommendForWorkload(&db, mined, options);
  if (!rec1.ok() || !rec2.ok()) {
    std::fprintf(stderr, "advisor leg recommendation failed\n");
    std::exit(1);
  }
  bool deterministic = rec1->candidates.size() == rec2->candidates.size() &&
                       rec1->workload_cost_after == rec2->workload_cost_after;
  for (size_t i = 0; deterministic && i < rec1->candidates.size(); ++i) {
    deterministic = rec1->candidates[i].sql == rec2->candidates[i].sql &&
                    rec1->candidates[i].chosen == rec2->candidates[i].chosen;
  }
  if (!deterministic) {
    std::fprintf(stderr, "BENCH FAILURE: advisor is not deterministic\n");
    std::exit(1);
  }

  auto tune = advisor::AdviseAndApply(&db, options);
  if (!tune.ok()) {
    std::fprintf(stderr, "advisor leg tune failed: %s\n",
                 tune.status().ToString().c_str());
    std::exit(1);
  }
  const advisor::Recommendation& rec = tune->recommendation;

  PhaseStats post = replay(/*check_answers=*/true);

  if (post.rewritten <= pre.rewritten) {
    std::fprintf(stderr,
                 "BENCH FAILURE: rewrite rate did not rise (%lld -> %lld)\n",
                 static_cast<long long>(pre.rewritten),
                 static_cast<long long>(post.rewritten));
    std::exit(1);
  }
  if (rec.workload_cost_after >= rec.workload_cost_before) {
    std::fprintf(stderr,
                 "BENCH FAILURE: modeled workload cost did not drop "
                 "(%lld -> %lld)\n",
                 static_cast<long long>(rec.workload_cost_before),
                 static_cast<long long>(rec.workload_cost_after));
    std::exit(1);
  }

  std::printf("pre  : %3lld queries, %3lld rewritten (%.0f%%), %8.2f ms\n",
              static_cast<long long>(pre.executions),
              static_cast<long long>(pre.rewritten), 100 * pre.rate(),
              pre.ms);
  std::printf("tune : %zu candidate(s), %zu created, %lld rows under budget "
              "%lld; model cost %lld -> %lld\n",
              rec.candidates.size(), tune->created.size(),
              static_cast<long long>(rec.total_rows_used),
              static_cast<long long>(rec.budget_rows),
              static_cast<long long>(rec.workload_cost_before),
              static_cast<long long>(rec.workload_cost_after));
  std::printf("post : %3lld queries, %3lld rewritten (%.0f%%), %8.2f ms "
              "(%.2fx)\n",
              static_cast<long long>(post.executions),
              static_cast<long long>(post.rewritten), 100 * post.rate(),
              post.ms, post.ms > 0 ? pre.ms / post.ms : 0.0);

  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"pr10\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  std::fprintf(f, "  \"fact_rows\": %lld,\n",
               static_cast<long long>(db.TableRows("trans")));
  std::fprintf(f, "  \"workload\": [\n");
  for (size_t i = 0; i < num_queries; ++i) {
    std::fprintf(f, "    {\"label\": \"%s\", \"freq\": %d}%s\n",
                 workload[i].label, workload[i].freq,
                 i + 1 < num_queries ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  auto phase_json = [&](const char* name, const PhaseStats& s,
                        int64_t model_cost, const char* trailing) {
    std::fprintf(f,
                 "  \"%s\": {\"executions\": %lld, \"rewritten\": %lld, "
                 "\"rewrite_rate\": %.4f, \"measured_ms\": %.3f, "
                 "\"workload_cost_model\": %lld}%s\n",
                 name, static_cast<long long>(s.executions),
                 static_cast<long long>(s.rewritten), s.rate(), s.ms,
                 static_cast<long long>(model_cost), trailing);
  };
  phase_json("pre", pre, rec.workload_cost_before, ",");
  std::fprintf(f, "  \"advisor\": {\"deterministic\": true, ");
  std::fprintf(f, "\"candidates\": %zu, \"created\": [",
               rec.candidates.size());
  for (size_t i = 0; i < tune->created.size(); ++i) {
    std::fprintf(f, "\"%s\"%s", tune->created[i].c_str(),
                 i + 1 < tune->created.size() ? ", " : "");
  }
  std::fprintf(f,
               "], \"budget_rows\": %lld, \"total_rows_used\": %lld, "
               "\"maintenance_cost\": %lld},\n",
               static_cast<long long>(rec.budget_rows),
               static_cast<long long>(rec.total_rows_used),
               static_cast<long long>(rec.maintenance_cost));
  phase_json("post", post, rec.workload_cost_after, ",");
  std::fprintf(f, "  \"rewrite_rate_delta\": %.4f,\n",
               post.rate() - pre.rate());
  std::fprintf(f, "  \"workload_cost_ratio\": %.4f\n}\n",
               rec.workload_cost_before > 0
                   ? static_cast<double>(rec.workload_cost_after) /
                         static_cast<double>(rec.workload_cost_before)
                   : 0.0);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void WriteJson(const std::string& path, bool quick,
               const std::vector<SuiteResult>& suites) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"pr3\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  std::fprintf(f, "  \"hardware_concurrency\": %d,\n",
               ThreadPool::HardwareParallelism());
  std::fprintf(f, "  \"suites\": [\n");
  for (size_t s = 0; s < suites.size(); ++s) {
    const SuiteResult& suite = suites[s];
    std::fprintf(f, "    {\n      \"name\": \"%s\",\n", suite.name.c_str());
    std::fprintf(f, "      \"fact_rows\": %lld,\n",
                 static_cast<long long>(suite.fact_rows));
    std::fprintf(
        f,
        "      \"plan_cache\": {\"hits\": %lld, \"misses\": %lld, "
        "\"invalidations\": %lld, \"entries\": %lld},\n",
        static_cast<long long>(suite.stats.plan_cache_hits),
        static_cast<long long>(suite.stats.plan_cache_misses),
        static_cast<long long>(suite.stats.plan_cache_invalidations),
        static_cast<long long>(suite.stats.plan_cache_entries));
    std::fprintf(f, "      \"queries\": [\n");
    for (size_t i = 0; i < suite.queries.size(); ++i) {
      const QueryRow& q = suite.queries[i];
      double parallel_speedup =
          q.tn_nocache_ms > 0 ? q.t1_nocache_ms / q.tn_nocache_ms : 0.0;
      double cache_speedup = q.t1_warm_ms > 0 ? q.t1_cold_ms / q.t1_warm_ms
                                              : 0.0;
      std::fprintf(
          f,
          "        {\"label\": \"%s\", \"sql\": \"%s\", "
          "\"rewritten\": %s, \"result_rows\": %zu, "
          "\"t1_nocache_ms\": %.4f, \"tn_nocache_ms\": %.4f, "
          "\"t1_cold_ms\": %.4f, \"t1_warm_ms\": %.4f, "
          "\"tn_warm_ms\": %.4f, \"parallel_speedup\": %.3f, "
          "\"cache_speedup\": %.3f}%s\n",
          JsonEscape(q.label).c_str(), JsonEscape(q.sql).c_str(),
          q.rewritten ? "true" : "false", q.result_rows, q.t1_nocache_ms,
          q.tn_nocache_ms, q.t1_cold_ms, q.t1_warm_ms, q.tn_warm_ms,
          parallel_speedup, cache_speedup,
          i + 1 < suite.queries.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n    }%s\n", s + 1 < suites.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::string metrics =
      MetricsRegistry::ToJson(MetricsRegistry::Global().Snap());
  std::fprintf(f, "  \"metrics\": %s\n}\n", metrics.c_str());
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace
}  // namespace sumtab

int main(int argc, char** argv) {
  using namespace sumtab;
  bool quick = false;
  std::string out = "BENCH_pr3.json";
  std::string out_serving = "BENCH_pr7.json";
  std::string out_durability = "BENCH_pr8.json";
  std::string out_compensation = "BENCH_pr9.json";
  std::string out_advisor = "BENCH_pr10.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--out-serving") == 0 && i + 1 < argc) {
      out_serving = argv[++i];
    } else if (std::strcmp(argv[i], "--out-durability") == 0 && i + 1 < argc) {
      out_durability = argv[++i];
    } else if (std::strcmp(argv[i], "--out-compensation") == 0 &&
               i + 1 < argc) {
      out_compensation = argv[++i];
    } else if (std::strcmp(argv[i], "--out-advisor") == 0 && i + 1 < argc) {
      out_advisor = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out PATH] [--out-serving PATH] "
                   "[--out-durability PATH] [--out-compensation PATH] "
                   "[--out-advisor PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  int reps = quick ? 2 : 3;
  std::printf("bench_runner: quick=%d hardware_concurrency=%d\n\n", quick,
              ThreadPool::HardwareParallelism());
  std::vector<SuiteResult> suites;
  suites.push_back(RunCardSuite(quick, reps));
  suites.push_back(RunTpcdSuite(quick, reps));
  WriteJson(out, quick, suites);
  // After the JSON writes so the pr3 metrics block reflects only the matrix
  // legs (the serving leg runs its own database + server).
  RunServingLeg(quick, out_serving);
  RunDurabilityLeg(quick, out_durability);
  RunCompensationLeg(quick, out_compensation);
  RunAdvisorLeg(quick, out_advisor);

  double cold = 0, warm = 0, t1 = 0, tn = 0;
  for (const SuiteResult& suite : suites) {
    for (const QueryRow& q : suite.queries) {
      cold += q.t1_cold_ms;
      warm += q.t1_warm_ms;
      t1 += q.t1_nocache_ms;
      tn += q.tn_nocache_ms;
    }
  }
  std::printf(
      "TOTALS: serial %.2f ms | parallel %.2f ms (%.2fx) | "
      "cache cold %.2f ms | cache warm %.2f ms (%.2fx)\n",
      t1, tn, tn > 0 ? t1 / tn : 0.0, cold, warm,
      warm > 0 ? cold / warm : 0.0);
  return 0;
}
