// The paper's evaluation, timed: every case of bench/paper_cases.h run
// direct and rewritten, then three short sweeps: maintenance cost against
// the delta size (MAINT), the advisor's space budget (ADV) and matcher
// overhead against the number of decoy ASTs (NAV).
//
// Each query reports the median wall time of its direct and rewritten runs
// (warm plan cache, kLanes lanes) and the parse / QGM-build / rewrite /
// execute split of cold traced runs from QueryTrace. A wrong verdict, a
// NewQ without its shape, or an answer that differs from direct execution
// (or from the case's exact rows) prints FAIL and makes the exit status 1.
// The last line of output is one JSON object holding every number.
//
// Usage: bench_paper [--quick]
//   --quick runs the card cases at 50k trans rows and TPC-D at 20k
//   lineitems; the full run uses 200k and 1M trans rows and 300k lineitems.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "bench/paper_cases.h"
#include "engine/relation.h"
#include "sumtab/database.h"

#ifndef SUMTAB_BUILD_TYPE
#define SUMTAB_BUILD_TYPE "unknown"
#endif

namespace sumtab {
namespace {

using paper_cases::PaperCase;
using paper_cases::Schema;

constexpr int kLanes = 4;
constexpr int kReps = 11;

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (ok) return;
  std::printf("FAIL %s\n", what.c_str());
  ++failures;
}

/// Setup (loads, DDL) must not fail: a failure ends the run.
void Must(const Status& status, const std::string& what) {
  if (status.ok()) return;
  std::printf("FAIL %s: %s\n", what.c_str(), status.ToString().c_str());
  std::exit(1);
}

template <typename... Args>
std::string Format(const char* format, Args... args) {
  std::string out(std::snprintf(nullptr, 0, format, args...), '\0');
  std::snprintf(out.data(), out.size() + 1, format, args...);
  return out;
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) out += (out.empty() ? "" : ", ") + item;
  return "[" + out + "]";
}

QueryOptions Options(bool rewrite) {
  QueryOptions options;
  options.enable_rewrite = rewrite;
  options.max_threads = kLanes;
  return options;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Median wall time of kReps runs of `sql`; the last run's result in *out.
double MedianMs(Database* db, const std::string& sql,
                const QueryOptions& options, QueryResult* out) {
  std::vector<double> ms;
  for (int i = 0; i < kReps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    StatusOr<QueryResult> result = db->Query(sql, options);
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
    Must(result.status(), sql);
    *out = std::move(*result);
  }
  return Median(ms);
}

/// Median parse, QGM-build, rewrite and execute micros of kReps cold (plan
/// cache off) traced runs.
std::vector<double> ColdSplit(Database* db, const std::string& sql) {
  QueryOptions options = Options(true);
  options.enable_plan_cache = false;
  options.collect_trace = true;
  const QueryTrace::Phase phases[] = {
      QueryTrace::kPhaseParse, QueryTrace::kPhaseQgmBuild,
      QueryTrace::kPhaseRewrite, QueryTrace::kPhaseExecute};
  std::vector<std::vector<double>> us(4);
  for (int i = 0; i < kReps; ++i) {
    StatusOr<QueryResult> result = db->Query(sql, options);
    Must(result.status(), sql);
    for (int p = 0; p < 4; ++p) {
      us[p].push_back(
          static_cast<double>(result->trace->PhaseMicros(phases[p])));
    }
  }
  return {Median(us[0]), Median(us[1]), Median(us[2]), Median(us[3])};
}

/// Defines the case's ASTs in `db`, runs each query and drops the ASTs.
void RunCase(Database* db, const PaperCase& paper_case, int64_t fact_rows,
             std::vector<std::string>* json) {
  long long ast_rows = 0;
  for (const paper_cases::Ast& ast : paper_case.asts) {
    StatusOr<int64_t> rows = db->DefineSummaryTable(ast.name, ast.sql);
    Must(rows.status(), ast.name);
    ast_rows += *rows;
  }
  for (const paper_cases::Query& query : paper_case.queries) {
    QueryResult direct, routed;
    const double direct_ms = MedianMs(db, query.sql, Options(false), &direct);
    const double rewritten_ms = MedianMs(db, query.sql, Options(true), &routed);
    const std::vector<double> split = ColdSplit(db, query.sql);
    const std::string& newq = routed.rewritten_sql;
    bool ok = routed.used_summary_table == query.rewrites &&
              engine::SameRowMultiset(direct.relation, routed.relation);
    for (const std::string& part : query.newq_has) {
      ok = ok && newq.find(part) != std::string::npos;
    }
    for (const std::string& part : query.newq_lacks) {
      ok = ok && newq.find(part) == std::string::npos;
    }
    if (query.rows.has_value()) {
      ok = ok && engine::SameRowMultiset(direct.relation,
                                         engine::Relation{{}, *query.rows});
    }
    ok = ok && (!query.some_rows || direct.relation.NumRows() > 0);
    Check(ok, std::string(paper_case.id) + " " + query.label + ": " + newq);
    const char* verdict = routed.used_summary_table ? "true" : "false";
    std::printf(
        "%-6s %-26s %8lld | direct %8.2f ms | rewritten %7.2f ms | %7.1fx | "
        "parse %3.0f build %3.0f rewrite %3.0f execute %6.0f us | "
        "rewritten: %s\n",
        paper_case.artifact, query.label, static_cast<long long>(fact_rows),
        direct_ms, rewritten_ms, direct_ms / std::max(rewritten_ms, 1e-3),
        split[0], split[1], split[2], split[3], verdict);
    json->push_back(Format(
        "{\"case\": \"%s\", \"artifact\": \"%s\", \"query\": \"%s\", "
        "\"fact_rows\": %lld, \"ast_rows\": %lld, \"rewritten\": %s, "
        "\"ok\": %s, \"result_rows\": %zu, \"direct_ms\": %.4g, "
        "\"rewritten_ms\": %.4g, \"parse_us\": %.0f, \"build_us\": %.0f, "
        "\"rewrite_us\": %.0f, \"execute_us\": %.0f}",
        paper_case.id, paper_case.artifact, query.label,
        static_cast<long long>(fact_rows), ast_rows, verdict,
        ok ? "true" : "false", direct.relation.NumRows(), direct_ms,
        rewritten_ms, split[0], split[1], split[2], split[3]));
  }
  for (const paper_cases::Ast& ast : paper_case.asts) {
    Must(db->DropSummaryTable(ast.name), ast.name);
  }
}

/// MAINT: per-append refresh cost of a mergeable AST (incremental) and a
/// HAVING AST (recomputed), then both checked against their definitions.
std::vector<std::string> RunMaintenance(int64_t fact_rows) {
  std::vector<std::string> json;
  Database db;
  Must(paper_cases::SetupSchema(&db, Schema::kCard, fact_rows), "maint");
  const std::string mergeable =
      "select faid, year(date) as y, count(*) as c, sum(qty * price) as v "
      "from trans group by faid, year(date)";
  const std::string having =
      "select faid, count(*) as c from trans group by faid "
      "having count(*) > 100";
  Must(db.DefineSummaryTable("mergeable", mergeable).status(), mergeable);
  Must(db.DefineSummaryTable("having_ast", having).status(), having);
  int64_t tid = 100000000;
  for (int delta_rows : {100, 1000, 10000}) {
    std::vector<double> ms[2];  // incremental, recompute: one per append
    for (int rep = 0; rep < kReps; ++rep) {
      std::vector<Row> rows;
      for (int i = 0; i < delta_rows; ++i, ++tid) {
        rows.push_back(Row{
            Value::Int(tid), Value::Int(tid % 50), Value::Int(tid % 12),
            Value::Int(tid % 40),
            Value::Date(MakeDate(1990 + tid % 5, 1 + tid % 12, 1 + tid % 28)),
            Value::Int(1 + tid % 5), Value::Double(5.0 + tid % 995),
            Value::Double(0.0)});
      }
      StatusOr<Database::MaintenanceReport> report =
          db.Append("trans", std::move(rows));
      Must(report.status(), "maint append");
      for (const Database::RefreshEntry& entry : report->entries) {
        if (entry.mode == Database::RefreshMode::kIncremental) {
          ms[0].push_back(entry.millis);
        } else if (entry.mode == Database::RefreshMode::kRecompute) {
          ms[1].push_back(entry.millis);
        }
      }
    }
    if (ms[0].size() != kReps || ms[1].size() != kReps) {
      Check(false, "maint: not one incremental and one recomputed AST");
      return json;
    }
    std::printf("MAINT  delta %6d rows: incremental %7.2f ms | recompute "
                "%7.2f ms\n",
                delta_rows, Median(ms[0]), Median(ms[1]));
    json.push_back(Format(
        "{\"delta_rows\": %d, \"incremental_ms\": %.4g, "
        "\"recompute_ms\": %.4g}",
        delta_rows, Median(ms[0]), Median(ms[1])));
  }
  const std::pair<std::string, std::string> checks[] = {
      {mergeable, "select faid, y, c, v from mergeable"},
      {having, "select faid, c from having_ast"}};
  for (const auto& [definition, stored] : checks) {
    StatusOr<QueryResult> want = db.Query(definition, Options(false));
    StatusOr<QueryResult> got = db.Query(stored, Options(false));
    Check(want.ok() && got.ok() &&
              engine::SameRowMultiset(want->relation, got->relation),
          "maint freshness: " + stored);
  }
  return json;
}

/// ADV: the advisor's recommendation per space budget and the six-query
/// workload's time before and after applying it; answers must not change.
std::vector<std::string> RunAdvisor(int64_t fact_rows) {
  const std::vector<std::string> workload = {
      "select faid, year(date) as y, count(*) as c from trans "
      "group by faid, year(date)",
      "select faid, count(*) as c from trans group by faid",
      "select year(date) as y, sum(qty * price) as rev from trans "
      "group by year(date)",
      "select flid, year(date) as y, count(*) as c from trans "
      "group by flid, year(date)",
      "select state, count(*) as c from trans, loc where flid = lid "
      "group by state",
      "select fpgid, sum(qty) as q from trans group by fpgid"};
  std::vector<std::string> json;
  Database db;
  Must(paper_cases::SetupSchema(&db, Schema::kCard, fact_rows), "adv");
  std::vector<QueryResult> direct(workload.size());
  double before_ms = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    before_ms += MedianMs(&db, workload[i], Options(false), &direct[i]);
  }
  for (long long budget : {0, 100, 1000, 20000, 1000000}) {
    StatusOr<advisor::Recommendation> rec =
        advisor::RecommendSummaryTables(&db, workload, budget);
    Must(rec.status(), "adv recommend");
    StatusOr<std::vector<std::string>> names =
        advisor::ApplyRecommendation(&db, *rec);
    Must(names.status(), "adv apply");
    double after_ms = 0;
    for (size_t i = 0; i < workload.size(); ++i) {
      QueryResult routed;
      after_ms += MedianMs(&db, workload[i], Options(true), &routed);
      Check(engine::SameRowMultiset(direct[i].relation, routed.relation),
            "adv answer: " + workload[i]);
    }
    const long long rows_used = rec->total_rows_used;
    std::printf("ADV    budget %7lld rows: %zu ASTs, %4lld rows | workload "
                "%7.2f -> %6.2f ms (%.1fx)\n",
                budget, names->size(), rows_used, before_ms, after_ms,
                before_ms / std::max(after_ms, 1e-3));
    json.push_back(Format(
        "{\"budget_rows\": %lld, \"asts\": %zu, \"rows_used\": %lld, "
        "\"before_ms\": %.4g, \"after_ms\": %.4g}",
        budget, names->size(), rows_used, before_ms, after_ms));
    for (const std::string& name : *names) {
      Must(db.DropSummaryTable(name), name);
    }
  }
  return json;
}

/// NAV: a cold query's time and rewrite phase with 1, 4 and 16 decoy ASTs
/// that the matcher tries and rejects (100 trans rows: execution is noise).
std::vector<std::string> RunDecoys() {
  std::vector<std::string> json;
  for (int count : {1, 4, 16}) {
    Database db;
    Must(paper_cases::SetupSchema(&db, Schema::kCard, 100), "nav");
    for (const paper_cases::Ast& ast : paper_cases::DecoyAsts(count)) {
      Must(db.DefineSummaryTable(ast.name, ast.sql).status(), ast.sql);
    }
    QueryOptions cold = Options(true);
    cold.enable_plan_cache = false;
    QueryResult result;
    const double ms = MedianMs(&db, paper_cases::kDecoyQuery, cold, &result);
    const double rewrite_us = ColdSplit(&db, paper_cases::kDecoyQuery)[2];
    Check(!result.used_summary_table, "nav: a decoy answered the query");
    std::printf("NAV    %2d decoys: query %6.3f ms | rewrite %4.0f us\n",
                count, ms, rewrite_us);
    json.push_back(Format(
        "{\"decoys\": %d, \"query_ms\": %.4g, \"rewrite_us\": %.0f}", count,
        ms, rewrite_us));
  }
  return json;
}

}  // namespace
}  // namespace sumtab

int main(int argc, char** argv) {
  using namespace sumtab;
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const std::vector<int64_t> card_rows =
      quick ? std::vector<int64_t>{50000}
            : std::vector<int64_t>{200000, 1000000};
  const int64_t tpcd_rows = quick ? 20000 : 300000;

  std::vector<std::string> cases;
  for (Schema schema :
       {Schema::kCard, Schema::kTpcd, Schema::kFig12, Schema::kTable1}) {
    std::vector<int64_t> scales = {0};  // the samples are fixed
    if (schema == Schema::kCard) scales = card_rows;
    if (schema == Schema::kTpcd) scales = {tpcd_rows};
    for (int64_t fact_rows : scales) {
      Database db;
      Must(paper_cases::SetupSchema(&db, schema, fact_rows), "schema");
      for (const PaperCase& paper_case : paper_cases::Cases(tpcd_rows)) {
        if (paper_case.schema == schema) {
          RunCase(&db, paper_case, fact_rows, &cases);
        }
      }
    }
  }
  const std::vector<std::string> maint = RunMaintenance(card_rows.back());
  const std::vector<std::string> adv = RunAdvisor(card_rows.front());
  const std::vector<std::string> nav = RunDecoys();

  std::printf(
      "{\"bench\": \"paper\", \"build_type\": \"%s\", \"lanes\": %d, "
      "\"reps\": %d, \"quick\": %s, \"failures\": %d, \"cases\": %s, "
      "\"maint\": %s, \"adv\": %s, \"nav\": %s}\n",
      SUMTAB_BUILD_TYPE, kLanes, kReps, quick ? "true" : "false", failures,
      JsonList(cases).c_str(), JsonList(maint).c_str(),
      JsonList(adv).c_str(), JsonList(nav).c_str());
  return failures == 0 ? 0 : 1;
}
