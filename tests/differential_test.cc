// Differential rewrite-equivalence oracle: a seeded random query generator
// over the card and TPC-D schemas checks every query five ways:
//   R: the naive reference evaluator (tests/reference.h) over the base
//      tables — nested loops, ordered-map grouping, scalar Eval
//   A: the engine, rewriting disabled, threads=1
//   B: the engine, rewriting enabled,  threads=1
//   C: the engine, rewriting enabled,  threads=4 (morsels + plan cache)
//   and, in its own test below, compensated answers over stale ASTs.
// A and B must match R (reference::MatchesReference): the same row multiset
// under the repo's fp tolerance — the reference joins in declared order and
// a rewrite re-aggregates partial sums, both of which legally perturb the
// last bits of a double, the paper's own equivalence notion — while every
// integer and non-numeric value matches exactly. C vs B must be
// BIT-IDENTICAL after sorting: the parallel engine hash-partitions rows by
// group key and concatenates morsels in chunk order, so per-group
// accumulation order is exactly the serial one and any fp difference is a
// real bug.
//
// Any mismatch prints the seed, query ordinal, SQL, the Explain() plan
// (which names the chosen AST), and both result sets — replay by running
// the failing seed alone.
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/card_schema.h"
#include "data/tpcd_schema.h"
#include "engine/relation.h"
#include "sumtab/database.h"
#include "tests/reference.h"

namespace sumtab {
namespace {

/// Strict equality of sorted row sets: same size, same Values bit-for-bit
/// (Value::operator== is exact, not approximate).
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

/// Seeded generator of GROUP BY / join / grouping-set / scalar-subquery
/// queries over one schema's fact table and dimensions.
class QueryGen {
 public:
  struct Dim {
    std::string expr;   // grouping expression, e.g. "year(date)"
    std::string alias;  // select-list alias
  };
  struct JoinDim {
    std::string table;
    std::string join_pred;  // e.g. "trans.faid = acct.aid"
    std::string attr;       // a groupable attribute of the dim table
  };

  QueryGen(uint64_t seed, std::string fact, std::vector<Dim> dims,
           std::vector<std::string> agg_args, std::vector<JoinDim> joins,
           std::vector<std::string> filters)
      : rng_(seed),
        fact_(std::move(fact)),
        dims_(std::move(dims)),
        agg_args_(std::move(agg_args)),
        joins_(std::move(joins)),
        filters_(std::move(filters)) {}

  std::string Next() {
    switch (rng_() % 4) {
      case 0: return GroupBy();
      case 1: return JoinFilter();
      case 2: return GroupingSets();
      default: return ScalarSubquery();
    }
  }

 private:
  int Rand(int n) { return static_cast<int>(rng_() % n); }
  const Dim& RandDim() { return dims_[Rand(static_cast<int>(dims_.size()))]; }

  std::string Aggs() {
    std::string out = "count(*) as cnt";
    int extra = Rand(3);
    for (int i = 0; i < extra; ++i) {
      const std::string& arg = agg_args_[Rand(static_cast<int>(agg_args_.size()))];
      const char* fns[] = {"sum", "min", "max", "avg", "count"};
      const char* fn = fns[Rand(5)];
      out += ", " + std::string(fn) + "(" + arg + ") as a" + std::to_string(i);
    }
    return out;
  }

  /// 1-2 distinct grouping dims.
  std::vector<Dim> PickDims(int max_dims) {
    std::vector<Dim> picked;
    int want = 1 + Rand(max_dims);
    for (int i = 0; i < want; ++i) {
      const Dim& d = RandDim();
      bool dup = false;
      for (const Dim& p : picked) dup = dup || p.alias == d.alias;
      if (!dup) picked.push_back(d);
    }
    return picked;
  }

  std::string SelectOf(const std::vector<Dim>& dims) {
    std::string sel, grp;
    for (const Dim& d : dims) {
      sel += d.expr + (d.expr == d.alias ? "" : " as " + d.alias) + ", ";
      grp += (grp.empty() ? "" : ", ") + d.expr;
    }
    return "select " + sel + Aggs() + " from " + fact_ +
           MaybeWhere() + " group by " + grp;
  }

  std::string MaybeWhere() {
    if (Rand(2) == 0 || filters_.empty()) return "";
    return " where " + filters_[Rand(static_cast<int>(filters_.size()))];
  }

  std::string GroupBy() {
    std::string sql = SelectOf(PickDims(2));
    if (Rand(3) == 0) sql += " having count(*) > " + std::to_string(Rand(20));
    return sql;
  }

  std::string JoinFilter() {
    const JoinDim& j = joins_[Rand(static_cast<int>(joins_.size()))];
    std::string sel = j.attr + ", ";
    std::string grp = j.attr;
    if (Rand(2) == 0) {
      const Dim& d = RandDim();
      // Qualify bare fact columns: the dim table may share the name
      // (e.g. lineitem.pkey vs part.pkey).
      std::string expr = d.expr.find('(') == std::string::npos
                             ? fact_ + "." + d.expr
                             : d.expr;
      sel += expr + " as " + d.alias + ", ";
      grp += ", " + expr;
    }
    std::string where = " where " + j.join_pred;
    if (Rand(2) == 0 && !filters_.empty()) {
      where += " and " + filters_[Rand(static_cast<int>(filters_.size()))];
    }
    return "select " + sel + Aggs() + " from " + fact_ + ", " + j.table +
           where + " group by " + grp;
  }

  std::string GroupingSets() {
    std::vector<Dim> dims = PickDims(2);
    if (dims.size() < 2) dims.push_back(RandDim());
    if (dims[0].alias == dims[1].alias) return GroupBy();
    std::string sel, cols;
    for (const Dim& d : dims) {
      sel += d.expr + (d.expr == d.alias ? "" : " as " + d.alias) + ", ";
      cols += (cols.empty() ? "" : ", ") + d.expr;
    }
    const char* forms[] = {"rollup", "cube", "grouping sets"};
    std::string form = forms[Rand(3)];
    std::string grp =
        form == "grouping sets"
            ? "grouping sets((" + dims[0].expr + "), (" + dims[1].expr + "))"
            : form + "(" + cols + ")";
    return "select " + sel + Aggs() + " from " + fact_ + MaybeWhere() +
           " group by " + grp;
  }

  std::string ScalarSubquery() {
    const Dim& d = RandDim();
    const std::string& arg =
        agg_args_[Rand(static_cast<int>(agg_args_.size()))];
    const char* fn = Rand(2) == 0 ? "avg" : "min";
    return "select " + d.expr + (d.expr == d.alias ? "" : " as " + d.alias) +
           ", " + Aggs() + " from " + fact_ + " where " + arg + " >= (select " +
           fn + "(" + arg + ") from " + fact_ + ") group by " + d.expr;
  }

  std::mt19937_64 rng_;
  std::string fact_;
  std::vector<Dim> dims_;
  std::vector<std::string> agg_args_;
  std::vector<JoinDim> joins_;
  std::vector<std::string> filters_;
};

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  /// Runs one generated query through the reference and the plan matrix
  /// and cross-checks.
  void CheckQuery(Database* db, const std::string& sql, int ordinal,
                  uint64_t seed) {
    QueryOptions no_rewrite;
    no_rewrite.enable_rewrite = false;
    no_rewrite.max_threads = 1;
    QueryOptions rewrite;
    rewrite.max_threads = 1;
    QueryOptions parallel;
    parallel.max_threads = 4;

    StatusOr<engine::Relation> r = reference::Query(*db, sql);
    ASSERT_TRUE(r.ok()) << Diag(db, sql, ordinal, seed)
                        << "\nreference failed: " << r.status().ToString();
    StatusOr<QueryResult> a = db->Query(sql, no_rewrite);
    ASSERT_TRUE(a.ok()) << Diag(db, sql, ordinal, seed)
                        << "\nA failed: " << a.status().ToString();
    StatusOr<QueryResult> b = db->Query(sql, rewrite);
    ASSERT_TRUE(b.ok()) << Diag(db, sql, ordinal, seed)
                        << "\nB failed: " << b.status().ToString();
    StatusOr<QueryResult> c = db->Query(sql, parallel);
    ASSERT_TRUE(c.ok()) << Diag(db, sql, ordinal, seed)
                        << "\nC failed: " << c.status().ToString();

    if (b->used_summary_table) ++rewritten_;
    ++total_;

    EXPECT_TRUE(reference::MatchesReference(a->relation, *r))
        << Diag(db, sql, ordinal, seed) << "\nno-rewrite:\n"
        << a->relation.ToString(30) << "reference:\n"
        << r->ToString(30);
    // Rewrite equivalence, judged against the reference rather than
    // against the engine's own unrewritten answer.
    EXPECT_TRUE(reference::MatchesReference(b->relation, *r))
        << Diag(db, sql, ordinal, seed) << "\nAST: " << b->summary_table
        << "\nrewritten: " << b->rewritten_sql << "\nrewrite:\n"
        << b->relation.ToString(30) << "reference:\n"
        << r->ToString(30);
    // Parallel determinism: same plan as B (via rewrite or its cached
    // plan), so sorted results must be bit-identical.
    EXPECT_TRUE(BitIdenticalSorted(b->relation, c->relation))
        << Diag(db, sql, ordinal, seed) << "\nAST: " << c->summary_table
        << "\nrewritten: " << c->rewritten_sql << "\nthreads=1:\n"
        << b->relation.ToString(30) << "threads=4:\n"
        << c->relation.ToString(30);
  }

  std::string Diag(Database* db, const std::string& sql, int ordinal,
                   uint64_t seed) {
    std::string out = "seed=" + std::to_string(seed) +
                      " query#" + std::to_string(ordinal) + "\nsql: " + sql;
    StatusOr<std::string> plan = db->Explain(sql);
    if (plan.ok()) out += "\n" + *plan;
    return out;
  }

  int total_ = 0;
  int rewritten_ = 0;
};

TEST_P(DifferentialTest, CardSchemaThreeWayEquivalence) {
  const uint64_t seed = GetParam();
  Database db;
  data::CardSchemaParams params;
  params.num_trans = 4000;
  params.seed = seed;
  ASSERT_TRUE(data::SetupCardSchema(&db, params).ok());
  ASSERT_TRUE(db.DefineSummaryTable(
                    "ast_card_a",
                    "select faid, flid, year(date) as y, count(*) as cnt, "
                    "sum(qty) as sq, sum(price) as sp, min(price) as mnp, "
                    "max(qty) as mxq from trans "
                    "group by faid, flid, year(date)")
                  .ok());
  ASSERT_TRUE(db.DefineSummaryTable(
                    "ast_card_b",
                    "select fpgid, year(date) as y, month(date) as m, "
                    "count(*) as cnt, sum(price) as sp from trans "
                    "group by fpgid, year(date), month(date)")
                  .ok());

  QueryGen gen(seed, "trans",
               {{"faid", "faid"},
                {"fpgid", "fpgid"},
                {"flid", "flid"},
                {"year(date)", "y"},
                {"month(date)", "m"}},
               {"qty", "price", "disc"},
               {{"acct", "trans.faid = acct.aid", "status"},
                {"loc", "trans.flid = loc.lid", "state"},
                {"pgroup", "trans.fpgid = pgroup.pgid", "pgname"}},
               {"year(date) >= 1992", "qty > 2", "faid < 30",
                "price > 50.0"});
  for (int i = 0; i < 160; ++i) {
    CheckQuery(&db, gen.Next(), i, seed);
    if (HasFatalFailure() || HasNonfatalFailure()) break;
  }
  // The generator must actually exercise the rewriter, not just miss.
  EXPECT_GT(rewritten_, total_ / 8)
      << "only " << rewritten_ << "/" << total_ << " queries were rewritten";
}

TEST_P(DifferentialTest, TpcdSchemaThreeWayEquivalence) {
  const uint64_t seed = GetParam();
  Database db;
  data::TpcdParams params;
  params.num_lineitems = 6000;
  params.num_orders = 600;
  params.seed = seed;
  ASSERT_TRUE(data::SetupTpcdSchema(&db, params).ok());
  ASSERT_TRUE(db.DefineSummaryTable(
                    "ast_tpcd_a",
                    "select lineitem.pkey as pkey, pbrand, ptype, "
                    "year(shipdate) as y, count(*) as cnt, sum(lqty) as qty, "
                    "sum(lprice) as price from lineitem, part "
                    "where lineitem.pkey = part.pkey "
                    "group by lineitem.pkey, pbrand, ptype, year(shipdate)")
                  .ok());
  ASSERT_TRUE(db.DefineSummaryTable(
                    "ast_tpcd_b",
                    "select year(odate) as y, opriority, count(*) as cnt "
                    "from orders group by year(odate), opriority")
                  .ok());

  QueryGen gen(seed ^ 0x5eedULL, "lineitem",
               {{"pkey", "pkey"},
                {"okey", "okey"},
                {"year(shipdate)", "y"},
                {"month(shipdate)", "m"}},
               {"lqty", "lprice", "ldisc"},
               {{"part", "lineitem.pkey = part.pkey", "pbrand"},
                {"part", "lineitem.pkey = part.pkey", "ptype"},
                {"orders", "lineitem.okey = orders.okey", "opriority"}},
               {"year(shipdate) >= 1994", "lqty > 10", "lprice > 500.0"});
  for (int i = 0; i < 80; ++i) {
    CheckQuery(&db, gen.Next(), i, seed);
    if (HasFatalFailure() || HasNonfatalFailure()) break;
  }
}

// Incremental-maintenance leg: after a sequence of random Appends, every
// mergeable AST must (a) have refreshed via the kIncremental path — not a
// silent recompute — and (b) hold content row-for-row identical to a forced
// recompute of the same definition. Int-only aggregates are compared
// bit-for-bit; SUM(double) merges re-associate fp addition, so that AST is
// compared under the repo's canonical multiset tolerance.
TEST_P(DifferentialTest, IncrementalMaintenanceMatchesRecompute) {
  const uint64_t seed = GetParam();
  Database db;
  data::CardSchemaParams params;
  params.num_trans = 3000;
  params.seed = seed;
  ASSERT_TRUE(data::SetupCardSchema(&db, params).ok());
  struct AstDef {
    const char* name;
    const char* stored;  // projection of the stored table, for comparison
    std::string def;
    bool bit_exact;  // int-only aggregates: merge must be bit-identical
  };
  std::vector<AstDef> asts = {
      {"ast_int", "select faid, flid, cnt, sq, mn, mx from ast_int",
       "select faid, flid, count(*) as cnt, sum(qty) as sq, "
       "min(qty) as mn, max(qty) as mx from trans group by faid, flid",
       true},
      {"ast_mixed", "select fpgid, y, cnt, sp, mnp from ast_mixed",
       "select fpgid, year(date) as y, count(*) as cnt, "
       "sum(price) as sp, min(price) as mnp from trans "
       "group by fpgid, year(date)",
       false},
      {"ast_rollup", "select faid, y, c from ast_rollup",
       "select faid, year(date) as y, count(*) as c from trans "
       "group by rollup(faid, year(date))",
       true},
  };
  for (const AstDef& ast : asts) {
    ASSERT_TRUE(db.DefineSummaryTable(ast.name, ast.def).ok()) << ast.name;
  }

  std::mt19937_64 rng(seed ^ 0xdeadULL);
  int next_tid = 1000000;
  for (int round = 0; round < 4; ++round) {
    std::vector<Row> delta;
    int n = 20 + static_cast<int>(rng() % 60);
    for (int i = 0; i < n; ++i) {
      delta.push_back(Row{
          Value::Int(next_tid++), Value::Int(static_cast<int>(rng() % 50)),
          Value::Int(static_cast<int>(rng() % 12)),
          Value::Int(static_cast<int>(rng() % 40)),
          Value::Date(19900101 + static_cast<int>(rng() % 5) * 10000 +
                      static_cast<int>(rng() % 12) * 100 +
                      static_cast<int>(rng() % 28)),
          Value::Int(1 + static_cast<int>(rng() % 5)),
          Value::Double(5.0 + static_cast<double>(rng() % 995) * 0.25),
          Value::Double(0.0)});
    }
    StatusOr<Database::MaintenanceReport> report =
        db.Append("trans", std::move(delta));
    ASSERT_TRUE(report.ok())
        << "seed=" << seed << " round=" << round << ": "
        << report.status().ToString();
    for (const AstDef& ast : asts) {
      for (const Database::RefreshEntry& entry : report->entries) {
        if (entry.summary_table != ast.name) continue;
        EXPECT_EQ(entry.mode, Database::RefreshMode::kIncremental)
            << "seed=" << seed << " round=" << round << " ast=" << ast.name
            << " error=" << entry.error;
      }
    }
  }

  QueryOptions no_rewrite;
  no_rewrite.enable_rewrite = false;
  for (const AstDef& ast : asts) {
    StatusOr<QueryResult> merged = db.Query(ast.stored, no_rewrite);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    // Force a from-scratch recompute of the same definition and re-read.
    ASSERT_TRUE(db.RefreshSummaryTable(ast.name).ok()) << ast.name;
    StatusOr<QueryResult> recomputed = db.Query(ast.stored, no_rewrite);
    ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();
    if (ast.bit_exact) {
      EXPECT_TRUE(
          BitIdenticalSorted(merged->relation, recomputed->relation))
          << "seed=" << seed << " ast=" << ast.name << "\nincremental:\n"
          << merged->relation.ToString(30) << "recompute:\n"
          << recomputed->relation.ToString(30);
    } else {
      EXPECT_TRUE(
          engine::SameRowMultiset(merged->relation, recomputed->relation))
          << "seed=" << seed << " ast=" << ast.name << "\nincremental:\n"
          << merged->relation.ToString(30) << "recompute:\n"
          << recomputed->relation.ToString(30);
    }
  }
}

// Maintenance legs against the reference: one database runs eager rounds
// (incremental delta aggregation merged into the stored ASTs), deferred
// rounds (the ASTs keep their contents while compensated answers serve
// queries) and refreshes (full recomputes). After every round each stored
// AST must equal the reference's evaluation of its definition: over the
// current base tables while the AST is fresh, and over the snapshot pinned
// before the append while a deferred round leaves it stale. Integer
// aggregates must match exactly; SUM(double) within SameRowMultiset's
// tolerance (an incremental merge re-associates fp addition).
TEST_P(DifferentialTest, MaintainedAstsMatchReference) {
  const uint64_t seed = GetParam();
  Database db;
  data::CardSchemaParams params;
  params.num_trans = 3000;
  params.seed = seed;
  ASSERT_TRUE(data::SetupCardSchema(&db, params).ok());
  struct AstDef {
    const char* name;
    std::string def;
  };
  std::vector<AstDef> asts = {
      {"ast_int",
       "select faid, flid, count(*) as cnt, sum(qty) as sq, "
       "min(qty) as mn, max(qty) as mx from trans group by faid, flid"},
      {"ast_mixed",
       "select fpgid, year(date) as y, count(*) as cnt, "
       "sum(price) as sp, min(price) as mnp from trans "
       "group by fpgid, year(date)"},
      {"ast_rollup",
       "select faid, year(date) as y, count(*) as c from trans "
       "group by rollup(faid, year(date))"},
  };
  for (const AstDef& ast : asts) {
    ASSERT_TRUE(db.DefineSummaryTable(ast.name, ast.def).ok()) << ast.name;
  }

  auto check_asts = [&](const engine::Storage::Snapshot& base, int round,
                        const char* phase) {
    for (const AstDef& ast : asts) {
      const engine::Relation* stored = db.storage().FindTable(ast.name);
      ASSERT_NE(stored, nullptr) << ast.name;
      StatusOr<engine::Relation> want = reference::Query(db, ast.def, base);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_TRUE(reference::MatchesReference(*stored, *want))
          << "seed=" << seed << " round=" << round << " phase=" << phase
          << " ast=" << ast.name << "\nstored:\n"
          << stored->ToString(30) << "reference:\n"
          << want->ToString(30);
    }
  };
  check_asts(db.storage().Snap(), -1, "define");

  std::mt19937_64 rng(seed ^ 0xfeedULL);
  int next_tid = 3000000;
  for (int round = 0; round < 4; ++round) {
    std::vector<Row> delta;
    int n = 20 + static_cast<int>(rng() % 60);
    for (int i = 0; i < n; ++i) {
      delta.push_back(Row{
          Value::Int(next_tid++), Value::Int(static_cast<int>(rng() % 50)),
          Value::Int(static_cast<int>(rng() % 12)),
          Value::Int(static_cast<int>(rng() % 40)),
          Value::Date(19900101 + static_cast<int>(rng() % 5) * 10000 +
                      static_cast<int>(rng() % 12) * 100 +
                      static_cast<int>(rng() % 28)),
          Value::Int(1 + static_cast<int>(rng() % 5)),
          Value::Double(5.0 + static_cast<double>(rng() % 995) * 0.25),
          Value::Double(0.0)});
    }
    const bool eager = round % 2 == 0;
    Database::AppendOptions append_options;
    append_options.maintain = eager;
    const engine::Storage::Snapshot before = db.storage().Snap();
    StatusOr<Database::MaintenanceReport> report =
        db.Append("trans", std::move(delta), append_options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (eager) {
      for (const Database::RefreshEntry& entry : report->entries) {
        EXPECT_EQ(entry.mode, Database::RefreshMode::kIncremental)
            << "seed=" << seed << " round=" << round
            << " ast=" << entry.summary_table << " error=" << entry.error;
      }
      check_asts(db.storage().Snap(), round, "eager");
    } else {
      check_asts(before, round, "deferred");
      // While stale, a compensated answer must match the reference over
      // the current base tables.
      const std::string probe =
          "select faid, flid, count(*) as cnt, sum(qty) as sq from trans "
          "group by faid, flid";
      StatusOr<QueryResult> got = db.Query(probe, QueryOptions{});
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      StatusOr<engine::Relation> want = reference::Query(db, probe);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_TRUE(reference::MatchesReference(got->relation, *want))
          << "seed=" << seed << " round=" << round
          << " compensated=" << got->compensated << "\nengine:\n"
          << got->relation.ToString(30) << "reference:\n"
          << want->ToString(30);
      for (const AstDef& ast : asts) {
        ASSERT_TRUE(db.RefreshSummaryTable(ast.name).ok()) << ast.name;
      }
      check_asts(db.storage().Snap(), round, "refresh");
    }
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
}

// Seventh leg — delta compensation: after randomized *deferred* appends
// (AppendOptions::maintain = false) the AST is stale but every missing
// epoch is a retained append slice, so the rewriter answers through the
// two-leg compensated plan (AST scan merged with a same-shape aggregate
// over the delta rows). With int-only aggregate arguments the merged
// answer must be BIT-IDENTICAL to a full recompute from base tables and
// match the reference exactly; AVG (lowered to SUM/COUNT with the division
// in the residual) divides bit-identical ints and so stays exact too.
TEST_P(DifferentialTest, CompensationSeventhLegMatchesFullRecompute) {
  const uint64_t seed = GetParam();
  Database db;
  data::CardSchemaParams params;
  params.num_trans = 3000;
  params.seed = seed;
  ASSERT_TRUE(data::SetupCardSchema(&db, params).ok());
  ASSERT_TRUE(db.DefineSummaryTable(
                    "ast_comp",
                    "select faid, flid, count(*) as cnt, sum(qty) as sq, "
                    "min(qty) as mn, max(qty) as mx from trans "
                    "group by faid, flid")
                  .ok());

  std::mt19937_64 rng(seed ^ 0xc011ec7ULL);
  auto gen_query = [&rng]() {
    const char* dims[] = {"faid", "flid", "faid, flid"};
    std::string dim = dims[rng() % 3];
    const char* aggs[] = {"count(*) as c, sum(qty) as s",
                          "count(*) as c, min(qty) as mn, max(qty) as mx",
                          "count(*) as c, sum(qty) as s, avg(qty) as av",
                          "sum(qty) as s, max(qty) as mx"};
    std::string sql = "select " + dim + ", " + aggs[rng() % 4] + " from trans";
    const char* filters[] = {"", " where faid < 30", " where qty > 2",
                             " where flid < 8"};
    sql += filters[rng() % 4];
    sql += " group by " + dim;
    if (rng() % 3 == 0) sql += " having count(*) > 3";
    return sql;
  };

  Database::AppendOptions deferred;
  deferred.maintain = false;
  int next_tid = 2000000;
  int checked = 0, compensated = 0;
  for (int round = 0; round < 5; ++round) {
    // 1-2 deferred appends per round: the AST falls several epochs behind,
    // each epoch a separately retained slice.
    int appends = 1 + static_cast<int>(rng() % 2);
    for (int a = 0; a < appends; ++a) {
      std::vector<Row> delta;
      int n = 10 + static_cast<int>(rng() % 50);
      for (int i = 0; i < n; ++i) {
        delta.push_back(Row{
            Value::Int(next_tid++), Value::Int(static_cast<int>(rng() % 50)),
            Value::Int(static_cast<int>(rng() % 12)),
            Value::Int(static_cast<int>(rng() % 40)),
            Value::Date(19900101 + static_cast<int>(rng() % 5) * 10000 +
                        static_cast<int>(rng() % 12) * 100 +
                        static_cast<int>(rng() % 28)),
            Value::Int(1 + static_cast<int>(rng() % 5)),
            Value::Double(5.0 + static_cast<double>(rng() % 995) * 0.25),
            Value::Double(0.0)});
      }
      StatusOr<Database::MaintenanceReport> report =
          db.Append("trans", std::move(delta), deferred);
      ASSERT_TRUE(report.ok()) << "seed=" << seed << " round=" << round
                               << ": " << report.status().ToString();
      for (const Database::RefreshEntry& entry : report->entries) {
        if (entry.summary_table != "ast_comp") continue;
        EXPECT_EQ(entry.mode, Database::RefreshMode::kDeferred)
            << "seed=" << seed << " round=" << round;
      }
    }

    for (int q = 0; q < 6; ++q) {
      std::string sql = gen_query();
      QueryOptions base;
      base.enable_rewrite = false;
      base.max_threads = 1;
      QueryOptions comp;
      comp.max_threads = 1;

      StatusOr<engine::Relation> r = reference::Query(db, sql);
      ASSERT_TRUE(r.ok()) << Diag(&db, sql, checked, seed)
                          << "\nreference failed: " << r.status().ToString();
      StatusOr<QueryResult> a = db.Query(sql, base);
      ASSERT_TRUE(a.ok()) << Diag(&db, sql, checked, seed)
                          << "\nbase failed: " << a.status().ToString();
      StatusOr<QueryResult> g = db.Query(sql, comp);
      ASSERT_TRUE(g.ok()) << Diag(&db, sql, checked, seed)
                          << "\ncompensated leg failed: "
                          << g.status().ToString();

      ++checked;
      if (g->compensated) {
        ++compensated;
        EXPECT_GT(g->compensation_delta_rows, 0) << sql;
        EXPECT_GT(g->compensation_epochs, 0) << sql;
        EXPECT_EQ(g->summary_table, "ast_comp") << sql;
      }
      // Zero degraded answers: compensation either serves exactly or is
      // never chosen — it must not trip the execute-fallback path.
      EXPECT_FALSE(g->degradation.degraded)
          << Diag(&db, sql, checked, seed)
          << "\ndegraded: " << g->degradation.message;
      EXPECT_TRUE(BitIdenticalSorted(a->relation, g->relation))
          << Diag(&db, sql, checked, seed)
          << "\ncompensated=" << g->compensated << "\nfull recompute:\n"
          << a->relation.ToString(30) << "compensated:\n"
          << g->relation.ToString(30);
      EXPECT_TRUE(reference::MatchesReference(g->relation, *r))
          << Diag(&db, sql, checked, seed)
          << "\ncompensated=" << g->compensated << "\nreference:\n"
          << r->ToString(30) << "compensated:\n"
          << g->relation.ToString(30);
      if (HasFatalFailure() || HasNonfatalFailure()) return;
    }
  }
  // The leg must actually exercise compensation, not fall back throughout.
  EXPECT_GT(compensated, checked / 2)
      << "only " << compensated << "/" << checked
      << " queries were compensated";

  // A refresh absorbs the deltas: the same query now routes through the
  // fresh AST without compensation.
  ASSERT_TRUE(db.RefreshSummaryTable("ast_comp").ok());
  StatusOr<QueryResult> after = db.Query(
      "select faid, count(*) as c, sum(qty) as s from trans group by faid",
      QueryOptions{});
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after->used_summary_table);
  EXPECT_FALSE(after->compensated);
}

// 160 card + 80 tpcd queries per seed = 240 >= the 200 the oracle promises.
INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values<uint64_t>(1, 77, 4242));

}  // namespace
}  // namespace sumtab
