// The paper's evaluation artifacts as one table: every worked rewrite
// (Figs. 2, 5-8, 10-14, Table 1) and the TPC-D workload claim (Secs. 1, 8).
// Each case names its schema, its summary tables and its queries, with the
// paper's verdict per query (rewritten through an AST or not), substrings
// the rewritten SQL (NewQ) must or must not contain and, where the paper
// prints it, the exact answer. tests/paper_examples_test registers one test
// per case; bench/bench_paper times every query direct and rewritten.
#ifndef SUMTAB_BENCH_PAPER_CASES_H_
#define SUMTAB_BENCH_PAPER_CASES_H_

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/date.h"
#include "common/status.h"
#include "data/card_schema.h"
#include "data/tpcd_schema.h"
#include "sumtab/database.h"

namespace sumtab {
namespace paper_cases {

enum class Schema {
  kCard,    // the Fig. 1 credit-card star (data/card_schema.h)
  kTpcd,    // the mini TPC-D star (data/tpcd_schema.h)
  kFig12,   // Fig. 12's 8-row Trans(flid, date, faid) sample
  kTable1,  // Table 1's 4-row Trans(flid, date) sample
};

struct Ast {
  std::string name;
  std::string sql;
};

struct Query {
  const char* label;
  std::string sql;
  bool rewrites;  // the paper's verdict: answered through an AST
  std::vector<std::string> newq_has = {};    // substrings of the NewQ SQL
  std::vector<std::string> newq_lacks = {};  // substrings it must not hold
  std::optional<std::vector<Row>> rows = {};  // the exact answer, if given
  bool some_rows = false;  // the answer, whose rows vary with scale, has some
};

struct PaperCase {
  const char* id;        // test name, e.g. "Fig2_Q1"
  const char* artifact;  // the paper's artifact, e.g. "FIG2"
  Schema schema;
  std::vector<Ast> asts;
  std::vector<Query> queries;
};

/// Loads `schema` into `db`. `fact_rows` sizes the card schema's trans and
/// the TPC-D lineitem (with a tenth as many orders); the samples are fixed.
inline Status SetupSchema(Database* db, Schema schema, int64_t fact_rows) {
  using catalog::Column;
  switch (schema) {
    case Schema::kCard: {
      data::CardSchemaParams params;
      params.num_trans = fact_rows;
      return data::SetupCardSchema(db, params);
    }
    case Schema::kTpcd: {
      data::TpcdParams params;
      params.num_lineitems = fact_rows;
      params.num_orders = static_cast<int>(fact_rows / 10);
      return data::SetupTpcdSchema(db, params);
    }
    case Schema::kFig12:
    case Schema::kTable1: {
      // Rows (flid, year, month, day[, faid]); Fig. 12 prints only years.
      const bool fig12 = schema == Schema::kFig12;
      const std::vector<std::vector<int>> sample =
          fig12 ? std::vector<std::vector<int>>{
                      {1, 1990, 6, 15, 100}, {1, 1991, 6, 15, 100},
                      {1, 1991, 6, 15, 200}, {1, 1991, 6, 15, 300},
                      {1, 1992, 6, 15, 100}, {1, 1992, 6, 15, 400},
                      {2, 1991, 6, 15, 400}, {2, 1991, 6, 15, 400}}
                : std::vector<std::vector<int>>{{1, 1990, 1, 3},
                                                {1, 1990, 2, 10},
                                                {1, 1990, 4, 12},
                                                {1, 1991, 10, 20}};
      std::vector<Column> columns = {Column{"flid", Type::kInt, false},
                                     Column{"date", Type::kDate, false}};
      if (fig12) columns.push_back(Column{"faid", Type::kInt, false});
      SUMTAB_RETURN_NOT_OK(db->CreateTable("trans", columns, {}));
      std::vector<Row> rows;
      for (const std::vector<int>& r : sample) {
        rows.push_back(
            {Value::Int(r[0]), Value::Date(MakeDate(r[1], r[2], r[3]))});
        if (fig12) rows.back().push_back(Value::Int(r[4]));
      }
      return db->BulkLoad("trans", std::move(rows));
    }
  }
  return Status::Internal("unknown paper schema");
}

/// A row of ints, NULL where `kNull` stands (grouping-set padding).
constexpr int64_t kNull = std::numeric_limits<int64_t>::min();
inline Row Ints(std::initializer_list<int64_t> values) {
  Row row;
  for (int64_t v : values) {
    row.push_back(v == kNull ? Value::Null() : Value::Int(v));
  }
  return row;
}

/// Matcher overhead (NAV): `n` decoy ASTs that kDecoyQuery's rewrite
/// attempt tries and rejects (each groups by fpgid under its own filter).
constexpr const char* kDecoyQuery =
    "select faid, year(date) as y, count(*) as c from trans "
    "group by faid, year(date)";
inline std::vector<Ast> DecoyAsts(int n) {
  std::vector<Ast> asts;
  for (int i = 0; i < n; ++i) {
    const std::string k = std::to_string(i);
    asts.push_back({"decoy" + k,
                    "select fpgid, count(*) as c, sum(qty) as q" + k +
                        " from trans where qty > " + std::to_string(i + 1) +
                        " group by fpgid"});
  }
  return asts;
}

// SQL that more than one case uses.
constexpr const char* kMonthlySums =
    "select year(date) as year, month(date) as month, "
    "sum(qty * price) as value from trans group by year(date), month(date)";
constexpr const char* kMonthlyHistogram =
    "select tcnt, count(*) as mcnt from (select year(date) as year, "
    "month(date) as month, count(*) as tcnt from trans "
    "group by year(date), month(date)) group by tcnt";
constexpr const char* kHavingAst =
    "select flid, year(date) as year, count(*) as cnt "
    "from trans group by flid, year(date) having count(*) > 2";
constexpr const char* kTable1Query =
    "select flid, count(*) as cnt from trans group by flid "
    "having count(*) > 2";

/// Every case, with the TPC-D schema loaded at `tpcd_lineitems` rows (the
/// card schema's cases do not depend on its scale).
inline std::vector<PaperCase> Cases(int64_t tpcd_lineitems) {
  // W4 keeps the parts with more than the mean lineitems per part, so some
  // parts qualify and some do not at every scale.
  const std::string lineitems_per_part =
      std::to_string(tpcd_lineitems / data::TpcdParams().num_parts);
  return {
      // Fig. 2: Q1 regroups per-(account, city, year) counts to state level
      // through the Loc rejoin; count(*) becomes sum(cnt), in the HAVING too.
      {"Fig2_Q1", "FIG2", Schema::kCard,
       {{"ast1",
         "select faid, flid, year(date) as year, count(*) as cnt "
         "from trans group by faid, flid, year(date)"}},
       {{"Q1",
         "select faid, state, year(date) as year, count(*) as cnt "
         "from trans, loc where flid = lid and country = 'USA' "
         "group by faid, state, year(date) having count(*) > 100",
         true, {"ast1"}}}},
      // Fig. 5: PGroup rejoin, Loc an extra AST child proven lossless by
      // RI, aid derived from faid by column equivalence, and the
      // minimum-QCL derivation amt = value * (1 - disc).
      {"Fig5_Q2", "FIG5", Schema::kCard,
       {{"ast2",
         "select tid, faid, fpgid, status, country, price, qty, disc, "
         "qty * price as value from trans, loc, acct "
         "where lid = flid and faid = aid and disc > 0.1"}},
       {{"Q2",
         "select aid, status, qty * price * (1 - disc) as amt "
         "from trans, pgroup, acct "
         "where pgid = fpgid and faid = aid and price > 100 and disc > 0.1 "
         "and pgname = 'TV'",
         true, {"ast2", "value"}}}},
      // Fig. 6: yearly sums re-aggregated from monthly partial sums
      // (derivation rule (c)).
      {"Fig6_Q4", "FIG6", Schema::kCard,
       {{"ast4", kMonthlySums}},
       {{"Q4",
         "select year(date) as year, sum(qty * price) as value "
         "from trans group by year(date)",
         true, {"ast4"}}}},
      // Fig. 7: the query's month >= 6 below its GROUP-BY is pulled up
      // above the AST's, and year % 100 derives from the AST's year.
      {"Fig7_Q6", "FIG7", Schema::kCard,
       {{"ast6", kMonthlySums}},
       {{"Q6",
         "select year(date) % 100 as yy, sum(qty * price) as value "
         "from trans where month(date) >= 6 group by year(date) % 100",
         true, {"ast6"}}}},
      // Fig. 8: a rejoin at the GROUP-BY level. Loc joins 1:N on its key,
      // so by lid the counts come straight from the AST with no regroup;
      // by state (many cities each) the rewrite must regroup.
      {"Fig8_Q7", "FIG8", Schema::kCard,
       {{"ast7",
         "select flid, year(date) as year, count(*) as cnt "
         "from trans group by flid, year(date)"}},
       {{"Q7 by lid",
         "select lid, year(date) as year, count(*) as cnt "
         "from trans, loc where flid = lid and country = 'USA' "
         "group by lid, year(date)",
         true, {"ast7"}, {"group by"}},
        {"Q7 by state",
         "select state, year(date) as year, count(*) as cnt "
         "from trans, loc where flid = lid and country = 'USA' "
         "group by state, year(date)",
         true, {"ast7", "group by"}}}},
      // Fig. 10: the histogram of monthly counts, answered by an AST with
      // the same two GROUP-BY blocks.
      {"Fig10_Q8", "FIG10", Schema::kCard,
       {{"ast8", kMonthlyHistogram}},
       {{"Q8 monthly", kMonthlyHistogram, true, {"ast8"}}}},
      // Fig. 10, pattern 4.2.2's conditions: yearly histogram buckets do
      // not derive from the AST's monthly ones, so this must not rewrite.
      {"Fig10_Q8_NestedMatch", "FIG10", Schema::kCard,
       {{"ast8n", kMonthlyHistogram}},
       {{"Q8 yearly",
         "select tcnt, count(*) as ycnt from "
         "(select year(date) as year, count(*) as tcnt "
         "from trans group by year(date)) group by tcnt",
         false}}},
      // Figs. 11 and 15: a scalar subquery, HAVING compensation and
      // cnt / totcnt derived through a multi-box chain.
      {"Fig11_Q10", "FIG11", Schema::kCard,
       {{"ast10",
         "select flid, year(date) as year, count(*) as cnt, "
         "(select count(*) from trans) as totcnt "
         "from trans group by flid, year(date)"}},
       {{"Q10",
         "select flid, count(*) as cnt, "
         "count(*) / (select count(*) from trans) as cntpct "
         "from trans, loc where flid = lid and country = 'USA' "
         "group by flid having count(*) > 2",
         true, {"ast10"}}}},
      // Fig. 12: gs((flid, year), (faid)) is the union of both cuboids,
      // the grouped-out columns NULL (Gray et al.'s data-cube semantics).
      {"Fig12_GroupingSets", "FIG12", Schema::kFig12, {},
       {{"gs((flid, year), (faid))",
         "select flid, year(date) as year, faid, count(*) as cnt "
         "from trans group by grouping sets ((flid, year(date)), (faid)) "
         "order by flid, year, faid",
         false, {}, {},
         std::vector<Row>{
             Ints({1, 1990, kNull, 1}), Ints({1, 1991, kNull, 3}),
             Ints({1, 1992, kNull, 2}), Ints({2, 1991, kNull, 2}),
             Ints({kNull, kNull, 100, 3}), Ints({kNull, kNull, 200, 1}),
             Ints({kNull, kNull, 300, 1}), Ints({kNull, kNull, 400, 3})}}}},
      // Fig. 13 (pattern 5.1): Q11.1 slices the (flid, year) cuboid, Q11.2
      // regroups (flid, year, month); no cuboid has Q11.3's faid and month.
      {"Fig13_CubeAst", "FIG13", Schema::kCard,
       {{"ast11",
         "select flid, faid, year(date) as year, month(date) as month, "
         "count(*) as cnt from trans "
         "group by grouping sets ((flid, year(date)), "
         "(flid, year(date), month(date)), (flid, faid, year(date)))"}},
       {{"Q11.1",
         "select flid, year(date) as year, count(*) as cnt "
         "from trans where year(date) > 1990 group by flid, year(date)",
         true, {"is null"}},
        {"Q11.2",
         "select flid, year(date) as year, count(*) as cnt "
         "from trans where month(date) >= 6 group by flid, year(date)",
         true},
        {"Q11.3",
         "select flid, year(date) as year, month(date) as month, "
         "count(distinct faid) as custcnt "
         "from trans group by flid, year(date), month(date)",
         false}}},
      // Fig. 14 (pattern 5.2): Q12.1's cuboids exist, so one union of
      // slices and no regroup; Q12.2 lacks (flid): slice GS^E = (flid,
      // year) and regroup by the query's own grouping sets.
      {"Fig14_CubeVsCube", "FIG14", Schema::kCard,
       {{"ast12",
         "select flid, faid, year(date) as year, month(date) as month, "
         "count(*) as cnt from trans "
         "group by grouping sets ((flid, faid, year(date)), "
         "(flid, year(date)), (flid, year(date), month(date)), "
         "(year(date)))"}},
       {{"Q12.1",
         "select flid, year(date) as year, count(*) as cnt "
         "from trans where year(date) > 1990 "
         "group by grouping sets ((flid, year(date)), (year(date)))",
         true, {"OR"}, {"group by"}},
        {"Q12.2",
         "select flid, year(date) as year, count(*) as cnt "
         "from trans where year(date) > 1990 "
         "group by grouping sets ((flid), (year(date)))",
         true, {"grouping sets"}}}},
      // Table 1: HAVING inside the AST drops the (1, 1991) group the query
      // needs, and the query's count(*) > 2 translates to sum(cnt) > 2, not
      // the AST's predicate: no rewrite, and the paper's answer (1, 4).
      {"Table1_SemanticInequivalence", "TAB1", Schema::kTable1,
       {{"ast10h", kHavingAst}},
       {{"Table 1 query", kTable1Query, false, {}, {},
         std::vector<Row>{Ints({1, 4})}}}},
      // Table 1's AST and query over the card schema: still no rewrite.
      {"Table1_CardData", "TAB1", Schema::kCard,
       {{"ast10h", kHavingAst}},
       {{"Table 1 query (card)", kTable1Query, false}}},
      // NAV: sixteen ASTs the navigator tries and rejects; the query runs
      // on the base tables.
      {"Nav_DecoyAsts", "NAV", Schema::kCard, DecoyAsts(16),
       {{"16 decoys", kDecoyQuery, false}}},
      // Secs. 1 and 8: "a small number of ASTs" answers most of a
      // decision-support workload: three cover W1-W6. No AST covers W7's
      // 4-way join, and W8's avg(ldisc) needs a sum(ldisc) none keeps.
      {"Tpcd_Workload", "TPCD", Schema::kTpcd,
       {{"ast_part_year",
         "select lineitem.pkey as pkey, pbrand, ptype, year(shipdate) as y, "
         "count(*) as cnt, sum(lqty) as qty, sum(lprice) as price, "
         "sum(lprice * (1 - ldisc)) as rev "
         "from lineitem, part where lineitem.pkey = part.pkey "
         "group by lineitem.pkey, pbrand, ptype, year(shipdate)"},
        {"ast_order_year",
         "select year(odate) as y, opriority, count(*) as cnt from orders "
         "group by year(odate), opriority"},
        {"ast_ship_month",
         "select year(shipdate) as y, month(shipdate) as m, "
         "count(*) as cnt, sum(lprice * (1 - ldisc)) as rev from lineitem "
         "group by year(shipdate), month(shipdate)"}},
       {{"W1 revenue by year",
         "select year(shipdate) as y, sum(lprice * (1 - ldisc)) as rev "
         "from lineitem group by year(shipdate)",
         true},
        {"W2 revenue by brand-year",
         "select pbrand, year(shipdate) as y, "
         "sum(lprice * (1 - ldisc)) as rev "
         "from lineitem, part where lineitem.pkey = part.pkey "
         "group by pbrand, year(shipdate)",
         true},
        {"W3 volume by type (1994+)",
         "select ptype, sum(lqty) as vol from lineitem, part "
         "where lineitem.pkey = part.pkey and year(shipdate) >= 1994 "
         "group by ptype",
         true},
        {"W4 big parts histogram",
         "select pkey, count(*) as cnt from lineitem group by pkey "
         "having count(*) > " +
             lineitems_per_part,
         true, {}, {}, {}, /*some_rows=*/true},
        {"W5 order counts by year",
         "select year(odate) as y, count(*) as cnt from orders "
         "group by year(odate)",
         true},
        {"W6 priority counts 1995",
         "select opriority, count(*) as cnt from orders "
         "where year(odate) = 1995 group by opriority",
         true},
        {"W7 region revenue",
         "select rname, sum(lprice) as rev "
         "from lineitem, orders, customer, nation "
         "where lineitem.okey = orders.okey and orders.ckey = customer.ckey "
         "and customer.nkey = nation.nkey group by rname",
         false},
        {"W8 avg discount by part",
         "select pkey, avg(ldisc) as d from lineitem group by pkey",
         false}}},
  };
}

}  // namespace paper_cases
}  // namespace sumtab

#endif  // SUMTAB_BENCH_PAPER_CASES_H_
