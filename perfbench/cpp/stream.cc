#include "stream.h"

#include <utility>

#include "common/date.h"

namespace perfbench {

namespace {

using sumtab::data::CardSchemaParams;

std::string I(int64_t v) { return std::to_string(v); }

template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Next() % i]);
  }
}

std::string Country(Rng* rng) {
  return rng->Range(0, 3) == 0 ? "'Canada'" : "'USA'";
}

int64_t Year(Rng* rng, const CardSchemaParams& d) {
  return rng->Range(d.start_year, d.start_year + d.num_years - 1);
}

using DashboardTemplate = std::string (*)(Rng*, const CardSchemaParams&);

struct NamedTemplate {
  const char* name;
  DashboardTemplate make;
};

// Literal domains follow the default card dimensions: per (faid, state, year)
// group there are a few thousand rows, per (state, year) tens of thousands,
// so HAVING thresholds span the range where they cut some groups.
const NamedTemplate kDashboard[] = {
    {"fig2_rejoin",
     [](Rng* r, const CardSchemaParams&) {
       return "select faid, state, year(date) as year, count(*) as cnt "
              "from trans, loc where flid = lid and country = " +
              Country(r) + " group by faid, state, year(date) having count(*) > " +
              I(r->Range(0, 3000));
     }},
    {"fig7_rejoin",
     [](Rng* r, const CardSchemaParams& d) {
       return "select state, year(date) as year, count(*) as cnt "
              "from trans, loc where flid = lid and country = " +
              Country(r) + " and year(date) >= " + I(Year(r, d)) +
              " group by state, year(date) having count(*) > " +
              I(r->Range(0, 40000));
     }},
    {"fig6_regroup",
     [](Rng* r, const CardSchemaParams&) {
       int64_t lo = r->Range(1, 12);
       return "select year(date) % 100 as yy, sum(qty * price) as value "
              "from trans where month(date) >= " +
              I(lo) + " and month(date) <= " + I(r->Range(lo, 12)) +
              " group by year(date) % 100";
     }},
    {"fig10_nested_gb",
     [](Rng* r, const CardSchemaParams&) {
       return "select tcnt, count(*) as ycnt from "
              "(select year(date) as year, count(*) as tcnt from trans "
              "where month(date) <> " +
              I(r->Range(1, 12)) +
              " group by year(date) having count(*) > " +
              I(r->Range(0, 200000)) + ") group by tcnt";
     }},
    {"fig11_subquery",
     [](Rng* r, const CardSchemaParams&) {
       return "select flid, count(*) as cnt, "
              "count(*) / (select count(*) from trans) as cntpct "
              "from trans, loc where flid = lid and country = " +
              Country(r) + " group by flid having count(*) > " +
              I(r->Range(0, 30000));
     }},
    {"fig12_grouping_sets",
     [](Rng* r, const CardSchemaParams& d) {
       return "select flid, year(date) as year, count(*) as cnt from trans "
              "where year(date) >= " +
              I(Year(r, d)) + " and flid < " +
              I(r->Range(1, d.num_locations)) +
              " group by grouping sets ((flid, year(date)), (year(date)))";
     }},
    {"fig13_gs_slice",
     [](Rng* r, const CardSchemaParams& d) {
       return "select flid, year(date) as year, count(*) as cnt from trans "
              "where month(date) >= " +
              I(r->Range(1, 12)) + " and flid >= " +
              I(r->Range(0, d.num_locations - 1)) +
              " group by flid, year(date)";
     }},
    {"fig14_cube",
     [](Rng* r, const CardSchemaParams& d) {
       return "select flid, year(date) as year, count(*) as cnt from trans "
              "where flid < " +
              I(r->Range(1, d.num_locations)) + " and year(date) >= " +
              I(Year(r, d)) + " group by cube(flid, year(date))";
     }},
    {"acct_drill",
     [](Rng* r, const CardSchemaParams& d) {
       return "select faid, year(date) as year, sum(qty * price) as value "
              "from trans where faid = " +
              I(r->Range(0, d.num_accounts - 1)) + " and year(date) <= " +
              I(Year(r, d)) + " group by faid, year(date)";
     }},
    {"pgroup_drill",
     [](Rng* r, const CardSchemaParams& d) {
       return "select fpgid, month(date) as month, count(*) as cnt, "
              "sum(qty) as sq from trans where flid = " +
              I(r->Range(0, d.num_locations - 1)) + " and year(date) = " +
              I(Year(r, d)) + " group by fpgid, month(date)";
     }},
};

using AdhocTemplate = std::string (*)(Rng*);

struct ShapeTemplate {
  const char* name;
  const char* shape;
  AdhocTemplate make;
};

// Predicates on qty/price/tid, the acct join and the base-column CUBE all
// reference columns no summary table keeps, so the matcher rejects every one
// of these. Literals vary (so texts rarely repeat) but keep each template's
// selectivity in a narrow band, so a query's cost depends on its shape and
// not on its seed.
const ShapeTemplate kAdhoc[] = {
    {"scan", "scan",
     [](Rng* r) {
       return "select count(*) as cnt, sum(disc) as sd from trans "
              "where tid >= " +
              I(r->Range(0, 999));
     }},
    {"filter", "filter",
     [](Rng* r) {
       return "select count(*) as cnt, sum(qty) as sq from trans "
              "where qty > 1 and price < " +
              I(r->Range(600, 700));
     }},
    {"filter_range", "filter",
     [](Rng* r) {
       int64_t lo = r->Range(5, 900);
       return "select count(*) as cnt, sum(qty * price) as value from trans "
              "where price >= " +
              I(lo) + " and price < " + I(lo + 50);
     }},
    {"join", "join",
     [](Rng* r) {
       return "select status, count(*) as cnt, sum(qty * price) as value "
              "from trans, acct where faid = aid and price > " +
              I(r->Range(5, 55)) + " group by status";
     }},
    {"group_low", "group_low",
     [](Rng* r) {
       return "select fpgid, qty, count(*) as cnt, sum(price) as sp "
              "from trans where price > " +
              I(r->Range(5, 55)) + " group by fpgid, qty";
     }},
    {"group_high", "group_high",
     [](Rng* r) {
       return "select faid, count(*) as cnt, sum(price) as sp, max(qty) as mq "
              "from trans where qty >= 1 and price > " +
              I(r->Range(5, 55)) + " group by faid";
     }},
    {"cube", "cube",
     [](Rng* r) {
       return "select fpgid, qty, count(*) as cnt, sum(price) as sp "
              "from trans where price > " +
              I(r->Range(5, 55)) + " group by cube(fpgid, qty)";
     }},
};

}  // namespace

const std::vector<AstDef>& SummaryTables() {
  static const std::vector<AstDef> kAsts = {
      {"ast_fly",
       "select faid, flid, year(date) as year, count(*) as cnt, "
       "sum(qty * price) as value from trans group by faid, flid, year(date)"},
      {"ast_ym",
       "select year(date) as year, month(date) as month, count(*) as cnt, "
       "sum(qty * price) as value from trans group by year(date), month(date)"},
      {"ast_ly",
       "select flid, year(date) as year, count(*) as cnt "
       "from trans group by flid, year(date)"},
      {"ast_lpym",
       "select flid, fpgid, year(date) as year, month(date) as month, "
       "count(*) as cnt, sum(qty) as sq from trans "
       "group by flid, fpgid, year(date), month(date)"},
      {"ast_apy",
       "select faid, fpgid, year(date) as year, count(*) as cnt, "
       "sum(qty * price) as value from trans group by faid, fpgid, year(date)"},
      {"ast_gsets",
       "select flid, faid, year(date) as year, month(date) as month, "
       "count(*) as cnt from trans group by grouping sets "
       "((flid, faid, year(date)), (flid, year(date)), "
       "(flid, year(date), month(date)), (year(date)))"},
  };
  return kAsts;
}

DashboardStream::DashboardStream(uint64_t seed, const CardSchemaParams& data)
    : rng_(seed * 0x2545f4914f6cdd1dULL + 1), data_(data) {
  for (const NamedTemplate& t : kDashboard) {
    for (int k = 0; k < kTilesPerTemplate; ++k) {
      tiles_.push_back(QueryOp{t.name, "tile", t.make(&rng_, data_)});
    }
  }
}

std::vector<QueryOp> DashboardStream::NextRound() {
  std::vector<QueryOp> round;
  const int n = static_cast<int>(std::size(kDashboard));
  for (int t = 0; t < n; ++t) {
    round.push_back(tiles_[t * kTilesPerTemplate +
                           (round_ + t) % kTilesPerTemplate]);
    round.push_back(
        QueryOp{kDashboard[t].name, "drill", kDashboard[t].make(&rng_, data_)});
  }
  ++round_;
  Shuffle(&round, &rng_);
  return round;
}

AdhocStream::AdhocStream(uint64_t seed)
    : rng_(seed * 0x9e3779b97f4a7c15ULL + 7) {}

std::vector<QueryOp> AdhocStream::NextRound() {
  std::vector<QueryOp> round;
  for (const ShapeTemplate& t : kAdhoc) {
    round.push_back(QueryOp{t.name, t.shape, t.make(&rng_)});
  }
  Shuffle(&round, &rng_);
  return round;
}

std::vector<QueryOp> AdhocStream::ShapeProbes() {
  std::vector<QueryOp> probes;
  for (const ShapeTemplate& t : kAdhoc) {
    if (std::string(t.name) == t.shape) {
      probes.push_back(QueryOp{t.name, t.shape, t.make(&rng_)});
    }
  }
  return probes;
}

std::vector<sumtab::Row> AppendBatch(Rng* rng, int64_t first_tid, int count,
                                     const CardSchemaParams& data) {
  using sumtab::Value;
  std::vector<sumtab::Row> rows;
  rows.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    int32_t date = sumtab::MakeDate(
        static_cast<int>(Year(rng, data)), static_cast<int>(rng->Range(1, 12)),
        static_cast<int>(rng->Range(1, 28)));
    double price = 5.0 + static_cast<double>(rng->Range(0, 99500)) / 100.0;
    double disc = rng->Range(0, 9) < 3
                      ? 0.05 + static_cast<double>(rng->Range(0, 25)) / 100.0
                      : 0.0;
    rows.push_back(sumtab::Row{
        Value::Int(first_tid + i), Value::Int(rng->Range(0, data.num_accounts - 1)),
        Value::Int(rng->Range(0, data.num_pgroups - 1)),
        Value::Int(rng->Range(0, data.num_locations - 1)), Value::Date(date),
        Value::Int(rng->Range(1, 5)), Value::Double(price), Value::Double(disc)});
  }
  return rows;
}

}  // namespace perfbench
