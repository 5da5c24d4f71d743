// Unit tests for the QGM model and the SQL -> QGM builder: box shapes,
// name resolution, the SELECT/GROUPBY/SELECT stack, grouping sets, scalar
// subquery placement, type/nullability inference, SQL round-tripping.
#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "qgm/qgm.h"
#include "qgm/qgm_builder.h"
#include "qgm/qgm_to_sql.h"
#include "sql/parser.h"
#include "sql/template.h"

namespace sumtab {
namespace {

using qgm::Box;
using qgm::Graph;

catalog::Catalog MakeCatalog() {
  catalog::Catalog cat;
  catalog::Table trans;
  trans.name = "trans";
  trans.columns = {{"tid", Type::kInt, false},  {"faid", Type::kInt, false},
                   {"flid", Type::kInt, false}, {"date", Type::kDate, false},
                   {"qty", Type::kInt, false},  {"price", Type::kDouble, false},
                   {"note", Type::kString, true}};
  trans.primary_key = {"tid"};
  EXPECT_TRUE(cat.AddTable(trans).ok());
  catalog::Table loc;
  loc.name = "loc";
  loc.columns = {{"lid", Type::kInt, false},
                 {"state", Type::kString, false},
                 {"country", Type::kString, false}};
  loc.primary_key = {"lid"};
  EXPECT_TRUE(cat.AddTable(loc).ok());
  EXPECT_TRUE(cat.AddForeignKey("trans", "flid", "loc", "lid").ok());
  return cat;
}

StatusOr<Graph> Build(const std::string& sql, const catalog::Catalog& cat) {
  SUMTAB_ASSIGN_OR_RETURN(std::shared_ptr<sql::SelectStmt> stmt,
                          sql::Parse(sql));
  return qgm::BuildGraph(*stmt, cat);
}

TEST(QgmBuilderTest, PlainSelectIsSingleBoxOverBase) {
  catalog::Catalog cat = MakeCatalog();
  auto g = Build("select faid, qty * price as amt from trans where qty > 2",
                 cat);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const Box* root = g->box(g->root());
  EXPECT_EQ(root->kind, Box::Kind::kSelect);
  ASSERT_EQ(root->quantifiers.size(), 1u);
  EXPECT_EQ(g->box(root->quantifiers[0].child)->kind, Box::Kind::kBase);
  EXPECT_EQ(root->outputs.size(), 2u);
  EXPECT_EQ(root->outputs[0].name, "faid");
  EXPECT_EQ(root->outputs[1].name, "amt");
  EXPECT_EQ(root->predicates.size(), 1u);
}

TEST(QgmBuilderTest, GroupedQueryBuildsThreeBoxStack) {
  catalog::Catalog cat = MakeCatalog();
  auto g = Build(
      "select faid, year(date) as year, count(*) as cnt from trans "
      "group by faid, year(date) having count(*) > 10",
      cat);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  // Fig. 3 shape: SELECT (join + scalar exprs) -> GROUPBY -> SELECT (HAVING).
  const Box* top = g->box(g->root());
  EXPECT_EQ(top->kind, Box::Kind::kSelect);
  EXPECT_EQ(top->predicates.size(), 1u);  // HAVING
  const Box* gb = g->box(top->quantifiers[0].child);
  ASSERT_EQ(gb->kind, Box::Kind::kGroupBy);
  EXPECT_TRUE(gb->IsSimpleGroupBy());
  EXPECT_EQ(gb->NumGroupingOutputs(), 2);
  const Box* lower = g->box(gb->quantifiers[0].child);
  EXPECT_EQ(lower->kind, Box::Kind::kSelect);
  // The lower select computes the grouping expression year(date).
  EXPECT_EQ(lower->outputs.size(), 2u);
}

TEST(QgmBuilderTest, NameResolution) {
  catalog::Catalog cat = MakeCatalog();
  EXPECT_TRUE(Build("select t.faid from trans t", cat).ok());
  EXPECT_TRUE(Build("select trans.faid from trans", cat).ok());
  // Unknown column / table / alias.
  EXPECT_FALSE(Build("select nosuch from trans", cat).ok());
  EXPECT_FALSE(Build("select faid from nosuch", cat).ok());
  EXPECT_FALSE(Build("select x.faid from trans t", cat).ok());
  // Ambiguity across two quantifiers of the same table.
  EXPECT_FALSE(Build("select faid from trans a, trans b", cat).ok());
  EXPECT_TRUE(Build("select a.faid from trans a, trans b", cat).ok());
  // Duplicate alias.
  EXPECT_FALSE(Build("select a.faid from trans a, loc a", cat).ok());
}

TEST(QgmBuilderTest, ColumnNotGroupedIsRejected) {
  catalog::Catalog cat = MakeCatalog();
  auto g = Build("select faid, qty, count(*) from trans group by faid", cat);
  EXPECT_FALSE(g.ok());
}

TEST(QgmBuilderTest, AggregateInWhereIsRejected) {
  catalog::Catalog cat = MakeCatalog();
  EXPECT_FALSE(Build("select faid from trans where count(*) > 1", cat).ok());
}

TEST(QgmBuilderTest, AvgLowersToSumOverCount) {
  catalog::Catalog cat = MakeCatalog();
  auto g = Build("select avg(qty) as a from trans group by faid", cat);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const Box* gb = g->box(g->box(g->root())->quantifiers[0].child);
  ASSERT_EQ(gb->kind, Box::Kind::kGroupBy);
  for (int i = 0; i < gb->NumOutputs(); ++i) {
    if (!gb->IsGroupingOutput(i)) {
      EXPECT_NE(gb->outputs[i].expr->agg, expr::AggFunc::kAvg);
    }
  }
}

TEST(QgmBuilderTest, ScalarAggregateWithoutGroupBy) {
  catalog::Catalog cat = MakeCatalog();
  auto g = Build("select count(*) as n from trans", cat);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const Box* gb = g->box(g->box(g->root())->quantifiers[0].child);
  ASSERT_EQ(gb->kind, Box::Kind::kGroupBy);
  EXPECT_EQ(gb->NumGroupingOutputs(), 0);
  ASSERT_EQ(gb->grouping_sets.size(), 1u);
  EXPECT_TRUE(gb->grouping_sets[0].empty());
}

TEST(QgmBuilderTest, ScalarSubqueryOfGroupedBlockAttachesToTopBox) {
  catalog::Catalog cat = MakeCatalog();
  auto g = Build(
      "select faid, count(*) / (select count(*) from trans) as pct "
      "from trans group by faid",
      cat);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const Box* top = g->box(g->root());
  // Children: the GROUPBY plus the scalar subquery (as in paper Fig. 11).
  ASSERT_EQ(top->quantifiers.size(), 2u);
  EXPECT_EQ(top->quantifiers[1].kind, qgm::Quantifier::Kind::kScalar);
}

TEST(QgmBuilderTest, ScalarSubqueryInWhereAttachesToJoinBox) {
  catalog::Catalog cat = MakeCatalog();
  auto g = Build(
      "select faid from trans where qty > (select min(qty) from trans)", cat);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const Box* root = g->box(g->root());
  ASSERT_EQ(root->quantifiers.size(), 2u);
  EXPECT_EQ(root->quantifiers[1].kind, qgm::Quantifier::Kind::kScalar);
}

TEST(QgmBuilderTest, GroupingSetsProduceMultidimensionalBox) {
  catalog::Catalog cat = MakeCatalog();
  auto g = Build(
      "select faid, flid, count(*) from trans "
      "group by grouping sets ((faid), (flid), ())",
      cat);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const Box* gb = g->box(g->box(g->root())->quantifiers[0].child);
  ASSERT_EQ(gb->kind, Box::Kind::kGroupBy);
  EXPECT_FALSE(gb->IsSimpleGroupBy());
  EXPECT_EQ(gb->grouping_sets.size(), 3u);
}

TEST(QgmBuilderTest, TypeAndNullabilityInference) {
  catalog::Catalog cat = MakeCatalog();
  auto g = Build(
      "select qty + 1 as a, qty * price as b, qty / 2 as c, note as d, "
      "year(date) as e, count(*) as f, sum(qty) as g, min(note) as h "
      "from trans group by qty, price, note, year(date)",
      cat);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const Box* root = g->box(g->root());
  const auto& info = root->column_info;
  EXPECT_EQ(info[0].type, Type::kInt);      // int + int
  EXPECT_EQ(info[1].type, Type::kDouble);   // int * double
  EXPECT_EQ(info[2].type, Type::kDouble);   // '/' is always double
  EXPECT_TRUE(info[2].nullable);            // 0-divisor yields NULL
  EXPECT_EQ(info[3].type, Type::kString);
  EXPECT_TRUE(info[3].nullable);            // note is nullable
  EXPECT_EQ(info[4].type, Type::kInt);      // year()
  EXPECT_EQ(info[5].type, Type::kInt);      // count(*)
  EXPECT_FALSE(info[5].nullable);
  EXPECT_EQ(info[6].type, Type::kInt);      // sum(int)
  EXPECT_TRUE(info[7].nullable);            // min over nullable arg
}

TEST(QgmBuilderTest, MultiSetGroupingColumnsBecomeNullable) {
  catalog::Catalog cat = MakeCatalog();
  auto g = Build(
      "select faid, flid, count(*) as c from trans group by rollup(faid, flid)",
      cat);
  ASSERT_TRUE(g.ok());
  const Box* root = g->box(g->root());
  EXPECT_TRUE(root->column_info[0].nullable);  // grouped out in ()
  EXPECT_TRUE(root->column_info[1].nullable);
  EXPECT_FALSE(root->column_info[2].nullable);
}

TEST(QgmBuilderTest, OrderByResolvesNamesAndPositions) {
  catalog::Catalog cat = MakeCatalog();
  auto g = Build("select faid, qty from trans order by qty desc, 1", cat);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ASSERT_EQ(g->order_by().size(), 2u);
  EXPECT_EQ(g->order_by()[0].output_index, 1);
  EXPECT_FALSE(g->order_by()[0].ascending);
  EXPECT_EQ(g->order_by()[1].output_index, 0);
  EXPECT_FALSE(Build("select faid from trans order by nosuch", cat).ok());
  EXPECT_FALSE(Build("select faid from trans order by 5", cat).ok());
}

TEST(QgmTest, CloneSubgraphIsDeep) {
  catalog::Catalog cat = MakeCatalog();
  auto g = Build("select faid, count(*) as c from trans group by faid", cat);
  ASSERT_TRUE(g.ok());
  Graph copy = Graph::CloneGraph(*g);
  EXPECT_EQ(copy.size(), g->size());
  EXPECT_EQ(copy.box(copy.root())->outputs.size(),
            g->box(g->root())->outputs.size());
  // Mutating the copy must not affect the original.
  copy.box(copy.root())->outputs[0].name = "mutated";
  EXPECT_NE(g->box(g->root())->outputs[0].name, "mutated");
}

TEST(QgmTest, TopologicalOrderIsChildrenFirst) {
  catalog::Catalog cat = MakeCatalog();
  auto g = Build(
      "select faid, count(*) as c from trans, loc where flid = lid "
      "group by faid",
      cat);
  ASSERT_TRUE(g.ok());
  std::vector<qgm::BoxId> order = g->TopologicalOrder();
  std::vector<int> position(g->size(), -1);
  for (size_t i = 0; i < order.size(); ++i) position[order[i]] = static_cast<int>(i);
  for (qgm::BoxId id : order) {
    for (const auto& q : g->box(id)->quantifiers) {
      EXPECT_LT(position[q.child], position[id]);
    }
  }
}

TEST(QgmToSqlTest, RoundTripReparsesAndRebuilds) {
  catalog::Catalog cat = MakeCatalog();
  const char* queries[] = {
      "select faid, qty * price as amt from trans where qty > 2",
      "select faid, year(date) as year, count(*) as cnt from trans "
      "group by faid, year(date) having count(*) > 10",
      "select faid, flid, count(*) as c from trans group by rollup(faid, flid)",
      "select state, count(*) as c from trans, loc where flid = lid "
      "and country = 'USA' group by state",
      "select faid, count(*) as c from trans where note = 'it''s' "
      "group by faid",
  };
  for (const char* q : queries) {
    auto g = Build(q, cat);
    ASSERT_TRUE(g.ok()) << q;
    auto sql = qgm::ToSql(*g);
    ASSERT_TRUE(sql.ok()) << q;
    auto g2 = Build(*sql, cat);
    ASSERT_TRUE(g2.ok()) << "re-parse failed for: " << *sql;
    EXPECT_EQ(g2->box(g2->root())->outputs.size(),
              g->box(g->root())->outputs.size());
  }
}

TEST(QgmToSqlTest, BoundSlotsRenderLikeAFreshGraph) {
  catalog::Catalog cat = MakeCatalog();
  auto tokens = sql::Lex(
      "select faid, count(*) as c from trans where faid = 3 and "
      "note = 'a' group by faid having count(*) > 3");
  ASSERT_TRUE(tokens.ok());
  sql::SqlTemplate tmpl = sql::Templatize(&*tokens);
  auto stmt = sql::ParseTokens(*tokens);
  ASSERT_TRUE(stmt.ok());
  auto g = qgm::BuildGraph(**stmt, cat);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  auto slotted = qgm::ToSlottedSql(*g, tmpl.params.size());
  ASSERT_TRUE(slotted.ok());
  EXPECT_EQ(slotted->Render(tmpl.params), *qgm::ToSql(*g));

  const std::vector<Value> params = {Value::Int(5), Value::String("b'c")};
  Graph bound = qgm::BindSlots(*g, params);
  EXPECT_EQ(slotted->Render(params), *qgm::ToSql(bound));
  EXPECT_NE(slotted->Render(params).find("faid = 5"), std::string::npos);
  EXPECT_NE(slotted->Render(params).find("'b''c'"), std::string::npos);
  // Boxes without a slot literal are shared, not copied.
  for (qgm::BoxId id = 0; id < g->size(); ++id) {
    const Box* box = g->box(id);
    bool slotted_box = false;
    for (const auto& p : box->predicates) {
      slotted_box = slotted_box || expr::Any(p, [](const expr::Expr& e) {
                      return e.slot >= 0;
                    });
    }
    EXPECT_EQ(bound.box(id) == box, !slotted_box) << "box " << id;
  }
}

}  // namespace
}  // namespace sumtab
