// Unit tests for the SQL lexer and parser, including the canonicalization of
// ROLLUP / CUBE / GROUPING SETS into the single-gs form (paper Sec. 5).
#include <gtest/gtest.h>

#include "expr/expr_print.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/template.h"

namespace sumtab {
namespace {

using sql::Lex;
using sql::Parse;
using sql::TokenType;

TEST(LexerTest, BasicTokens) {
  auto tokens = Lex("SELECT a.b, 12, 3.5, 'it''s' <= <> != --comment\n+");
  ASSERT_TRUE(tokens.ok());
  std::vector<std::string> texts;
  for (const auto& t : *tokens) texts.push_back(t.text);
  // Keywords/identifiers lower-cased, != normalized to <>.
  EXPECT_EQ(texts[0], "select");
  EXPECT_EQ((*tokens)[0].type, TokenType::kKeyword);
  EXPECT_EQ(texts[1], "a");
  EXPECT_EQ(texts[2], ".");
  EXPECT_EQ(texts[3], "b");
  EXPECT_EQ(texts[5], "12");
  EXPECT_EQ((*tokens)[5].int_value, 12);
  EXPECT_EQ((*tokens)[7].type, TokenType::kDoubleLiteral);
  EXPECT_DOUBLE_EQ((*tokens)[7].double_value, 3.5);
  EXPECT_EQ((*tokens)[9].text, "it's");
  EXPECT_EQ((*tokens)[10].text, "<=");
  EXPECT_EQ((*tokens)[11].text, "<>");
  EXPECT_EQ((*tokens)[12].text, "<>");
  EXPECT_EQ((*tokens)[13].text, "+");
  EXPECT_EQ(tokens->back().type, TokenType::kEnd);
}

TEST(LexerTest, RejectsUnterminatedString) {
  EXPECT_FALSE(Lex("select 'oops").ok());
}

TEST(LexerTest, RejectsUnknownCharacter) {
  EXPECT_FALSE(Lex("select a ? b").ok());
}

TEST(ParserTest, SimpleSelect) {
  auto stmt = Parse("select a, b + 1 as c from t where a > 5 order by c desc");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ((*stmt)->select_list.size(), 2u);
  EXPECT_EQ(sql::SelectItemName(**stmt, 0), "a");
  EXPECT_EQ(sql::SelectItemName(**stmt, 1), "c");
  ASSERT_EQ((*stmt)->from.size(), 1u);
  EXPECT_EQ((*stmt)->from[0].table_name, "t");
  ASSERT_NE((*stmt)->where, nullptr);
  EXPECT_EQ(expr::ToString((*stmt)->where), "a > 5");
  ASSERT_EQ((*stmt)->order_by.size(), 1u);
  EXPECT_FALSE((*stmt)->order_by[0].ascending);
}

TEST(ParserTest, ExpressionPrecedence) {
  auto stmt = Parse("select a + b * c - d / e as x from t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(expr::ToString((*stmt)->select_list[0].expr),
            "a + b * c - d / e");
  auto stmt2 = Parse("select (a + b) * c as x from t");
  ASSERT_TRUE(stmt2.ok());
  EXPECT_EQ(expr::ToString((*stmt2)->select_list[0].expr), "(a + b) * c");
}

TEST(ParserTest, BooleanPrecedenceAndNot) {
  auto stmt = Parse("select a from t where not a = 1 and b = 2 or c = 3");
  ASSERT_TRUE(stmt.ok());
  // NOT > AND > OR (the printer parenthesizes NOT's comparison operand).
  EXPECT_EQ(expr::ToString((*stmt)->where),
            "NOT (a = 1) AND b = 2 OR c = 3");
}

TEST(ParserTest, Aggregates) {
  auto stmt = Parse(
      "select count(*), count(distinct a), sum(a * b), min(a), max(a), "
      "avg(a) from t group by c");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(expr::ToString((*stmt)->select_list[0].expr), "count(*)");
  EXPECT_EQ(expr::ToString((*stmt)->select_list[1].expr),
            "count(distinct a)");
  EXPECT_EQ(expr::ToString((*stmt)->select_list[2].expr), "sum(a * b)");
}

TEST(ParserTest, DateLiteralAndDateColumn) {
  auto stmt = Parse("select year(date) from t where date > date '1998-01-01'");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(expr::ToString((*stmt)->where), "date > date '1998-01-01'");
}

TEST(ParserTest, DerivedTableAndScalarSubquery) {
  auto stmt = Parse(
      "select x, (select count(*) from u) as total "
      "from (select a as x from t) sub");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_TRUE((*stmt)->from[0].subquery != nullptr);
  EXPECT_EQ((*stmt)->from[0].alias, "sub");
  EXPECT_EQ((*stmt)->select_list[1].expr->kind,
            expr::Expr::Kind::kScalarSubquery);
}

TEST(ParserTest, GroupBySimple) {
  auto stmt = Parse("select a, count(*) from t group by a, b");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE((*stmt)->group_by.has_value());
  const sql::GroupBy& gb = *(*stmt)->group_by;
  EXPECT_EQ(gb.items.size(), 2u);
  ASSERT_EQ(gb.sets.size(), 1u);
  EXPECT_EQ(gb.sets[0], (std::vector<int>{0, 1}));
  EXPECT_TRUE(gb.IsSimple());
}

TEST(ParserTest, RollupCanonicalization) {
  auto stmt = Parse("select a, b, count(*) from t group by rollup(a, b)");
  ASSERT_TRUE(stmt.ok());
  const sql::GroupBy& gb = *(*stmt)->group_by;
  // rollup(a,b) = gs((a,b),(a),()).
  ASSERT_EQ(gb.sets.size(), 3u);
  EXPECT_EQ(gb.sets[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(gb.sets[1], (std::vector<int>{0}));
  EXPECT_TRUE(gb.sets[2].empty());
  EXPECT_FALSE(gb.IsSimple());
}

TEST(ParserTest, CubeCanonicalization) {
  auto stmt = Parse("select a, b, count(*) from t group by cube(a, b)");
  ASSERT_TRUE(stmt.ok());
  const sql::GroupBy& gb = *(*stmt)->group_by;
  // cube(a,b) = gs((a,b),(a),(b),()).
  EXPECT_EQ(gb.sets.size(), 4u);
}

TEST(ParserTest, GroupingSetsWithCrossProduct) {
  // `a, gs((b),(c))` = gs((a,b),(a,c)) — SQL:1999 concatenation semantics.
  auto stmt = Parse(
      "select a, b, c, count(*) from t group by a, grouping sets ((b), (c))");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const sql::GroupBy& gb = *(*stmt)->group_by;
  ASSERT_EQ(gb.sets.size(), 2u);
  EXPECT_EQ(gb.sets[0].size(), 2u);
  EXPECT_EQ(gb.sets[1].size(), 2u);
}

TEST(ParserTest, GroupingSetsDeduplicatesSets) {
  auto stmt = Parse(
      "select a, count(*) from t group by grouping sets ((a), (a), ())");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->group_by->sets.size(), 2u);
}

TEST(ParserTest, GroupingSetExpressionsDeduplicateItems) {
  auto stmt = Parse(
      "select year(d), count(*) from t "
      "group by grouping sets ((year(d), m), (year(d)))");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->group_by->items.size(), 2u);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("select from t").ok());
  EXPECT_FALSE(Parse("select a").ok());                 // missing FROM
  EXPECT_FALSE(Parse("select a from t where").ok());
  EXPECT_FALSE(Parse("select a from t group by").ok());
  EXPECT_FALSE(Parse("select a from t extra garbage").ok());
  EXPECT_FALSE(Parse("select count(* from t").ok());
  EXPECT_FALSE(Parse("").ok());
}

TEST(ParserTest, InDesugarsToDisjunction) {
  auto stmt = Parse("select a from t where a in (1, 2, 3)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(expr::ToString((*stmt)->where), "a = 1 OR a = 2 OR a = 3");
  auto neg = Parse("select a from t where a not in (1, 2)");
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(expr::ToString((*neg)->where), "NOT (a = 1 OR a = 2)");
  EXPECT_FALSE(Parse("select a from t where a in ()").ok());
}

TEST(ParserTest, BetweenDesugarsToRangeConjuncts) {
  auto stmt = Parse("select a from t where a between 2 and 8");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(expr::ToString((*stmt)->where), "a >= 2 AND a <= 8");
  auto neg = Parse("select a from t where a not between 2 and 8");
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(expr::ToString((*neg)->where), "NOT (a >= 2 AND a <= 8)");
}

TEST(ParserTest, HavingAndDistinct) {
  auto stmt = Parse(
      "select distinct a, count(*) as c from t group by a having count(*) > 2");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE((*stmt)->distinct);
  ASSERT_NE((*stmt)->having, nullptr);
  EXPECT_EQ(expr::ToString((*stmt)->having), "count(*) > 2");
}

TEST(TemplatizeTest, LiftsEachDistinctLiteralIntoOneSlot) {
  auto tokens = Lex(
      "SELECT a, 'x''y' AS s FROM t WHERE b = 3 AND c = 3.0 AND "
      "d = DATE '1995-01-02' AND e IS NULL AND f = 'x''y' AND g = 3 "
      "ORDER BY 2");
  ASSERT_TRUE(tokens.ok());
  sql::SqlTemplate tmpl = sql::Templatize(&*tokens);
  // Equal literals of one kind share a slot; 3 and 3.0 do not. ORDER BY
  // positions, NULL and the DATE keyword stay in the text.
  EXPECT_EQ(tmpl.text,
            "select a, ?0 as s from t where b = ?1 and c = ?2 and "
            "d = date ?3 and e is null and f = ?0 and g = ?1 order by 2");
  EXPECT_EQ(tmpl.SlotKinds(), "sidt");
  ASSERT_EQ(tmpl.params.size(), 4u);
  EXPECT_EQ(tmpl.params[0].AsString(), "x'y");
  EXPECT_EQ(tmpl.params[3].kind(), Value::Kind::kDate);
}

TEST(TemplatizeTest, ParserKeepsSlotsOnLiterals) {
  auto tokens = Lex("select a from t where b >= 7 and c = date '1995-01-02'");
  ASSERT_TRUE(tokens.ok());
  sql::SqlTemplate tmpl = sql::Templatize(&*tokens);
  auto stmt = sql::ParseTokens(*tokens);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  std::vector<expr::ExprPtr> conjuncts;
  expr::SplitConjuncts((*stmt)->where, &conjuncts);
  ASSERT_EQ(conjuncts.size(), 2u);
  const expr::ExprPtr& seven = conjuncts[0]->children[1];
  EXPECT_EQ(seven->slot, 0);
  EXPECT_EQ(seven->literal.AsInt(), 7);
  const expr::ExprPtr& date = conjuncts[1]->children[1];
  EXPECT_EQ(date->slot, 1);
  EXPECT_TRUE(date->literal == tmpl.params[1]);
  // Plain Parse builds ordinary literals.
  auto plain = Parse("select a from t where b >= 7");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ((*plain)->where->children[1]->slot, -1);
}

TEST(TemplatizeTest, InvalidDateStaysInTheText) {
  auto tokens = Lex("select a from t where d = date '1995-13-45'");
  ASSERT_TRUE(tokens.ok());
  sql::SqlTemplate tmpl = sql::Templatize(&*tokens);
  EXPECT_EQ(tmpl.text, "select a from t where d = date '1995-13-45'");
  EXPECT_TRUE(tmpl.params.empty());
  EXPECT_FALSE(sql::ParseTokens(*tokens).ok());
}

}  // namespace
}  // namespace sumtab
