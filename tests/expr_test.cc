// Unit tests for the expression system: construction, equality/hashing,
// rewriting, evaluation (3-valued logic), folding and printing.
#include <gtest/gtest.h>

#include "common/date.h"
#include "expr/expr.h"
#include "expr/expr_eval.h"
#include "expr/expr_print.h"
#include "expr/expr_rewrite.h"

namespace sumtab {
namespace {

using expr::BinaryOp;
using expr::Binary;
using expr::ColRef;
using expr::EvalContext;
using expr::ExprPtr;
using expr::Lit;
using expr::LitInt;

EvalContext MakeCtx(const std::vector<int>* offsets, const Row* row) {
  EvalContext ctx;
  ctx.offsets = offsets;
  ctx.row = row;
  return ctx;
}

TEST(ExprTest, StructuralEquality) {
  ExprPtr a = Binary(BinaryOp::kAdd, ColRef(0, 1), LitInt(2));
  ExprPtr b = Binary(BinaryOp::kAdd, ColRef(0, 1), LitInt(2));
  ExprPtr c = Binary(BinaryOp::kAdd, ColRef(0, 2), LitInt(2));
  EXPECT_TRUE(expr::Equal(a, b));
  EXPECT_FALSE(expr::Equal(a, c));
  EXPECT_EQ(expr::HashExpr(a), expr::HashExpr(b));
  // Structural equality is order-sensitive (commutativity is the matcher's
  // business, not the structural layer's).
  ExprPtr swapped = Binary(BinaryOp::kAdd, LitInt(2), ColRef(0, 1));
  EXPECT_FALSE(expr::Equal(a, swapped));
}

TEST(ExprTest, RejoinRefDistinctFromColumnRef) {
  EXPECT_FALSE(expr::Equal(ColRef(1, 2), expr::RejoinRef(1, 2)));
}

TEST(ExprTest, SplitAndMakeConjunction) {
  ExprPtr p1 = Binary(BinaryOp::kGt, ColRef(0, 0), LitInt(1));
  ExprPtr p2 = Binary(BinaryOp::kLt, ColRef(0, 1), LitInt(9));
  ExprPtr conj = expr::MakeConjunction({p1, p2});
  std::vector<ExprPtr> parts;
  expr::SplitConjuncts(conj, &parts);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_TRUE(expr::Equal(parts[0], p1));
  EXPECT_TRUE(expr::Equal(parts[1], p2));
  // Empty conjunction is TRUE.
  ExprPtr empty = expr::MakeConjunction({});
  EXPECT_EQ(empty->literal.AsBool(), true);
}

TEST(ExprTest, RewriteLeavesSharesUnchangedSubtrees) {
  ExprPtr tree = Binary(BinaryOp::kMul, Binary(BinaryOp::kAdd, LitInt(1), LitInt(2)),
                        ColRef(0, 0));
  ExprPtr same = expr::MapColumnRefs(tree, [](int q, int c) {
    return ColRef(q, c);  // new node, so the spine is rebuilt
  });
  // The literal-only left subtree is shared, not copied.
  EXPECT_EQ(tree->children[0], same->children[0]);
}

TEST(ExprTest, CollectQuantifiers) {
  ExprPtr e = Binary(BinaryOp::kAdd, ColRef(2, 0),
                     Binary(BinaryOp::kMul, ColRef(0, 1), ColRef(2, 3)));
  std::vector<int> qs;
  expr::CollectQuantifiers(e, &qs);
  EXPECT_EQ(qs, (std::vector<int>{2, 0}));
}

TEST(ExprEvalTest, ArithmeticTyping) {
  std::vector<int> offsets{0};
  Row row{Value::Int(7), Value::Double(2.0)};
  auto ctx = MakeCtx(&offsets, &row);
  auto v1 = Eval(Binary(BinaryOp::kAdd, ColRef(0, 0), LitInt(3)), ctx);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->kind(), Value::Kind::kInt);
  EXPECT_EQ(v1->AsInt(), 10);
  auto v2 = Eval(Binary(BinaryOp::kMul, ColRef(0, 0), ColRef(0, 1)), ctx);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->kind(), Value::Kind::kDouble);
  EXPECT_DOUBLE_EQ(v2->AsDouble(), 14.0);
  // Division always yields double; zero divisor yields NULL.
  auto v3 = Eval(Binary(BinaryOp::kDiv, LitInt(7), LitInt(2)), ctx);
  EXPECT_DOUBLE_EQ(v3->AsDouble(), 3.5);
  auto v4 = Eval(Binary(BinaryOp::kDiv, LitInt(7), LitInt(0)), ctx);
  EXPECT_TRUE(v4->is_null());
  auto v5 = Eval(Binary(BinaryOp::kMod, LitInt(1993), LitInt(100)), ctx);
  EXPECT_EQ(v5->AsInt(), 93);
}

TEST(ExprEvalTest, ThreeValuedLogic) {
  std::vector<int> offsets{0};
  Row row{Value::Null()};
  auto ctx = MakeCtx(&offsets, &row);
  ExprPtr null_cmp = Binary(BinaryOp::kGt, ColRef(0, 0), LitInt(1));
  ExprPtr true_lit = Lit(Value::Bool(true));
  ExprPtr false_lit = Lit(Value::Bool(false));
  // NULL > 1 is NULL.
  EXPECT_TRUE(Eval(null_cmp, ctx)->is_null());
  // NULL AND false = false; NULL AND true = NULL.
  EXPECT_EQ(Eval(Binary(BinaryOp::kAnd, null_cmp, false_lit), ctx)->AsBool(),
            false);
  EXPECT_TRUE(Eval(Binary(BinaryOp::kAnd, null_cmp, true_lit), ctx)->is_null());
  // NULL OR true = true; NULL OR false = NULL.
  EXPECT_EQ(Eval(Binary(BinaryOp::kOr, null_cmp, true_lit), ctx)->AsBool(),
            true);
  EXPECT_TRUE(Eval(Binary(BinaryOp::kOr, null_cmp, false_lit), ctx)->is_null());
  // Predicates reject NULL.
  auto pass = EvalPredicate(null_cmp, ctx);
  ASSERT_TRUE(pass.ok());
  EXPECT_FALSE(*pass);
  // IS NULL / IS NOT NULL.
  EXPECT_TRUE(Eval(expr::IsNull(ColRef(0, 0), false), ctx)->AsBool());
  EXPECT_FALSE(Eval(expr::IsNull(ColRef(0, 0), true), ctx)->AsBool());
}

TEST(ExprEvalTest, DateFunctions) {
  std::vector<int> offsets{0};
  Row row{Value::Date(MakeDate(1993, 7, 4))};
  auto ctx = MakeCtx(&offsets, &row);
  EXPECT_EQ(Eval(expr::Function("year", {ColRef(0, 0)}), ctx)->AsInt(), 1993);
  EXPECT_EQ(Eval(expr::Function("month", {ColRef(0, 0)}), ctx)->AsInt(), 7);
  EXPECT_EQ(Eval(expr::Function("day", {ColRef(0, 0)}), ctx)->AsInt(), 4);
  EXPECT_FALSE(Eval(expr::Function("noise", {ColRef(0, 0)}), ctx).ok());
}

TEST(ExprEvalTest, StringComparison) {
  std::vector<int> offsets{0};
  Row row{Value::String("USA")};
  auto ctx = MakeCtx(&offsets, &row);
  auto eq = Eval(Binary(BinaryOp::kEq, ColRef(0, 0), expr::LitString("USA")), ctx);
  EXPECT_TRUE(eq->AsBool());
  auto lt = Eval(Binary(BinaryOp::kLt, expr::LitString("Canada"), ColRef(0, 0)),
                 ctx);
  EXPECT_TRUE(lt->AsBool());
}

TEST(ExprEvalTest, AggregateNodeIsAnInternalError) {
  std::vector<int> offsets{0};
  Row row{Value::Int(1)};
  auto ctx = MakeCtx(&offsets, &row);
  auto v = Eval(expr::CountStar(), ctx);
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), Status::Code::kInternal);
}

TEST(ExprRewriteTest, Predicates) {
  int col = -1;
  EXPECT_TRUE(expr::IsSimpleColumnRef(ColRef(1, 4), 1, &col));
  EXPECT_EQ(col, 4);
  EXPECT_FALSE(expr::IsSimpleColumnRef(ColRef(0, 4), 1, &col));
  EXPECT_TRUE(expr::RefersOnlyToQuantifier(
      Binary(BinaryOp::kAdd, ColRef(1, 0), ColRef(1, 2)), 1));
  EXPECT_FALSE(expr::RefersOnlyToQuantifier(
      Binary(BinaryOp::kAdd, ColRef(1, 0), ColRef(0, 2)), 1));
  EXPECT_FALSE(expr::RefersOnlyToQuantifier(expr::RejoinRef(1, 0), 1));
}

TEST(ExprPrintTest, PrecedenceAwarePrinting) {
  ExprPtr e = Binary(BinaryOp::kMul, Binary(BinaryOp::kAdd, ColRef(0, 0), LitInt(1)),
                     LitInt(2));
  EXPECT_EQ(expr::ToString(e), "(q0.0 + 1) * 2");
  ExprPtr f =
      Binary(BinaryOp::kAnd,
             Binary(BinaryOp::kOr, Lit(Value::Bool(true)), Lit(Value::Bool(false))),
             Lit(Value::Bool(true)));
  EXPECT_EQ(expr::ToString(f), "(true OR false) AND true");
}

TEST(ExprPrintTest, NamedRefs) {
  ExprPtr e = Binary(BinaryOp::kGt, ColRef(0, 3), LitInt(10));
  auto refs = [](const expr::Expr& node) -> std::string {
    return node.column == 3 ? "price" : "";
  };
  EXPECT_EQ(expr::ToString(e, refs), "price > 10");
}

}  // namespace
}  // namespace sumtab
