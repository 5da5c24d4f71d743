#include "matching/predicate_match.h"

#include <optional>

#include "expr/expr_eval.h"

namespace sumtab {
namespace matching {

namespace {

using expr::BinaryOp;
using expr::Expr;
using expr::ExprPtr;

bool IsLeafRef(const ExprPtr& e) {
  return e->kind == Expr::Kind::kColumnRef ||
         e->kind == Expr::Kind::kRejoinRef;
}

/// Normal form of a single-expression range predicate: expr OP literal.
struct Range {
  ExprPtr subject;
  BinaryOp op;   // kEq, kLt, kLe, kGt, kGe
  Value bound;
  int slot;      // the bound literal's parameter slot, or -1
};

std::optional<Range> AsRange(const ExprPtr& p) {
  if (p->kind != Expr::Kind::kBinary) return std::nullopt;
  BinaryOp op = p->binary_op;
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      break;
    default:
      return std::nullopt;
  }
  const ExprPtr& l = p->children[0];
  const ExprPtr& r = p->children[1];
  if (r->kind == Expr::Kind::kLiteral && l->kind != Expr::Kind::kLiteral) {
    return Range{l, op, r->literal, r->slot};
  }
  if (l->kind == Expr::Kind::kLiteral && r->kind != Expr::Kind::kLiteral) {
    return Range{r, expr::FlipComparison(op), l->literal, l->slot};
  }
  return std::nullopt;
}

bool ValueLe(const Value& a, const Value& b) {
  Value cmp = expr::CompareValues(BinaryOp::kLe, a, b);
  return cmp.kind() == Value::Kind::kBool && cmp.AsBool();
}
bool ValueLt(const Value& a, const Value& b) {
  Value cmp = expr::CompareValues(BinaryOp::kLt, a, b);
  return cmp.kind() == Value::Kind::kBool && cmp.AsBool();
}
bool ValueEq(const Value& a, const Value& b) {
  Value cmp = expr::CompareValues(BinaryOp::kEq, a, b);
  return cmp.kind() == Value::Kind::kBool && cmp.AsBool();
}

/// rows(ep) ⊆ rows(rp) for ranges over the same subject?
bool RangeImplies(const Range& ep, const Range& rp) {
  switch (rp.op) {
    case BinaryOp::kGt:
      // rp: x > b. ep must confine x to (b, inf).
      if (ep.op == BinaryOp::kGt) return ValueLe(rp.bound, ep.bound);
      if (ep.op == BinaryOp::kGe || ep.op == BinaryOp::kEq) {
        return ValueLt(rp.bound, ep.bound);
      }
      return false;
    case BinaryOp::kGe:
      if (ep.op == BinaryOp::kGt) return ValueLe(rp.bound, ep.bound);
      if (ep.op == BinaryOp::kGe || ep.op == BinaryOp::kEq) {
        return ValueLe(rp.bound, ep.bound);
      }
      return false;
    case BinaryOp::kLt:
      if (ep.op == BinaryOp::kLt) return ValueLe(ep.bound, rp.bound);
      if (ep.op == BinaryOp::kLe || ep.op == BinaryOp::kEq) {
        return ValueLt(ep.bound, rp.bound);
      }
      return false;
    case BinaryOp::kLe:
      if (ep.op == BinaryOp::kLt || ep.op == BinaryOp::kLe ||
          ep.op == BinaryOp::kEq) {
        return ValueLe(ep.bound, rp.bound);
      }
      return false;
    case BinaryOp::kEq:
      return ep.op == BinaryOp::kEq && ValueEq(ep.bound, rp.bound);
    default:
      return false;
  }
}

}  // namespace

bool EquivExprEqual(const ExprPtr& a, const ExprPtr& b,
                    const ColumnEquivalence& equiv) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (IsLeafRef(a) && IsLeafRef(b)) return equiv.Equivalent(*a, *b);
  if (a->kind != b->kind) return false;
  switch (a->kind) {
    case Expr::Kind::kLiteral:
      return expr::LiteralsEqual(*a, *b, "literal equality");
    case Expr::Kind::kUnary:
      return a->unary_op == b->unary_op &&
             EquivExprEqual(a->children[0], b->children[0], equiv);
    case Expr::Kind::kBinary: {
      auto straight = [&](BinaryOp op_b) {
        return a->binary_op == op_b &&
               EquivExprEqual(a->children[0], b->children[0], equiv) &&
               EquivExprEqual(a->children[1], b->children[1], equiv);
      };
      auto swapped = [&](BinaryOp op_b) {
        return a->binary_op == op_b &&
               EquivExprEqual(a->children[0], b->children[1], equiv) &&
               EquivExprEqual(a->children[1], b->children[0], equiv);
      };
      if (straight(b->binary_op)) return true;
      if (expr::IsCommutative(b->binary_op) && swapped(b->binary_op)) {
        return true;
      }
      BinaryOp flipped = expr::FlipComparison(b->binary_op);
      if (flipped != b->binary_op && swapped(flipped)) return true;
      return false;
    }
    case Expr::Kind::kFunction:
      if (a->name != b->name || a->children.size() != b->children.size()) {
        return false;
      }
      for (size_t i = 0; i < a->children.size(); ++i) {
        if (!EquivExprEqual(a->children[i], b->children[i], equiv)) {
          return false;
        }
      }
      return true;
    case Expr::Kind::kAggregate:
      if (a->agg != b->agg || a->agg_distinct != b->agg_distinct ||
          a->agg_star != b->agg_star) {
        return false;
      }
      if (a->agg_star) return true;
      return EquivExprEqual(a->children[0], b->children[0], equiv);
    case Expr::Kind::kIsNull:
      return a->is_null_negated == b->is_null_negated &&
             EquivExprEqual(a->children[0], b->children[0], equiv);
    default:
      return expr::Equal(a, b);
  }
}

bool PredicateSubsumes(const ExprPtr& rp, const ExprPtr& ep,
                       const ColumnEquivalence& equiv) {
  std::optional<Range> r = AsRange(rp);
  std::optional<Range> e = AsRange(ep);
  const bool ranges =
      r && e && EquivExprEqual(r->subject, e->subject, equiv);
  // Both checks below compare the bounds: a bound held in a slot makes the
  // answer hold only for this binding (two bounds of one slot are equal in
  // every binding, so comparing them reads nothing).
  if (ranges && (r->slot >= 0 || e->slot >= 0) && r->slot != e->slot) {
    expr::NoteSlotRead("predicate subsumption");
  }
  if (EquivExprEqual(rp, ep, equiv)) return true;
  return ranges && RangeImplies(*e, *r);
}

}  // namespace matching
}  // namespace sumtab
