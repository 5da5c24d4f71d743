#include "expr/expr_print.h"

#include "common/str_util.h"

namespace sumtab {
namespace expr {

namespace {

// Precedence for parenthesization (higher binds tighter).
int Precedence(const Expr& e) {
  if (e.kind != Expr::Kind::kBinary) return 100;
  switch (e.binary_op) {
    case BinaryOp::kOr:
      return 1;
    case BinaryOp::kAnd:
      return 2;
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return 3;
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
      return 4;
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return 5;
  }
  return 100;
}

}  // namespace

std::string LiteralToString(const Value& v) {
  if (v.kind() == Value::Kind::kString) {
    std::string quoted = "'";
    for (char c : v.AsString()) {
      quoted += c;
      if (c == '\'') quoted += c;  // '' re-lexes as one quote
    }
    return quoted + "'";
  }
  if (v.kind() == Value::Kind::kDate) return "date '" + v.ToString() + "'";
  return v.ToString();
}

namespace {

std::string Print(const ExprPtr& e, const RefPrinter& refs, int parent_prec) {
  std::string out;
  switch (e->kind) {
    case Expr::Kind::kLiteral:
      if (refs && e->slot >= 0) out = refs(*e);
      if (out.empty()) out = LiteralToString(e->literal);
      break;
    case Expr::Kind::kColumnName:
      out = e->qualifier.empty() ? e->name : e->qualifier + "." + e->name;
      break;
    case Expr::Kind::kColumnRef:
    case Expr::Kind::kRejoinRef: {
      if (refs) {
        std::string named = refs(*e);
        if (!named.empty()) {
          out = named;
          break;
        }
      }
      const char* tag = e->kind == Expr::Kind::kRejoinRef ? "rj" : "q";
      out = std::string(tag) + std::to_string(e->quantifier) + "." +
            std::to_string(e->column);
      break;
    }
    case Expr::Kind::kUnary: {
      std::string inner = Print(e->children[0], refs, 99);
      out = (e->unary_op == UnaryOp::kNeg ? "-" : "NOT ") + inner;
      break;
    }
    case Expr::Kind::kBinary: {
      int prec = Precedence(*e);
      std::string l = Print(e->children[0], refs, prec);
      std::string r = Print(e->children[1], refs, prec + 1);
      out = l + " " + BinaryOpName(e->binary_op) + " " + r;
      if (prec < parent_prec) out = "(" + out + ")";
      break;
    }
    case Expr::Kind::kFunction: {
      std::vector<std::string> args;
      for (const ExprPtr& child : e->children) {
        args.push_back(Print(child, refs, 0));
      }
      out = e->name + "(" + Join(args, ", ") + ")";
      break;
    }
    case Expr::Kind::kAggregate: {
      std::string arg;
      if (e->agg_star) {
        arg = "*";
      } else {
        arg = Print(e->children[0], refs, 0);
        if (e->agg_distinct) arg = "distinct " + arg;
      }
      out = std::string(AggFuncName(e->agg)) + "(" + arg + ")";
      break;
    }
    case Expr::Kind::kIsNull: {
      std::string inner = Print(e->children[0], refs, 99);
      out = inner + (e->is_null_negated ? " is not null" : " is null");
      if (3 < parent_prec) out = "(" + out + ")";
      break;
    }
    case Expr::Kind::kScalarSubquery:
      out = "(<subquery>)";
      break;
  }
  return out;
}

}  // namespace

std::string ToString(const ExprPtr& e) { return Print(e, nullptr, 0); }

std::string ToString(const ExprPtr& e, const RefPrinter& refs) {
  return Print(e, refs, 0);
}

}  // namespace expr
}  // namespace sumtab
