#include "expr/expr_rewrite.h"

namespace sumtab {
namespace expr {

ExprPtr MapColumnRefs(const ExprPtr& e,
                      const std::function<ExprPtr(int, int)>& fn) {
  return RewriteLeaves(e, [&fn](const ExprPtr& leaf) -> ExprPtr {
    if (leaf->kind != Expr::Kind::kColumnRef) return nullptr;
    return fn(leaf->quantifier, leaf->column);
  });
}

ExprPtr MapRejoinRefs(const ExprPtr& e,
                      const std::function<ExprPtr(int, int)>& fn) {
  return RewriteLeaves(e, [&fn](const ExprPtr& leaf) -> ExprPtr {
    if (leaf->kind != Expr::Kind::kRejoinRef) return nullptr;
    return fn(leaf->quantifier, leaf->column);
  });
}

bool IsSimpleColumnRef(const ExprPtr& e, int quantifier, int* column) {
  if (e->kind != Expr::Kind::kColumnRef || e->quantifier != quantifier) {
    return false;
  }
  if (column != nullptr) *column = e->column;
  return true;
}

bool RefersOnlyToQuantifier(const ExprPtr& e, int quantifier) {
  return !Any(e, [quantifier](const Expr& node) {
    if (node.kind == Expr::Kind::kRejoinRef) return true;
    return node.kind == Expr::Kind::kColumnRef &&
           node.quantifier != quantifier;
  });
}

}  // namespace expr
}  // namespace sumtab
