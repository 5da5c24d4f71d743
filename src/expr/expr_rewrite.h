// Small expression rewrites used by the QGM builder and the matcher.
#ifndef SUMTAB_EXPR_EXPR_REWRITE_H_
#define SUMTAB_EXPR_EXPR_REWRITE_H_

#include <functional>

#include "expr/expr.h"

namespace sumtab {
namespace expr {

/// Remaps every kColumnRef through fn(quantifier, column) -> replacement expr.
/// Other leaves (incl. kRejoinRef) pass through unchanged.
ExprPtr MapColumnRefs(const ExprPtr& e,
                      const std::function<ExprPtr(int, int)>& fn);

/// Remaps every kRejoinRef through fn(rejoin_idx, column) -> replacement.
ExprPtr MapRejoinRefs(const ExprPtr& e,
                      const std::function<ExprPtr(int, int)>& fn);

/// True if e is exactly ColumnRef{quantifier, column} for some column;
/// *column receives it.
bool IsSimpleColumnRef(const ExprPtr& e, int quantifier, int* column);

/// True if e references only the given quantifier (or no quantifier at all,
/// when allow_constants). kRejoinRef nodes make this false.
bool RefersOnlyToQuantifier(const ExprPtr& e, int quantifier);

}  // namespace expr
}  // namespace sumtab

#endif  // SUMTAB_EXPR_EXPR_REWRITE_H_
