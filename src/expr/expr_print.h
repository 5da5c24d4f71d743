// Expression pretty-printing. Column references print as "q<N>.<M>" unless a
// resolver supplies names (the QGM printer and the SQL emitter do).
#ifndef SUMTAB_EXPR_EXPR_PRINT_H_
#define SUMTAB_EXPR_EXPR_PRINT_H_

#include <functional>
#include <string>

#include "expr/expr.h"

namespace sumtab {
namespace expr {

/// Maps a leaf reference node, or a slot literal, to its display text;
/// return empty to fall back to the default (q<N>.<M>, or the value).
using RefPrinter = std::function<std::string(const Expr&)>;

/// A literal as SQL text the lexer reads back: 'string' (quotes doubled),
/// date 'yyyy-mm-dd', or the value.
std::string LiteralToString(const Value& v);

std::string ToString(const ExprPtr& e);
std::string ToString(const ExprPtr& e, const RefPrinter& refs);

}  // namespace expr
}  // namespace sumtab

#endif  // SUMTAB_EXPR_EXPR_PRINT_H_
