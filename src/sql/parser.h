// Recursive-descent SQL parser for the subset used by the paper: SELECT
// [DISTINCT] with arbitrary expressions, FROM with base and derived tables,
// scalar subqueries in expressions, WHERE, GROUP BY (simple / ROLLUP / CUBE /
// GROUPING SETS, canonicalized to grouping sets), HAVING, ORDER BY.
#ifndef SUMTAB_SQL_PARSER_H_
#define SUMTAB_SQL_PARSER_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "sql/lexer.h"
#include "sql/sql_ast.h"

namespace sumtab {
namespace sql {

/// Guardrails against adversarial input. The parser is recursive-descent, so
/// nesting depth maps directly onto C++ stack depth; the limits turn a
/// potential stack overflow into a clean kResourceExhausted.
struct ParseOptions {
  /// Max combined nesting depth of expressions (parens, unary chains) and
  /// subqueries. Generous for real queries, tiny versus the stack.
  int max_depth = 64;
};

/// Parses a single SELECT statement; trailing input is an error.
StatusOr<std::shared_ptr<SelectStmt>> Parse(const std::string& sql,
                                            const ParseOptions& options = {});

/// Parses a lexed SELECT. A literal token that Templatize tagged with a slot
/// becomes a slot literal (expr::SlotLit) holding the token's value.
StatusOr<std::shared_ptr<SelectStmt>> ParseTokens(
    std::vector<Token> tokens, const ParseOptions& options = {});

/// Statement-level dispatch for `EXPLAIN REWRITE <select>`: true when `sql`
/// starts with the (case-insensitive) EXPLAIN REWRITE prefix, in which case
/// `*inner_sql` receives the <select> text verbatim. EXPLAIN and REWRITE are
/// not reserved words — they lex as identifiers, so columns/tables may still
/// use those names; only the statement *prefix* is recognized here.
bool IsExplainRewrite(const std::string& sql, std::string* inner_sql);
/// The same over `sql`'s tokens (Lex(sql)).
bool IsExplainRewrite(const std::string& sql, const std::vector<Token>& tokens,
                      std::string* inner_sql);

/// Statement-level dispatch for `TUNE [BUDGET <rows>]`: true when `tokens`
/// (a lexed statement) are exactly the (case-insensitive) TUNE statement — Database runs the
/// workload advisor over its observed log and applies the recommendation.
/// `*budget_rows` receives the BUDGET literal, or -1 when the clause is
/// absent (the caller picks its default). Like EXPLAIN/REWRITE, TUNE and
/// BUDGET lex as ordinary identifiers; only the statement shape is
/// recognized here, so tables/columns may still use those names.
bool IsTuneStatement(const std::vector<Token>& tokens, int64_t* budget_rows);

}  // namespace sql
}  // namespace sumtab

#endif  // SUMTAB_SQL_PARSER_H_
