// Query templates: the plan cache's key (DESIGN.md §8). Templatize lifts the
// literals of a lexed SELECT into parameter slots, so queries that differ
// only in their constants share one key and one cached plan; the parser then
// builds each lifted literal as a slot literal (expr::SlotLit).
#ifndef SUMTAB_SQL_TEMPLATE_H_
#define SUMTAB_SQL_TEMPLATE_H_

#include <string>
#include <vector>

#include "common/value.h"
#include "sql/lexer.h"

namespace sumtab {
namespace sql {

struct SqlTemplate {
  /// The statement's tokens, normalized and single-spaced, with each lifted
  /// literal written ?k for its slot k.
  std::string text;
  /// Slot k's literal as the parser reads it: an Int, Double, String or
  /// Date value.
  std::vector<Value> params;

  /// One letter per slot naming its kind (i, d, s, t): with `text`, the key.
  /// `price < 600` and `price < 600.5` share a text but not their kinds.
  std::string SlotKinds() const;
};

/// Lifts every int, double, string and date literal of `tokens` into a slot
/// and tags the lifted token with it. Slots are per distinct (kind, value):
/// two equal literals share a slot and two different ones never do, so the
/// text records which literals were equal. Literals of an ORDER BY clause
/// (output positions), `null`, and a `date` string that is not a valid date
/// stay in the text; the `date` keyword itself stays too.
SqlTemplate Templatize(std::vector<Token>* tokens);

}  // namespace sql
}  // namespace sumtab

#endif  // SUMTAB_SQL_TEMPLATE_H_
