// Emits SQL (in this library's own dialect, re-parseable by sql::Parse) from
// a QGM graph. Used to display rewritten queries (the paper's NewQ1, NewQ2,
// ...) and for round-trip testing.
#ifndef SUMTAB_QGM_QGM_TO_SQL_H_
#define SUMTAB_QGM_QGM_TO_SQL_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "qgm/qgm.h"

namespace sumtab {
namespace qgm {

StatusOr<std::string> ToSql(const Graph& graph);

/// A graph's SQL cut at its slot literals (DESIGN.md §8): the plan cache
/// renders the SQL of a plan bound to new literals from it, without
/// emitting the graph again.
struct SlottedSql {
  std::vector<std::string> pieces;  // one more than `slots`
  std::vector<int> slots;           // the slot between pieces i and i+1

  std::string Render(const std::vector<Value>& params) const;
};

/// ToSql's text as SlottedSql, for a graph whose slots are below
/// `num_slots`. The caller checks that rendering the graph's own literals
/// reproduces ToSql: a string literal holding the cut marker byte can cut in
/// the wrong place (or fail here).
StatusOr<SlottedSql> ToSlottedSql(const Graph& graph, size_t num_slots);

}  // namespace qgm
}  // namespace sumtab

#endif  // SUMTAB_QGM_QGM_TO_SQL_H_
