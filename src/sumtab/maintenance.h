// Incremental-maintenance analysis, exposed for unit tests and for
// EXPLAIN REWRITE (which reports, per offered AST, whether an append to a
// base table would merge incrementally or force a recompute — and why).
#ifndef SUMTAB_SUMTAB_MAINTENANCE_H_
#define SUMTAB_SUMTAB_MAINTENANCE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "expr/expr.h"
#include "qgm/qgm.h"

namespace sumtab {
namespace maintenance {

/// How an AST's materialized rows absorb an insert delta on one base table.
struct MergePlan {
  bool spj_append = false;    // no aggregation: append delta rows verbatim
  std::vector<int> key_cols;  // output positions forming the group key
  std::vector<expr::AggColumn> agg_cols;
};

/// Decides whether `graph` (an AST definition) supports incremental insert
/// maintenance for appends to `delta_table`, and how its output columns
/// merge. Rejections carry a maint_* RejectReason subcode; in particular
/// kMaintDeltaRefCount distinguishes "referenced != 1 time" (the caller
/// checks the actual count to tell unaffected from self-join).
StatusOr<MergePlan> AnalyzeMergePlan(const qgm::Graph& graph,
                                     const std::string& delta_table);

/// Merges one materialized aggregate cell with the same cell computed over
/// the delta. Mirrors the executor's accumulator-combine semantics
/// (engine/aggregator.cc) so an incremental merge lands on the same value
/// and Value kind a full recompute would produce:
///   COUNT: Int addition (never NULL on either side in practice);
///   SUM:   NULL identity; Int+Int stays Int, any Double side promotes —
///          exactly the accumulator's sticky-double rule, because a
///          materialized/delta SUM is Double iff its partition saw a double;
///   MIN/MAX: NULL identity, then operator< (cross-kind numeric compare).
Value MergeAggregateValues(expr::AggFunc func, const Value& current,
                           const Value& delta);

/// The keyed group merge shared by incremental maintenance (materialized
/// rows + delta aggregate) and delta compensation (AST leg + delta legs):
/// each `delta` row whose key_cols match a row of `rows` folds its agg_cols
/// into that row through MergeAggregateValues; any other delta row is a new
/// group and is appended (later delta rows can merge into it).
void MergeGroups(const std::vector<int>& key_cols,
                 const std::vector<expr::AggColumn>& agg_cols,
                 std::vector<Row> delta, std::vector<Row>* rows);

}  // namespace maintenance
}  // namespace sumtab

#endif  // SUMTAB_SUMTAB_MAINTENANCE_H_
