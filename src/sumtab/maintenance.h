// Incremental-maintenance analysis, exposed for unit tests and for
// EXPLAIN REWRITE (which reports, per offered AST, whether an append to a
// base table would merge incrementally or force a recompute — and why).
// The merge itself is engine::MergeGroups (engine/aggregator.h), the keyed
// merge delta compensation uses too: it re-aggregates the stored rows with
// the delta's groups through the aggregation kernel, so one definition of
// aggregate semantics serves recompute, incremental merge and compensation.
#ifndef SUMTAB_SUMTAB_MAINTENANCE_H_
#define SUMTAB_SUMTAB_MAINTENANCE_H_

#include <string>
#include <vector>

#include "common/status.h"
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

}  // namespace maintenance
}  // namespace sumtab

#endif  // SUMTAB_SUMTAB_MAINTENANCE_H_
