// Incremental-maintenance analysis, exposed for unit tests, the advisor
// and EXPLAIN REWRITE (which reports, per offered AST, whether an append to
// a base table would merge incrementally or force a recompute — and why).
// Whether an AST decomposes under an append-only delta is decided by
// matching::AnalyzeCompensableQuery, the one analysis delta compensation
// uses too; this layer adds only the rules of the stored layout. The merge
// itself is compensation::MergeDeltaLeg (sumtab/compensation_exec.h), the
// one delta leg: it evaluates the AST over the delta slices and folds the
// result into the stored rows through engine::MergeGroups.
#ifndef SUMTAB_SUMTAB_MAINTENANCE_H_
#define SUMTAB_SUMTAB_MAINTENANCE_H_

#include <string>

#include "common/status.h"
#include "matching/compensation.h"
#include "qgm/qgm.h"

namespace sumtab {
namespace maintenance {

/// Decides whether `graph` (an AST definition) supports incremental insert
/// maintenance for appends to `delta_table`, and how its stored columns
/// absorb the delta (positions are the AST's stored columns). The
/// decomposability verdicts are AnalyzeCompensableQuery's comp_* rejects
/// (kCompDeltaRefCount also when `graph` does not read `delta_table`:
/// Append counts the references to tell an unaffected AST from a
/// self-join). The stored layout adds three maint_* rejects: HAVING, a
/// computed root output, and a grouping column the root does not project.
StatusOr<matching::DeltaMerge> AnalyzeMergePlan(
    const qgm::Graph& graph, const std::string& delta_table);

}  // namespace maintenance
}  // namespace sumtab

#endif  // SUMTAB_SUMTAB_MAINTENANCE_H_
