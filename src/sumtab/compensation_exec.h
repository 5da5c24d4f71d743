// The delta leg and the runtime for delta-compensation plans
// (matching/compensation.h). MergeDeltaLeg is the one routine that folds
// retained append slices into a result: delta compensation merges them into
// the AST leg of a query, Append into a stored AST (the new delta, plus the
// slices a deferred AST still lags by), and a catch-up refresh into a stale
// AST. ExecuteCompensationPlan runs the AST leg and MergeDeltaLeg against
// one pinned snapshot, then evaluates the residual HAVING / projections the
// plan carried out of the original query root with the vectorized
// evaluator, and applies ORDER BY to the answer.
#ifndef SUMTAB_SUMTAB_COMPENSATION_EXEC_H_
#define SUMTAB_SUMTAB_COMPENSATION_EXEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/executor.h"
#include "engine/relation.h"
#include "matching/compensation.h"

namespace sumtab {
namespace compensation {

/// Runs `graph` against `snap` once per slice, with `stale_table` overridden
/// by that slice, concatenates the results and merges them into `current`,
/// whose columns are `graph`'s root outputs: appended when `merge.spj`,
/// otherwise through engine::MergeGroups. Slices of one append-only table
/// may be evaluated separately because `graph` passed
/// matching::AnalyzeCompensableQuery. `options` applies to every run and to
/// the merge, except columnar_overrides, which this function owns. Returns
/// `current` unchanged when `slices` is empty.
StatusOr<engine::Batch> MergeDeltaLeg(
    engine::Batch current, const qgm::Graph& graph,
    const std::string& stale_table,
    const std::vector<engine::Executor::BatchPtr>& slices,
    const matching::DeltaMerge& merge, const engine::Storage::Snapshot& snap,
    engine::ExecOptions options);

/// Executes `plan` against `snap`, its delta leg over the retained slices
/// of the stale table in epochs (from_epoch, to_epoch]: the compensated
/// AST's lag in `snap`, which the caller derives from that same snapshot (a
/// pinned snapshot cannot lose the slices it covers). `options` flows to
/// both legs — parallel / budget settings apply to each — except
/// columnar_overrides (see MergeDeltaLeg). `delta_rows_scanned` (optional)
/// receives the number of delta rows the compensation leg read.
StatusOr<engine::Relation> ExecuteCompensationPlan(
    const matching::CompensationPlan& plan, int64_t from_epoch,
    int64_t to_epoch, const engine::Storage::Snapshot& snap,
    const engine::ExecOptions& options, int64_t* delta_rows_scanned = nullptr);

}  // namespace compensation
}  // namespace sumtab

#endif  // SUMTAB_SUMTAB_COMPENSATION_EXEC_H_
