// The delta leg and the runtime for delta-compensation plans
// (matching/compensation.h). MergeDeltaLeg is the one routine that folds
// retained append slices into a result: delta compensation merges them into
// a block's AST leg, Append into a stored AST (the new delta, plus the
// slices a deferred AST still lags by), and a catch-up refresh into a stale
// AST. ExecuteCompensationPlan builds each merge node's rows from its
// block's AST leg and MergeDeltaLeg against one pinned snapshot, then runs
// the residual graph over them through the ordinary executor, which applies
// the blocks above, the root and ORDER BY.
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

/// The epochs (from, to] a leg's delta covers.
struct EpochRange {
  int64_t from = 0;
  int64_t to = 0;
};

/// Executes `plan` against `snap`. Leg i's delta leg runs over the retained
/// slices of its stale table in lags[i]: its AST's lag in `snap`, which the
/// caller derives from that same snapshot (a pinned snapshot cannot lose
/// the slices it covers). `options` flows to every leg and to the residual
/// — parallel / budget settings apply to each — except columnar_overrides,
/// which this function owns. `delta_rows_scanned` (optional) receives the
/// number of delta rows the delta legs read, summed over the legs.
StatusOr<engine::Relation> ExecuteCompensationPlan(
    const matching::CompensationPlan& plan,
    const std::vector<EpochRange>& lags, const engine::Storage::Snapshot& snap,
    const engine::ExecOptions& options, int64_t* delta_rows_scanned = nullptr);

}  // namespace compensation
}  // namespace sumtab

#endif  // SUMTAB_SUMTAB_COMPENSATION_EXEC_H_
