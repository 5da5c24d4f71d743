// Runtime for delta-compensation plans (matching/compensation.h): executes
// the two legs against one pinned snapshot, merges them through the same
// MergeAggregateValues core incremental maintenance uses, then applies the
// residual projections / HAVING / ORDER BY the plan carried out of the
// original query root.
#ifndef SUMTAB_SUMTAB_COMPENSATION_EXEC_H_
#define SUMTAB_SUMTAB_COMPENSATION_EXEC_H_

#include <cstdint>

#include "common/status.h"
#include "engine/executor.h"
#include "engine/relation.h"
#include "matching/compensation.h"

namespace sumtab {
namespace compensation {

/// Executes `plan` against `snap` (which must pin delta coverage for the
/// plan's epoch range — the planner checked; a pinned snapshot cannot lose
/// slices). `options` flows to both legs — parallel / budget settings apply
/// to each — except table_overrides, which this function owns
/// (the delta leg overrides the stale table with the concatenated retained
/// slices). `delta_rows_scanned` (optional) receives the number of delta
/// rows the compensation leg read.
StatusOr<engine::Relation> ExecuteCompensationPlan(
    const matching::CompensationPlan& plan,
    const engine::Storage::Snapshot& snap, const engine::ExecOptions& options,
    int64_t* delta_rows_scanned = nullptr);

}  // namespace compensation
}  // namespace sumtab

#endif  // SUMTAB_SUMTAB_COMPENSATION_EXEC_H_
