#include "sumtab/compensation_exec.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/reject_reason.h"
#include "engine/aggregator.h"

namespace sumtab {
namespace compensation {

StatusOr<engine::Batch> MergeDeltaLeg(
    engine::Batch current, const qgm::Graph& graph,
    const std::string& stale_table,
    const std::vector<engine::Executor::BatchPtr>& slices,
    const matching::DeltaMerge& merge, const engine::Storage::Snapshot& snap,
    engine::ExecOptions options) {
  // One run per slice, partials concatenated: the graph decomposes under
  // union, so one merge over all of them equals aggregating the slices
  // together — without ever copying the slices into one batch.
  std::optional<engine::Batch> delta;
  for (const engine::Executor::BatchPtr& slice : slices) {
    const std::map<std::string, engine::Executor::BatchPtr> overrides = {
        {stale_table, slice}};
    options.columnar_overrides = &overrides;
    SUMTAB_ASSIGN_OR_RETURN(
        engine::Executor::BatchPtr part,
        engine::Executor(snap, options).ExecuteColumns(graph));
    delta = delta ? engine::ConcatBatches(*delta, *part) : *part;
  }
  if (!delta) return current;
  // SPJ: the old rows and the delta partition the answer. Otherwise the
  // aggregation kernel re-aggregates both sides' partials per key, so
  // aggregate kinds land exactly where a full recompute would put them.
  // Concatenation never interns, so `current`'s dictionaries stay as they
  // are.
  if (merge.spj) return engine::ConcatBatches(current, *delta);
  return engine::MergeGroups(current, *delta, merge.key_cols, merge.agg_cols,
                             options.max_threads);
}

StatusOr<engine::Relation> ExecuteCompensationPlan(
    const matching::CompensationPlan& plan,
    const std::vector<EpochRange>& lags, const engine::Storage::Snapshot& snap,
    const engine::ExecOptions& options, int64_t* delta_rows_scanned) {
  // Every leg and the residual execute against the SAME pinned snapshot
  // with the caller's options; only the overrides differ — a delta leg
  // scans a retained slice where Q'_B scans the stale table, the residual
  // scans merged rows where the query had the block.
  engine::ExecOptions leg_options = options;
  leg_options.columnar_overrides = nullptr;
  std::map<std::string, engine::Executor::BatchPtr> merged;
  int64_t delta_rows = 0;
  for (size_t i = 0; i < plan.legs.size(); ++i) {
    const matching::CompensationLeg& leg = plan.legs[i];
    const EpochRange& lag = lags[i];
    std::vector<engine::Executor::BatchPtr> slices =
        snap.DeltaSlices(leg.stale_table, lag.from, lag.to);
    if (slices.empty() && lag.from < lag.to) {
      // The caller checked coverage of this range against this same
      // snapshot, and pinned slices cannot be pruned out from under it —
      // reaching here means the range came from another snapshot; refuse
      // rather than answer from partial history.
      return RejectUnsupported(
          RejectReason::kCompDeltaUnavailable,
          "retained delta slices for '" + leg.stale_table +
              "' are not pinned by this snapshot");
    }
    for (const engine::Executor::BatchPtr& slice : slices) {
      delta_rows += slice->num_rows;
    }
    SUMTAB_ASSIGN_OR_RETURN(
        engine::Executor::BatchPtr ast_leg,
        engine::Executor(snap, leg_options).ExecuteColumns(leg.ast_leg));
    SUMTAB_ASSIGN_OR_RETURN(
        engine::Batch rows,
        MergeDeltaLeg(*ast_leg, leg.delta_leg, leg.stale_table, slices,
                      leg.merge, snap, leg_options));
    merged[matching::MergeNodeName(static_cast<int>(i))] =
        std::make_shared<const engine::Batch>(std::move(rows));
  }
  if (delta_rows_scanned != nullptr) *delta_rows_scanned = delta_rows;
  leg_options.columnar_overrides = &merged;
  return engine::Executor(snap, leg_options).Execute(plan.residual);
}

}  // namespace compensation
}  // namespace sumtab
