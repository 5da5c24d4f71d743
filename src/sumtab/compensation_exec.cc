#include "sumtab/compensation_exec.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/reject_reason.h"
#include "engine/aggregator.h"
#include "engine/exec_shared.h"
#include "engine/kernels.h"
#include "expr/expr_vec_eval.h"

namespace sumtab {
namespace compensation {

// Result ordering goes through the executor's own ApplyOrderBy
// (engine/exec_shared.h) — sharing the definition makes ordering divergence
// between a compensated answer and a direct execution impossible.
using engine::exec_internal::ApplyOrderBy;

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
    const matching::CompensationPlan& plan, int64_t from_epoch,
    int64_t to_epoch, const engine::Storage::Snapshot& snap,
    const engine::ExecOptions& options, int64_t* delta_rows_scanned) {
  std::vector<engine::Executor::BatchPtr> slices =
      snap.DeltaSlices(plan.stale_table, from_epoch, to_epoch);
  if (slices.empty() && from_epoch < to_epoch) {
    // The caller checked coverage of this range against this same
    // snapshot, and pinned slices cannot be pruned out from under it —
    // reaching here means the range came from another snapshot; refuse
    // rather than answer from partial history.
    return RejectUnsupported(
        RejectReason::kCompDeltaUnavailable,
        "retained delta slices for '" + plan.stale_table +
            "' are not pinned by this snapshot");
  }
  if (delta_rows_scanned != nullptr) {
    *delta_rows_scanned = 0;
    for (const engine::Executor::BatchPtr& slice : slices) {
      *delta_rows_scanned += slice->num_rows;
    }
  }

  // Both legs execute against the SAME pinned snapshot with the caller's
  // options (parallel / budgets apply to each leg); only the override
  // differs — leg B scans a retained slice where the plan scans the stale
  // table.
  engine::ExecOptions leg_options = options;
  leg_options.columnar_overrides = nullptr;
  SUMTAB_ASSIGN_OR_RETURN(
      engine::Executor::BatchPtr ast_leg,
      engine::Executor(snap, leg_options).ExecuteColumns(plan.ast_leg));
  SUMTAB_ASSIGN_OR_RETURN(
      engine::Batch answer,
      MergeDeltaLeg(*ast_leg, plan.delta_leg, plan.stale_table, slices,
                    plan.merge, snap, leg_options));

  if (!plan.merge.spj) {
    // Residual: the original root's HAVING, then its projections (lowered
    // AVG included), over the merged groups. Quantifier 0 of those
    // expressions is the GROUP-BY box, whose output layout the merged batch
    // carries verbatim. Each conjunct filters what the previous ones kept.
    const std::vector<int> offsets = {0};
    auto whole = [&offsets](const engine::Batch& batch) {
      return expr::VecEvalContext{&offsets, &batch, 0, batch.num_rows};
    };
    for (const expr::ExprPtr& pred : plan.final_predicates) {
      std::vector<uint8_t> mask;
      SUMTAB_RETURN_NOT_OK(expr::EvalPredicateVec(pred, whole(answer), &mask));
      std::vector<int64_t> kept;
      engine::kernels::SelectFromMask(mask.data(), answer.num_rows, 0, &kept);
      answer = engine::GatherBatch(answer, kept);
    }
    engine::Batch projected;
    projected.num_rows = answer.num_rows;
    for (const qgm::OutputColumn& out : plan.final_outputs) {
      SUMTAB_ASSIGN_OR_RETURN(engine::ColumnVector col,
                              expr::EvalVec(out.expr, whole(answer)));
      projected.columns.push_back(std::move(col));
    }
    answer = std::move(projected);
  }
  std::vector<std::string> names;
  for (const qgm::OutputColumn& out :
       plan.merge.spj ? plan.delta_leg.box(plan.delta_leg.root())->outputs
                      : plan.final_outputs) {
    names.push_back(out.name);
  }
  engine::Relation result = engine::BatchToRelation(answer, std::move(names));
  ApplyOrderBy(plan.order_by, &result);
  return result;
}

}  // namespace compensation
}  // namespace sumtab
