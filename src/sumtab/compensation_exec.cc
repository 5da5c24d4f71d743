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

StatusOr<engine::Relation> ExecuteCompensationPlan(
    const matching::CompensationPlan& plan,
    const engine::Storage::Snapshot& snap, const engine::ExecOptions& options,
    int64_t* delta_rows_scanned) {
  std::vector<std::shared_ptr<const engine::Batch>> slices =
      snap.DeltaSlices(plan.stale_table, plan.from_epoch, plan.to_epoch);
  if (slices.empty() && plan.from_epoch < plan.to_epoch) {
    // The planner validated coverage against this same snapshot, and pinned
    // slices cannot be pruned out from under it — reaching here means the
    // plan was cached against a different snapshot and validation let it
    // through; refuse rather than answer from partial history.
    return RejectUnsupported(
        RejectReason::kCompDeltaUnavailable,
        "retained delta slices for '" + plan.stale_table +
            "' are not pinned by this snapshot");
  }
  if (delta_rows_scanned != nullptr) {
    *delta_rows_scanned =
        snap.DeltaRows(plan.stale_table, plan.from_epoch, plan.to_epoch);
  }

  // Both legs execute against the SAME pinned snapshot with the caller's
  // options (parallel / budgets apply to each leg); only the override
  // differs — leg B scans a retained slice where the plan scans the stale
  // table. The delta leg runs once per slice and its partials concatenate:
  // aggregates that qualify for compensation decompose under union, so one
  // merge over all of them equals aggregating the slices together — without
  // ever copying the slices into one batch.
  engine::ExecOptions leg_options = options;
  leg_options.columnar_overrides = nullptr;
  SUMTAB_ASSIGN_OR_RETURN(
      engine::Executor::BatchPtr ast_leg,
      engine::Executor(snap, leg_options).ExecuteColumns(plan.ast_leg));
  engine::Batch answer = *ast_leg;
  std::optional<engine::Batch> delta;
  for (const auto& slice : slices) {
    const std::map<std::string, std::shared_ptr<const engine::Batch>>
        overrides = {{plan.stale_table, slice}};
    leg_options.columnar_overrides = &overrides;
    SUMTAB_ASSIGN_OR_RETURN(
        engine::Executor::BatchPtr delta_leg,
        engine::Executor(snap, leg_options).ExecuteColumns(plan.delta_leg));
    delta = delta ? engine::ConcatBatches(*delta, *delta_leg) : *delta_leg;
  }
  if (delta && plan.spj) {
    // SPJ: the legs partition the answer; concatenate.
    answer = engine::ConcatBatches(answer, *delta);
  } else if (delta) {
    // Keyed merge of the legs' groups through the one merge incremental
    // maintenance uses: the aggregation kernel re-aggregates both legs'
    // partials, so aggregate kinds land exactly where a full recompute
    // would put them. Concatenation never interns, so the stored AST's
    // dictionaries stay as they are.
    SUMTAB_ASSIGN_OR_RETURN(
        answer, engine::MergeGroups(answer, *delta, plan.key_positions,
                                    plan.agg_positions, options.max_threads));
  }

  if (!plan.spj) {
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
       plan.spj ? plan.delta_leg.box(plan.delta_leg.root())->outputs
                : plan.final_outputs) {
    names.push_back(out.name);
  }
  engine::Relation result = engine::BatchToRelation(answer, std::move(names));
  ApplyOrderBy(plan.order_by, &result);
  return result;
}

}  // namespace compensation
}  // namespace sumtab
