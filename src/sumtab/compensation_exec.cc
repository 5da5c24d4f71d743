#include "sumtab/compensation_exec.h"

#include <iterator>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/reject_reason.h"
#include "engine/exec_shared.h"
#include "expr/expr_eval.h"
#include "sumtab/maintenance.h"

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
  // table. The delta leg runs once per slice: aggregates that qualify for
  // compensation decompose under union, so folding slice partials one at a
  // time equals aggregating the concatenation — without ever copying the
  // slices into one batch.
  engine::ExecOptions leg_options = options;
  leg_options.columnar_overrides = nullptr;
  engine::Executor ast_exec(snap, leg_options);
  SUMTAB_ASSIGN_OR_RETURN(engine::Relation merged,
                          ast_exec.Execute(plan.ast_leg));
  std::vector<Row> delta_rows;
  for (const auto& slice : slices) {
    const std::map<std::string, std::shared_ptr<const engine::Batch>>
        overrides = {{plan.stale_table, slice}};
    leg_options.columnar_overrides = &overrides;
    engine::Executor delta_exec(snap, leg_options);
    SUMTAB_ASSIGN_OR_RETURN(engine::Relation delta_leg,
                            delta_exec.Execute(plan.delta_leg));
    delta_rows.insert(delta_rows.end(),
                      std::make_move_iterator(delta_leg.rows.begin()),
                      std::make_move_iterator(delta_leg.rows.end()));
  }

  if (plan.spj) {
    // SPJ: the legs partition the answer; concatenate and re-order.
    merged.rows.insert(merged.rows.end(),
                       std::make_move_iterator(delta_rows.begin()),
                       std::make_move_iterator(delta_rows.end()));
    ApplyOrderBy(plan.order_by, &merged);
    return merged;
  }

  // Keyed merge of the legs' groups through the one merge incremental
  // maintenance uses, so aggregate kinds land exactly where a full recompute
  // would put them.
  maintenance::MergeGroups(plan.key_positions, plan.agg_positions,
                           std::move(delta_rows), &merged.rows);

  // Residual: the original root's projections (lowered AVG included) and
  // HAVING, evaluated per merged group. Quantifier 0 of those expressions is
  // the GROUP-BY box, whose output layout the merged rows carry verbatim.
  engine::Relation result;
  result.column_names.reserve(plan.final_outputs.size());
  for (const qgm::OutputColumn& out : plan.final_outputs) {
    result.column_names.push_back(out.name);
  }
  std::vector<int> offsets = {0};
  for (const Row& row : merged.rows) {
    expr::EvalContext ctx;
    ctx.offsets = &offsets;
    ctx.row = &row;
    bool keep = true;
    for (const expr::ExprPtr& pred : plan.final_predicates) {
      SUMTAB_ASSIGN_OR_RETURN(bool pass, expr::EvalPredicate(pred, ctx));
      if (!pass) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    Row out;
    out.reserve(plan.final_outputs.size());
    for (const qgm::OutputColumn& o : plan.final_outputs) {
      SUMTAB_ASSIGN_OR_RETURN(Value v, expr::Eval(o.expr, ctx));
      out.push_back(std::move(v));
    }
    result.rows.push_back(std::move(out));
  }
  ApplyOrderBy(plan.order_by, &result);
  return result;
}

}  // namespace compensation
}  // namespace sumtab
