#include "sumtab/compensation_exec.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <unordered_map>
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
  std::vector<const engine::Relation*> slices =
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
  // Each slice's columnar twin is built once and cached on the slice, so a
  // repeatedly-compensated query scans columns at base-table speed.
  std::vector<std::shared_ptr<const engine::Batch>> slice_batches =
      snap.DeltaSliceColumnar(plan.stale_table, plan.from_epoch,
                              plan.to_epoch);
  if (delta_rows_scanned != nullptr) {
    *delta_rows_scanned =
        snap.DeltaRows(plan.stale_table, plan.from_epoch, plan.to_epoch);
  }

  // Both legs execute against the SAME pinned snapshot with the caller's
  // options (parallel / budgets apply to each leg); only the override
  // differs — leg B reads the delta rows where the plan scans the stale
  // table. The delta leg runs once per retained slice: aggregates that
  // qualify for compensation decompose under union, so folding slice
  // partials one at a time equals aggregating the concatenation — without
  // ever copying the slices into one relation.
  engine::ExecOptions leg_options = options;
  leg_options.table_overrides = nullptr;
  engine::Executor ast_exec(snap, leg_options);
  SUMTAB_ASSIGN_OR_RETURN(engine::Relation ast_leg,
                          ast_exec.Execute(plan.ast_leg));

  auto exec_slice = [&](size_t i) -> StatusOr<engine::Relation> {
    std::map<std::string, const engine::Relation*> overrides;
    overrides[plan.stale_table] = slices[i];
    std::map<std::string, std::shared_ptr<const engine::Batch>> columnar;
    engine::ExecOptions slice_options = options;
    slice_options.table_overrides = &overrides;
    columnar[plan.stale_table] = slice_batches[i];
    slice_options.columnar_overrides = &columnar;
    engine::Executor delta_exec(snap, slice_options);
    return delta_exec.Execute(plan.delta_leg);
  };

  if (plan.spj) {
    // SPJ: the legs partition the answer; concatenate and re-order.
    engine::Relation result = std::move(ast_leg);
    for (size_t i = 0; i < slices.size(); ++i) {
      SUMTAB_ASSIGN_OR_RETURN(engine::Relation delta_leg, exec_slice(i));
      result.rows.insert(result.rows.end(),
                         std::make_move_iterator(delta_leg.rows.begin()),
                         std::make_move_iterator(delta_leg.rows.end()));
    }
    ApplyOrderBy(plan.order_by, &result);
    return result;
  }

  // Keyed merge of the legs' groups — the same index + combine structure
  // (and the same MergeAggregateValues core) as Append's phase-3 merge, so
  // aggregate kinds land exactly where a full recompute would put them.
  engine::Relation merged = std::move(ast_leg);
  std::unordered_map<Row, size_t, RowHash> index;
  index.reserve(merged.rows.size());
  auto key_of = [&plan](const Row& row) {
    Row key;
    key.reserve(plan.key_positions.size());
    for (int c : plan.key_positions) key.push_back(row[c]);
    return key;
  };
  for (size_t i = 0; i < merged.rows.size(); ++i) {
    index.emplace(key_of(merged.rows[i]), i);
  }
  for (size_t s = 0; s < slices.size(); ++s) {
    SUMTAB_ASSIGN_OR_RETURN(engine::Relation delta_leg, exec_slice(s));
    for (Row& drow : delta_leg.rows) {
      auto it = index.find(key_of(drow));
      if (it == index.end()) {
        // A group born entirely inside the delta.
        index.emplace(key_of(drow), merged.rows.size());
        merged.rows.push_back(std::move(drow));
        continue;
      }
      Row& existing = merged.rows[it->second];
      for (const matching::CompensationShape::AggPosition& agg :
           plan.agg_positions) {
        existing[agg.pos] = maintenance::MergeAggregateValues(
            agg.func, existing[agg.pos], drow[agg.pos]);
      }
    }
  }

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
