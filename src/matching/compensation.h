// Delta-compensation rewrites: answering a query through a STALE summary
// table plus an aggregate over only the rows appended since its epoch
// (ROADMAP "lambda rewrites"; soundness per Cohen & Nutt's aggregate
// rewriting framework — SUM/COUNT decompose under union, AVG via its
// SUM/COUNT lowering, MIN/MAX under append-only deltas).
//
// The plan has two legs sharing one shape Q': the original query with its
// root reduced to a bare projection of every GROUP-BY output (residual
// projections/HAVING/ORDER BY move to a post-merge step). Leg A is Q'
// rewritten through the stale AST (answers as of the AST's epoch); leg B is
// Q' executed with the stale table overridden by the retained delta slices.
// The executor merges the legs per group through the SAME
// engine::MergeGroups the incremental-maintenance path uses — the
// aggregation kernel re-aggregating both legs' partials (COUNT as SUM) —
// so sticky int->double SUM promotion stays bit-identical to a full
// recompute, then evaluates the residual root over the merged rows.
#ifndef SUMTAB_MATCHING_COMPENSATION_H_
#define SUMTAB_MATCHING_COMPENSATION_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "common/trace.h"
#include "expr/expr.h"
#include "matching/rewriter.h"
#include "qgm/qgm.h"

namespace sumtab {
namespace matching {

/// The decomposable-shape verdict for one (query, stale table) pair.
struct CompensationShape {
  /// No aggregation anywhere: select-project-join, legs concatenate (the
  /// spj_append analog of incremental maintenance).
  bool spj = false;
  /// The aggregate box (kInvalidBox for spj).
  qgm::BoxId groupby = qgm::kInvalidBox;
  /// Positions of the grouping outputs among the GROUP-BY box's outputs —
  /// the merge key of the two legs.
  std::vector<int> key_positions;
  /// The aggregates, by position among the GROUP-BY box's outputs.
  std::vector<expr::AggColumn> agg_positions;
};

/// Decides whether `query` can be answered by compensating a stale AST whose
/// only lagging base table is `stale_table` (lower-cased), assuming the
/// staleness is pure retained appends. Accepts exactly the delta-decomposable
/// shapes: a DISTINCT-free, subquery-free SPJ referencing the stale table
/// once, or a single aggregate block (root SELECT over one GROUP-BY over a
/// SELECT of base tables) whose aggregates are all COUNT/SUM/MIN/MAX —
/// residual projections (including lowered AVG = SUM/COUNT) and HAVING live
/// above the merge, so they need no restriction. Rejections carry a comp_*
/// RejectReason subcode (the structured verdict EXPLAIN REWRITE stamps).
StatusOr<CompensationShape> AnalyzeCompensableQuery(
    const qgm::Graph& query, const std::string& stale_table);

/// An executable two-leg compensation plan. Immutable once built; the plan
/// cache shares one instance across hits.
struct CompensationPlan {
  std::string summary_table;  // the stale AST answering leg A
  std::string stale_table;    // lower-cased base table the delta covers
  /// Leg B covers base epochs (from_epoch, to_epoch]: from = the AST's
  /// materialized epoch, to = the snapshot epoch at planning time.
  int64_t from_epoch = 0;
  int64_t to_epoch = 0;
  bool spj = false;
  qgm::Graph ast_leg;    // Q' rewritten through the AST (no stale-table scan)
  qgm::Graph delta_leg;  // Q' over base tables; executed once per retained
                         // slice, with the stale table overridden by it
  std::vector<int> key_positions;
  std::vector<expr::AggColumn> agg_positions;
  /// Residual root over the merged rows (empty for spj): output expressions
  /// and HAVING conjuncts reference quantifier 0 = the merged GROUP-BY row.
  std::vector<qgm::OutputColumn> final_outputs;
  std::vector<expr::ExprPtr> final_predicates;
  /// Original ORDER BY, applied after the residual (leg graphs carry none).
  std::vector<qgm::OrderSpec> order_by;
};

/// Analyzes `query` and assembles the two legs against `ast`. Epoch range
/// and table names are the caller's to fill in (they come from the AST
/// registry + snapshot, which this layer does not see). Fails with a comp_*
/// reject when the shape does not decompose or the AST cannot absorb Q'
/// (`comp_ast_mismatch` covers both "no match" and a rewrite that leaves a
/// residual scan of the stale table, which would double-count the delta).
/// `attempt`/`qtrace` flow through to the navigator like RewriteQuery's.
StatusOr<CompensationPlan> BuildCompensationPlan(
    const qgm::Graph& query, const std::string& stale_table,
    const SummaryTableDef& ast, const catalog::Catalog& catalog,
    AstAttemptTrace* attempt = nullptr, QueryTrace* qtrace = nullptr);

}  // namespace matching
}  // namespace sumtab

#endif  // SUMTAB_MATCHING_COMPENSATION_H_
