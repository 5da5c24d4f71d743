// Delta decomposability and delta-compensation rewrites. Both incremental
// maintenance and compensation rest on one fact — a graph evaluated over an
// append-only union splits into the old rows' answer plus the delta's,
// merged per group (Cohen & Nutt's aggregate rewriting framework: SUM/COUNT
// decompose under union, AVG via its SUM/COUNT lowering, MIN/MAX under
// append-only deltas) — and AnalyzeCompensableQuery is the one place that
// decides it. maintenance::AnalyzeMergePlan calls it for an AST definition
// and adds only its stored-layout rules.
//
// Compensation answers a query through a STALE summary table plus an
// aggregate over only the rows appended since its epoch.
// The plan has two legs sharing one shape Q': the original query with its
// root reduced to a bare projection of every GROUP-BY output (residual
// projections/HAVING/ORDER BY move to a post-merge step). Leg A is Q'
// rewritten through the stale AST (answers as of the AST's epoch); leg B is
// Q' executed with the stale table overridden by the retained delta slices.
// The delta leg runs through compensation::MergeDeltaLeg, the routine
// incremental maintenance and catch-up also use: it merges the legs per
// group through engine::MergeGroups — the aggregation kernel re-aggregating
// both legs' partials (COUNT as SUM) — so sticky int->double SUM promotion
// stays bit-identical to a full recompute. The residual root then runs over
// the merged rows.
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

/// How a delta's result merges into a current result of the same columns.
struct DeltaMerge {
  /// No aggregation anywhere: select-project-join, the delta rows append.
  bool spj = false;
  /// Positions of the grouping columns — the merge key.
  std::vector<int> key_cols;
  /// The aggregate columns, re-aggregated per key by engine::MergeGroups.
  std::vector<expr::AggColumn> agg_cols;
};

/// How many BASE boxes of `graph` scan `table` (names compare
/// case-insensitively).
int TableReferences(const qgm::Graph& graph, const std::string& table);

/// The one decision of delta decomposability: whether `query` evaluated over
/// `stale_table` (lower-cased) plus an append-only delta equals its answer
/// over the old rows merged with its answer over the delta. Accepts exactly
/// a DISTINCT-free, subquery-free SPJ referencing the stale table once, or a
/// single aggregate block (root SELECT over one GROUP-BY over a SELECT of
/// base tables) whose aggregates are all COUNT/SUM/MIN/MAX, with no nullable
/// grouping column under multiple grouping sets. The root's projections
/// (including lowered AVG = SUM/COUNT) and HAVING sit above the merge and
/// are left to the caller; the merge's positions are among the GROUP-BY
/// box's outputs. Rejections carry a comp_* RejectReason subcode
/// (152-158); kCompDeltaRefCount also covers a graph that does not read
/// `stale_table` at all.
StatusOr<DeltaMerge> AnalyzeCompensableQuery(
    const qgm::Graph& query, const std::string& stale_table);

/// An executable two-leg compensation plan. Immutable once built; the plan
/// cache shares one instance across hits. It depends on which table is
/// stale, not on which epochs lag: under append-only decomposability the
/// same legs answer any lag on `stale_table`, so the executor takes the
/// epoch range from the AST's lag at the snapshot it runs against.
struct CompensationPlan {
  std::string summary_table;  // the stale AST answering leg A
  std::string stale_table;    // lower-cased base table the delta covers
  qgm::Graph ast_leg;    // Q' rewritten through the AST (no stale-table scan)
  qgm::Graph delta_leg;  // Q' over base tables; executed once per retained
                         // slice, with the stale table overridden by it
  DeltaMerge merge;      // Q''s root outputs are the GROUP-BY's, in order
  /// Residual root over the merged rows (empty for spj): output expressions
  /// and HAVING conjuncts reference quantifier 0 = the merged GROUP-BY row.
  std::vector<qgm::OutputColumn> final_outputs;
  std::vector<expr::ExprPtr> final_predicates;
  /// Original ORDER BY, applied after the residual (leg graphs carry none).
  std::vector<qgm::OrderSpec> order_by;
};

/// `plan` with every slot literal bound to params[slot] (qgm::BindSlots):
/// a cached template plan made executable for one query's literals.
CompensationPlan BindSlots(const CompensationPlan& plan,
                           const std::vector<Value>& params);

/// Analyzes `query` and assembles the two legs against `ast`. Fails with a
/// comp_* reject when the shape does not decompose or the AST cannot absorb
/// Q' (`comp_ast_mismatch` covers both "no match" and a rewrite that leaves
/// a residual scan of the stale table, which would double-count the delta).
/// `attempt`/`qtrace` flow through to the navigator like RewriteQuery's.
StatusOr<CompensationPlan> BuildCompensationPlan(
    const qgm::Graph& query, const std::string& stale_table,
    const SummaryTableDef& ast, const catalog::Catalog& catalog,
    AstAttemptTrace* attempt = nullptr, QueryTrace* qtrace = nullptr);

}  // namespace matching
}  // namespace sumtab

#endif  // SUMTAB_MATCHING_COMPENSATION_H_
