// Delta decomposability and delta-compensation rewrites. Both incremental
// maintenance and compensation rest on one fact — a graph evaluated over an
// append-only union splits into the old rows' answer plus the delta's,
// merged per group (Cohen & Nutt's aggregate rewriting framework: SUM/COUNT
// decompose under union, AVG via its SUM/COUNT lowering, MIN/MAX under
// append-only deltas) — and AnalyzeCompensableQuery is the one place that
// decides it. maintenance::AnalyzeMergePlan calls it for an AST definition
// and adds only its stored-layout rules.
//
// Compensation answers a query through STALE summary tables plus
// aggregates over only the rows appended since their epochs, one aggregate
// block at a time (the paper's block-by-block matching of §4.2, Figs. 10-11).
// The blocks are the query's lowest GROUP-BY boxes (the root, when it has
// none). A block B has its own query Q'_B: B's subtree under a bare
// projection of B's outputs. B is compensated when Q'_B passes
// AnalyzeCompensableQuery and a stale AST absorbs it with no scan of the
// stale table left. The plan replaces each compensated block by a merge
// node: a BASE box with an unforgeable name and B's output layout. The
// rest of the query, the residual graph, runs unchanged over the merged
// rows: fig10's outer GROUP BY and HAVING, fig11's parent SELECT, a
// single-block query's projections, HAVING and ORDER BY. Each block has
// two legs sharing Q'_B. Leg A is Q'_B rewritten through the block's stale
// AST (answers as of the AST's epoch); leg B is Q'_B executed with the
// stale table overridden by the retained delta slices. The delta leg runs
// through compensation::MergeDeltaLeg, the routine incremental maintenance
// and catch-up also use: it merges the legs per group through
// engine::MergeGroups, the aggregation kernel re-aggregating both legs'
// partials (COUNT as SUM), so sticky int->double SUM promotion stays
// bit-identical to a full recompute.
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

/// One compensated block: the two legs of Q'_B and how they merge.
struct CompensationLeg {
  std::string summary_table;  // the stale AST answering leg A
  std::string stale_table;    // lower-cased base table the delta covers
  qgm::Graph ast_leg;    // Q'_B rewritten through the AST (no stale-table scan)
  qgm::Graph delta_leg;  // Q'_B over base tables; executed once per retained
                         // slice, with the stale table overridden by it
  DeltaMerge merge;      // Q'_B's root outputs are the block's, in order
};

/// An executable per-block compensation plan. Immutable once built; the
/// plan cache shares one instance across hits. It depends on which tables
/// are stale, not on which epochs lag: under append-only decomposability the
/// same legs answer any lag on their stale table, so the executor takes each
/// leg's epoch range from its AST's lag at the snapshot it runs against.
struct CompensationPlan {
  /// The query with legs[i]'s block replaced by a BASE box named
  /// MergeNodeName(i) that carries the block's outputs and column info.
  qgm::Graph residual;
  std::vector<CompensationLeg> legs;
};

/// The table name of merge node `leg`: "$merge<leg>", which no SQL
/// identifier can spell.
std::string MergeNodeName(int leg);

/// The blocks compensation may replace, in topological order: every lowest
/// GROUP-BY box of `query` (one with no GROUP-BY below it), or the root when
/// the query has no GROUP-BY (an SPJ query is one block).
std::vector<qgm::BoxId> CompensationBlocks(const qgm::Graph& query);

/// Q'_B of one block, and the query box each of its boxes copies.
struct BlockQueryGraph {
  qgm::Graph graph;
  /// query_box[b]: the query box that graph box b copies. The bare
  /// projection BlockQuery adds over a GROUP-BY block maps to the block.
  std::vector<qgm::BoxId> query_box;
};

/// Q'_B of `block`: its subtree under a bare projection of its outputs; for
/// a non-GROUP-BY block (the root of an SPJ query), the query itself
/// without its ORDER BY.
StatusOr<BlockQueryGraph> BlockQuery(const qgm::Graph& query,
                                     qgm::BoxId block);

/// Analyzes `block_query` (a BlockQuery) and assembles its two legs against
/// `ast`. Fails with a comp_* reject when the shape does not decompose or
/// the AST cannot absorb it (`comp_ast_mismatch` covers both "no match" and
/// a rewrite that leaves a scan of the stale table, which would
/// double-count the delta). `attempt`/`qtrace` flow through to the
/// navigator like RewriteQuery's; the match attempts it adds to `attempt`
/// name the query's boxes, not Q'_B's.
StatusOr<CompensationLeg> BuildCompensationLeg(
    const BlockQueryGraph& block_query, const std::string& stale_table,
    const SummaryTableDef& ast, const catalog::Catalog& catalog,
    AstAttemptTrace* attempt = nullptr, QueryTrace* qtrace = nullptr);

/// The plan that serves blocks[i] of `query` through legs[i].
CompensationPlan AssembleCompensationPlan(
    const qgm::Graph& query, const std::vector<qgm::BoxId>& blocks,
    std::vector<CompensationLeg> legs);

/// `plan` with every slot literal bound to params[slot] (qgm::BindSlots):
/// a cached template plan made executable for one query's literals.
CompensationPlan BindSlots(const CompensationPlan& plan,
                           const std::vector<Value>& params);

/// The residual with each merge node replaced by its AST leg: the plan as
/// one statement, the closest thing to its rewritten SQL (it answers as of
/// the ASTs' epochs, without the deltas).
qgm::Graph AstLegsGraph(const CompensationPlan& plan);

}  // namespace matching
}  // namespace sumtab

#endif  // SUMTAB_MATCHING_COMPENSATION_H_
