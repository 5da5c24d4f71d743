#include "matching/compensation.h"

#include <utility>

#include "common/reject_reason.h"
#include "common/str_util.h"

namespace sumtab {
namespace matching {

int TableReferences(const qgm::Graph& graph, const std::string& table) {
  const std::string key = ToLower(table);
  int references = 0;
  for (qgm::BoxId id : graph.TopologicalOrder()) {
    const qgm::Box* box = graph.box(id);
    if (box->kind == qgm::Box::Kind::kBase &&
        ToLower(box->table_name) == key) {
      ++references;
    }
  }
  return references;
}

StatusOr<DeltaMerge> AnalyzeCompensableQuery(
    const qgm::Graph& query, const std::string& stale_table) {
  // Whole-graph conditions: the delta leg is the query re-run over only the
  // appended rows, so every operator must distribute over union in the stale
  // table's argument. DISTINCT dedups across the partition boundary and
  // scalar subqueries re-evaluate against the grown table; both break the
  // leg-wise decomposition. A self-join touches old x new row pairs neither
  // leg sees.
  int group_bys = 0;
  for (qgm::BoxId id : query.TopologicalOrder()) {
    const qgm::Box* box = query.box(id);
    if (box->IsGroupBy()) ++group_bys;
    if (box->distinct) {
      return RejectUnsupported(RejectReason::kCompDistinct, "DISTINCT block");
    }
    for (const qgm::Quantifier& q : box->quantifiers) {
      if (q.kind == qgm::Quantifier::Kind::kScalar) {
        return RejectUnsupported(RejectReason::kCompScalarSubquery,
                                 "scalar subquery");
      }
    }
  }
  const int references = TableReferences(query, stale_table);
  if (references != 1) {
    // Zero references is the "unaffected" case for Append; the subcode is
    // the same, callers that care count the references themselves.
    return RejectUnsupported(
        RejectReason::kCompDeltaRefCount,
        "stale table '" + stale_table + "' referenced " +
            std::to_string(references) + " times (need exactly 1)");
  }

  DeltaMerge merge;
  if (group_bys == 0) {
    // Pure SPJ: delta(Q(R)) == Q(deltaR) when R appears once, so the legs
    // simply concatenate — no merge key, no residual.
    merge.spj = true;
    return merge;
  }

  // Aggregate path: exactly one aggregate block — root SELECT over one
  // GROUP-BY over a SELECT of base scans. The root's own projections and
  // HAVING are not this analysis' concern: compensation moves them into a
  // residual step over fully merged groups, and maintenance adds its own
  // stored-layout rules for them.
  const qgm::Box* root = query.box(query.root());
  if (group_bys != 1 || root->kind != qgm::Box::Kind::kSelect ||
      root->quantifiers.size() != 1) {
    return RejectUnsupported(RejectReason::kCompQueryShape,
                             "not a single aggregate block");
  }
  const qgm::Box* gb = query.box(root->quantifiers[0].child);
  if (!gb->IsGroupBy() || gb->quantifiers.size() != 1) {
    return RejectUnsupported(RejectReason::kCompQueryShape,
                             "aggregation below or beside a join");
  }
  const qgm::Box* lower = query.box(gb->quantifiers[0].child);
  if (lower->kind != qgm::Box::Kind::kSelect) {
    return RejectUnsupported(RejectReason::kCompQueryShape,
                             "GROUP-BY child is not a SELECT");
  }
  for (const qgm::Quantifier& q : lower->quantifiers) {
    if (query.box(q.child)->kind != qgm::Box::Kind::kBase) {
      return RejectUnsupported(RejectReason::kCompQueryShape,
                               "nested query block under the aggregate");
    }
  }
  if (!gb->IsSimpleGroupBy()) {
    // Grouping sets merge per-cuboid through the keyed merge: a delta row's
    // NULL pattern identifies its cuboid, unless a grouping column can be
    // NULL in the data and a data-NULL collides with a padding NULL.
    for (int i = 0; i < gb->NumOutputs(); ++i) {
      if (gb->IsGroupingOutput(i) &&
          qgm::NullableGroupingSource(query, *gb, i)) {
        return RejectUnsupported(
            RejectReason::kCompNullableGroupingSet,
            "nullable grouping column '" + gb->outputs[i].name +
                "' under multiple grouping sets");
      }
    }
  }
  for (int i = 0; i < gb->NumOutputs(); ++i) {
    if (gb->IsGroupingOutput(i)) {
      merge.key_cols.push_back(i);
      continue;
    }
    const expr::ExprPtr& agg = gb->outputs[i].expr;
    if (agg == nullptr || agg->kind != expr::Expr::Kind::kAggregate) {
      return RejectUnsupported(RejectReason::kCompQueryShape,
                               "unrecognized GROUP-BY output");
    }
    if (agg->agg_distinct) {
      // COUNT(DISTINCT x) etc.: the two legs may see the same value and
      // merging their counts double-counts it.
      return RejectUnsupported(RejectReason::kCompDistinctAggregate,
                               "DISTINCT aggregate");
    }
    switch (agg->agg) {
      case expr::AggFunc::kCount:
      case expr::AggFunc::kSum:
      case expr::AggFunc::kMin:
      case expr::AggFunc::kMax:
        // Decompose under union of partitions (MIN/MAX only because the
        // delta is append-only: no deletions can retract an extremum).
        // AVG never appears here — the QGM builder lowers it to SUM/COUNT
        // in the root, which the residual recomputes over merged values.
        break;
      default:
        return RejectUnsupported(RejectReason::kCompNonDecomposableAggregate,
                                 std::string("aggregate '") +
                                     expr::AggFuncName(agg->agg) +
                                     "' does not decompose under union");
    }
    merge.agg_cols.push_back(expr::AggColumn{i, agg->agg});
  }
  return merge;
}

CompensationPlan BindSlots(const CompensationPlan& plan,
                           const std::vector<Value>& params) {
  CompensationPlan bound;
  bound.summary_table = plan.summary_table;
  bound.stale_table = plan.stale_table;
  bound.ast_leg = qgm::BindSlots(plan.ast_leg, params);
  bound.delta_leg = qgm::BindSlots(plan.delta_leg, params);
  bound.merge = plan.merge;
  bound.final_outputs = plan.final_outputs;
  for (qgm::OutputColumn& out : bound.final_outputs) {
    out.expr = expr::BindSlots(out.expr, params);
  }
  for (const expr::ExprPtr& p : plan.final_predicates) {
    bound.final_predicates.push_back(expr::BindSlots(p, params));
  }
  bound.order_by = plan.order_by;
  return bound;
}

StatusOr<CompensationPlan> BuildCompensationPlan(
    const qgm::Graph& query, const std::string& stale_table,
    const SummaryTableDef& ast, const catalog::Catalog& catalog,
    AstAttemptTrace* attempt, QueryTrace* qtrace) {
  SUMTAB_ASSIGN_OR_RETURN(DeltaMerge merge,
                          AnalyzeCompensableQuery(query, stale_table));

  // Q': the shared leg shape. For the aggregate form the root becomes a bare
  // projection of EVERY GROUP-BY output (merge needs the full group key and
  // every partial aggregate; the original root may project a subset or
  // compute over them) and sheds its HAVING — both move to the residual.
  // ORDER BY comes off in either form: it is applied once, after the merge.
  qgm::Graph qprime = qgm::Graph::CloneGraph(query);
  qprime.set_order_by({});
  if (!merge.spj) {
    qgm::Box* root = qprime.box(qprime.root());
    const qgm::Box* gb = qprime.box(root->quantifiers[0].child);
    std::vector<qgm::OutputColumn> outs;
    outs.reserve(gb->outputs.size());
    for (int i = 0; i < gb->NumOutputs(); ++i) {
      outs.push_back(qgm::OutputColumn{gb->outputs[i].name,
                                       expr::ColRef(0, i)});
    }
    root->outputs = std::move(outs);
    root->predicates.clear();
    SUMTAB_RETURN_NOT_OK(qgm::ComputeBoxColumnInfo(&qprime, root));
  }

  CompensationPlan plan;
  plan.summary_table = ast.table_name;
  plan.stale_table = stale_table;
  plan.merge = merge;
  const qgm::Box* orig_root = query.box(query.root());
  if (!merge.spj) {
    plan.final_outputs = orig_root->outputs;
    plan.final_predicates = orig_root->predicates;
  }
  plan.order_by = query.order_by();

  // Leg B executes Q' itself; the executor's table override swaps the stale
  // scan for the retained delta rows at run time.
  plan.delta_leg = qgm::Graph::CloneGraph(qprime);

  // Leg A is Q' rerouted through the stale AST by the ordinary navigator +
  // rewriter — compensation predicates, rejoins and all.
  SUMTAB_ASSIGN_OR_RETURN(RewriteResult rw,
                          RewriteQuery(qprime, ast, catalog, attempt, qtrace));
  if (!rw.rewritten) {
    return RejectMatch(RejectReason::kCompAstMismatch,
                       "AST '" + ast.table_name +
                           "' does not match the compensation query");
  }
  // The AST leg answers entirely as of the AST's epoch. If the rewrite kept
  // any scan of the stale table (e.g. a rejoin back to it), that scan would
  // read the CURRENT version — which already contains the delta rows leg B
  // counts again.
  if (TableReferences(rw.graph, stale_table) > 0) {
    return RejectMatch(RejectReason::kCompAstMismatch,
                       "rewrite leaves a residual scan of '" + stale_table +
                           "' (would double-count the delta)");
  }
  plan.ast_leg = std::move(rw.graph);
  return plan;
}

}  // namespace matching
}  // namespace sumtab
