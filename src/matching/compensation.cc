#include "matching/compensation.h"

#include <map>
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

std::string MergeNodeName(int leg) { return "$merge" + std::to_string(leg); }

std::vector<qgm::BoxId> CompensationBlocks(const qgm::Graph& query) {
  // Children come first, so each box sees whether any GROUP-BY sits below.
  std::vector<qgm::BoxId> order = query.TopologicalOrder();
  std::vector<bool> group_by_below(query.size(), false);
  std::vector<qgm::BoxId> blocks;
  for (qgm::BoxId id : order) {
    const qgm::Box* box = query.box(id);
    for (const qgm::Quantifier& q : box->quantifiers) {
      group_by_below[id] = group_by_below[id] || group_by_below[q.child] ||
                           query.box(q.child)->IsGroupBy();
    }
    if (box->IsGroupBy() && !group_by_below[id]) blocks.push_back(id);
  }
  if (blocks.empty()) blocks.push_back(query.root());
  return blocks;
}

StatusOr<BlockQueryGraph> BlockQuery(const qgm::Graph& query,
                                     qgm::BoxId block) {
  BlockQueryGraph out;
  std::map<qgm::BoxId, qgm::BoxId> copies;  // query box -> graph box
  auto map_back = [&]() {
    out.query_box.assign(out.graph.size(), block);
    for (const auto& [from, to] : copies) out.query_box[to] = from;
  };
  if (!query.box(block)->IsGroupBy()) {
    // The whole SPJ query; ORDER BY is applied once, by the residual.
    out.graph.set_root(out.graph.CloneSubgraph(query, query.root(), &copies));
    map_back();
    return out;
  }
  // A bare projection of EVERY output: the merge needs the full group key
  // and every partial aggregate, whatever the blocks above use of them.
  const qgm::BoxId gb = out.graph.CloneSubgraph(query, block, &copies);
  qgm::Box* root = out.graph.AddBox(qgm::Box::Kind::kSelect);
  root->quantifiers.push_back(qgm::Quantifier{gb});
  const qgm::Box* gb_box = out.graph.box(gb);
  for (int i = 0; i < gb_box->NumOutputs(); ++i) {
    root->outputs.push_back(
        qgm::OutputColumn{gb_box->outputs[i].name, expr::ColRef(0, i)});
  }
  out.graph.set_root(root->id);
  SUMTAB_RETURN_NOT_OK(qgm::ComputeBoxColumnInfo(&out.graph, root));
  map_back();
  return out;
}

StatusOr<CompensationLeg> BuildCompensationLeg(
    const BlockQueryGraph& block_query, const std::string& stale_table,
    const SummaryTableDef& ast, const catalog::Catalog& catalog,
    AstAttemptTrace* attempt, QueryTrace* qtrace) {
  const qgm::Graph& graph = block_query.graph;
  CompensationLeg leg;
  SUMTAB_ASSIGN_OR_RETURN(leg.merge,
                          AnalyzeCompensableQuery(graph, stale_table));
  leg.summary_table = ast.table_name;
  leg.stale_table = stale_table;
  // Leg B executes Q'_B itself; the executor's table override swaps the
  // stale scan for the retained delta rows at run time.
  leg.delta_leg = qgm::Graph::CloneGraph(graph);

  // Leg A is Q'_B rerouted through the stale AST by the ordinary navigator
  // + rewriter — compensation predicates, rejoins and all. Its match
  // attempts are renumbered to the query's boxes, so they line up with the
  // per-block verdicts.
  const size_t first_match =
      attempt != nullptr ? attempt->match_attempts.size() : 0;
  SUMTAB_ASSIGN_OR_RETURN(RewriteResult rw,
                          RewriteQuery(graph, ast, catalog, attempt, qtrace));
  if (attempt != nullptr) {
    attempt->num_matches += rw.num_matches;
    for (size_t i = first_match; i < attempt->match_attempts.size(); ++i) {
      int& box = attempt->match_attempts[i].query_box;
      if (box >= 0 && box < static_cast<int>(block_query.query_box.size())) {
        box = block_query.query_box[box];
      }
    }
  }
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
  leg.ast_leg = std::move(rw.graph);
  return leg;
}

namespace {

// Boxes to swap for the root subgraph of another graph.
using Replacements = std::map<qgm::BoxId, const qgm::Graph*>;

// `graph`'s subgraph under `id`, cloned into `out` with `replace` applied.
// `done` maps the boxes cloned so far, so a shared box is cloned once.
qgm::BoxId CloneReplacing(const qgm::Graph& graph, qgm::BoxId id,
                          const Replacements& replace,
                          std::map<qgm::BoxId, qgm::BoxId>* done,
                          qgm::Graph* out) {
  if (auto it = done->find(id); it != done->end()) return it->second;
  qgm::BoxId fresh;
  if (auto it = replace.find(id); it != replace.end()) {
    fresh = out->CloneSubgraph(*it->second, it->second->root());
  } else {
    qgm::Box copy = *graph.box(id);
    for (qgm::Quantifier& q : copy.quantifiers) {
      q.child = CloneReplacing(graph, q.child, replace, done, out);
    }
    qgm::Box* box = out->AddBox(copy.kind);
    copy.id = box->id;
    *box = std::move(copy);
    fresh = box->id;
  }
  (*done)[id] = fresh;
  return fresh;
}

qgm::Graph GraphReplacing(const qgm::Graph& graph,
                          const Replacements& replace) {
  qgm::Graph out;
  std::map<qgm::BoxId, qgm::BoxId> done;
  out.set_root(CloneReplacing(graph, graph.root(), replace, &done, &out));
  out.set_order_by(graph.order_by());
  return out;
}

}  // namespace

CompensationPlan AssembleCompensationPlan(
    const qgm::Graph& query, const std::vector<qgm::BoxId>& blocks,
    std::vector<CompensationLeg> legs) {
  // Each merge node is a one-box graph: a scan of the merged rows, laid out
  // like the block it stands in for.
  std::vector<qgm::Graph> nodes(blocks.size());
  Replacements replace;
  for (size_t i = 0; i < blocks.size(); ++i) {
    const qgm::Box* block = query.box(blocks[i]);
    qgm::Box* node = nodes[i].AddBox(qgm::Box::Kind::kBase);
    node->table_name = MergeNodeName(static_cast<int>(i));
    for (const qgm::OutputColumn& out : block->outputs) {
      node->outputs.push_back(qgm::OutputColumn{out.name, nullptr});
    }
    node->column_info = block->column_info;
    nodes[i].set_root(node->id);
    replace[blocks[i]] = &nodes[i];
  }
  CompensationPlan plan;
  plan.legs = std::move(legs);
  plan.residual = GraphReplacing(query, replace);
  if (plan.residual.box(plan.residual.root())->kind ==
      qgm::Box::Kind::kBase) {
    // The block was the root (an SPJ query): project the merged rows under
    // the root's names, so the ORDER BY has a box to apply to.
    const qgm::Box* root = query.box(query.root());
    const qgm::BoxId node = plan.residual.root();
    qgm::Box* top = plan.residual.AddBox(qgm::Box::Kind::kSelect);
    top->quantifiers.push_back(qgm::Quantifier{node});
    for (int i = 0; i < root->NumOutputs(); ++i) {
      top->outputs.push_back(
          qgm::OutputColumn{root->outputs[i].name, expr::ColRef(0, i)});
    }
    top->column_info = root->column_info;
    plan.residual.set_root(top->id);
  }
  return plan;
}

CompensationPlan BindSlots(const CompensationPlan& plan,
                           const std::vector<Value>& params) {
  CompensationPlan bound;
  bound.residual = qgm::BindSlots(plan.residual, params);
  for (const CompensationLeg& leg : plan.legs) {
    CompensationLeg& out = bound.legs.emplace_back();
    out.summary_table = leg.summary_table;
    out.stale_table = leg.stale_table;
    out.ast_leg = qgm::BindSlots(leg.ast_leg, params);
    out.delta_leg = qgm::BindSlots(leg.delta_leg, params);
    out.merge = leg.merge;
  }
  return bound;
}

qgm::Graph AstLegsGraph(const CompensationPlan& plan) {
  Replacements replace;
  for (qgm::BoxId id : plan.residual.TopologicalOrder()) {
    const qgm::Box* box = plan.residual.box(id);
    if (box->kind != qgm::Box::Kind::kBase) continue;
    for (size_t i = 0; i < plan.legs.size(); ++i) {
      if (box->table_name == MergeNodeName(static_cast<int>(i))) {
        replace[id] = &plan.legs[i].ast_leg;
      }
    }
  }
  return GraphReplacing(plan.residual, replace);
}

}  // namespace matching
}  // namespace sumtab
