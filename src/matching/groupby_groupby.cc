// GROUP-BY/GROUP-BY matching: paper patterns 4.1.2 (exact child match),
// 4.2.1 (SELECT-only child compensation, incl. rejoins) and 4.2.2 (GROUP-BY
// child compensation, handled by a recursive intermediate match). The cube
// patterns (Sec. 5) share AnalyzeGroupByMatch/BuildGroupByComp and live in
// cube.cc.
#include <algorithm>
#include "common/reject_reason.h"
#include <set>

#include "expr/expr_rewrite.h"
#include "matching/groupby_core.h"
#include "matching/predicate_match.h"

namespace sumtab {
namespace matching {

namespace {

using expr::Expr;
using expr::ExprPtr;
using qgm::Box;
using qgm::BoxId;
using qgm::OutputColumn;
using qgm::Quantifier;

}  // namespace

StatusOr<GBChildComp> GetGBChildComp(MatchSession* session, const Box& e,
                                     const Box& r, bool* has_gb,
                                     CompChain* chain_out) {
  *has_gb = false;
  const MatchResult* m =
      session->Find(e.quantifiers[0].child, r.quantifiers[0].child);
  if (m == nullptr) {
    return RejectMatch(RejectReason::kChildrenNotMatched, "GROUP-BY children were not matched");
  }
  GBChildComp cc;
  if (m->exact) {
    cc.trivial = true;
    cc.colmap = &m->colmap;
    return cc;
  }
  SUMTAB_ASSIGN_OR_RETURN(CompChain chain, AnalyzeComp(*session, m->comp_root));
  if (chain.select_only()) {
    if (chain.spine.size() != 1) {
      return RejectMatch(RejectReason::kMultiBoxChildComp, "multi-box SELECT child compensation");
    }
    cc.trivial = false;
    cc.select_box = chain.spine[0];
    return cc;
  }
  *has_gb = true;
  *chain_out = chain;
  return cc;  // unused by the caller in this case
}

namespace {

/// Expands a subsumee-GB expression (over E-child QCLs) into the translated
/// vocabulary, through the child compensation.
StatusOr<ExprPtr> ExpandThroughChild(MatchSession* session,
                                     const GBChildComp& cc, const Box& r,
                                     const ExprPtr& e_expr) {
  if (cc.trivial) {
    return expr::MapColumnRefs(e_expr, [&cc](int, int c) -> ExprPtr {
      int mapped = cc.colmap != nullptr && c < static_cast<int>(cc.colmap->size())
                       ? (*cc.colmap)[c]
                       : c;
      return expr::ColRef(0, mapped);
    });
  }
  const Box* comp_sel = session->comp().box(cc.select_box);
  ExprPtr substituted =
      expr::MapColumnRefs(e_expr, [comp_sel](int, int c) -> ExprPtr {
        return comp_sel->outputs[c].expr;
      });
  return ExpandCompExpr(*session, cc.select_box, substituted, r);
}

/// 1:N test for a rejoin (paper 4.2.1): some expanded child-comp predicate
/// equates the rejoin's single-column primary key with a non-rejoin column,
/// so each subsumer row joins at most one rejoin row.
bool RejoinIsOneSide(const MatchSession& session, BoxId rejoin_box,
                     const std::vector<ExprPtr>& expanded_preds) {
  const Box* rb = session.comp().box(rejoin_box);
  if (rb->kind != Box::Kind::kBase) return false;
  const catalog::Table* table = session.catalog().FindTable(rb->table_name);
  if (table == nullptr || table->primary_key.size() != 1) return false;
  int pk_idx = table->ColumnIndex(table->primary_key[0]);
  for (const ExprPtr& p : expanded_preds) {
    if (p->kind != Expr::Kind::kBinary ||
        p->binary_op != expr::BinaryOp::kEq) {
      continue;
    }
    for (int side = 0; side < 2; ++side) {
      const ExprPtr& a = p->children[side];
      const ExprPtr& b = p->children[1 - side];
      if (a->kind == Expr::Kind::kRejoinRef && a->quantifier == rejoin_box &&
          a->column == pk_idx && b->kind == Expr::Kind::kColumnRef) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

StatusOr<GBMatchInfo> AnalyzeGroupByMatchImpl(
    MatchSession* session, const Box& e, const std::vector<int>* e_set,
    const Box& r, const std::vector<int>* r_set, const GBChildComp& cc,
    bool force_regroup) {
  GBMatchInfo info;
  info.derived_outputs.resize(e.NumOutputs());
  info.direct_map.assign(e.NumOutputs(), -1);

  // Equivalence classes + pulled predicates come from the expanded child
  // compensation predicates (e.g. `flid = lid`, paper Fig. 8).
  std::vector<ExprPtr> expanded_cc_preds;
  if (!cc.trivial) {
    const Box* comp_sel = session->comp().box(cc.select_box);
    for (const ExprPtr& p : comp_sel->predicates) {
      SUMTAB_ASSIGN_OR_RETURN(ExprPtr t,
                              ExpandCompExpr(*session, cc.select_box, p, r));
      expanded_cc_preds.push_back(std::move(t));
    }
    for (size_t q = 1; q < comp_sel->quantifiers.size(); ++q) {
      info.rejoin_boxes.push_back(comp_sel->quantifiers[q].child);
    }
  }
  ColumnEquivalence equiv;
  equiv.AddPredicates(expanded_cc_preds);

  std::vector<int> r_grouping_all = r.GroupingOutputs();
  const std::vector<int>& restrict_set = r_set ? *r_set : r_grouping_all;

  Deriver::Options gopt;
  gopt.allowed_grouping = restrict_set;
  gopt.restrict_grouping = true;
  gopt.grouping_outputs_only = true;
  Deriver grouping_deriver(&r, &equiv, gopt);

  Deriver::Options aopt;
  aopt.allowed_grouping = restrict_set;
  aopt.restrict_grouping = true;
  Deriver agg_deriver(&r, &equiv, aopt);

  // Condition 1: subsumee grouping columns derivable from the subsumer's
  // grouping columns (of this cuboid) and/or rejoin columns.
  std::vector<int> e_grouping_all = e.GroupingOutputs();
  const std::vector<int>& e_grouping = e_set ? *e_set : e_grouping_all;
  for (int i : e_grouping) {
    SUMTAB_ASSIGN_OR_RETURN(ExprPtr t,
                            ExpandThroughChild(session, cc, r, e.outputs[i].expr));
    StatusOr<ExprPtr> d = grouping_deriver.Derive(t);
    if (!d.ok()) {
      return RejectMatch(RejectReason::kGroupingColumnNotDerivable, "grouping column '" + e.outputs[i].name +
                              "' not derivable: " + d.status().message());
    }
    info.derived_outputs[i] = *d;
    int col = -1;
    if (expr::IsSimpleColumnRef(*d, 0, &col)) {
      info.direct_map[i] = col;
    } else if ((*d)->kind == Expr::Kind::kRejoinRef) {
      // A rejoin column equivalent to a subsumer grouping column (Fig. 8's
      // lid ≡ flid) still counts as a direct mapping for the sets-same test,
      // even though the derivation keeps reading it from the rejoin.
      int k = grouping_deriver.FindOutput(*d);
      if (k >= 0) info.direct_map[i] = k;
    }
  }

  // Grouping sets match exactly if the subsumee columns map 1:1 onto the
  // whole subsumer cuboid.
  bool sets_same = true;
  {
    std::set<int> covered;
    for (int i : e_grouping) {
      int k = info.direct_map[i];
      if (k < 0 || !r.IsGroupingOutput(k) || !covered.insert(k).second) {
        sets_same = false;
        break;
      }
    }
    if (sets_same) sets_same = covered.size() == restrict_set.size();
  }

  // Pullup condition (4.2.1-3): child-compensation predicates derivable from
  // grouping columns and/or rejoins.
  for (const ExprPtr& p : expanded_cc_preds) {
    StatusOr<ExprPtr> d = grouping_deriver.Derive(p);
    if (!d.ok()) {
      return RejectMatch(RejectReason::kChildPredNotPullable, "child compensation predicate not pullable: " +
                              d.status().message());
    }
    info.pulled_preds.push_back(*d);
  }

  // Regrouping rule: avoid only when the grouping sets coincide and every
  // rejoin is provably on the 1 side of a 1:N join (paper Fig. 8).
  bool rejoins_safe = true;
  for (BoxId rb : info.rejoin_boxes) {
    rejoins_safe =
        rejoins_safe && RejoinIsOneSide(*session, rb, expanded_cc_preds);
  }
  info.needs_regroup = force_regroup || !sets_same || !rejoins_safe;

  // Condition 2: aggregates match exactly (no regroup) or derive by the
  // re-aggregation rules (a)-(g).
  for (int i = 0; i < e.NumOutputs(); ++i) {
    if (e.IsGroupingOutput(i)) continue;
    SUMTAB_ASSIGN_OR_RETURN(ExprPtr t,
                            ExpandThroughChild(session, cc, r, e.outputs[i].expr));
    if (!info.needs_regroup) {
      int found = -1;
      for (int k = 0; k < r.NumOutputs() && found < 0; ++k) {
        if (r.IsGroupingOutput(k)) continue;
        if (r.outputs[k].expr != nullptr &&
            EquivExprEqual(r.outputs[k].expr, t, equiv)) {
          found = k;
        }
      }
      if (found < 0) {
        return RejectMatch(RejectReason::kAggregateNotDerivable, "aggregate '" + e.outputs[i].name +
                                "' has no exact subsumer QCL");
      }
      info.derived_outputs[i] = expr::ColRef(0, found);
      info.direct_map[i] = found;
    } else {
      StatusOr<AggDerivation> ad =
          DeriveAggregate(t, r, session->ast(), equiv, agg_deriver);
      if (!ad.ok()) {
        return RejectMatch(RejectReason::kAggregateNotDerivable, "aggregate '" + e.outputs[i].name +
                                "' not derivable: " + ad.status().message());
      }
      info.agg_derivations.emplace_back(i, *ad);
    }
  }

  info.exact = cc.trivial && !info.needs_regroup && info.pulled_preds.empty() &&
               info.rejoin_boxes.empty();
  return info;
}

StatusOr<GBMatchInfo> AnalyzeGroupByMatch(MatchSession* session, const Box& e,
                                          const std::vector<int>* e_set,
                                          const Box& r,
                                          const std::vector<int>* r_set,
                                          const GBChildComp& cc) {
  return AnalyzeGroupByMatchImpl(session, e, e_set, r, r_set, cc,
                                 /*force_regroup=*/false);
}

StatusOr<std::vector<ExprPtr>> SlicingPredicates(
    const MatchSession& session, const Box& r, const std::vector<int>& r_set) {
  std::vector<ExprPtr> preds;
  for (int k : r.GroupingOutputs()) {
    if (qgm::NullableGroupingSource(session.ast(), r, k)) {
      return RejectMatch(RejectReason::kNullableGroupingSlice,
                         "grouping column '" + r.outputs[k].name +
                             "' can be NULL in the data");
    }
    bool in_set = false;
    for (int s : r_set) in_set = in_set || s == k;
    preds.push_back(expr::IsNull(expr::ColRef(0, k), /*negated=*/in_set));
  }
  return preds;
}

StatusOr<qgm::BoxId> BuildGroupByComp(MatchSession* session, const Box& e,
                                      const Box& r, const GBMatchInfo& info,
                                      std::vector<ExprPtr> slicing_preds) {
  std::vector<ExprPtr> preds = std::move(slicing_preds);
  for (const ExprPtr& p : info.pulled_preds) preds.push_back(p);

  if (!info.needs_regroup) {
    std::vector<OutputColumn> outs;
    for (int i = 0; i < e.NumOutputs(); ++i) {
      if (info.derived_outputs[i] == nullptr) {
        return Status::Internal("missing derivation for output " +
                                std::to_string(i));
      }
      outs.push_back(OutputColumn{e.outputs[i].name, info.derived_outputs[i]});
    }
    SUMTAB_ASSIGN_OR_RETURN(
        BoxId comp_root,
        AssembleCompSelect(session, session->SubsumerRef(r.id),
                           std::move(preds), std::move(outs)));
    Box* box = session->comp().box(comp_root);
    for (BoxId rb : info.rejoin_boxes) {
      bool present = false;
      for (const Quantifier& q : box->quantifiers) present |= q.child == rb;
      if (!present) {
        box->quantifiers.push_back(Quantifier{rb, session->RejoinKind(rb)});
      }
    }
    return comp_root;
  }

  // Regrouping: SELECT (slice + pullups + derivations) then GROUP-BY.
  std::vector<OutputColumn> c_outputs;
  std::vector<int> pos_of(e.NumOutputs(), -1);
  for (int i = 0; i < e.NumOutputs(); ++i) {
    if (!e.IsGroupingOutput(i)) continue;
    if (info.derived_outputs[i] == nullptr) {
      return Status::Internal("missing grouping derivation");
    }
    pos_of[i] = static_cast<int>(c_outputs.size());
    c_outputs.push_back(OutputColumn{e.outputs[i].name,
                                     info.derived_outputs[i]});
  }
  for (const auto& [i, ad] : info.agg_derivations) {
    pos_of[i] = static_cast<int>(c_outputs.size());
    c_outputs.push_back(
        OutputColumn{"prereagg_" + std::to_string(i), ad.arg});
  }
  SUMTAB_ASSIGN_OR_RETURN(
      BoxId comp_sel,
      AssembleCompSelect(session, session->SubsumerRef(r.id),
                         std::move(preds), std::move(c_outputs)));
  Box* sel_box = session->comp().box(comp_sel);
  for (BoxId rb : info.rejoin_boxes) {
    bool present = false;
    for (const Quantifier& q : sel_box->quantifiers) present |= q.child == rb;
    if (!present) {
      sel_box->quantifiers.push_back(Quantifier{rb, session->RejoinKind(rb)});
    }
  }

  Box* gb = session->comp().AddBox(Box::Kind::kGroupBy);
  gb->quantifiers.push_back(Quantifier{comp_sel, Quantifier::Kind::kForeach});
  for (int i = 0; i < e.NumOutputs(); ++i) {
    if (e.IsGroupingOutput(i)) {
      gb->outputs.push_back(
          OutputColumn{e.outputs[i].name, expr::ColRef(0, pos_of[i])});
    } else {
      const AggDerivation* ad = nullptr;
      for (const auto& [j, d] : info.agg_derivations) {
        if (j == i) ad = &d;
      }
      if (ad == nullptr) return Status::Internal("missing agg derivation");
      gb->outputs.push_back(OutputColumn{
          e.outputs[i].name,
          expr::Aggregate(ad->func, expr::ColRef(0, pos_of[i]), ad->distinct)});
    }
  }
  // E output indexes double as comp GROUP-BY output indexes.
  gb->grouping_sets = e.grouping_sets;
  SUMTAB_RETURN_NOT_OK(qgm::ComputeBoxColumnInfo(&session->comp(), gb));
  return gb->id;
}

namespace {

/// Pattern 4.2.2: the child compensation contains a GROUP-BY box. Match the
/// chain's lowest GROUP-BY against the subsumer (recursively using the
/// 4.1.2/4.2.1 conditions), then copy the boxes above it — and finally the
/// subsumee itself — on top of the intermediate compensation (paper Fig. 9).
StatusOr<MatchResult> MatchGroupByWithGBComp(MatchSession* session,
                                             const Box& e, const Box& r,
                                             const CompChain& chain) {
  qgm::Graph& comp = session->comp();
  int lgb = chain.lowest_gb_pos;
  const Box* low_gb = comp.box(chain.spine[lgb]);
  if (low_gb->grouping_sets.size() > 1) {
    return RejectMatch(RejectReason::kMultidimensionalComp, "multidimensional compensation GROUP-BY");
  }
  GBChildComp inner;
  int below_count = static_cast<int>(chain.spine.size()) - lgb - 1;
  if (below_count == 0) {
    inner.trivial = true;  // identity: GB sits directly on the subsumer ref
    inner.colmap = nullptr;
  } else if (below_count == 1) {
    inner.trivial = false;
    inner.select_box = chain.spine.back();
  } else {
    return RejectMatch(RejectReason::kDeepCompChain, "deep compensation chain below the GROUP-BY");
  }

  BoxId inter_root;
  if (r.grouping_sets.size() > 1) {
    SUMTAB_ASSIGN_OR_RETURN(MatchResult inter,
                            MatchCube(session, *low_gb, r, inner));
    if (inter.exact) return Status::Internal("cube match cannot be exact");
    inter_root = inter.comp_root;
  } else {
    SUMTAB_ASSIGN_OR_RETURN(
        GBMatchInfo info,
        AnalyzeGroupByMatch(session, *low_gb, nullptr, r, nullptr, inner));
    SUMTAB_ASSIGN_OR_RETURN(inter_root,
                            BuildGroupByComp(session, *low_gb, r, info, {}));
  }

  // Copy the chain above the lowest GROUP-BY, bottom-to-top.
  BoxId below = inter_root;
  for (int pos = lgb - 1; pos >= 0; --pos) {
    Box copy = *comp.box(chain.spine[pos]);
    Box* fresh = comp.AddBox(copy.kind);
    copy.id = fresh->id;
    copy.quantifiers[0].child = below;
    *fresh = std::move(copy);
    SUMTAB_RETURN_NOT_OK(qgm::ComputeBoxColumnInfo(&comp, fresh));
    below = fresh->id;
  }
  // Copy the subsumee itself on top (GB-pC(N+1) in Fig. 9).
  Box ecopy = e;
  Box* top = comp.AddBox(ecopy.kind);
  ecopy.id = top->id;
  ecopy.quantifiers[0].child = below;
  *top = std::move(ecopy);
  SUMTAB_RETURN_NOT_OK(qgm::ComputeBoxColumnInfo(&comp, top));

  MatchResult result;
  result.comp_root = top->id;
  return result;
}

}  // namespace

StatusOr<MatchResult> MatchGroupByGroupBy(MatchSession* session, const Box& e,
                                          const Box& r) {
  bool has_gb = false;
  CompChain chain;
  SUMTAB_ASSIGN_OR_RETURN(GBChildComp cc,
                          GetGBChildComp(session, e, r, &has_gb, &chain));
  if (has_gb) {
    return MatchGroupByWithGBComp(session, e, r, chain);
  }
  if (e.grouping_sets.size() > 1 || r.grouping_sets.size() > 1) {
    return MatchCube(session, e, r, cc);
  }
  SUMTAB_ASSIGN_OR_RETURN(
      GBMatchInfo info,
      AnalyzeGroupByMatch(session, e, nullptr, r, nullptr, cc));
  if (info.exact) {
    MatchResult result;
    result.exact = true;
    result.colmap = info.direct_map;
    return result;
  }
  SUMTAB_ASSIGN_OR_RETURN(BoxId comp_root,
                          BuildGroupByComp(session, e, r, info, {}));
  MatchResult result;
  result.comp_root = comp_root;
  return result;
}

// Exposed for cube.cc (5.2 fallback forces regrouping).
StatusOr<GBMatchInfo> AnalyzeGroupByMatchForced(
    MatchSession* session, const Box& e, const std::vector<int>* e_set,
    const Box& r, const std::vector<int>* r_set, const GBChildComp& cc,
    bool force_regroup) {
  return AnalyzeGroupByMatchImpl(session, e, e_set, r, r_set, cc,
                                 force_regroup);
}

}  // namespace matching
}  // namespace sumtab
