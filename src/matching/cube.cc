// Multidimensional matching (paper Sec. 5). Pattern 5.1 matches a simple
// GROUP-BY query against a cube AST by picking the smallest cuboid that
// satisfies the 4.1.2/4.2.1 conditions restricted to that cuboid's grouping
// columns, compensating with a NULL-slicing predicate. Pattern 5.2 matches a
// cube query: every subsumee cuboid must independently match (5.1); if none
// needs regrouping the compensation is a single slice-union SELECT, else the
// subsumee falls back to its union grouping set GSᴱ and regroups with its own
// gs function.
#include <algorithm>
#include "common/reject_reason.h"

#include "expr/expr.h"
#include "matching/groupby_core.h"

namespace sumtab {
namespace matching {

namespace {

using expr::ExprPtr;
using qgm::Box;
using qgm::BoxId;
using qgm::OutputColumn;
using qgm::Quantifier;

/// Subsumer grouping-set indexes ordered by ascending cuboid size, so the
/// first success is the minimum-regrouping choice (paper 5.1 compensation).
std::vector<int> SetsBySize(const Box& r) {
  std::vector<int> order(r.grouping_sets.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&r](int a, int b) {
    return r.grouping_sets[a].size() < r.grouping_sets[b].size();
  });
  return order;
}

/// Pattern 5.1: simple subsumee vs cube subsumer.
StatusOr<MatchResult> MatchSimpleVsCube(MatchSession* session, const Box& e,
                                        const Box& r,
                                        const GBChildComp& cc) {
  Status last = RejectMatch(RejectReason::kNoCuboidMatch, "no subsumer cuboid matched");
  for (int si : SetsBySize(r)) {
    const std::vector<int>& r_set = r.grouping_sets[si];
    StatusOr<GBMatchInfo> info =
        AnalyzeGroupByMatch(session, e, nullptr, r, &r_set, cc);
    if (!info.ok()) {
      last = info.status();
      continue;
    }
    SUMTAB_ASSIGN_OR_RETURN(std::vector<ExprPtr> slice,
                            SlicingPredicates(*session, r, r_set));
    SUMTAB_ASSIGN_OR_RETURN(
        BoxId comp_root,
        BuildGroupByComp(session, e, r, *info, std::move(slice)));
    MatchResult result;
    result.comp_root = comp_root;
    return result;
  }
  return last;
}

/// Pattern 5.2: cube subsumee vs cube subsumer.
StatusOr<MatchResult> MatchCubeVsCube(MatchSession* session, const Box& e,
                                      const Box& r, const GBChildComp& cc) {
  struct SubMatch {
    int e_set_idx;
    int r_set_idx;
    GBMatchInfo info;
  };
  std::vector<SubMatch> subs;
  bool all_no_regroup = true;
  std::vector<int> r_order = SetsBySize(r);
  for (size_t ei = 0; ei < e.grouping_sets.size(); ++ei) {
    bool found = false;
    for (int si : r_order) {
      StatusOr<GBMatchInfo> info = AnalyzeGroupByMatch(
          session, e, &e.grouping_sets[ei], r, &r.grouping_sets[si], cc);
      if (!info.ok()) continue;
      subs.push_back(SubMatch{static_cast<int>(ei), si, std::move(*info)});
      all_no_regroup = all_no_regroup && !subs.back().info.needs_regroup;
      found = true;
      break;
    }
    // Paper 5.2: if any sub-match fails, the entire match fails.
    if (!found) {
      return RejectMatch(RejectReason::kCuboidNotCovered, "subsumee cuboid " + std::to_string(ei) +
                              " matches no subsumer cuboid");
    }
  }

  if (all_no_regroup) {
    // Single SELECT compensation: union of per-cuboid slices; derivations
    // must agree across cuboids so one output list serves every slice.
    std::vector<ExprPtr> derived(e.NumOutputs());
    std::vector<ExprPtr> pulled;
    bool consistent = true;
    for (const SubMatch& sub : subs) {
      for (int i = 0; i < e.NumOutputs(); ++i) {
        const ExprPtr& d = sub.info.derived_outputs[i];
        if (d == nullptr) continue;
        if (derived[i] == nullptr) {
          derived[i] = d;
        } else if (!expr::Equal(derived[i], d)) {
          consistent = false;
        }
      }
      if (pulled.empty()) {
        pulled = sub.info.pulled_preds;
      } else if (pulled.size() == sub.info.pulled_preds.size()) {
        for (size_t k = 0; k < pulled.size(); ++k) {
          if (!expr::Equal(pulled[k], sub.info.pulled_preds[k])) {
            consistent = false;
          }
        }
      } else {
        consistent = false;
      }
      if (!sub.info.rejoin_boxes.empty()) {
        // Rejoins under the no-regroup union are untested territory;
        // fall back to the GSᴱ path below.
        consistent = false;
      }
    }
    for (int i = 0; i < e.NumOutputs(); ++i) {
      consistent = consistent && derived[i] != nullptr;
    }
    if (consistent) {
      std::vector<ExprPtr> slice_disjuncts;
      for (const SubMatch& sub : subs) {
        SUMTAB_ASSIGN_OR_RETURN(
            std::vector<ExprPtr> slice,
            SlicingPredicates(*session, r, r.grouping_sets[sub.r_set_idx]));
        slice_disjuncts.push_back(expr::MakeConjunction(std::move(slice)));
      }
      ExprPtr slice = slice_disjuncts[0];
      for (size_t k = 1; k < slice_disjuncts.size(); ++k) {
        slice = expr::Binary(expr::BinaryOp::kOr, slice, slice_disjuncts[k]);
      }
      std::vector<ExprPtr> preds;
      preds.push_back(slice);
      for (const ExprPtr& p : pulled) preds.push_back(p);
      std::vector<OutputColumn> outs;
      for (int i = 0; i < e.NumOutputs(); ++i) {
        outs.push_back(OutputColumn{e.outputs[i].name, derived[i]});
      }
      SUMTAB_ASSIGN_OR_RETURN(
          BoxId comp_root,
          AssembleCompSelect(session, session->SubsumerRef(r.id),
                             std::move(preds), std::move(outs)));
      MatchResult result;
      result.comp_root = comp_root;
      return result;
    }
  }

  // Fallback: treat the subsumee as a simple GROUP-BY over GSᴱ (its union
  // grouping set), slice the smallest covering subsumer cuboid, and regroup
  // with the subsumee's own gs function.
  Status last = RejectMatch(RejectReason::kCuboidUnionNotCovered, "no subsumer cuboid covers the union set");
  for (int si : r_order) {
    const std::vector<int>& r_set = r.grouping_sets[si];
    StatusOr<GBMatchInfo> info = AnalyzeGroupByMatchForced(
        session, e, nullptr, r, &r_set, cc, /*force_regroup=*/true);
    if (!info.ok()) {
      last = info.status();
      continue;
    }
    SUMTAB_ASSIGN_OR_RETURN(std::vector<ExprPtr> slice,
                            SlicingPredicates(*session, r, r_set));
    SUMTAB_ASSIGN_OR_RETURN(
        BoxId comp_root,
        BuildGroupByComp(session, e, r, *info, std::move(slice)));
    MatchResult result;
    result.comp_root = comp_root;
    return result;
  }
  return last;
}

}  // namespace

StatusOr<MatchResult> MatchCube(MatchSession* session, const Box& e,
                                const Box& r, const GBChildComp& cc) {
  bool e_multi = e.grouping_sets.size() > 1;
  bool r_multi = r.grouping_sets.size() > 1;
  if (!r_multi) {
    // Cube query vs simple AST: the AST is a single cuboid. When it covers
    // the union grouping set GS^E, the 5.2 fallback applies with no slicing
    // needed — regroup the AST's groups by the subsumee's own gs function.
    if (!e_multi) {
      return Status::Internal("MatchCube on two simple GROUP-BY boxes");
    }
    SUMTAB_ASSIGN_OR_RETURN(
        GBMatchInfo info,
        AnalyzeGroupByMatchForced(session, e, nullptr, r, nullptr, cc,
                                  /*force_regroup=*/true));
    SUMTAB_ASSIGN_OR_RETURN(qgm::BoxId comp_root,
                            BuildGroupByComp(session, e, r, info, {}));
    MatchResult result;
    result.comp_root = comp_root;
    return result;
  }
  if (!e_multi) return MatchSimpleVsCube(session, e, r, cc);
  return MatchCubeVsCube(session, e, r, cc);
}

}  // namespace matching
}  // namespace sumtab
