#include <algorithm>
#include "common/reject_reason.h"
#include <set>

#include "expr/expr_rewrite.h"
#include "matching/derive.h"
#include "matching/match_fn.h"
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

std::vector<int> PredQuantifiers(const ExprPtr& pred) {
  std::vector<int> qs;
  expr::CollectQuantifiers(pred, &qs);
  return qs;
}

bool ContainsQuantifier(const ExprPtr& e, int q) {
  return expr::Any(e, [q](const Expr& node) {
    return node.kind == Expr::Kind::kColumnRef && node.quantifier == q;
  });
}

}  // namespace

StatusOr<Assignment> AssignChildren(MatchSession* session, const Box& e,
                                    const Box& r) {
  Assignment a;
  a.slots.resize(e.quantifiers.size());
  a.matched_e_child.assign(r.quantifiers.size(), -1);
  std::vector<bool> e_assigned(e.quantifiers.size(), false);

  // Two passes: exact matches claim subsumer children first.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < e.quantifiers.size(); ++i) {
      if (e_assigned[i]) continue;
      for (size_t j = 0; j < r.quantifiers.size(); ++j) {
        if (a.matched_e_child[j] != -1) continue;
        if (e.quantifiers[i].kind != r.quantifiers[j].kind) continue;
        const MatchResult* m =
            session->Find(e.quantifiers[i].child, r.quantifiers[j].child);
        if (m == nullptr) continue;
        if (pass == 0 && !m->exact) continue;
        ChildSlot slot;
        slot.kind = ChildSlot::Kind::kMatched;
        slot.r_quantifier = static_cast<int>(j);
        slot.result = m;
        a.slots[i] = slot;
        a.matched_e_child[j] = static_cast<int>(i);
        e_assigned[i] = true;
        a.any_match = true;
        if (!m->exact) a.all_exact = false;
        break;
      }
    }
  }
  if (!a.any_match) {
    return RejectMatch(RejectReason::kNoChildMatch, "no subsumee child matches any subsumer child");
  }
  for (size_t i = 0; i < e.quantifiers.size(); ++i) {
    if (e_assigned[i]) continue;
    ChildSlot slot;
    slot.kind = ChildSlot::Kind::kRejoin;
    slot.rejoin_box = session->CloneRejoin(e.quantifiers[i].child,
                                           e.quantifiers[i].kind);
    a.slots[i] = slot;
    ++a.num_rejoins;
  }
  for (size_t i = 0; i < a.slots.size(); ++i) {
    const ChildSlot& slot = a.slots[i];
    if (slot.kind != ChildSlot::Kind::kMatched || slot.result->exact) continue;
    SUMTAB_ASSIGN_OR_RETURN(CompChain chain,
                            AnalyzeComp(*session, slot.result->comp_root));
    if (!chain.select_only()) {
      a.gb_comp_children.push_back(static_cast<int>(i));
    }
  }
  return a;
}

StatusOr<CompChain> AnalyzeComp(const MatchSession& session,
                                qgm::BoxId comp_root) {
  CompChain chain;
  BoxId cur = comp_root;
  while (true) {
    if (session.SubsumerRefTarget(cur) != qgm::kInvalidBox) {
      chain.subsumer_ref = cur;
      break;
    }
    const Box* box = session.comp().box(cur);
    if (box->kind == Box::Kind::kBase || box->quantifiers.empty()) {
      return Status::Internal("malformed compensation spine");
    }
    chain.spine.push_back(cur);
    if (box->IsGroupBy()) {
      chain.lowest_gb_pos = static_cast<int>(chain.spine.size()) - 1;
    }
    cur = box->quantifiers[0].child;
  }
  return chain;
}

bool ExtraJoinIsLossless(const MatchSession& session, const Box& r,
                         int extra_quant, const std::vector<bool>& is_extra) {
  const Quantifier& q = r.quantifiers[extra_quant];
  // A scalar subquery contributes exactly one row: multiplicity-neutral.
  if (q.kind == Quantifier::Kind::kScalar) return true;
  const Box* extra = session.ast().box(q.child);
  if (extra->kind != Box::Kind::kBase) return false;
  const catalog::Table* extra_table =
      session.catalog().FindTable(extra->table_name);
  if (extra_table == nullptr || extra_table->primary_key.size() != 1) {
    return false;
  }
  int pk_idx = extra_table->ColumnIndex(extra_table->primary_key[0]);

  // Every predicate involving the extra child must be an RI equality:
  //  - incoming: some child's non-nullable FK = this child's PK (the join
  //    pairs each row of the rest with exactly one extra-child row);
  //  - outgoing: this child's non-nullable FK = another *extra* child's PK
  //    (snowflake chains like trans -> acct -> cust; the other child's own
  //    losslessness check covers the rest of the chain).
  // A filtering predicate on the extra child alone could eliminate partner
  // rows, so it disqualifies the join.
  bool found_incoming = false;
  for (const ExprPtr& pred : r.predicates) {
    std::vector<int> qs = PredQuantifiers(pred);
    bool touches = false;
    for (int pq : qs) touches = touches || pq == extra_quant;
    if (!touches) continue;
    if (qs.size() == 1) return false;  // filter on the extra child
    if (pred->kind != Expr::Kind::kBinary ||
        pred->binary_op != expr::BinaryOp::kEq) {
      return false;
    }
    const ExprPtr& l = pred->children[0];
    const ExprPtr& rr = pred->children[1];
    if (l->kind != Expr::Kind::kColumnRef ||
        rr->kind != Expr::Kind::kColumnRef) {
      return false;
    }
    const Expr* extra_side;
    const Expr* other_side;
    if (l->quantifier == extra_quant && rr->quantifier != extra_quant) {
      extra_side = l.get();
      other_side = rr.get();
    } else if (rr->quantifier == extra_quant &&
               l->quantifier != extra_quant) {
      extra_side = rr.get();
      other_side = l.get();
    } else {
      return false;
    }
    const Box* other_box =
        session.ast().box(r.quantifiers[other_side->quantifier].child);
    if (other_box->kind != Box::Kind::kBase) return false;
    const catalog::Table* other_table =
        session.catalog().FindTable(other_box->table_name);
    if (other_table == nullptr) return false;

    if (extra_side->column == pk_idx) {
      // Incoming: other.fk = extra.pk.
      const catalog::Column& fk_col = other_table->columns[other_side->column];
      const catalog::ForeignKey* fk = session.catalog().FindForeignKey(
          other_table->name, fk_col.name, extra_table->name);
      if (fk == nullptr || fk->parent_column != extra_table->primary_key[0] ||
          fk_col.nullable) {
        return false;
      }
      found_incoming = true;
      continue;
    }
    // Outgoing: extra.fk = other.pk, with `other` another extra child.
    if (other_side->quantifier >= static_cast<int>(is_extra.size()) ||
        !is_extra[other_side->quantifier]) {
      return false;
    }
    if (other_table->primary_key.size() != 1 ||
        other_side->column != other_table->ColumnIndex(
                                  other_table->primary_key[0])) {
      return false;
    }
    const catalog::Column& fk_col = extra_table->columns[extra_side->column];
    const catalog::ForeignKey* fk = session.catalog().FindForeignKey(
        extra_table->name, fk_col.name, other_table->name);
    if (fk == nullptr || fk->parent_column != other_table->primary_key[0] ||
        fk_col.nullable) {
      return false;
    }
  }
  return found_incoming;
}

StatusOr<qgm::BoxId> AssembleCompSelect(MatchSession* session, qgm::BoxId below,
                                        std::vector<ExprPtr> predicates,
                                        std::vector<OutputColumn> outputs) {
  Box* box = session->comp().AddBox(Box::Kind::kSelect);
  box->quantifiers.push_back(Quantifier{below, Quantifier::Kind::kForeach});
  std::map<BoxId, int> rejoin_quant;
  auto map_rejoins = [session, box, &rejoin_quant](const ExprPtr& e) {
    return expr::MapRejoinRefs(e, [&](int rbox, int col) -> ExprPtr {
      auto it = rejoin_quant.find(rbox);
      int qi;
      if (it == rejoin_quant.end()) {
        qi = static_cast<int>(box->quantifiers.size());
        box->quantifiers.push_back(
            Quantifier{rbox, session->RejoinKind(rbox)});
        rejoin_quant[rbox] = qi;
      } else {
        qi = it->second;
      }
      return expr::ColRef(qi, col);
    });
  };
  for (ExprPtr& p : predicates) box->predicates.push_back(map_rejoins(p));
  for (OutputColumn& out : outputs) {
    box->outputs.push_back(OutputColumn{out.name, map_rejoins(out.expr)});
  }
  SUMTAB_RETURN_NOT_OK(qgm::ComputeBoxColumnInfo(&session->comp(), box));
  return box->id;
}

namespace {

/// Forces the given rejoin subtrees onto the comp box even when no expression
/// references them: an unreferenced rejoin still changes row multiplicity.
Status ForceAttachRejoins(MatchSession* session, qgm::BoxId comp_box,
                          const std::vector<BoxId>& rejoin_boxes) {
  Box* box = session->comp().box(comp_box);
  for (BoxId rbox : rejoin_boxes) {
    bool present = false;
    for (const Quantifier& q : box->quantifiers) {
      present = present || q.child == rbox;
    }
    if (!present) {
      box->quantifiers.push_back(Quantifier{rbox, session->RejoinKind(rbox)});
    }
  }
  return Status::OK();
}

/// Pattern 4.2.4 compensation: rebase the grouping child's compensation chain
/// onto the subsumer and stack the subsumee's own select on top. See the
/// header comment of MatchSelectSelect for the shape.
StatusOr<MatchResult> BuildGroupingComp(
    MatchSession* session, const Box& e, const Box& r,
    const Assignment& assignment, int gb_child,
    const ColumnEquivalence& equiv_derive,
    const std::vector<ExprPtr>& unmatched_e_preds) {
  qgm::Graph& comp = session->comp();
  const ChildSlot& gb_slot = assignment.slots[gb_child];
  SUMTAB_ASSIGN_OR_RETURN(CompChain chain,
                          AnalyzeComp(*session, gb_slot.result->comp_root));
  const int rq = gb_slot.r_quantifier;

  Deriver deriver(&r, &equiv_derive);

  // 1. Routed values: references to other matched (scalar) children in the
  //    subsumee's predicates/outputs must be computed below the chain and
  //    carried up through the copied GROUP-BY as extra grouping columns
  //    (the paper's `group by flid, totcnt` in NewQ10).
  struct Routed {
    int e_quant;
    int column;
    ExprPtr derived;  // over subsumer outputs (ColRef{0,k})
  };
  std::vector<Routed> routed;
  auto note_routed = [&](const ExprPtr& root) -> Status {
    Status failure = Status::OK();
    expr::Visit(root, [&](const Expr& node) {
      if (!failure.ok()) return;
      if (node.kind != Expr::Kind::kColumnRef) return;
      int q = node.quantifier;
      if (q == gb_child) return;
      const ChildSlot& slot = assignment.slots[q];
      if (slot.kind != ChildSlot::Kind::kMatched) return;  // rejoins: at top
      for (const Routed& existing : routed) {
        if (existing.e_quant == q && existing.column == node.column) return;
      }
      // Translate through the (exact) child match, then derive from R.
      const MatchResult& m = *slot.result;
      if (!m.exact) {
        failure = RejectMatch(RejectReason::kSecondaryChildNotExact, 
            "4.2.4: secondary child matches must be exact");
        return;
      }
      StatusOr<ExprPtr> d = deriver.Derive(
          expr::ColRef(slot.r_quantifier, m.colmap[node.column]));
      if (!d.ok()) {
        failure = d.status();
        return;
      }
      routed.push_back(Routed{q, node.column, *d});
    });
    return failure;
  };
  for (const ExprPtr& p : unmatched_e_preds) SUMTAB_RETURN_NOT_OK(note_routed(p));
  for (const OutputColumn& out : e.outputs) {
    SUMTAB_RETURN_NOT_OK(note_routed(out.expr));
  }

  // 2. Adapter select A over subsumer-ref(R): reproduces, positionally, the
  //    subsumer-child QCLs the chain's bottom box consumes (pullup
  //    condition: each must be derivable from R's outputs), plus the routed
  //    values appended at the end.
  const Box* bottom = comp.box(chain.spine.back());
  const Box* r_child = session->ast().box(r.quantifiers[rq].child);
  std::vector<bool> needed(r_child->NumOutputs(), false);
  auto mark_needed = [&needed](const ExprPtr& root) {
    expr::Visit(root, [&needed](const Expr& node) {
      if (node.kind == Expr::Kind::kColumnRef && node.quantifier == 0 &&
          node.column < static_cast<int>(needed.size())) {
        needed[node.column] = true;
      }
    });
  };
  for (const ExprPtr& p : bottom->predicates) mark_needed(p);
  for (const OutputColumn& out : bottom->outputs) mark_needed(out.expr);

  std::vector<OutputColumn> a_outputs;
  for (int c = 0; c < r_child->NumOutputs(); ++c) {
    if (!needed[c]) {
      // Placeholder keeps positions stable; never referenced.
      a_outputs.push_back(
          OutputColumn{"unused_" + std::to_string(c), expr::Lit(Value::Null())});
      continue;
    }
    SUMTAB_ASSIGN_OR_RETURN(ExprPtr d, deriver.Derive(expr::ColRef(rq, c)));
    a_outputs.push_back(OutputColumn{r_child->outputs[c].name, d});
  }
  const int routed_base = static_cast<int>(a_outputs.size());
  for (size_t k = 0; k < routed.size(); ++k) {
    a_outputs.push_back(
        OutputColumn{"routed_" + std::to_string(k), routed[k].derived});
  }
  SUMTAB_ASSIGN_OR_RETURN(
      BoxId adapter,
      AssembleCompSelect(session, session->SubsumerRef(r.id), {},
                         std::move(a_outputs)));

  // 3. Copy the chain bottom-to-top onto the adapter, threading the routed
  //    values through each copy (extra grouping columns on GROUP-BY boxes).
  BoxId below = adapter;
  int routed_pos = routed_base;  // position of routed[0] in `below`'s outputs
  for (int pos = static_cast<int>(chain.spine.size()) - 1; pos >= 0; --pos) {
    Box original = *comp.box(chain.spine[pos]);  // copy by value
    Box* fresh = comp.AddBox(original.kind);
    BoxId fresh_id = fresh->id;
    original.id = fresh_id;
    original.quantifiers[0].child = below;
    int next_routed_pos = static_cast<int>(original.outputs.size());
    for (size_t k = 0; k < routed.size(); ++k) {
      ExprPtr pass = expr::ColRef(0, routed_pos + static_cast<int>(k));
      original.outputs.push_back(
          OutputColumn{"routed_" + std::to_string(k), pass});
      if (original.kind == Box::Kind::kGroupBy) {
        int idx = static_cast<int>(original.outputs.size()) - 1;
        for (auto& set : original.grouping_sets) set.push_back(idx);
      }
    }
    *fresh = std::move(original);
    SUMTAB_RETURN_NOT_OK(qgm::ComputeBoxColumnInfo(&comp, fresh));
    below = fresh_id;
    routed_pos = next_routed_pos;
  }

  // 4. Top select: the subsumee's unmatched predicates and outputs, with the
  //    grouping child's columns taken positionally from the copied chain and
  //    other children taken from the routed values.
  auto rebase = [&](const ExprPtr& root) -> ExprPtr {
    return expr::MapColumnRefs(root, [&](int q, int c) -> ExprPtr {
      if (q == gb_child) return expr::ColRef(0, c);
      const ChildSlot& slot = assignment.slots[q];
      if (slot.kind == ChildSlot::Kind::kRejoin) {
        return expr::RejoinRef(slot.rejoin_box, c);
      }
      for (size_t k = 0; k < routed.size(); ++k) {
        if (routed[k].e_quant == q && routed[k].column == c) {
          return expr::ColRef(0, routed_pos + static_cast<int>(k));
        }
      }
      return nullptr;  // unreachable: note_routed covered all refs
    });
  };
  std::vector<ExprPtr> top_preds;
  for (const ExprPtr& p : unmatched_e_preds) top_preds.push_back(rebase(p));
  std::vector<OutputColumn> top_outputs;
  for (const OutputColumn& out : e.outputs) {
    top_outputs.push_back(OutputColumn{out.name, rebase(out.expr)});
  }
  SUMTAB_ASSIGN_OR_RETURN(
      BoxId top, AssembleCompSelect(session, below, std::move(top_preds),
                                    std::move(top_outputs)));
  std::vector<BoxId> forced;
  for (const ChildSlot& slot : assignment.slots) {
    if (slot.kind == ChildSlot::Kind::kRejoin) forced.push_back(slot.rejoin_box);
  }
  SUMTAB_RETURN_NOT_OK(ForceAttachRejoins(session, top, forced));
  SUMTAB_RETURN_NOT_OK(qgm::ComputeBoxColumnInfo(&comp, session->comp().box(top)));

  MatchResult result;
  result.comp_root = top;
  return result;
}

}  // namespace

StatusOr<MatchResult> MatchSelectSelect(MatchSession* session, const Box& e,
                                        const Box& r) {
  // DISTINCT blocks: only the both-or-neither, ultimately-exact case is
  // supported (SELECT DISTINCT vs GROUP-BY matching is future work, see the
  // paper's footnote 2).
  if (e.distinct != r.distinct) {
    return RejectMatch(RejectReason::kDistinctMismatch, "DISTINCT mismatch");
  }
  SUMTAB_ASSIGN_OR_RETURN(Assignment assignment, AssignChildren(session, e, r));

  // Extra subsumer children must join losslessly (condition 4.1.1-1).
  std::vector<bool> is_extra(r.quantifiers.size(), false);
  for (size_t j = 0; j < r.quantifiers.size(); ++j) {
    is_extra[j] = assignment.matched_e_child[j] == -1;
  }
  for (size_t j = 0; j < r.quantifiers.size(); ++j) {
    if (!is_extra[j]) continue;
    if (!ExtraJoinIsLossless(*session, r, static_cast<int>(j), is_extra)) {
      return RejectMatch(RejectReason::kExtraJoinNotLossless, "extra subsumer join is not provably lossless");
    }
  }

  // Pattern 4.2.4 structural constraints.
  int gb_child = -1;
  if (!assignment.gb_comp_children.empty()) {
    if (assignment.gb_comp_children.size() > 1) {
      return RejectMatch(RejectReason::kMultipleGroupingChildren, "more than one grouping child compensation");
    }
    gb_child = assignment.gb_comp_children[0];
    for (size_t i = 0; i < assignment.slots.size(); ++i) {
      if (static_cast<int>(i) == gb_child) continue;
      if (assignment.slots[i].kind == ChildSlot::Kind::kMatched &&
          e.quantifiers[i].kind != Quantifier::Kind::kScalar) {
        return RejectMatch(RejectReason::kSecondaryChildNotScalar, 
            "4.2.4 requires secondary matched children to be scalar "
            "subqueries (no common joins)");
      }
    }
    for (const ExprPtr& p : e.predicates) {
      if (PredQuantifiers(p).size() > 1 && ContainsQuantifier(p, gb_child)) {
        return RejectMatch(RejectReason::kJoinPredOnGroupingChild, "join predicate on the grouping child");
      }
    }
    int rj = assignment.slots[gb_child].r_quantifier;
    for (const ExprPtr& p : r.predicates) {
      if (PredQuantifiers(p).size() > 1 && ContainsQuantifier(p, rj)) {
        return RejectMatch(RejectReason::kSubsumerJoinPredOnGroupingChild, 
            "subsumer join predicate on the grouping child");
      }
    }
  }

  // Equivalence classes: equiv_r from subsumer predicates only (sound for
  // predicate matching); equiv_derive additionally assumes the subsumee-side
  // equalities, which hold once the compensation applies them.
  ColumnEquivalence equiv_r;
  equiv_r.AddPredicates(r.predicates);

  Translator translator(session, &e, &r, assignment.slots);

  // Translate subsumee predicates (Sec. 6).
  std::vector<ExprPtr> te;
  for (const ExprPtr& p : e.predicates) {
    SUMTAB_ASSIGN_OR_RETURN(ExprPtr t, translator.Translate(p));
    te.push_back(std::move(t));
  }

  // Expand child-compensation predicates. Select-only compensations are
  // rebuilt at this level, so their predicates need placement; a grouping
  // chain keeps its own predicates applied (idempotent), so its predicates
  // participate in subsumer-predicate matching only.
  std::vector<ExprPtr> cc;      // needs placement
  std::vector<ExprPtr> gb_cc;   // matching only
  for (size_t i = 0; i < assignment.slots.size(); ++i) {
    const ChildSlot& slot = assignment.slots[i];
    if (slot.kind != ChildSlot::Kind::kMatched || slot.result->exact) continue;
    SUMTAB_ASSIGN_OR_RETURN(CompChain chain,
                            AnalyzeComp(*session, slot.result->comp_root));
    std::vector<ExprPtr>* sink =
        static_cast<int>(i) == gb_child ? &gb_cc : &cc;
    for (BoxId spine_box : chain.spine) {
      for (const ExprPtr& p : session->comp().box(spine_box)->predicates) {
        SUMTAB_ASSIGN_OR_RETURN(ExprPtr t,
                                ExpandCompExpr(*session, spine_box, p, r));
        sink->push_back(std::move(t));
      }
    }
  }

  ColumnEquivalence equiv_derive;
  equiv_derive.AddPredicates(r.predicates);
  equiv_derive.AddPredicates(te);
  equiv_derive.AddPredicates(cc);

  // Condition 2 (+ 4.2.3-2): every subsumer predicate that is not an extra
  // join predicate must match (or subsume) a subsumee / child-comp predicate.
  std::vector<bool> te_matched(te.size(), false);
  std::vector<bool> cc_matched(cc.size(), false);
  for (const ExprPtr& rp : r.predicates) {
    // Predicates on *foreach* extra children were vetted as pure FK = PK
    // equalities by the losslessness check and are skipped here. Predicates
    // referencing an extra *scalar-subquery* child can filter rows, so they
    // must still match a subsumee predicate like any other.
    bool on_extra = false;
    for (int q : PredQuantifiers(rp)) {
      on_extra = on_extra ||
                 (is_extra[q] &&
                  r.quantifiers[q].kind == Quantifier::Kind::kForeach);
    }
    if (on_extra) continue;  // extra join predicate
    // Each comparison reads slot values in a scope of its own, so the
    // search names the comparison that satisfied `rp` when one read a
    // value; failed comparisons that read one still make the plan
    // literal-sensitive, under the first such decision.
    const char* failed_read = nullptr;
    const char* satisfying_read = nullptr;
    auto compare = [&](auto&& comparison) {
      expr::SlotReadScope reads;
      bool holds = comparison();
      if (holds) {
        satisfying_read = reads.first_read();
      } else if (failed_read == nullptr) {
        failed_read = reads.first_read();
      }
      return holds;
    };
    bool satisfied = false;
    for (size_t k = 0; k < te.size() && !satisfied; ++k) {
      if (compare([&] { return EquivExprEqual(te[k], rp, equiv_r); })) {
        te_matched[k] = true;
        satisfied = true;
      }
    }
    for (size_t k = 0; k < cc.size() && !satisfied; ++k) {
      if (compare([&] { return EquivExprEqual(cc[k], rp, equiv_r); })) {
        cc_matched[k] = true;
        satisfied = true;
      }
    }
    for (size_t k = 0; k < gb_cc.size() && !satisfied; ++k) {
      satisfied =
          compare([&] { return EquivExprEqual(gb_cc[k], rp, equiv_r); });
    }
    // Weaker subsumer predicates are fine: the stronger subsumee predicate
    // stays unmatched and is re-applied in the compensation.
    for (size_t k = 0; k < te.size() && !satisfied; ++k) {
      satisfied =
          compare([&] { return PredicateSubsumes(rp, te[k], equiv_r); });
    }
    for (size_t k = 0; k < cc.size() && !satisfied; ++k) {
      satisfied =
          compare([&] { return PredicateSubsumes(rp, cc[k], equiv_r); });
    }
    for (size_t k = 0; k < gb_cc.size() && !satisfied; ++k) {
      satisfied =
          compare([&] { return PredicateSubsumes(rp, gb_cc[k], equiv_r); });
    }
    if (satisfying_read != nullptr) {
      expr::NoteSlotRead(satisfying_read);
    } else if (failed_read != nullptr) {
      expr::NoteSlotRead(failed_read);
    }
    if (!satisfied) {
      return RejectMatch(RejectReason::kSubsumerPredUnmatched, "subsumer predicate has no subsumee match");
    }
  }

  if (gb_child >= 0) {
    // Pattern 4.2.4: positional construction over the copied chain.
    std::vector<ExprPtr> unmatched_e_preds;
    for (size_t k = 0; k < te.size(); ++k) {
      if (!te_matched[k]) unmatched_e_preds.push_back(e.predicates[k]);
    }
    if (e.distinct) return RejectMatch(RejectReason::kDistinctOverGroupingComp, "DISTINCT over grouping comp");
    return BuildGroupingComp(session, e, r, assignment, gb_child,
                             equiv_derive, unmatched_e_preds);
  }

  // Patterns 4.1.1 / 4.2.3: a single compensation SELECT box.
  Deriver deriver(&r, &equiv_derive);

  std::vector<ExprPtr> comp_preds;
  for (size_t k = 0; k < te.size(); ++k) {
    if (te_matched[k]) continue;
    StatusOr<ExprPtr> d = deriver.Derive(te[k]);  // condition 3
    if (!d.ok()) return d.status();
    comp_preds.push_back(*d);
  }
  for (size_t k = 0; k < cc.size(); ++k) {
    if (cc_matched[k]) continue;
    StatusOr<ExprPtr> d = deriver.Derive(cc[k]);  // condition 4.2.3-5
    if (!d.ok()) return d.status();
    comp_preds.push_back(*d);
  }

  std::vector<OutputColumn> outs;
  std::vector<int> colmap(e.outputs.size(), -1);
  bool all_direct = true;
  for (size_t i = 0; i < e.outputs.size(); ++i) {
    SUMTAB_ASSIGN_OR_RETURN(ExprPtr t, translator.Translate(e.outputs[i].expr));
    StatusOr<ExprPtr> d = deriver.Derive(t);  // condition 4
    if (!d.ok()) return d.status();
    outs.push_back(OutputColumn{e.outputs[i].name, *d});
    int col = -1;
    if (expr::IsSimpleColumnRef(outs.back().expr, 0, &col)) {
      colmap[i] = col;
    } else {
      all_direct = false;
    }
  }

  bool exact =
      comp_preds.empty() && assignment.num_rejoins == 0 && all_direct;
  if (exact) {
    MatchResult result;
    result.exact = true;
    result.colmap = std::move(colmap);
    return result;
  }
  if (e.distinct) {
    return RejectMatch(RejectReason::kNonExactDistinct, "non-exact DISTINCT match unsupported");
  }
  SUMTAB_ASSIGN_OR_RETURN(
      BoxId comp_root,
      AssembleCompSelect(session, session->SubsumerRef(r.id),
                         std::move(comp_preds), std::move(outs)));
  std::vector<BoxId> forced;
  for (const ChildSlot& slot : assignment.slots) {
    if (slot.kind == ChildSlot::Kind::kRejoin) {
      forced.push_back(slot.rejoin_box);
    } else if (!slot.result->exact) {
      // Rejoins inside a rebuilt child compensation must also survive, even
      // when no pulled-up expression references them (a cross join still
      // changes multiplicity).
      SUMTAB_ASSIGN_OR_RETURN(CompChain chain,
                              AnalyzeComp(*session, slot.result->comp_root));
      for (BoxId spine_box : chain.spine) {
        const Box* cbox = session->comp().box(spine_box);
        for (size_t qi = 1; qi < cbox->quantifiers.size(); ++qi) {
          forced.push_back(cbox->quantifiers[qi].child);
        }
      }
    }
  }
  SUMTAB_RETURN_NOT_OK(ForceAttachRejoins(session, comp_root, forced));
  MatchResult result;
  result.comp_root = comp_root;
  return result;
}

}  // namespace matching
}  // namespace sumtab
