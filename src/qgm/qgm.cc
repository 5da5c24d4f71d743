#include "qgm/qgm.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>

#include "common/str_util.h"
#include "expr/expr_rewrite.h"

namespace sumtab {
namespace qgm {

int Box::OutputIndex(const std::string& name) const {
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (outputs[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Box* Graph::AddBox(Box::Kind kind) {
  auto box = std::make_shared<Box>();
  box->id = static_cast<BoxId>(boxes_.size());
  box->kind = kind;
  boxes_.push_back(std::move(box));
  return boxes_.back().get();
}

std::vector<BoxId> Graph::Parents(BoxId id) const {
  std::vector<BoxId> parents;
  for (const auto& box : boxes_) {
    for (const Quantifier& q : box->quantifiers) {
      if (q.child == id) {
        parents.push_back(box->id);
        break;
      }
    }
  }
  return parents;
}

std::vector<BoxId> Graph::TopologicalOrder() const {
  std::vector<BoxId> order;
  std::vector<char> visited(boxes_.size(), 0);
  std::function<void(BoxId)> visit = [&](BoxId id) {
    if (id == kInvalidBox || visited[id]) return;
    visited[id] = 1;
    for (const Quantifier& q : boxes_[id]->quantifiers) visit(q.child);
    order.push_back(id);
  };
  visit(root_);
  return order;
}

int Graph::Rank(BoxId id) const {
  const Box* b = box(id);
  int rank = 0;
  for (const Quantifier& q : b->quantifiers) {
    rank = std::max(rank, 1 + Rank(q.child));
  }
  return rank;
}

BoxId Graph::CloneSubgraph(const Graph& src, BoxId src_root,
                            std::map<BoxId, BoxId>* mapping) {
  std::map<BoxId, BoxId> local;
  if (mapping == nullptr) mapping = &local;
  std::function<BoxId(BoxId)> clone = [&](BoxId id) -> BoxId {
    auto it = mapping->find(id);
    if (it != mapping->end()) return it->second;
    const Box* original = src.box(id);
    // Clone children first; AddBox may invalidate `original` if src == this,
    // so copy the box value up front.
    Box copy = *original;
    for (Quantifier& q : copy.quantifiers) {
      q.child = clone(q.child);
    }
    Box* fresh = AddBox(copy.kind);
    BoxId fresh_id = fresh->id;
    copy.id = fresh_id;
    *fresh = std::move(copy);
    (*mapping)[id] = fresh_id;
    return fresh_id;
  };
  return clone(src_root);
}

Graph Graph::CloneGraph(const Graph& src) {
  Graph out;
  out.root_ = out.CloneSubgraph(src, src.root_);
  out.order_by_ = src.order_by_;
  return out;
}

void Graph::Compact() {
  std::vector<BoxId> keep = TopologicalOrder();
  std::vector<int> remap(boxes_.size(), -1);
  std::vector<std::shared_ptr<Box>> fresh;
  fresh.reserve(keep.size());
  for (BoxId id : keep) {
    remap[id] = static_cast<int>(fresh.size());
    fresh.push_back(std::move(boxes_[id]));
  }
  for (auto& box : fresh) {
    box->id = remap[box->id];
    for (Quantifier& q : box->quantifiers) {
      q.child = remap[q.child];
    }
  }
  boxes_ = std::move(fresh);
  root_ = remap[root_];
}

Graph BindSlots(const Graph& graph, const std::vector<Value>& params) {
  auto has_slot = [](const expr::ExprPtr& e) {
    return expr::Any(e, [](const expr::Expr& node) { return node.slot >= 0; });
  };
  Graph bound;
  bound.root_ = graph.root_;
  bound.order_by_ = graph.order_by_;
  bound.boxes_.reserve(graph.boxes_.size());
  for (const std::shared_ptr<Box>& box : graph.boxes_) {
    bool slotted = std::any_of(box->predicates.begin(), box->predicates.end(),
                               has_slot);
    for (const OutputColumn& out : box->outputs) {
      slotted = slotted || has_slot(out.expr);
    }
    if (!slotted) {
      bound.boxes_.push_back(box);
      continue;
    }
    auto copy = std::make_shared<Box>(*box);
    for (OutputColumn& out : copy->outputs) {
      out.expr = expr::BindSlots(out.expr, params);
    }
    for (expr::ExprPtr& p : copy->predicates) p = expr::BindSlots(p, params);
    bound.boxes_.push_back(std::move(copy));
  }
  return bound;
}

bool NullableGroupingSource(const Graph& graph, const Box& gb, int output) {
  int col = -1;
  if (gb.quantifiers.size() != 1 ||
      !expr::IsSimpleColumnRef(gb.outputs[output].expr, 0, &col)) {
    return true;
  }
  const Box* child = graph.box(gb.quantifiers[0].child);
  return col < 0 || col >= static_cast<int>(child->column_info.size()) ||
         child->column_info[col].nullable;
}

namespace {

StatusOr<ColumnInfo> LiteralInfo(const Value& v) {
  ColumnInfo info;
  switch (v.kind()) {
    case Value::Kind::kNull:
      info.type = Type::kInt;
      info.nullable = true;
      break;
    case Value::Kind::kInt:
      info.type = Type::kInt;
      break;
    case Value::Kind::kDouble:
      info.type = Type::kDouble;
      break;
    case Value::Kind::kString:
      info.type = Type::kString;
      break;
    case Value::Kind::kDate:
      info.type = Type::kDate;
      break;
    case Value::Kind::kBool:
      info.type = Type::kBool;
      break;
  }
  return info;
}

}  // namespace

StatusOr<ColumnInfo> ExprInfo(const expr::ExprPtr& e, const Box& box,
                              const Graph& graph) {
  using expr::Expr;
  switch (e->kind) {
    case Expr::Kind::kLiteral:
      return LiteralInfo(e->literal);

    case Expr::Kind::kColumnRef: {
      if (e->quantifier < 0 ||
          e->quantifier >= static_cast<int>(box.quantifiers.size())) {
        return Status::Internal("column ref quantifier out of range");
      }
      const Quantifier& q = box.quantifiers[e->quantifier];
      const Box* child = graph.box(q.child);
      if (e->column < 0 ||
          e->column >= static_cast<int>(child->column_info.size())) {
        return Status::Internal("column ref column out of range");
      }
      ColumnInfo info = child->column_info[e->column];
      // A scalar subquery with zero rows yields NULL.
      if (q.kind == Quantifier::Kind::kScalar) info.nullable = true;
      return info;
    }

    case Expr::Kind::kRejoinRef:
    case Expr::Kind::kColumnName:
    case Expr::Kind::kScalarSubquery:
      return Status::Internal("unresolved leaf in typed expression");

    case Expr::Kind::kUnary: {
      SUMTAB_ASSIGN_OR_RETURN(ColumnInfo c, ExprInfo(e->children[0], box, graph));
      if (e->unary_op == expr::UnaryOp::kNot) c.type = Type::kBool;
      return c;
    }

    case Expr::Kind::kBinary: {
      SUMTAB_ASSIGN_OR_RETURN(ColumnInfo l, ExprInfo(e->children[0], box, graph));
      SUMTAB_ASSIGN_OR_RETURN(ColumnInfo r, ExprInfo(e->children[1], box, graph));
      ColumnInfo info;
      info.nullable = l.nullable || r.nullable;
      switch (e->binary_op) {
        case expr::BinaryOp::kAdd:
        case expr::BinaryOp::kSub:
        case expr::BinaryOp::kMul:
          info.type = (l.type == Type::kInt && r.type == Type::kInt)
                          ? Type::kInt
                          : Type::kDouble;
          break;
        case expr::BinaryOp::kDiv:
          info.type = Type::kDouble;
          info.nullable = true;  // division by zero yields NULL
          break;
        case expr::BinaryOp::kMod:
          info.type = Type::kInt;
          info.nullable = true;
          break;
        default:
          info.type = Type::kBool;
          break;
      }
      return info;
    }

    case Expr::Kind::kFunction: {
      // year/month/day are the built-ins.
      SUMTAB_ASSIGN_OR_RETURN(ColumnInfo c, ExprInfo(e->children[0], box, graph));
      c.type = Type::kInt;
      return c;
    }

    case Expr::Kind::kAggregate: {
      ColumnInfo info;
      switch (e->agg) {
        case expr::AggFunc::kCount:
          info.type = Type::kInt;
          info.nullable = false;
          return info;
        case expr::AggFunc::kAvg: {
          SUMTAB_ASSIGN_OR_RETURN(ColumnInfo c,
                                  ExprInfo(e->children[0], box, graph));
          info.type = Type::kDouble;
          info.nullable = c.nullable;
          return info;
        }
        case expr::AggFunc::kSum:
        case expr::AggFunc::kMin:
        case expr::AggFunc::kMax: {
          SUMTAB_ASSIGN_OR_RETURN(ColumnInfo c,
                                  ExprInfo(e->children[0], box, graph));
          return c;
        }
      }
      return Status::Internal("unhandled aggregate");
    }

    case Expr::Kind::kIsNull: {
      ColumnInfo info;
      info.type = Type::kBool;
      return info;
    }
  }
  return Status::Internal("unhandled expression kind");
}

Status ComputeBoxColumnInfo(Graph* graph, Box* box) {
  if (box->kind == Box::Kind::kBase) {
    return Status::Internal("ComputeBoxColumnInfo on a BASE box");
  }
  box->column_info.clear();
  for (size_t i = 0; i < box->outputs.size(); ++i) {
    SUMTAB_ASSIGN_OR_RETURN(ColumnInfo info,
                            ExprInfo(box->outputs[i].expr, *box, *graph));
    if (box->IsGroupBy() && box->IsGroupingOutput(static_cast<int>(i)) &&
        box->grouping_sets.size() >= 1) {
      // A grouping column is NULL in every cuboid that groups it out.
      bool in_every_set = true;
      for (const auto& set : box->grouping_sets) {
        bool found = false;
        for (int k : set) found = found || k == static_cast<int>(i);
        in_every_set = in_every_set && found;
      }
      if (!in_every_set) info.nullable = true;
    }
    box->column_info.push_back(info);
  }
  return Status::OK();
}

Status MergeSelectChains(Graph* graph) {
  // Count consumers: merging a shared child would duplicate computation.
  std::vector<int> consumers(graph->size(), 0);
  for (BoxId id : graph->TopologicalOrder()) {
    for (const Quantifier& q : graph->box(id)->quantifiers) {
      ++consumers[q.child];
    }
  }

  bool changed = true;
  while (changed) {
    changed = false;
    for (BoxId id : graph->TopologicalOrder()) {
      Box* parent = graph->box(id);
      if (parent->kind != Box::Kind::kSelect) continue;
      for (size_t qi = 0; qi < parent->quantifiers.size(); ++qi) {
        const Quantifier& quant = parent->quantifiers[qi];
        if (quant.kind != Quantifier::Kind::kForeach) continue;
        Box* child = graph->box(quant.child);
        if (child->kind != Box::Kind::kSelect || child->distinct ||
            consumers[child->id] != 1) {
          continue;
        }
        // Splice child's quantifiers in place of quantifier qi.
        const int insert_at = static_cast<int>(qi);
        const int child_n = static_cast<int>(child->quantifiers.size());
        auto remap_parent = [insert_at, child_n](int q) {
          return q < insert_at ? q : q + child_n - 1;
        };
        // Child expressions move into the parent with shifted quantifiers.
        auto shift_child_expr = [insert_at](const expr::ExprPtr& e) {
          return expr::MapColumnRefs(e, [insert_at](int q, int c) {
            return expr::ColRef(q + insert_at, c);
          });
        };
        // Rewrite parent expressions: refs to the merged child inline its
        // output expressions; other refs shift.
        auto rewrite_parent_expr = [&](const expr::ExprPtr& e) {
          return expr::MapColumnRefs(e, [&](int q, int c) -> expr::ExprPtr {
            if (q == insert_at) {
              return shift_child_expr(child->outputs[c].expr);
            }
            return expr::ColRef(remap_parent(q), c);
          });
        };
        for (auto& out : parent->outputs) {
          out.expr = rewrite_parent_expr(out.expr);
        }
        std::vector<expr::ExprPtr> preds;
        for (const auto& p : parent->predicates) {
          preds.push_back(rewrite_parent_expr(p));
        }
        for (const auto& p : child->predicates) {
          preds.push_back(shift_child_expr(p));
        }
        parent->predicates = std::move(preds);
        std::vector<Quantifier> quants;
        for (size_t j = 0; j < parent->quantifiers.size(); ++j) {
          if (static_cast<int>(j) == insert_at) {
            for (const Quantifier& cq : child->quantifiers) {
              quants.push_back(cq);
            }
          } else {
            quants.push_back(parent->quantifiers[j]);
          }
        }
        parent->quantifiers = std::move(quants);
        consumers[child->id] = 0;  // orphaned
        changed = true;
        break;  // quantifier indexes changed; rescan this box
      }
    }
  }
  // Orphaned children must disappear: Parents() feeds the navigator, which
  // must never pair a query box with an unreachable (uninferred) AST box.
  graph->Compact();
  return Status::OK();
}

Status InferColumnInfo(Graph* graph, const catalog::Catalog& catalog) {
  for (BoxId id : graph->TopologicalOrder()) {
    Box* box = graph->box(id);
    if (box->kind == Box::Kind::kBase) {
      const catalog::Table* table = catalog.FindTable(box->table_name);
      if (table == nullptr) {
        // Subsumer-ref placeholders and advisor candidates carry preset
        // info that mirrors the defining query's output columns.
        if (box->column_info.size() == box->outputs.size() &&
            !box->outputs.empty()) {
          continue;
        }
        return Status::NotFound("table '" + box->table_name + "'");
      }
      box->column_info.clear();
      for (const catalog::Column& col : table->columns) {
        box->column_info.push_back(ColumnInfo{col.type, col.nullable});
      }
      continue;
    }
    SUMTAB_RETURN_NOT_OK(ComputeBoxColumnInfo(graph, box));
  }
  return Status::OK();
}

}  // namespace qgm
}  // namespace sumtab
