#include "qgm/qgm_to_sql.h"

#include <functional>

#include "common/str_util.h"
#include "expr/expr_print.h"

namespace sumtab {
namespace qgm {

namespace {

/// Brackets a slot number in ToSlottedSql's marked text.
constexpr char kSlotMark = '\x01';

class SqlEmitter {
 public:
  SqlEmitter(const Graph& graph, bool mark_slots)
      : graph_(graph), mark_slots_(mark_slots) {}

  StatusOr<std::string> Emit(BoxId id) {
    const Box& box = *graph_.box(id);
    switch (box.kind) {
      case Box::Kind::kBase:
        return "select " + ColumnList(box) + " from " + box.table_name;
      case Box::Kind::kSelect:
        return EmitSelect(box);
      case Box::Kind::kGroupBy:
        return EmitGroupBy(box);
    }
    return Status::Internal("unknown box kind");
  }

  /// FROM-clause item for a child: bare table name for BASE, otherwise a
  /// parenthesized derived table.
  StatusOr<std::string> EmitFromItem(BoxId child, const std::string& alias) {
    const Box& box = *graph_.box(child);
    if (box.kind == Box::Kind::kBase) {
      return box.table_name + " " + alias;
    }
    SUMTAB_ASSIGN_OR_RETURN(std::string inner, Emit(child));
    return "(" + inner + ") " + alias;
  }

 private:
  static std::string ColumnList(const Box& base) {
    std::vector<std::string> cols;
    for (const auto& out : base.outputs) cols.push_back(out.name);
    return Join(cols, ", ");
  }

  /// Reference printer for expressions inside `box`: foreach quantifiers
  /// print as q<N>.<column name>; scalar quantifiers inline their subquery.
  expr::RefPrinter MakeRefs(const Box& box, Status* failure) {
    return [this, &box, failure](const expr::Expr& e) -> std::string {
      if (e.kind == expr::Expr::Kind::kLiteral && mark_slots_) {
        return kSlotMark + std::to_string(e.slot) + kSlotMark;
      }
      if (e.kind != expr::Expr::Kind::kColumnRef) return "";
      const Quantifier& q = box.quantifiers[e.quantifier];
      if (q.kind == Quantifier::Kind::kScalar) {
        StatusOr<std::string> sub = Emit(q.child);
        if (!sub.ok()) {
          *failure = sub.status();
          return "<error>";
        }
        return "(" + *sub + ")";
      }
      const Box* child = graph_.box(q.child);
      return "q" + std::to_string(e.quantifier) + "." +
             child->outputs[e.column].name;
    };
  }

  StatusOr<std::string> EmitSelect(const Box& box) {
    Status failure = Status::OK();
    expr::RefPrinter refs = MakeRefs(box, &failure);
    std::vector<std::string> items;
    for (const auto& out : box.outputs) {
      items.push_back(expr::ToString(out.expr, refs) + " as " + out.name);
    }
    std::vector<std::string> from;
    for (size_t i = 0; i < box.quantifiers.size(); ++i) {
      const Quantifier& q = box.quantifiers[i];
      if (q.kind == Quantifier::Kind::kScalar) continue;
      SUMTAB_ASSIGN_OR_RETURN(
          std::string item, EmitFromItem(q.child, "q" + std::to_string(i)));
      from.push_back(std::move(item));
    }
    std::string sql = std::string("select ") + (box.distinct ? "distinct " : "") +
                      Join(items, ", ") + " from " + Join(from, ", ");
    if (!box.predicates.empty()) {
      // Print as one conjunction so OR-predicates parenthesize correctly.
      sql += " where " +
             expr::ToString(expr::MakeConjunction(box.predicates), refs);
    }
    if (!failure.ok()) return failure;
    return sql;
  }

  StatusOr<std::string> EmitGroupBy(const Box& box) {
    Status failure = Status::OK();
    expr::RefPrinter refs = MakeRefs(box, &failure);
    std::vector<std::string> items;
    std::vector<std::string> text_by_output(box.NumOutputs());
    for (int i = 0; i < box.NumOutputs(); ++i) {
      const auto& out = box.outputs[i];
      text_by_output[i] = expr::ToString(out.expr, refs);
      items.push_back(text_by_output[i] + " as " + out.name);
    }
    SUMTAB_ASSIGN_OR_RETURN(std::string from,
                            EmitFromItem(box.quantifiers[0].child, "q0"));
    std::string sql = "select " + Join(items, ", ") + " from " + from;
    if (box.NumGroupingOutputs() > 0 || !box.IsSimpleGroupBy()) {
      sql += " group by ";
      if (box.IsSimpleGroupBy()) {
        std::vector<std::string> cols;
        for (int k : box.grouping_sets[0]) cols.push_back(text_by_output[k]);
        sql += Join(cols, ", ");
      } else {
        std::vector<std::string> sets;
        for (const auto& set : box.grouping_sets) {
          std::vector<std::string> cols;
          for (int k : set) cols.push_back(text_by_output[k]);
          sets.push_back("(" + Join(cols, ", ") + ")");
        }
        sql += "grouping sets (" + Join(sets, ", ") + ")";
      }
    }
    if (!failure.ok()) return failure;
    return sql;
  }

  const Graph& graph_;
  const bool mark_slots_;
};

StatusOr<std::string> EmitSql(const Graph& graph, bool mark_slots) {
  SqlEmitter emitter(graph, mark_slots);
  SUMTAB_ASSIGN_OR_RETURN(std::string sql, emitter.Emit(graph.root()));
  const Box* root = graph.box(graph.root());
  if (!graph.order_by().empty()) {
    std::vector<std::string> items;
    for (const OrderSpec& spec : graph.order_by()) {
      items.push_back(root->outputs[spec.output_index].name +
                      (spec.ascending ? "" : " desc"));
    }
    sql += " order by " + Join(items, ", ");
  }
  return sql;
}

}  // namespace

StatusOr<std::string> ToSql(const Graph& graph) {
  return EmitSql(graph, /*mark_slots=*/false);
}

std::string SlottedSql::Render(const std::vector<Value>& params) const {
  std::string sql = pieces[0];
  for (size_t i = 0; i < slots.size(); ++i) {
    sql += expr::LiteralToString(params[slots[i]]);
    sql += pieces[i + 1];
  }
  return sql;
}

StatusOr<SlottedSql> ToSlottedSql(const Graph& graph, size_t num_slots) {
  SUMTAB_ASSIGN_OR_RETURN(std::string marked,
                          EmitSql(graph, /*mark_slots=*/true));
  SlottedSql out;
  size_t start = 0;
  for (size_t open = marked.find(kSlotMark); open != std::string::npos;
       open = marked.find(kSlotMark, start)) {
    size_t close = marked.find(kSlotMark, open + 1);
    std::string number = marked.substr(
        open + 1, close == std::string::npos ? 0 : close - open - 1);
    if (number.empty() || number.size() > 9 ||
        number.find_first_not_of("0123456789") != std::string::npos ||
        std::stoul(number) >= num_slots) {
      return Status::Internal("a literal of the plan holds the slot marker");
    }
    out.pieces.push_back(marked.substr(start, open - start));
    out.slots.push_back(static_cast<int>(std::stoul(number)));
    start = close + 1;
  }
  out.pieces.push_back(marked.substr(start));
  return out;
}

}  // namespace qgm
}  // namespace sumtab
