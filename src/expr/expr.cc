#include "expr/expr.h"

#include <functional>

namespace sumtab {
namespace expr {

namespace {

std::shared_ptr<Expr> NewNode(Expr::Kind kind) {
  auto node = std::make_shared<Expr>();
  node->kind = kind;
  return node;
}

}  // namespace

ExprPtr Lit(Value v) {
  auto node = NewNode(Expr::Kind::kLiteral);
  node->literal = std::move(v);
  return node;
}

ExprPtr LitInt(int64_t v) { return Lit(Value::Int(v)); }
ExprPtr LitDouble(double v) { return Lit(Value::Double(v)); }
ExprPtr LitString(std::string v) { return Lit(Value::String(std::move(v))); }

ExprPtr SlotLit(Value v, int slot) {
  auto node = NewNode(Expr::Kind::kLiteral);
  node->literal = std::move(v);
  node->slot = slot;
  return node;
}

ExprPtr ColName(std::string qualifier, std::string name) {
  auto node = NewNode(Expr::Kind::kColumnName);
  node->qualifier = std::move(qualifier);
  node->name = std::move(name);
  return node;
}

ExprPtr ColRef(int quantifier, int column) {
  auto node = NewNode(Expr::Kind::kColumnRef);
  node->quantifier = quantifier;
  node->column = column;
  return node;
}

ExprPtr RejoinRef(int rejoin_idx, int column) {
  auto node = NewNode(Expr::Kind::kRejoinRef);
  node->quantifier = rejoin_idx;
  node->column = column;
  return node;
}

ExprPtr Unary(UnaryOp op, ExprPtr child) {
  auto node = NewNode(Expr::Kind::kUnary);
  node->unary_op = op;
  node->children.push_back(std::move(child));
  return node;
}

ExprPtr Binary(BinaryOp op, ExprPtr left, ExprPtr right) {
  auto node = NewNode(Expr::Kind::kBinary);
  node->binary_op = op;
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return node;
}

ExprPtr Function(std::string name, std::vector<ExprPtr> args) {
  auto node = NewNode(Expr::Kind::kFunction);
  node->name = std::move(name);
  node->children = std::move(args);
  return node;
}

ExprPtr Aggregate(AggFunc func, ExprPtr arg, bool distinct) {
  auto node = NewNode(Expr::Kind::kAggregate);
  node->agg = func;
  node->agg_distinct = distinct;
  if (arg != nullptr) node->children.push_back(std::move(arg));
  return node;
}

ExprPtr CountStar() {
  auto node = NewNode(Expr::Kind::kAggregate);
  node->agg = AggFunc::kCount;
  node->agg_star = true;
  return node;
}

ExprPtr IsNull(ExprPtr child, bool negated) {
  auto node = NewNode(Expr::Kind::kIsNull);
  node->is_null_negated = negated;
  node->children.push_back(std::move(child));
  return node;
}

ExprPtr ScalarSubquery(std::shared_ptr<sql::SelectStmt> stmt) {
  auto node = NewNode(Expr::Kind::kScalarSubquery);
  node->subquery = std::move(stmt);
  return node;
}

ExprPtr MakeConjunction(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return Lit(Value::Bool(true));
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = Binary(BinaryOp::kAnd, acc, conjuncts[i]);
  }
  return acc;
}

void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::kBinary && e->binary_op == BinaryOp::kAnd) {
    SplitConjuncts(e->children[0], out);
    SplitConjuncts(e->children[1], out);
    return;
  }
  out->push_back(e);
}

bool Equal(const ExprPtr& a, const ExprPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->kind != b->kind) return false;
  switch (a->kind) {
    case Expr::Kind::kLiteral:
      if (!LiteralsEqual(*a, *b, "literal equality")) return false;
      break;
    case Expr::Kind::kColumnName:
      if (a->qualifier != b->qualifier || a->name != b->name) return false;
      break;
    case Expr::Kind::kColumnRef:
    case Expr::Kind::kRejoinRef:
      if (a->quantifier != b->quantifier || a->column != b->column)
        return false;
      break;
    case Expr::Kind::kUnary:
      if (a->unary_op != b->unary_op) return false;
      break;
    case Expr::Kind::kBinary:
      if (a->binary_op != b->binary_op) return false;
      break;
    case Expr::Kind::kFunction:
      if (a->name != b->name) return false;
      break;
    case Expr::Kind::kAggregate:
      if (a->agg != b->agg || a->agg_distinct != b->agg_distinct ||
          a->agg_star != b->agg_star)
        return false;
      break;
    case Expr::Kind::kIsNull:
      if (a->is_null_negated != b->is_null_negated) return false;
      break;
    case Expr::Kind::kScalarSubquery:
      // Subqueries compare by object identity; the QGM builder removes them
      // before any matching-related comparison happens.
      if (a->subquery != b->subquery) return false;
      break;
  }
  if (a->children.size() != b->children.size()) return false;
  for (size_t i = 0; i < a->children.size(); ++i) {
    if (!Equal(a->children[i], b->children[i])) return false;
  }
  return true;
}

size_t HashExpr(const ExprPtr& e) {
  if (e == nullptr) return 0;
  size_t h = static_cast<size_t>(e->kind) * 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  switch (e->kind) {
    case Expr::Kind::kLiteral:
      mix(e->literal.Hash());
      break;
    case Expr::Kind::kColumnName:
      mix(std::hash<std::string>{}(e->qualifier));
      mix(std::hash<std::string>{}(e->name));
      break;
    case Expr::Kind::kColumnRef:
    case Expr::Kind::kRejoinRef:
      mix(static_cast<size_t>(e->quantifier));
      mix(static_cast<size_t>(e->column) * 1315423911u);
      break;
    case Expr::Kind::kUnary:
      mix(static_cast<size_t>(e->unary_op));
      break;
    case Expr::Kind::kBinary:
      mix(static_cast<size_t>(e->binary_op));
      break;
    case Expr::Kind::kFunction:
      mix(std::hash<std::string>{}(e->name));
      break;
    case Expr::Kind::kAggregate:
      mix(static_cast<size_t>(e->agg));
      mix(e->agg_distinct ? 17 : 3);
      mix(e->agg_star ? 23 : 5);
      break;
    case Expr::Kind::kIsNull:
      mix(e->is_null_negated ? 31 : 7);
      break;
    case Expr::Kind::kScalarSubquery:
      mix(std::hash<const void*>{}(e->subquery.get()));
      break;
  }
  for (const ExprPtr& child : e->children) mix(HashExpr(child));
  return h;
}

void Visit(const ExprPtr& e, const std::function<void(const Expr&)>& fn) {
  if (e == nullptr) return;
  fn(*e);
  for (const ExprPtr& child : e->children) Visit(child, fn);
}

ExprPtr RewriteLeaves(const ExprPtr& e,
                      const std::function<ExprPtr(const ExprPtr&)>& fn) {
  if (e == nullptr) return nullptr;
  switch (e->kind) {
    case Expr::Kind::kColumnRef:
    case Expr::Kind::kRejoinRef:
    case Expr::Kind::kColumnName:
    case Expr::Kind::kScalarSubquery: {
      ExprPtr replacement = fn(e);
      return replacement != nullptr ? replacement : e;
    }
    default:
      break;
  }
  bool changed = false;
  std::vector<ExprPtr> new_children;
  new_children.reserve(e->children.size());
  for (const ExprPtr& child : e->children) {
    ExprPtr rewritten = RewriteLeaves(child, fn);
    changed = changed || rewritten != child;
    new_children.push_back(std::move(rewritten));
  }
  if (!changed) return e;
  auto node = std::make_shared<Expr>(*e);
  node->children = std::move(new_children);
  return node;
}

bool Any(const ExprPtr& e, const std::function<bool(const Expr&)>& pred) {
  if (e == nullptr) return false;
  if (pred(*e)) return true;
  for (const ExprPtr& child : e->children) {
    if (Any(child, pred)) return true;
  }
  return false;
}

bool ContainsAggregate(const ExprPtr& e) {
  return Any(e, [](const Expr& node) {
    return node.kind == Expr::Kind::kAggregate;
  });
}

void CollectQuantifiers(const ExprPtr& e, std::vector<int>* out) {
  Visit(e, [out](const Expr& node) {
    if (node.kind == Expr::Kind::kColumnRef) {
      for (int q : *out) {
        if (q == node.quantifier) return;
      }
      out->push_back(node.quantifier);
    }
  });
}

namespace {

thread_local SlotReadScope* current_slot_scope = nullptr;

}  // namespace

SlotReadScope::SlotReadScope() : outer_(current_slot_scope) {
  current_slot_scope = this;
}

SlotReadScope::~SlotReadScope() { current_slot_scope = outer_; }

void NoteSlotRead(const char* decision) {
  SlotReadScope* scope = current_slot_scope;
  if (scope != nullptr && scope->first_read_ == nullptr) {
    scope->first_read_ = decision;
  }
}

bool LiteralsEqual(const Expr& a, const Expr& b, const char* decision) {
  if (a.slot >= 0 && a.slot == b.slot) return true;
  if (a.slot >= 0 && b.slot >= 0 && a.literal.kind() == b.literal.kind()) {
    return false;
  }
  if (a.slot >= 0 || b.slot >= 0) NoteSlotRead(decision);
  return a.literal == b.literal;
}

ExprPtr BindSlots(const ExprPtr& e, const std::vector<Value>& params) {
  if (e == nullptr) return nullptr;
  if (e->kind == Expr::Kind::kLiteral) {
    return e->slot >= 0 ? SlotLit(params[e->slot], e->slot) : e;
  }
  bool changed = false;
  std::vector<ExprPtr> children;
  children.reserve(e->children.size());
  for (const ExprPtr& child : e->children) {
    children.push_back(BindSlots(child, params));
    changed = changed || children.back() != child;
  }
  if (!changed) return e;
  auto node = std::make_shared<Expr>(*e);
  node->children = std::move(children);
  return node;
}

bool IsCommutative(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kMul:
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      return true;
    default:
      return false;
  }
}

BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;
  }
}

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAvg:
      return "avg";
  }
  return "?";
}

}  // namespace expr
}  // namespace sumtab
