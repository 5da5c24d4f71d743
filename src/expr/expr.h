// Expression trees. One representation serves two phases:
//  - parser output: column references are unresolved names (kColumnName),
//    scalar subqueries still hold their SQL AST (kScalarSubquery);
//  - QGM context: column references are resolved QNC references (kColumnRef:
//    quantifier index + column index within that quantifier's child box), and
//    scalar subqueries have been converted into quantifiers.
// During matching a third leaf appears: kRejoinRef, a reference to a rejoin
// child's output column (paper Sec. 4.1.1), kept distinct from subsumer QNCs.
//
// Nodes are immutable after construction and shared via shared_ptr, so
// rewrites build new spines over shared subtrees.
#ifndef SUMTAB_EXPR_EXPR_H_
#define SUMTAB_EXPR_EXPR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/value.h"

namespace sumtab {

namespace sql {
struct SelectStmt;  // defined in sql/sql_ast.h
}  // namespace sql

namespace expr {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

enum class UnaryOp { kNeg, kNot };

enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

/// An aggregate column of a batch: its position and function — what the
/// keyed group merge combines (engine::MergeGroups).
struct AggColumn {
  int col = 0;
  AggFunc func = AggFunc::kCount;
};

/// A single expression node.
class Expr {
 public:
  enum class Kind {
    kLiteral,      // literal
    kColumnName,   // qualifier.name (unresolved; parser output only)
    kColumnRef,    // QNC: (quantifier, column)
    kRejoinRef,    // matching-internal: rejoin child (rejoin_idx, column)
    kUnary,        // op(child)
    kBinary,       // op(left, right)
    kFunction,     // scalar function: name(args...); builtins: year/month/day
    kAggregate,    // agg func over 0 or 1 argument
    kIsNull,       // [NOT] IS NULL
    kScalarSubquery,  // parser output only
  };

  Kind kind;

  // kLiteral
  Value literal;
  /// The parameter slot a query literal was lifted into (SlotLit), or -1
  /// for a literal of the text itself (ASTs, ORDER BY, NULL, rewrites).
  int slot = -1;

  // kColumnName
  std::string qualifier;  // table alias; empty if unqualified
  std::string name;       // column name; also function name for kFunction

  // kColumnRef / kRejoinRef
  int quantifier = -1;  // quantifier index (or rejoin index)
  int column = -1;      // column index within that child's outputs

  // kUnary / kBinary
  UnaryOp unary_op = UnaryOp::kNeg;
  BinaryOp binary_op = BinaryOp::kAdd;

  // kAggregate
  AggFunc agg = AggFunc::kCount;
  bool agg_distinct = false;
  bool agg_star = false;  // COUNT(*)

  // kIsNull
  bool is_null_negated = false;  // IS NOT NULL

  // kScalarSubquery
  std::shared_ptr<sql::SelectStmt> subquery;

  std::vector<ExprPtr> children;
};

// ---- Factory helpers ----
ExprPtr Lit(Value v);
ExprPtr LitInt(int64_t v);
ExprPtr LitDouble(double v);
ExprPtr LitString(std::string v);
/// A literal lifted into parameter slot `slot`, holding `v` (DESIGN.md §8).
ExprPtr SlotLit(Value v, int slot);
ExprPtr ColName(std::string qualifier, std::string name);
ExprPtr ColRef(int quantifier, int column);
ExprPtr RejoinRef(int rejoin_idx, int column);
ExprPtr Unary(UnaryOp op, ExprPtr child);
ExprPtr Binary(BinaryOp op, ExprPtr left, ExprPtr right);
ExprPtr Function(std::string name, std::vector<ExprPtr> args);
ExprPtr Aggregate(AggFunc func, ExprPtr arg, bool distinct);
ExprPtr CountStar();
ExprPtr IsNull(ExprPtr child, bool negated);
ExprPtr ScalarSubquery(std::shared_ptr<sql::SelectStmt> stmt);

/// Conjunction of conjuncts; returns TRUE literal when empty, the sole
/// element when singleton.
ExprPtr MakeConjunction(std::vector<ExprPtr> conjuncts);

/// Splits a tree of ANDs into conjuncts.
void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out);

// ---- Structural identity ----

/// Deep structural equality (column refs compare by indexes, literals by
/// LiteralsEqual, commutativity NOT considered here — see
/// matching/predicate_match).
bool Equal(const ExprPtr& a, const ExprPtr& b);

size_t HashExpr(const ExprPtr& e);

// ---- Traversal / rewriting ----

/// Applies fn to every node (pre-order).
void Visit(const ExprPtr& e, const std::function<void(const Expr&)>& fn);

/// Rewrites leaves: fn is called on kColumnRef / kRejoinRef / kColumnName /
/// kScalarSubquery nodes and may return a replacement (or nullptr to keep).
/// Interior nodes are rebuilt only when a child changed.
ExprPtr RewriteLeaves(const ExprPtr& e,
                      const std::function<ExprPtr(const ExprPtr&)>& fn);

/// True if any node satisfies pred.
bool Any(const ExprPtr& e, const std::function<bool(const Expr&)>& pred);

/// True if the expression contains an aggregate node.
bool ContainsAggregate(const ExprPtr& e);

/// Collects distinct quantifier indexes referenced by kColumnRef nodes
/// (ignores kRejoinRef).
void CollectQuantifiers(const ExprPtr& e, std::vector<int>* out);

/// True if op is commutative (+ * = <> AND OR).
bool IsCommutative(BinaryOp op);

/// For comparisons, the operator with operands swapped (a < b ≡ b > a);
/// returns op itself for commutative/non-comparison ops.
BinaryOp FlipComparison(BinaryOp op);

// ---- Parameter slots (DESIGN.md §8) ----
//
// The plan cache keys a query by its template: sql::Templatize lifts every
// int, double, string and date literal into a slot, one slot per distinct
// literal, and the parser tags each such literal node with its slot while it
// holds the first sighting's value. A plan whose search never read a slot
// literal's value is right for every binding of the template; a plan whose
// search did is right only for the literals it saw.

/// Collects, for the planning run on the calling thread, the first decision
/// that read a slot literal's value. Scopes nest; the innermost collects.
class SlotReadScope {
 public:
  SlotReadScope();
  ~SlotReadScope();
  SlotReadScope(const SlotReadScope&) = delete;
  SlotReadScope& operator=(const SlotReadScope&) = delete;

  /// The first decision noted, or null when none read a value.
  const char* first_read() const { return first_read_; }

 private:
  friend void NoteSlotRead(const char* decision);
  SlotReadScope* outer_;
  const char* first_read_ = nullptr;
};

/// Notes that `decision` read a slot literal's value, in this thread's
/// innermost SlotReadScope (a no-op outside any).
void NoteSlotRead(const char* decision);

/// Equality of two literal nodes, as a planning decision. Two literals of
/// one slot are equal and two slots of one value kind are not, whatever the
/// binding, since a template gives equal literals one slot. Any other
/// comparison that involves a slot compares its value, and notes `decision`.
bool LiteralsEqual(const Expr& a, const Expr& b, const char* decision);

/// `e` with every slot literal holding params[slot]. Subtrees without a
/// slot literal are shared, not copied.
ExprPtr BindSlots(const ExprPtr& e, const std::vector<Value>& params);

const char* BinaryOpName(BinaryOp op);   // symbol, e.g. "+", "<="
const char* AggFuncName(AggFunc func);   // lowercase, e.g. "count"

}  // namespace expr
}  // namespace sumtab

#endif  // SUMTAB_EXPR_EXPR_H_
