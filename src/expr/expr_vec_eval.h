// Vectorized expression evaluation: each operator computes over a whole
// batch (or a morsel-sized row range of one) instead of a per-row tree walk.
// Semantics are bit-identical to the scalar Eval in expr_eval.h — the same
// three-valued logic, NULL propagation before type checks, division by
// zero -> NULL, sticky int/double arithmetic promotion — machine-checked
// against the reference evaluator in tests/reference (which evaluates
// through the scalar Eval) and row by row in vec_eval_test. The mixed-kind
// fallback literally calls the scalar EvalBinaryScalar core, so the two
// paths share one definition of every operator.
//
// Fast paths run tight typed loops (int64/double/bool payloads, no Value
// construction); columns whose tag is kVariant, string comparisons against
// heterogeneous operands, and rare operators fall back to a per-row loop
// that still walks the expression tree only once per batch.
#ifndef SUMTAB_EXPR_EXPR_VEC_EVAL_H_
#define SUMTAB_EXPR_EXPR_VEC_EVAL_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "engine/column_vector.h"
#include "expr/expr.h"

namespace sumtab {
namespace expr {

/// Evaluation context: the combined view of a box (child columns
/// concatenated, offsets[q] = first slot of quantifier q, exactly as the
/// scalar EvalContext lays out its combined row) plus the [begin, end)
/// range of view rows to evaluate — one morsel = one range. Under a
/// selection, view row i is column row view->Row(i).
struct VecEvalContext {
  const std::vector<int>* offsets = nullptr;
  const engine::BatchView* view = nullptr;
  int64_t begin = 0;
  int64_t end = 0;  // exclusive

  int64_t NumRows() const { return end - begin; }
};

/// Evaluates e over every row of the range; returns a column of
/// ctx.NumRows() values. Row i of the result equals the scalar
/// Eval(e, row begin+i) bit-for-bit; an error any scalar evaluation would
/// raise is raised here too (possibly attributed to a different row — the
/// whole statement fails either way). Under a selection, each column
/// reference gathers the range's rows once.
StatusOr<engine::ColumnVector> EvalVec(const ExprPtr& e,
                                       const VecEvalContext& ctx);

/// Filters the range by predicate e: appends to *out, in order, the column
/// row of every view row the predicate passes (BOOL true; NULL and false
/// both reject, as in the scalar EvalPredicate). Over a view with a
/// selection this refines it; over one without it makes one. A comparison
/// of a column with a literal, `IS [NOT] NULL` on a column and `=`/`<>`
/// against a string literal on a dictionary column read the column's
/// payload where it lies; every other predicate evaluates through EvalVec.
Status SelectVec(const ExprPtr& e, const VecEvalContext& ctx,
                 engine::Selection* out);

}  // namespace expr
}  // namespace sumtab

#endif  // SUMTAB_EXPR_EXPR_VEC_EVAL_H_
