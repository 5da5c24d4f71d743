#include "expr/expr_vec_eval.h"

#include <type_traits>

#include "common/date.h"
#include "common/str_util.h"
#include "expr/expr_eval.h"

namespace sumtab {
namespace expr {

namespace {

using engine::ColumnVector;
using Tag = ColumnVector::Tag;

/// An evaluated operand: a constant (literals, folded subtrees), a borrowed
/// view into the context batch (column refs — zero-copy), or an owned
/// column computed by a child operator.
struct VecVal {
  bool is_const = false;
  Value const_val;
  const ColumnVector* borrowed = nullptr;
  int64_t offset = 0;  // with borrowed: first row of the morsel range
  ColumnVector owned;

  const ColumnVector& vec() const { return borrowed ? *borrowed : owned; }
  int64_t off() const { return borrowed ? offset : 0; }
  Tag tag() const { return vec().tag(); }
  /// Materializes row i (generic fallback paths only).
  Value At(int64_t i) const {
    return is_const ? const_val : vec().ValueAt(off() + i);
  }
};

VecVal Const(Value v) {
  VecVal out;
  out.is_const = true;
  out.const_val = std::move(v);
  return out;
}

VecVal Owned(ColumnVector col) {
  VecVal out;
  out.owned = std::move(col);
  return out;
}

bool ConstNull(const VecVal& v) { return v.is_const && v.const_val.is_null(); }

/// Operand usable by the double fast path (scalar arithmetic would take its
/// numeric branch for every non-null row).
bool NumericOperand(const VecVal& v) {
  return v.is_const ? v.const_val.IsNumeric() : v.vec().IsNumericTag();
}

/// Operand that is Kind::kInt for every non-null row (the scalar BothInts
/// test) — dates/bools are numeric but NOT int here, exactly as in EvalArith.
bool IntOperand(const VecVal& v) {
  return v.is_const ? v.const_val.kind() == Value::Kind::kInt
                    : v.tag() == Tag::kInt;
}

bool StringOperand(const VecVal& v) {
  return v.is_const ? v.const_val.kind() == Value::Kind::kString
                    : v.tag() == Tag::kString;
}

/// Double view of a numeric operand: constant, direct payload pointer, or a
/// once-converted buffer (int/date/bool widening matches Value::ToDouble).
struct DSpan {
  bool is_const = false;
  double cval = 0;
  std::vector<double> buf;
  const double* data = nullptr;
  const uint8_t* nulls = nullptr;

  double Get(int64_t i) const { return is_const ? cval : data[i]; }
  bool Null(int64_t i) const { return is_const ? false : nulls[i] != 0; }
};

DSpan MakeDSpan(const VecVal& v, int64_t n) {
  DSpan span;
  if (v.is_const) {
    span.is_const = true;
    span.cval = v.const_val.ToDouble();
    return span;
  }
  const ColumnVector& col = v.vec();
  const int64_t off = v.off();
  span.nulls = col.nulls().data() + off;
  if (col.tag() == Tag::kDouble) {
    span.data = col.doubles().data() + off;
    return span;
  }
  span.buf.resize(n);
  switch (col.tag()) {
    case Tag::kInt:
      for (int64_t i = 0; i < n; ++i) {
        span.buf[i] = static_cast<double>(col.ints()[off + i]);
      }
      break;
    case Tag::kDate:
      for (int64_t i = 0; i < n; ++i) {
        span.buf[i] = static_cast<double>(col.dates()[off + i]);
      }
      break;
    case Tag::kBool:
      for (int64_t i = 0; i < n; ++i) {
        span.buf[i] = col.bools()[off + i] != 0 ? 1.0 : 0.0;
      }
      break;
    default:
      break;  // excluded by NumericOperand
  }
  span.data = span.buf.data();
  return span;
}

/// Int64 view of a Kind::kInt operand.
struct ISpan {
  bool is_const = false;
  int64_t cval = 0;
  const int64_t* data = nullptr;
  const uint8_t* nulls = nullptr;

  int64_t Get(int64_t i) const { return is_const ? cval : data[i]; }
  bool Null(int64_t i) const { return is_const ? false : nulls[i] != 0; }
};

ISpan MakeISpan(const VecVal& v) {
  ISpan span;
  if (v.is_const) {
    span.is_const = true;
    span.cval = v.const_val.AsInt();
    return span;
  }
  span.data = v.vec().ints().data() + v.off();
  span.nulls = v.vec().nulls().data() + v.off();
  return span;
}

/// Scalar unary semantics, shared by const folding and the generic loop
/// (mirrors the kUnary case of the scalar Eval).
StatusOr<Value> ScalarUnary(UnaryOp op, const Value& v) {
  if (v.is_null()) return Value::Null();
  if (op == UnaryOp::kNeg) {
    if (v.kind() == Value::Kind::kInt) return Value::Int(-v.AsInt());
    if (v.IsNumeric()) return Value::Double(-v.ToDouble());
    return Status::InvalidArgument("negation of non-numeric value");
  }
  if (v.kind() != Value::Kind::kBool) {
    return Status::InvalidArgument("NOT on non-boolean value");
  }
  return Value::Bool(!v.AsBool());
}

/// Scalar year/month/day semantics (mirrors the kFunction case of Eval).
StatusOr<Value> ScalarDatePart(const std::string& name, const Value& v) {
  if (v.is_null()) return Value::Null();
  if (v.kind() != Value::Kind::kDate) {
    return Status::InvalidArgument(name + "() requires a DATE");
  }
  int32_t d = v.AsDate();
  if (EqualsIgnoreCase(name, "year")) return Value::Int(DateYear(d));
  if (EqualsIgnoreCase(name, "month")) return Value::Int(DateMonth(d));
  return Value::Int(DateDay(d));
}

/// All-NULL result column (constant-NULL operand short-circuit: scalar
/// binary ops return NULL before any type checking).
ColumnVector AllNulls(int64_t n) {
  ColumnVector out;
  out.Reserve(n);
  for (int64_t i = 0; i < n; ++i) out.AppendNull();
  return out;
}

bool ApplyComparison(BinaryOp op, bool eq, bool lt) {
  switch (op) {
    case BinaryOp::kEq:
      return eq;
    case BinaryOp::kNe:
      return !eq;
    case BinaryOp::kLt:
      return lt;
    case BinaryOp::kLe:
      return lt || eq;
    case BinaryOp::kGt:
      return !lt && !eq;
    default:  // kGe
      return !lt;
  }
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

/// Typed in-place view of one numeric comparison operand: a column's
/// payload from `data` on, or a constant. Get widens to double exactly like
/// Value::ToDouble (stored bools are 0 or 1).
template <typename T>
struct NumSpan {
  const T* data;
  const uint8_t* nulls;

  double Get(int64_t i) const { return static_cast<double>(data[i]); }
  bool Null(int64_t i) const { return nulls[i] != 0; }
};

struct ConstSpan {
  double value;

  double Get(int64_t) const { return value; }
  bool Null(int64_t) const { return false; }
};

/// Calls fn with the typed payload of a numeric column, from row `off` on.
template <typename Fn>
void WithPayload(const ColumnVector& col, int64_t off, const Fn& fn) {
  const uint8_t* nulls = col.nulls().data() + off;
  switch (col.tag()) {
    case Tag::kInt:
      return fn(NumSpan<int64_t>{col.ints().data() + off, nulls});
    case Tag::kDouble:
      return fn(NumSpan<double>{col.doubles().data() + off, nulls});
    case Tag::kDate:
      return fn(NumSpan<int32_t>{col.dates().data() + off, nulls});
    default:  // kBool; NumericOperand excludes the rest
      return fn(NumSpan<uint8_t>{col.bools().data() + off, nulls});
  }
}

/// Calls fn with the typed span of a numeric operand.
template <typename Fn>
void WithNumSpan(const VecVal& v, const Fn& fn) {
  if (v.is_const) return fn(ConstSpan{v.const_val.ToDouble()});
  WithPayload(v.vec(), v.off(), fn);
}

/// Calls fn with `op` as a compile-time constant, so ApplyComparison folds
/// into the loop that fn runs.
template <typename Fn>
void WithComparison(BinaryOp op, const Fn& fn) {
  using std::integral_constant;
  switch (op) {
    case BinaryOp::kEq:
      return fn(integral_constant<BinaryOp, BinaryOp::kEq>{});
    case BinaryOp::kNe:
      return fn(integral_constant<BinaryOp, BinaryOp::kNe>{});
    case BinaryOp::kLt:
      return fn(integral_constant<BinaryOp, BinaryOp::kLt>{});
    case BinaryOp::kLe:
      return fn(integral_constant<BinaryOp, BinaryOp::kLe>{});
    case BinaryOp::kGt:
      return fn(integral_constant<BinaryOp, BinaryOp::kGt>{});
    default:  // kGe
      return fn(integral_constant<BinaryOp, BinaryOp::kGe>{});
  }
}

StatusOr<VecVal> EvalInternal(const ExprPtr& e, const VecEvalContext& ctx);

/// 3VL truth span: out[i] in {-1 (NULL), 0 (false), 1 (true)}.
Status TruthSpan(const VecVal& v, int64_t n, std::vector<int8_t>* out) {
  out->resize(n);
  if (v.is_const) {
    int8_t t;
    if (v.const_val.is_null()) {
      t = -1;
    } else if (v.const_val.kind() == Value::Kind::kBool) {
      t = v.const_val.AsBool() ? 1 : 0;
    } else {
      return Status::InvalidArgument("AND/OR on non-boolean value");
    }
    for (int64_t i = 0; i < n; ++i) (*out)[i] = t;
    return Status::OK();
  }
  const ColumnVector& col = v.vec();
  const int64_t off = v.off();
  if (col.tag() == Tag::kBool) {
    for (int64_t i = 0; i < n; ++i) {
      (*out)[i] = col.IsNull(off + i) ? -1 : (col.bools()[off + i] ? 1 : 0);
    }
    return Status::OK();
  }
  for (int64_t i = 0; i < n; ++i) {
    if (col.IsNull(off + i)) {
      (*out)[i] = -1;
      continue;
    }
    if (col.tag() == Tag::kVariant &&
        col.VariantAt(off + i).kind() == Value::Kind::kBool) {
      (*out)[i] = col.VariantAt(off + i).AsBool() ? 1 : 0;
      continue;
    }
    return Status::InvalidArgument("AND/OR on non-boolean value");
  }
  return Status::OK();
}

StatusOr<VecVal> EvalAndOr(const ExprPtr& e, const VecEvalContext& ctx) {
  SUMTAB_ASSIGN_OR_RETURN(VecVal l, EvalInternal(e->children[0], ctx));
  SUMTAB_ASSIGN_OR_RETURN(VecVal r, EvalInternal(e->children[1], ctx));
  const int64_t n = ctx.NumRows();
  std::vector<int8_t> a, b;
  SUMTAB_RETURN_NOT_OK(TruthSpan(l, n, &a));
  SUMTAB_RETURN_NOT_OK(TruthSpan(r, n, &b));
  ColumnVector out(Tag::kBool);
  out.Reserve(n);
  const bool is_and = e->binary_op == BinaryOp::kAnd;
  for (int64_t i = 0; i < n; ++i) {
    int8_t x = a[i];
    int8_t y = b[i];
    if (is_and) {
      if (x == 0 || y == 0) {
        out.AppendBool(false);
      } else if (x == -1 || y == -1) {
        out.AppendNull();
      } else {
        out.AppendBool(true);
      }
    } else {
      if (x == 1 || y == 1) {
        out.AppendBool(true);
      } else if (x == -1 || y == -1) {
        out.AppendNull();
      } else {
        out.AppendBool(false);
      }
    }
  }
  return Owned(std::move(out));
}

StatusOr<VecVal> EvalBinary(const ExprPtr& e, const VecEvalContext& ctx) {
  const BinaryOp op = e->binary_op;
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) return EvalAndOr(e, ctx);
  SUMTAB_ASSIGN_OR_RETURN(VecVal l, EvalInternal(e->children[0], ctx));
  SUMTAB_ASSIGN_OR_RETURN(VecVal r, EvalInternal(e->children[1], ctx));
  const int64_t n = ctx.NumRows();

  // Constant folding: one scalar evaluation serves the whole range.
  if (l.is_const && r.is_const) {
    SUMTAB_ASSIGN_OR_RETURN(Value v,
                            EvalBinaryScalar(op, l.const_val, r.const_val));
    return Const(std::move(v));
  }
  // A constant NULL operand makes every row NULL before any type check.
  if (ConstNull(l) || ConstNull(r)) return Owned(AllNulls(n));

  if (IsComparison(op)) {
    if (StringOperand(l) && StringOperand(r)) {
      // Dictionary fast path: constant = / <> against a dictionary-encoded
      // column is one Find() per batch and then a pure code-compare loop (a
      // constant absent from the dictionary, code -1, equals no stored
      // string). Ordering comparisons still decode: codes are assigned in
      // arrival order, not collation order.
      if ((op == BinaryOp::kEq || op == BinaryOp::kNe) &&
          (l.is_const != r.is_const)) {
        const VecVal& cv = l.is_const ? l : r;
        const VecVal& colv = l.is_const ? r : l;
        if (colv.vec().dict_encoded()) {
          const ColumnVector& col = colv.vec();
          const int64_t off = colv.off();
          const int32_t code = col.dict()->Find(cv.const_val.AsString());
          const int32_t* codes = col.codes().data();
          const bool want_eq = op == BinaryOp::kEq;
          ColumnVector out(Tag::kBool);
          out.Reserve(n);
          for (int64_t i = 0; i < n; ++i) {
            if (col.IsNull(off + i)) {
              out.AppendNull();
            } else {
              out.AppendBool((codes[off + i] == code) == want_eq);
            }
          }
          return Owned(std::move(out));
        }
      }
      ColumnVector out(Tag::kBool);
      out.Reserve(n);
      for (int64_t i = 0; i < n; ++i) {
        bool ln = l.is_const ? false : l.vec().IsNull(l.off() + i);
        bool rn = r.is_const ? false : r.vec().IsNull(r.off() + i);
        if (ln || rn) {
          out.AppendNull();
          continue;
        }
        const std::string& ls =
            l.is_const ? l.const_val.AsString() : l.vec().StringAt(l.off() + i);
        const std::string& rs =
            r.is_const ? r.const_val.AsString() : r.vec().StringAt(r.off() + i);
        int c = ls.compare(rs);
        out.AppendBool(ApplyComparison(op, c == 0, c < 0));
      }
      return Owned(std::move(out));
    }
    if (NumericOperand(l) && NumericOperand(r)) {
      // Typed payloads read in place, widened per row like Value::Compare.
      ColumnVector out(Tag::kBool);
      out.Reserve(n);
      WithNumSpan(l, [&](const auto& a) {
        WithNumSpan(r, [&](const auto& b) {
          for (int64_t i = 0; i < n; ++i) {
            if (a.Null(i) || b.Null(i)) {
              out.AppendNull();
              continue;
            }
            const double x = a.Get(i);
            const double y = b.Get(i);
            out.AppendBool(ApplyComparison(op, x == y, x < y));
          }
        });
      });
      return Owned(std::move(out));
    }
  } else if (op == BinaryOp::kAdd || op == BinaryOp::kSub ||
             op == BinaryOp::kMul) {
    if (IntOperand(l) && IntOperand(r)) {
      ISpan a = MakeISpan(l);
      ISpan b = MakeISpan(r);
      ColumnVector out(Tag::kInt);
      out.Reserve(n);
      for (int64_t i = 0; i < n; ++i) {
        if (a.Null(i) || b.Null(i)) {
          out.AppendNull();
          continue;
        }
        int64_t x = a.Get(i);
        int64_t y = b.Get(i);
        out.AppendInt(op == BinaryOp::kAdd   ? x + y
                      : op == BinaryOp::kSub ? x - y
                                             : x * y);
      }
      return Owned(std::move(out));
    }
    if (NumericOperand(l) && NumericOperand(r)) {
      DSpan a = MakeDSpan(l, n);
      DSpan b = MakeDSpan(r, n);
      ColumnVector out(Tag::kDouble);
      out.Reserve(n);
      for (int64_t i = 0; i < n; ++i) {
        if (a.Null(i) || b.Null(i)) {
          out.AppendNull();
          continue;
        }
        double x = a.Get(i);
        double y = b.Get(i);
        out.AppendDouble(op == BinaryOp::kAdd   ? x + y
                         : op == BinaryOp::kSub ? x - y
                                                : x * y);
      }
      return Owned(std::move(out));
    }
  } else if (op == BinaryOp::kDiv) {
    if (NumericOperand(l) && NumericOperand(r)) {
      DSpan a = MakeDSpan(l, n);
      DSpan b = MakeDSpan(r, n);
      ColumnVector out(Tag::kDouble);
      out.Reserve(n);
      for (int64_t i = 0; i < n; ++i) {
        if (a.Null(i) || b.Null(i)) {
          out.AppendNull();
          continue;
        }
        double d = b.Get(i);
        if (d == 0.0) {
          out.AppendNull();  // division by zero yields NULL, same as scalar
        } else {
          out.AppendDouble(a.Get(i) / d);
        }
      }
      return Owned(std::move(out));
    }
  } else if (op == BinaryOp::kMod) {
    if (IntOperand(l) && IntOperand(r)) {
      ISpan a = MakeISpan(l);
      ISpan b = MakeISpan(r);
      ColumnVector out(Tag::kInt);
      out.Reserve(n);
      for (int64_t i = 0; i < n; ++i) {
        if (a.Null(i) || b.Null(i)) {
          out.AppendNull();
          continue;
        }
        int64_t d = b.Get(i);
        if (d == 0) {
          out.AppendNull();
        } else {
          out.AppendInt(a.Get(i) % d);
        }
      }
      return Owned(std::move(out));
    }
  }

  // Mixed-kind fallback: per-row through the scalar binary core (identical
  // semantics by construction, including error cases).
  ColumnVector out;
  out.Reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    SUMTAB_ASSIGN_OR_RETURN(Value v, EvalBinaryScalar(op, l.At(i), r.At(i)));
    out.AppendValue(v);
  }
  return Owned(std::move(out));
}

StatusOr<VecVal> EvalInternal(const ExprPtr& e, const VecEvalContext& ctx) {
  const int64_t n = ctx.NumRows();
  switch (e->kind) {
    case Expr::Kind::kLiteral:
      return Const(e->literal);

    case Expr::Kind::kColumnRef: {
      const ColumnVector* col =
          ctx.view->columns[(*ctx.offsets)[e->quantifier] + e->column];
      if (ctx.view->sel != nullptr) {
        return Owned(
            ColumnVector::Gather(*col, ctx.view->sel->data() + ctx.begin, n));
      }
      VecVal out;
      out.borrowed = col;
      out.offset = ctx.begin;
      return out;
    }

    case Expr::Kind::kRejoinRef:
      return Status::Internal("rejoin reference escaped the matcher");

    case Expr::Kind::kColumnName:
      return Status::Internal("unresolved column '" + e->name +
                              "' reached the evaluator");

    case Expr::Kind::kScalarSubquery:
      return Status::Internal(
          "scalar subquery reached the evaluator (QGM builder should have "
          "converted it)");

    case Expr::Kind::kUnary: {
      SUMTAB_ASSIGN_OR_RETURN(VecVal child, EvalInternal(e->children[0], ctx));
      if (child.is_const) {
        SUMTAB_ASSIGN_OR_RETURN(Value v,
                                ScalarUnary(e->unary_op, child.const_val));
        return Const(std::move(v));
      }
      const ColumnVector& col = child.vec();
      const int64_t off = child.off();
      if (e->unary_op == UnaryOp::kNeg && col.tag() == Tag::kInt) {
        ColumnVector out(Tag::kInt);
        out.Reserve(n);
        for (int64_t i = 0; i < n; ++i) {
          if (col.IsNull(off + i)) {
            out.AppendNull();
          } else {
            out.AppendInt(-col.ints()[off + i]);
          }
        }
        return Owned(std::move(out));
      }
      if (e->unary_op == UnaryOp::kNeg && col.IsNumericTag()) {
        ColumnVector out(Tag::kDouble);
        out.Reserve(n);
        for (int64_t i = 0; i < n; ++i) {
          if (col.IsNull(off + i)) {
            out.AppendNull();
          } else {
            out.AppendDouble(-col.NumericAt(off + i));
          }
        }
        return Owned(std::move(out));
      }
      if (e->unary_op == UnaryOp::kNot && col.tag() == Tag::kBool) {
        ColumnVector out(Tag::kBool);
        out.Reserve(n);
        for (int64_t i = 0; i < n; ++i) {
          if (col.IsNull(off + i)) {
            out.AppendNull();
          } else {
            out.AppendBool(col.bools()[off + i] == 0);
          }
        }
        return Owned(std::move(out));
      }
      ColumnVector out;
      out.Reserve(n);
      for (int64_t i = 0; i < n; ++i) {
        SUMTAB_ASSIGN_OR_RETURN(Value v,
                                ScalarUnary(e->unary_op, child.At(i)));
        out.AppendValue(v);
      }
      return Owned(std::move(out));
    }

    case Expr::Kind::kBinary:
      return EvalBinary(e, ctx);

    case Expr::Kind::kFunction: {
      if (e->children.size() == 1 &&
          (EqualsIgnoreCase(e->name, "year") ||
           EqualsIgnoreCase(e->name, "month") ||
           EqualsIgnoreCase(e->name, "day"))) {
        SUMTAB_ASSIGN_OR_RETURN(VecVal child,
                                EvalInternal(e->children[0], ctx));
        if (child.is_const) {
          SUMTAB_ASSIGN_OR_RETURN(Value v,
                                  ScalarDatePart(e->name, child.const_val));
          return Const(std::move(v));
        }
        const ColumnVector& col = child.vec();
        const int64_t off = child.off();
        if (col.tag() == Tag::kDate) {
          const bool is_year = EqualsIgnoreCase(e->name, "year");
          const bool is_month = EqualsIgnoreCase(e->name, "month");
          ColumnVector out(Tag::kInt);
          out.Reserve(n);
          for (int64_t i = 0; i < n; ++i) {
            if (col.IsNull(off + i)) {
              out.AppendNull();
              continue;
            }
            int32_t d = col.dates()[off + i];
            out.AppendInt(is_year ? DateYear(d)
                                  : is_month ? DateMonth(d) : DateDay(d));
          }
          return Owned(std::move(out));
        }
        ColumnVector out;
        out.Reserve(n);
        for (int64_t i = 0; i < n; ++i) {
          SUMTAB_ASSIGN_OR_RETURN(Value v,
                                  ScalarDatePart(e->name, child.At(i)));
          out.AppendValue(v);
        }
        return Owned(std::move(out));
      }
      return Status::NotSupported("scalar function '" + e->name + "'");
    }

    case Expr::Kind::kAggregate:
      return Status::Internal("aggregate reached the vectorized evaluator");

    case Expr::Kind::kIsNull: {
      SUMTAB_ASSIGN_OR_RETURN(VecVal child, EvalInternal(e->children[0], ctx));
      if (child.is_const) {
        bool isnull = child.const_val.is_null();
        return Const(Value::Bool(e->is_null_negated ? !isnull : isnull));
      }
      const ColumnVector& col = child.vec();
      const int64_t off = child.off();
      ColumnVector out(Tag::kBool);
      out.Reserve(n);
      for (int64_t i = 0; i < n; ++i) {
        bool isnull = col.IsNull(off + i);
        out.AppendBool(e->is_null_negated ? !isnull : isnull);
      }
      return Owned(std::move(out));
    }
  }
  return Status::Internal("unhandled expression kind");
}

/// Materializes a VecVal into an owned column of n rows.
ColumnVector Materialize(VecVal val, int64_t n) {
  if (val.is_const) {
    ColumnVector out;
    out.Reserve(n);
    for (int64_t i = 0; i < n; ++i) out.AppendValue(val.const_val);
    return out;
  }
  if (val.borrowed != nullptr) {
    return ColumnVector::Slice(*val.borrowed, val.offset, n);
  }
  return std::move(val.owned);
}

/// Appends to *out the column row r of every row k (0-based) of ctx's range
/// for which pass(k, r) holds, in order. Branch-free: every row is written
/// and only the passing ones advance the cursor.
template <typename Pass>
void SelectRows(const VecEvalContext& ctx, const Pass& pass,
                engine::Selection* out) {
  const int64_t n = ctx.NumRows();
  const size_t old = out->size();
  out->resize(old + n);
  int64_t* dst = out->data() + old;
  int64_t count = 0;
  if (ctx.view->sel != nullptr) {
    const int64_t* rows = ctx.view->sel->data() + ctx.begin;
    for (int64_t k = 0; k < n; ++k) {
      const int64_t r = rows[k];
      dst[count] = r;
      count += pass(k, r) ? 1 : 0;
    }
  } else {
    for (int64_t k = 0; k < n; ++k) {
      const int64_t r = ctx.begin + k;
      dst[count] = r;
      count += pass(k, r) ? 1 : 0;
    }
  }
  out->resize(old + count);
}

/// SelectVec's in-place predicates, which read the column where it lies
/// under the view's selection; false when e is not one of them.
bool SelectInPlace(const ExprPtr& e, const VecEvalContext& ctx,
                   engine::Selection* out) {
  auto column = [&ctx](const ExprPtr& ref) {
    return ctx.view->columns[(*ctx.offsets)[ref->quantifier] + ref->column];
  };
  if (e->kind == Expr::Kind::kIsNull &&
      e->children[0]->kind == Expr::Kind::kColumnRef) {
    const uint8_t* nulls = column(e->children[0])->nulls().data();
    const uint8_t want = e->is_null_negated ? 0 : 1;
    SelectRows(ctx, [&](int64_t, int64_t r) { return nulls[r] == want; },
               out);
    return true;
  }
  if (e->kind != Expr::Kind::kBinary || !IsComparison(e->binary_op)) {
    return false;
  }
  const ExprPtr& l = e->children[0];
  const ExprPtr& r = e->children[1];
  const bool col_left = l->kind == Expr::Kind::kColumnRef &&
                        r->kind == Expr::Kind::kLiteral;
  if (!col_left && !(l->kind == Expr::Kind::kLiteral &&
                     r->kind == Expr::Kind::kColumnRef)) {
    return false;
  }
  const ColumnVector& col = *column(col_left ? l : r);
  const Value& lit = (col_left ? r : l)->literal;
  if (lit.is_null()) return true;  // every row compares NULL
  const uint8_t* nulls = col.nulls().data();
  if (col.IsNumericTag() && lit.IsNumeric()) {
    const double c = lit.ToDouble();
    WithPayload(col, 0, [&](const auto& v) {
      WithComparison(e->binary_op, [&](auto op) {
        SelectRows(ctx, [&](int64_t, int64_t row) {
          const double x = col_left ? v.Get(row) : c;
          const double y = col_left ? c : v.Get(row);
          return (nulls[row] == 0) & ApplyComparison(op, x == y, x < y);
        }, out);
      });
    });
    return true;
  }
  // Dictionary codes equal iff their strings do (a literal absent from the
  // dictionary, code -1, equals no stored string).
  if (col.tag() == Tag::kString && col.dict_encoded() &&
      lit.kind() == Value::Kind::kString &&
      (e->binary_op == BinaryOp::kEq || e->binary_op == BinaryOp::kNe)) {
    const int32_t code = col.dict()->Find(lit.AsString());
    const int32_t* codes = col.codes().data();
    const bool want_eq = e->binary_op == BinaryOp::kEq;
    SelectRows(ctx, [&](int64_t, int64_t row) {
      return (nulls[row] == 0) & ((codes[row] == code) == want_eq);
    }, out);
    return true;
  }
  return false;
}

}  // namespace

StatusOr<ColumnVector> EvalVec(const ExprPtr& e, const VecEvalContext& ctx) {
  const int64_t n = ctx.NumRows();
  // An empty range evaluates nothing — the scalar path would never run the
  // expression either, so no data-dependent error can surface here.
  if (n <= 0) return ColumnVector();
  SUMTAB_ASSIGN_OR_RETURN(VecVal val, EvalInternal(e, ctx));
  return Materialize(std::move(val), n);
}

Status SelectVec(const ExprPtr& e, const VecEvalContext& ctx,
                 engine::Selection* out) {
  // An empty range evaluates nothing, like EvalVec.
  if (ctx.NumRows() <= 0) return Status::OK();
  if (SelectInPlace(e, ctx, out)) return Status::OK();
  SUMTAB_ASSIGN_OR_RETURN(VecVal val, EvalInternal(e, ctx));
  if (val.is_const) {
    if (val.const_val.is_null()) return Status::OK();
    if (val.const_val.kind() != Value::Kind::kBool) {
      return Status::InvalidArgument("predicate did not evaluate to boolean");
    }
    if (val.const_val.AsBool()) {
      SelectRows(ctx, [](int64_t, int64_t) { return true; }, out);
    }
    return Status::OK();
  }
  const ColumnVector& col = val.vec();
  const uint8_t* nulls = col.nulls().data() + val.off();
  if (col.tag() == Tag::kBool) {
    const uint8_t* truth = col.bools().data() + val.off();
    SelectRows(ctx, [&](int64_t k, int64_t) {
      return (nulls[k] == 0) & (truth[k] != 0);
    }, out);
    return Status::OK();
  }
  for (int64_t k = 0; k < ctx.NumRows(); ++k) {
    // NULL rejects the row, no error.
    if (nulls[k] == 0 && !(col.tag() == Tag::kVariant &&
                           col.VariantAt(val.off() + k).kind() ==
                               Value::Kind::kBool)) {
      return Status::InvalidArgument("predicate did not evaluate to boolean");
    }
  }
  SelectRows(ctx, [&](int64_t k, int64_t) {
    return nulls[k] == 0 && col.VariantAt(val.off() + k).AsBool();
  }, out);
  return Status::OK();
}

}  // namespace expr
}  // namespace sumtab
