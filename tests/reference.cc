#include "tests/reference.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "engine/exec_shared.h"
#include "expr/expr.h"
#include "expr/expr_eval.h"
#include "qgm/qgm_builder.h"
#include "sql/parser.h"

namespace sumtab {
namespace reference {

namespace {

using engine::Relation;
using expr::AggFunc;
using expr::ExprPtr;

struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    return Value::CompareRows(a, b) < 0;
  }
};

/// What one aggregate computes; the argument is evaluated separately.
struct AggDesc {
  AggFunc func = AggFunc::kCount;
  bool distinct = false;
  bool star = false;
};

/// SUM with the engine-wide sticky promotion: integers add exactly until the
/// first non-integer value, after which the running sum is a double.
Value Sum(const std::vector<Value>& values) {
  int64_t isum = 0;
  double dsum = 0;
  bool is_double = false;
  for (const Value& v : values) {
    if (!is_double && v.kind() == Value::Kind::kInt) {
      isum += v.AsInt();
      continue;
    }
    if (!is_double) {
      dsum = static_cast<double>(isum);
      is_double = true;
    }
    dsum += v.ToDouble();
  }
  return is_double ? Value::Double(dsum) : Value::Int(isum);
}

/// Folds one group's collected values. `args` holds the argument of every
/// row in the group, in input order (NULLs included; unused for COUNT(*)).
Value Finish(const AggDesc& agg, const std::vector<Value>& args) {
  if (agg.star) return Value::Int(static_cast<int64_t>(args.size()));
  std::vector<Value> values;
  std::set<Value> seen;
  for (const Value& v : args) {
    if (v.is_null()) continue;
    if (agg.distinct && !seen.insert(v).second) continue;
    values.push_back(v);
  }
  if (agg.func == AggFunc::kCount) {
    return Value::Int(static_cast<int64_t>(values.size()));
  }
  if (values.empty()) return Value::Null();
  switch (agg.func) {
    case AggFunc::kSum:
      return Sum(values);
    case AggFunc::kAvg:
      return Value::Double(Sum(values).ToDouble() /
                           static_cast<double>(values.size()));
    case AggFunc::kMin:
      return *std::min_element(values.begin(), values.end());
    case AggFunc::kMax: {
      // The first of several equal maxima, like MIN's first minimum.
      Value best = values[0];
      for (const Value& v : values) {
        if (best < v) best = v;
      }
      return best;
    }
    case AggFunc::kCount:
      break;
  }
  return Value::Null();
}

/// The grouping-set core. keys[r] holds row r's grouping values, args[r]
/// its aggregate arguments; each set lists key ordinals. Output rows: every
/// key (NULL where the set groups it out), then every aggregate.
std::vector<Row> GroupingSets(const std::vector<Row>& keys,
                              const std::vector<Row>& args, size_t num_keys,
                              const std::vector<std::vector<int>>& sets,
                              const std::vector<AggDesc>& aggs) {
  std::vector<Row> out;
  for (const std::vector<int>& set : sets) {
    // group key -> per aggregate, the arguments of the group's rows
    std::map<Row, std::vector<std::vector<Value>>, RowLess> groups;
    for (size_t r = 0; r < keys.size(); ++r) {
      Row key(num_keys, Value::Null());
      for (int k : set) key[k] = keys[r][k];
      std::vector<std::vector<Value>>& group = groups[key];
      group.resize(aggs.size());
      for (size_t a = 0; a < aggs.size(); ++a) group[a].push_back(args[r][a]);
    }
    // Global aggregation over an empty input still yields one row.
    if (groups.empty() && set.empty()) {
      groups[Row(num_keys, Value::Null())].resize(aggs.size());
    }
    for (const auto& [key, group] : groups) {
      Row row = key;
      for (size_t a = 0; a < aggs.size(); ++a) {
        row.push_back(Finish(aggs[a], group[a]));
      }
      out.push_back(std::move(row));
    }
  }
  return out;
}

class Evaluator {
 public:
  Evaluator(const qgm::Graph& graph, const engine::Storage::Snapshot& snap,
            const TableOverrides* overrides)
      : graph_(graph), snap_(snap), overrides_(overrides) {}

  StatusOr<Relation> Box(qgm::BoxId id) {
    const qgm::Box& box = *graph_.box(id);
    switch (box.kind) {
      case qgm::Box::Kind::kBase:
        return Base(box);
      case qgm::Box::Kind::kSelect:
        return Select(box);
      case qgm::Box::Kind::kGroupBy:
        return GroupBy(box);
    }
    return Status::Internal("unknown box kind");
  }

 private:
  StatusOr<Relation> Base(const qgm::Box& box) {
    if (overrides_ != nullptr) {
      auto it = overrides_->find(box.table_name);
      if (it != overrides_->end()) return *it->second;
    }
    std::shared_ptr<const engine::Batch> table =
        snap_.FindColumnar(box.table_name);
    if (table == nullptr) {
      return Status::NotFound("no data for table '" + box.table_name + "'");
    }
    // Decoded row by row: the reference never touches columns or codes.
    return engine::BatchToRelation(*table, snap_.ColumnNames(box.table_name));
  }

  static Relation Named(const qgm::Box& box) {
    Relation rel;
    for (const qgm::OutputColumn& out : box.outputs) {
      rel.column_names.push_back(out.name);
    }
    return rel;
  }

  StatusOr<Relation> Select(const qgm::Box& box) {
    const int nq = static_cast<int>(box.quantifiers.size());
    std::vector<Relation> inputs(nq);
    std::vector<int> offsets(nq, 0);
    for (int q = 0; q < nq; ++q) {
      SUMTAB_ASSIGN_OR_RETURN(inputs[q], Box(box.quantifiers[q].child));
      if (box.quantifiers[q].kind == qgm::Quantifier::Kind::kScalar) {
        if (inputs[q].rows.size() > 1) {
          return Status::InvalidArgument(
              "scalar subquery returned more than one row");
        }
        if (inputs[q].rows.empty()) {
          inputs[q].rows.push_back(Row(inputs[q].NumColumns(), Value::Null()));
        }
      }
      if (q + 1 < nq) offsets[q + 1] = offsets[q] + inputs[q].NumColumns();
    }

    // Each conjunct runs at the loop level of its highest quantifier (FROM
    // is mandatory, so there is always a level 0).
    std::vector<std::vector<ExprPtr>> conjuncts(nq);
    for (const ExprPtr& pred : box.predicates) {
      std::vector<int> qs;
      expr::CollectQuantifiers(pred, &qs);
      int level = 0;
      for (int q : qs) level = std::max(level, q);
      conjuncts[level].push_back(pred);
    }

    // Optional per-level index: an equality between a column of this level's
    // quantifier and a column of an outer one narrows the inner loop to the
    // rows whose column compares equal. The conjunct still runs as a filter.
    struct Index {
      int probe_slot = -1;  // combined-row slot of the outer column
      std::multimap<Value, size_t> rows;
    };
    std::vector<Index> index(nq);
    for (int level = 1; level < nq; ++level) {
      for (const ExprPtr& pred : conjuncts[level]) {
        if (pred->kind != expr::Expr::Kind::kBinary ||
            pred->binary_op != expr::BinaryOp::kEq) {
          continue;
        }
        const ExprPtr& l = pred->children[0];
        const ExprPtr& r = pred->children[1];
        if (l->kind != expr::Expr::Kind::kColumnRef ||
            r->kind != expr::Expr::Kind::kColumnRef) {
          continue;
        }
        const ExprPtr& inner = l->quantifier == level ? l : r;
        const ExprPtr& outer = l->quantifier == level ? r : l;
        if (inner->quantifier != level || outer->quantifier >= level) continue;
        index[level].probe_slot = offsets[outer->quantifier] + outer->column;
        const std::vector<Row>& rows = inputs[level].rows;
        for (size_t i = 0; i < rows.size(); ++i) {
          const Value& v = rows[i][inner->column];
          if (!v.is_null()) index[level].rows.emplace(v, i);
        }
        break;
      }
    }

    Relation result = Named(box);
    Row combined;
    std::set<Row, RowLess> seen;  // DISTINCT
    auto emit = [&]() -> Status {
      expr::EvalContext ctx{&offsets, &combined};
      Row out;
      for (const qgm::OutputColumn& col : box.outputs) {
        SUMTAB_ASSIGN_OR_RETURN(Value v, expr::Eval(col.expr, ctx));
        out.push_back(std::move(v));
      }
      if (!box.distinct || seen.insert(out).second) {
        result.rows.push_back(std::move(out));
      }
      return Status::OK();
    };
    // Binds row `i` of `level` and descends.
    std::function<Status(int)> loop;
    auto bind = [&](int level, size_t i) -> Status {
      const Row& row = inputs[level].rows[i];
      combined.insert(combined.end(), row.begin(), row.end());
      expr::EvalContext ctx{&offsets, &combined};
      bool pass = true;
      for (const ExprPtr& pred : conjuncts[level]) {
        SUMTAB_ASSIGN_OR_RETURN(pass, expr::EvalPredicate(pred, ctx));
        if (!pass) break;
      }
      Status st = pass ? loop(level + 1) : Status::OK();
      combined.resize(offsets[level]);
      return st;
    };
    loop = [&](int level) -> Status {
      if (level == nq) return emit();
      const Index& idx = index[level];
      if (idx.probe_slot < 0) {
        for (size_t i = 0; i < inputs[level].rows.size(); ++i) {
          SUMTAB_RETURN_NOT_OK(bind(level, i));
        }
        return Status::OK();
      }
      const Value& key = combined[idx.probe_slot];
      if (key.is_null()) return Status::OK();  // '=' never matches NULL
      auto [begin, end] = idx.rows.equal_range(key);
      for (auto it = begin; it != end; ++it) {
        SUMTAB_RETURN_NOT_OK(bind(level, it->second));
      }
      return Status::OK();
    };
    SUMTAB_RETURN_NOT_OK(loop(0));
    return result;
  }

  StatusOr<Relation> GroupBy(const qgm::Box& box) {
    SUMTAB_ASSIGN_OR_RETURN(Relation input, Box(box.quantifiers[0].child));
    // Output i is key ordinal key_of[i] or aggregate ordinal agg_of[i].
    std::vector<int> key_of(box.NumOutputs(), -1);
    std::vector<int> agg_of(box.NumOutputs(), -1);
    std::vector<ExprPtr> key_exprs;
    std::vector<ExprPtr> arg_exprs;  // null for COUNT(*)
    std::vector<AggDesc> aggs;
    for (int i = 0; i < box.NumOutputs(); ++i) {
      const ExprPtr& e = box.outputs[i].expr;
      if (box.IsGroupingOutput(i)) {
        key_of[i] = static_cast<int>(key_exprs.size());
        key_exprs.push_back(e);
        continue;
      }
      agg_of[i] = static_cast<int>(aggs.size());
      aggs.push_back(AggDesc{e->agg, e->agg_distinct, e->agg_star});
      arg_exprs.push_back(e->agg_star ? nullptr : e->children[0]);
    }
    std::vector<std::vector<int>> sets;
    for (const std::vector<int>& set : box.grouping_sets) {
      std::vector<int> keys;
      for (int output : set) {
        if (output < 0 || output >= box.NumOutputs() || key_of[output] < 0) {
          return Status::Internal("grouping set entry is not a grouping output");
        }
        keys.push_back(key_of[output]);
      }
      sets.push_back(std::move(keys));
    }

    std::vector<Row> keys;
    std::vector<Row> args;
    const std::vector<int> offsets = {0};
    for (const Row& row : input.rows) {
      expr::EvalContext ctx{&offsets, &row};
      Row key;
      for (const ExprPtr& e : key_exprs) {
        SUMTAB_ASSIGN_OR_RETURN(Value v, expr::Eval(e, ctx));
        key.push_back(std::move(v));
      }
      Row arg;
      for (const ExprPtr& e : arg_exprs) {
        if (e == nullptr) {
          arg.push_back(Value::Null());
          continue;
        }
        SUMTAB_ASSIGN_OR_RETURN(Value v, expr::Eval(e, ctx));
        arg.push_back(std::move(v));
      }
      keys.push_back(std::move(key));
      args.push_back(std::move(arg));
    }

    Relation result = Named(box);
    const size_t nk = key_exprs.size();
    for (Row& packed : GroupingSets(keys, args, nk, sets, aggs)) {
      Row out(box.NumOutputs());
      for (int i = 0; i < box.NumOutputs(); ++i) {
        out[i] = key_of[i] >= 0 ? packed[key_of[i]] : packed[nk + agg_of[i]];
      }
      result.rows.push_back(std::move(out));
    }
    return result;
  }

  const qgm::Graph& graph_;
  const engine::Storage::Snapshot& snap_;
  const TableOverrides* overrides_;
};

}  // namespace

StatusOr<engine::Relation> Evaluate(const qgm::Graph& graph,
                                    const engine::Storage::Snapshot& snap,
                                    const TableOverrides* overrides) {
  Evaluator evaluator(graph, snap, overrides);
  SUMTAB_ASSIGN_OR_RETURN(Relation result, evaluator.Box(graph.root()));
  engine::exec_internal::ApplyOrderBy(graph.order_by(), &result);
  return result;
}

StatusOr<engine::Relation> Query(const Database& db, const std::string& sql,
                                 const engine::Storage::Snapshot& snap) {
  SUMTAB_ASSIGN_OR_RETURN(std::shared_ptr<sql::SelectStmt> stmt,
                          sql::Parse(sql));
  SUMTAB_ASSIGN_OR_RETURN(qgm::Graph graph,
                          qgm::BuildGraph(*stmt, db.catalog()));
  return Evaluate(graph, snap);
}

StatusOr<engine::Relation> Query(const Database& db, const std::string& sql) {
  return Query(db, sql, db.storage().Snap());
}

StatusOr<std::vector<Row>> Aggregate(
    const std::vector<Row>& input, const std::vector<int>& grouping_cols,
    const std::vector<std::vector<int>>& grouping_sets,
    const std::vector<engine::AggSpec>& aggs) {
  std::vector<AggDesc> descs;
  for (const engine::AggSpec& spec : aggs) {
    if (!spec.star && spec.arg_col < 0) {
      return Status::Internal("aggregate argument column missing");
    }
    descs.push_back(AggDesc{spec.func, spec.distinct, spec.star});
  }
  std::vector<Row> keys;
  std::vector<Row> args;
  for (const Row& row : input) {
    Row key;
    for (int c : grouping_cols) key.push_back(row[c]);
    Row arg;
    for (const engine::AggSpec& spec : aggs) {
      arg.push_back(spec.star ? Value::Null() : row[spec.arg_col]);
    }
    keys.push_back(std::move(key));
    args.push_back(std::move(arg));
  }
  return GroupingSets(keys, args, grouping_cols.size(), grouping_sets, descs);
}

namespace {

/// Sorts both sides and compares cell by cell: equal Values of equal kinds,
/// except that two doubles pass when `tolerate_doubles` is set (the caller
/// has checked them under SameRowMultiset's tolerance).
::testing::AssertionResult CompareSorted(std::vector<Row> got,
                                         std::vector<Row> want,
                                         bool tolerate_doubles) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " rows vs " << want.size() << " in the reference";
  }
  std::sort(got.begin(), got.end(), RowLess());
  std::sort(want.begin(), want.end(), RowLess());
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].size() != want[i].size()) {
      return ::testing::AssertionFailure() << "arity differs at row " << i;
    }
    for (size_t j = 0; j < got[i].size(); ++j) {
      const Value& a = got[i][j];
      const Value& b = want[i][j];
      if (tolerate_doubles && a.kind() == Value::Kind::kDouble &&
          b.kind() == Value::Kind::kDouble) {
        continue;
      }
      if (a.kind() != b.kind() || !(a == b)) {
        return ::testing::AssertionFailure()
               << "sorted row " << i << " col " << j << ": " << a.ToString()
               << " vs reference " << b.ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

::testing::AssertionResult MatchesReference(const engine::Relation& got,
                                            const engine::Relation& want) {
  if (!engine::SameRowMultiset(got, want)) {
    return ::testing::AssertionFailure()
           << "row multisets differ beyond the fp tolerance ("
           << got.NumRows() << " vs " << want.NumRows() << " rows)";
  }
  return CompareSorted(got.rows, want.rows, /*tolerate_doubles=*/true);
}

::testing::AssertionResult SameRowsExactly(const std::vector<Row>& got,
                                           const std::vector<Row>& want) {
  return CompareSorted(got, want, /*tolerate_doubles=*/false);
}

}  // namespace reference
}  // namespace sumtab
