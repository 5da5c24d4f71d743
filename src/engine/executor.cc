#include "engine/executor.h"

#include <algorithm>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "engine/exec_shared.h"
#include "expr/expr_rewrite.h"

namespace sumtab {
namespace engine {

namespace exec_internal {

std::vector<int> PredQuantifiers(const expr::ExprPtr& pred) {
  std::vector<int> qs;
  expr::CollectQuantifiers(pred, &qs);
  return qs;
}

bool IsEquiJoin(const expr::ExprPtr& pred, int* qa, int* ca, int* qb,
                int* cb) {
  if (pred->kind != expr::Expr::Kind::kBinary ||
      pred->binary_op != expr::BinaryOp::kEq) {
    return false;
  }
  const expr::ExprPtr& l = pred->children[0];
  const expr::ExprPtr& r = pred->children[1];
  if (l->kind != expr::Expr::Kind::kColumnRef ||
      r->kind != expr::Expr::Kind::kColumnRef) {
    return false;
  }
  if (l->quantifier == r->quantifier) return false;
  *qa = l->quantifier;
  *ca = l->column;
  *qb = r->quantifier;
  *cb = r->column;
  return true;
}

Status BuildGroupBySpec(const qgm::Box& box, GroupBySpec* spec) {
  spec->grouping_ordinal.assign(box.NumOutputs(), -1);
  spec->agg_ordinal.assign(box.NumOutputs(), -1);
  for (int i = 0; i < box.NumOutputs(); ++i) {
    const expr::ExprPtr& e = box.outputs[i].expr;
    if (box.IsGroupingOutput(i)) {
      int col = -1;
      if (!expr::IsSimpleColumnRef(e, 0, &col)) {
        return Status::Internal("grouping output is not a simple column");
      }
      spec->grouping_ordinal[i] =
          static_cast<int>(spec->grouping_cols.size());
      spec->grouping_cols.push_back(col);
    } else {
      if (e->kind != expr::Expr::Kind::kAggregate) {
        return Status::Internal("GROUPBY output is neither grouping column "
                                "nor aggregate");
      }
      AggSpec agg;
      agg.func = e->agg;
      agg.distinct = e->agg_distinct;
      agg.star = e->agg_star;
      if (!agg.star) {
        if (!expr::IsSimpleColumnRef(e->children[0], 0, &agg.arg_col)) {
          return Status::Internal("aggregate argument is not a simple column");
        }
      }
      spec->agg_ordinal[i] = static_cast<int>(spec->aggs.size());
      spec->aggs.push_back(agg);
    }
  }
  // Translate grouping sets from output indexes to grouping ordinals.
  for (const auto& set : box.grouping_sets) {
    std::vector<int> ordinals;
    for (int output_idx : set) {
      if (output_idx < 0 || output_idx >= box.NumOutputs() ||
          spec->grouping_ordinal[output_idx] < 0) {
        return Status::Internal("grouping set entry is not a grouping output");
      }
      ordinals.push_back(spec->grouping_ordinal[output_idx]);
    }
    spec->sets.push_back(std::move(ordinals));
  }
  return Status::OK();
}

void ApplyOrderBy(const std::vector<qgm::OrderSpec>& spec, Relation* result) {
  if (spec.empty()) return;
  std::stable_sort(result->rows.begin(), result->rows.end(),
                   [&spec](const Row& a, const Row& b) {
                     for (const qgm::OrderSpec& s : spec) {
                       int c = a[s.output_index].Compare(b[s.output_index]);
                       if (c != 0) return s.ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
}

}  // namespace exec_internal

Status Executor::Charge(int64_t rows) {
  if (options_.trace != nullptr) options_.trace->AddRowsProcessed(rows);
  int64_t charged =
      rows_charged_.fetch_add(rows, std::memory_order_relaxed) + rows;
  if (options_.max_rows > 0 && charged > options_.max_rows) {
    return Status::ResourceExhausted(
        "query exceeded its row budget (" +
        std::to_string(options_.max_rows) + " rows materialized)");
  }
  int64_t polled =
      deadline_poll_.fetch_add(rows, std::memory_order_relaxed) + rows;
  if (polled >= 1024) {
    deadline_poll_.store(0, std::memory_order_relaxed);
    // Cooperative yield point for the inter-query scheduler: a heavy query
    // deep in a join loop lets a further-behind query take the core here.
    // No-op (one thread-local read) outside the serving layer.
    SchedulerCheckpoint();
    if (has_deadline_) return CheckDeadline();
  }
  return Status::OK();
}

Status Executor::CheckDeadline() {
  if (has_deadline_ && std::chrono::steady_clock::now() > deadline_) {
    return Status::ResourceExhausted(
        "query exceeded its time budget (" +
        std::to_string(options_.timeout_millis) + " ms)");
  }
  return Status::OK();
}

StatusOr<Relation> Executor::Execute(const qgm::Graph& graph) {
  SUMTAB_FAULT_POINT("executor/execute");
  rows_charged_.store(0, std::memory_order_relaxed);
  deadline_poll_.store(0, std::memory_order_relaxed);
  has_deadline_ = options_.timeout_millis > 0;
  if (has_deadline_) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        options_.timeout_millis));
  }
  SUMTAB_ASSIGN_OR_RETURN(BatchPtr root, ExecuteBox(graph, graph.root()));
  Relation result = BatchToRelation(*root, RootColumnNames(graph));
  exec_internal::ApplyOrderBy(graph.order_by(), &result);
  return result;
}

}  // namespace engine
}  // namespace sumtab
