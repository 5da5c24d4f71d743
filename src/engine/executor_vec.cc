// Operators of the QGM executor, one method per box kind. Operators pass
// columnar Batches; predicates and projections evaluate through the
// vectorized evaluator in morsel-sized ranges, and joins gather columns by
// index instead of merging rows. Every plan decision (pushdown, greedy join
// order, hash vs nested-loop step) keys off filtered child row counts only,
// never off thread count, so threads=1 and threads=N run the same plan and
// produce bit-identical results up to output row order.
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "engine/aggregator.h"
#include "engine/exec_shared.h"
#include "engine/executor.h"
#include "engine/kernels.h"
#include "expr/expr_vec_eval.h"

namespace sumtab {
namespace engine {

namespace {

using exec_internal::IsEquiJoin;
using exec_internal::kMorselRows;
using exec_internal::PredQuantifiers;
using expr::ExprPtr;
using qgm::Box;
using qgm::BoxId;
using qgm::Quantifier;

/// Evaluates `pred` over the batch morsel-parallel; returns the surviving
/// row indexes in input order (chunk outputs concatenated in chunk order,
/// matching the serial scan).
StatusOr<std::vector<int64_t>> SelectIndexes(const ExprPtr& pred,
                                             const std::vector<int>& offsets,
                                             const Batch& batch,
                                             int max_threads) {
  const int64_t n = batch.num_rows;
  const int lanes = ParallelLanes(n, max_threads, kMorselRows);
  std::vector<std::vector<int64_t>> lane_idx(lanes);
  std::vector<Status> lane_status(lanes, Status::OK());
  ParallelFor(n, lanes, [&](int lane, int64_t begin, int64_t end) {
    expr::VecEvalContext ctx{&offsets, &batch, begin, end};
    std::vector<uint8_t> mask;
    Status st = expr::EvalPredicateVec(pred, ctx, &mask);
    if (!st.ok()) {
      lane_status[lane] = std::move(st);
      return;
    }
    kernels::SelectFromMask(mask.data(), end - begin, begin, &lane_idx[lane]);
  }, kMorselRows);
  for (const Status& st : lane_status) SUMTAB_RETURN_NOT_OK(st);
  size_t total = 0;
  for (const auto& part : lane_idx) total += part.size();
  std::vector<int64_t> out;
  out.reserve(total);
  for (const auto& part : lane_idx) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

/// Gathers the joined batch: probe-side columns by probe index, build-side
/// columns by build index. Columns are independent, so large gathers go
/// column-parallel.
Batch GatherJoin(const Batch& probe, const Batch& build,
                 const std::vector<int64_t>& probe_idx,
                 const std::vector<int64_t>& build_idx, int max_threads) {
  Batch out;
  out.num_rows = static_cast<int64_t>(probe_idx.size());
  const int pw = probe.NumColumns();
  const int total = pw + build.NumColumns();
  out.columns.resize(total);
  const int lanes = out.num_rows >= kMorselRows
                        ? std::min(max_threads, total > 0 ? total : 1)
                        : 1;
  ParallelFor(total, lanes, [&](int, int64_t begin, int64_t end) {
    for (int64_t c = begin; c < end; ++c) {
      out.columns[c] =
          c < pw ? ColumnVector::Gather(probe.columns[c], probe_idx)
                 : ColumnVector::Gather(build.columns[c - pw], build_idx);
    }
  }, /*min_chunk=*/1);
  return out;
}

}  // namespace

std::vector<std::string> Executor::RootColumnNames(
    const qgm::Graph& graph) const {
  const Box& root = *graph.box(graph.root());
  std::vector<std::string> names;
  if (root.kind != Box::Kind::kBase) {
    for (const auto& out : root.outputs) names.push_back(out.name);
    return names;
  }
  const Relation* table = nullptr;
  if (options_.table_overrides != nullptr) {
    auto it = options_.table_overrides->find(root.table_name);
    if (it != options_.table_overrides->end()) table = it->second;
  }
  if (table == nullptr) table = snapshot_.FindTable(root.table_name);
  if (table != nullptr) names = table->column_names;
  return names;
}

StatusOr<Executor::BatchPtr> Executor::ExecuteBox(const qgm::Graph& graph,
                                                  BoxId id) {
  SUMTAB_RETURN_NOT_OK(CheckDeadline());
  const Box& box = *graph.box(id);
  switch (box.kind) {
    case Box::Kind::kBase: {
      SUMTAB_FAULT_POINT("executor/scan");
      if (options_.columnar_overrides != nullptr) {
        auto it = options_.columnar_overrides->find(box.table_name);
        if (it != options_.columnar_overrides->end() && it->second != nullptr) {
          return it->second;
        }
      }
      if (options_.table_overrides != nullptr) {
        auto it = options_.table_overrides->find(box.table_name);
        if (it != options_.table_overrides->end()) {
          return BatchPtr(std::make_shared<Batch>(BatchFromRows(
              it->second->rows, it->second->NumColumns())));
        }
      }
      // Storage hands out (and lazily builds) the shared columnar twin of
      // the row store; scans borrow it without copying.
      BatchPtr batch = snapshot_.FindColumnar(box.table_name);
      if (batch == nullptr) {
        return Status::NotFound("no data for table '" + box.table_name + "'");
      }
      return batch;
    }
    case Box::Kind::kSelect:
      return ExecuteSelect(graph, box);
    case Box::Kind::kGroupBy:
      return ExecuteGroupBy(graph, box);
  }
  return Status::Internal("unknown box kind");
}

StatusOr<Executor::BatchPtr> Executor::ExecuteSelect(const qgm::Graph& graph,
                                                     const Box& box) {
  const int nq = static_cast<int>(box.quantifiers.size());

  // 1. Execute children. Scalar subqueries collapse to a single row.
  std::vector<BatchPtr> child(nq);
  std::vector<int> child_width(nq);
  for (int q = 0; q < nq; ++q) {
    SUMTAB_ASSIGN_OR_RETURN(BatchPtr batch,
                            ExecuteBox(graph, box.quantifiers[q].child));
    child_width[q] = batch->NumColumns();
    if (box.quantifiers[q].kind == Quantifier::Kind::kScalar) {
      if (batch->num_rows > 1) {
        return Status::InvalidArgument(
            "scalar subquery returned more than one row");
      }
      if (batch->num_rows == 1) {
        child[q] = batch;
      } else {
        auto one = std::make_shared<Batch>();
        one->num_rows = 1;
        one->columns.resize(batch->NumColumns());
        for (ColumnVector& col : one->columns) col.AppendNull();
        child[q] = one;
      }
    } else {
      child[q] = batch;
      SUMTAB_RETURN_NOT_OK(Charge(batch->num_rows));
    }
  }

  // 2. Partition predicates: single-quantifier filters push down; equi-joins
  //    become hash keys; the rest apply as soon as their quantifiers join.
  std::vector<ExprPtr> residual;
  struct JoinPred {
    int qa, ca, qb, cb;
    ExprPtr pred;
    bool used = false;
  };
  std::vector<JoinPred> join_preds;
  for (const ExprPtr& pred : box.predicates) {
    std::vector<int> qs = PredQuantifiers(pred);
    if (qs.size() == 1) {
      std::vector<int> offsets(nq, -1);
      offsets[qs[0]] = 0;
      SUMTAB_ASSIGN_OR_RETURN(
          std::vector<int64_t> keep,
          SelectIndexes(pred, offsets, *child[qs[0]], options_.max_threads));
      if (static_cast<int64_t>(keep.size()) != child[qs[0]]->num_rows) {
        child[qs[0]] =
            std::make_shared<Batch>(GatherBatch(*child[qs[0]], keep));
      }
      continue;
    }
    JoinPred jp;
    if (!options_.disable_hash_join && qs.size() == 2 &&
        IsEquiJoin(pred, &jp.qa, &jp.ca, &jp.qb, &jp.cb)) {
      jp.pred = pred;
      join_preds.push_back(jp);
      continue;
    }
    residual.push_back(pred);
  }

  // 3. Greedy join: the next quantifier is one with a hash-join edge to the
  //    joined set, else the smallest unjoined child (cartesian step). The
  //    combined batch holds the concatenated child columns; offsets[q] is
  //    q's first column slot.
  std::vector<int> offsets(nq, -1);
  BatchPtr combined;
  std::vector<bool> joined(nq, false);
  int joined_count = 0;
  int width = 0;

  auto apply_ready_residuals = [&]() -> Status {
    std::vector<ExprPtr> still;
    for (const ExprPtr& pred : residual) {
      bool ready = true;
      for (int q : PredQuantifiers(pred)) ready = ready && joined[q];
      if (!ready) {
        still.push_back(pred);
        continue;
      }
      SUMTAB_ASSIGN_OR_RETURN(
          std::vector<int64_t> keep,
          SelectIndexes(pred, offsets, *combined, options_.max_threads));
      if (static_cast<int64_t>(keep.size()) != combined->num_rows) {
        combined = std::make_shared<Batch>(GatherBatch(*combined, keep));
      }
    }
    residual = std::move(still);
    return Status::OK();
  };

  while (joined_count < nq) {
    int next = -1;
    std::vector<JoinPred*> edges;
    if (joined_count > 0) {
      for (JoinPred& jp : join_preds) {
        if (jp.used) continue;
        int outside = -1;
        if (joined[jp.qa] && !joined[jp.qb]) {
          outside = jp.qb;
        } else if (joined[jp.qb] && !joined[jp.qa]) {
          outside = jp.qa;
        } else {
          continue;
        }
        if (next == -1) next = outside;
        if (outside == next) edges.push_back(&jp);
      }
    }
    if (next == -1) {
      for (int q = 0; q < nq; ++q) {
        if (joined[q]) continue;
        if (next == -1 || child[q]->num_rows < child[next]->num_rows) {
          next = q;
        }
      }
    }

    if (joined_count == 0) {
      combined = child[next];
      offsets[next] = 0;
      width = child_width[next];
    } else if (!edges.empty()) {
      // Hash join `next` against the combined batch: build an index table
      // over the build side, probe morsel-parallel collecting (probe, build)
      // index pairs, then gather both sides column-wise.
      const Batch& build = *child[next];
      std::vector<int> build_cols;
      std::vector<int> probe_slots;
      for (JoinPred* jp : edges) {
        jp->used = true;
        build_cols.push_back(jp->qa == next ? jp->ca : jp->cb);
        int qj = jp->qa == next ? jp->qb : jp->qa;
        int cj = jp->qa == next ? jp->cb : jp->ca;
        probe_slots.push_back(offsets[qj] + cj);
      }
      // Single-column keys over matching int-like tags — ints, dates, and
      // dictionary-encoded strings — probe through the flat int64 kernel
      // table (the common star-schema case); anything else keys on
      // materialized Rows, which reproduces Value equality exactly.
      // Dictionary keys come in two flavors: both sides on the SAME
      // dictionary probe codes directly; different dictionaries translate
      // probe codes to build codes once (one Find per distinct string) and
      // then probe the same pure int loop.
      const ColumnVector* bkey = &build.columns[build_cols[0]];
      const ColumnVector* pkey = &combined->columns[probe_slots[0]];
      enum class KeyMode { kNone, kInt, kDate, kCode, kCodeTranslate };
      KeyMode mode = KeyMode::kNone;
      if (build_cols.size() == 1 && bkey->tag() == pkey->tag()) {
        if (bkey->tag() == ColumnVector::Tag::kInt) {
          mode = KeyMode::kInt;
        } else if (bkey->tag() == ColumnVector::Tag::kDate) {
          mode = KeyMode::kDate;
        } else if (bkey->tag() == ColumnVector::Tag::kString &&
                   bkey->dict_encoded() && pkey->dict_encoded()) {
          mode = bkey->dict() == pkey->dict() ? KeyMode::kCode
                                              : KeyMode::kCodeTranslate;
        }
      }
      std::vector<int64_t> xlate;  // probe code -> build code (or -1)
      if (mode == KeyMode::kCodeTranslate) {
        xlate = kernels::TranslateCodes(*pkey->dict(), *bkey->dict());
      }
      std::unique_ptr<kernels::Int64JoinTable> flat;
      std::unordered_map<Row, std::vector<int64_t>, RowHash> row_table;
      if (mode != KeyMode::kNone) {
        flat = std::make_unique<kernels::Int64JoinTable>(build.num_rows);
        // Reverse insertion: chains come back in ascending build-row order.
        for (int64_t i = build.num_rows - 1; i >= 0; --i) {
          if (bkey->IsNull(i)) continue;  // SQL '=' never matches NULL
          int64_t k = mode == KeyMode::kInt    ? bkey->ints()[i]
                      : mode == KeyMode::kDate ? bkey->dates()[i]
                                               : bkey->codes()[i];
          flat->Insert(k, i);
        }
      } else {
        row_table.reserve(build.num_rows);
        for (int64_t i = 0; i < build.num_rows; ++i) {
          Row key;
          key.reserve(build_cols.size());
          bool has_null = false;
          for (int c : build_cols) {
            Value v = build.columns[c].ValueAt(i);
            has_null = has_null || v.is_null();
            key.push_back(std::move(v));
          }
          if (has_null) continue;
          row_table[std::move(key)].push_back(i);
        }
      }
      const int64_t probe_n = combined->num_rows;
      const int lanes =
          ParallelLanes(probe_n, options_.max_threads, kMorselRows);
      std::vector<std::vector<std::pair<int64_t, int64_t>>> lane_pairs(lanes);
      std::vector<Status> lane_status(lanes, Status::OK());
      ParallelFor(probe_n, lanes, [&](int lane, int64_t begin, int64_t end) {
        auto& pairs = lane_pairs[lane];
        if (flat != nullptr) {
          for (int64_t i = begin; i < end; ++i) {
            if (pkey->IsNull(i)) continue;
            int64_t k;
            switch (mode) {
              case KeyMode::kInt:
                k = pkey->ints()[i];
                break;
              case KeyMode::kDate:
                k = pkey->dates()[i];
                break;
              case KeyMode::kCode:
                k = pkey->codes()[i];
                break;
              default:  // kCodeTranslate
                k = xlate[pkey->codes()[i]];
                if (k < 0) continue;  // string absent from the build side
                break;
            }
            int64_t head = flat->Probe(k);
            if (head < 0) continue;
            size_t first = pairs.size();
            for (int64_t bi = head; bi != -1; bi = flat->Next(bi)) {
              pairs.emplace_back(i, bi);
            }
            // One charge per probe row covering all its matches.
            Status charged = Charge(static_cast<int64_t>(pairs.size() - first));
            if (!charged.ok()) {
              lane_status[lane] = std::move(charged);
              return;
            }
          }
          return;
        }
        for (int64_t i = begin; i < end; ++i) {
          Row key;
          key.reserve(probe_slots.size());
          bool has_null = false;
          for (int slot : probe_slots) {
            Value v = combined->columns[slot].ValueAt(i);
            has_null = has_null || v.is_null();
            key.push_back(std::move(v));
          }
          if (has_null) continue;
          auto it = row_table.find(key);
          if (it == row_table.end()) continue;
          Status charged = Charge(static_cast<int64_t>(it->second.size()));
          if (!charged.ok()) {
            lane_status[lane] = std::move(charged);
            return;
          }
          for (int64_t bi : it->second) pairs.emplace_back(i, bi);
        }
      }, kMorselRows);
      for (const Status& st : lane_status) SUMTAB_RETURN_NOT_OK(st);
      std::vector<int64_t> probe_idx;
      std::vector<int64_t> build_idx;
      size_t total = 0;
      for (const auto& part : lane_pairs) total += part.size();
      probe_idx.reserve(total);
      build_idx.reserve(total);
      for (const auto& part : lane_pairs) {
        for (const auto& [pi, bi] : part) {
          probe_idx.push_back(pi);
          build_idx.push_back(bi);
        }
      }
      combined = std::make_shared<Batch>(GatherJoin(
          *combined, build, probe_idx, build_idx, options_.max_threads));
      offsets[next] = width;
      width += child_width[next];
      child[next] = nullptr;
    } else {
      // Nested-loop (cartesian) step; residual predicates prune right after.
      const Batch& right = *child[next];
      std::vector<int64_t> probe_idx;
      std::vector<int64_t> build_idx;
      probe_idx.reserve(combined->num_rows * right.num_rows);
      build_idx.reserve(combined->num_rows * right.num_rows);
      for (int64_t i = 0; i < combined->num_rows; ++i) {
        for (int64_t j = 0; j < right.num_rows; ++j) {
          SUMTAB_RETURN_NOT_OK(Charge(1));
          probe_idx.push_back(i);
          build_idx.push_back(j);
        }
      }
      combined = std::make_shared<Batch>(GatherJoin(
          *combined, right, probe_idx, build_idx, options_.max_threads));
      offsets[next] = width;
      width += child_width[next];
      child[next] = nullptr;
    }
    joined[next] = true;
    ++joined_count;
    SUMTAB_RETURN_NOT_OK(apply_ready_residuals());
    // Equi-join predicates between already-joined quantifiers that were not
    // used as hash keys must still be applied as filters.
    for (JoinPred& jp : join_preds) {
      if (jp.used || !joined[jp.qa] || !joined[jp.qb]) continue;
      jp.used = true;
      residual.push_back(jp.pred);
      SUMTAB_RETURN_NOT_OK(apply_ready_residuals());
    }
  }
  if (!residual.empty()) {
    return Status::Internal("residual predicates left after join");
  }

  // 4. Project: every output expression evaluates vectorized over
  //    morsel-sized ranges; lane results concatenate in chunk order.
  const int64_t project_n = combined->num_rows;
  const int nout = static_cast<int>(box.outputs.size());
  const int project_lanes =
      ParallelLanes(project_n, options_.max_threads, kMorselRows);
  std::vector<std::vector<ColumnVector>> lane_cols(
      project_lanes, std::vector<ColumnVector>(nout));
  std::vector<Status> project_status(project_lanes, Status::OK());
  ParallelFor(project_n, project_lanes,
              [&](int lane, int64_t begin, int64_t end) {
    expr::VecEvalContext ctx{&offsets, combined.get(), begin, end};
    for (int c = 0; c < nout; ++c) {
      StatusOr<ColumnVector> col = expr::EvalVec(box.outputs[c].expr, ctx);
      if (!col.ok()) {
        project_status[lane] = col.status();
        return;
      }
      lane_cols[lane][c] = std::move(*col);
    }
  }, kMorselRows);
  for (const Status& st : project_status) SUMTAB_RETURN_NOT_OK(st);
  auto result = std::make_shared<Batch>();
  result->num_rows = project_n;
  result->columns.resize(nout);
  for (int c = 0; c < nout; ++c) {
    if (project_lanes == 1) {
      result->columns[c] = std::move(lane_cols[0][c]);
      continue;
    }
    for (int lane = 0; lane < project_lanes; ++lane) {
      result->columns[c].AppendColumn(lane_cols[lane][c]);
    }
  }

  if (box.distinct) {
    std::unordered_set<Row, RowHash> seen;
    std::vector<int64_t> keep;
    for (int64_t i = 0; i < result->num_rows; ++i) {
      if (seen.insert(result->RowAt(i)).second) keep.push_back(i);
    }
    if (static_cast<int64_t>(keep.size()) != result->num_rows) {
      result = std::make_shared<Batch>(GatherBatch(*result, keep));
    }
  }
  return BatchPtr(result);
}

StatusOr<Executor::BatchPtr> Executor::ExecuteGroupBy(const qgm::Graph& graph,
                                                      const Box& box) {
  SUMTAB_ASSIGN_OR_RETURN(BatchPtr child,
                          ExecuteBox(graph, box.quantifiers[0].child));
  exec_internal::GroupBySpec spec;
  SUMTAB_RETURN_NOT_OK(exec_internal::BuildGroupBySpec(box, &spec));
  SUMTAB_ASSIGN_OR_RETURN(
      std::vector<Row> rows,
      AggregateBatch(*child, spec.grouping_cols, spec.sets, spec.aggs,
                     options_.max_threads));
  SUMTAB_RETURN_NOT_OK(Charge(static_cast<int64_t>(rows.size())));
  std::vector<Row> out_rows;
  out_rows.reserve(rows.size());
  for (Row& packed : rows) {
    out_rows.push_back(exec_internal::PackedToOutput(std::move(packed), spec,
                                                     box.NumOutputs()));
  }
  return BatchPtr(std::make_shared<Batch>(
      BatchFromRows(out_rows, box.NumOutputs())));
}

}  // namespace engine
}  // namespace sumtab
