// Operators of the QGM executor, one method per box kind. Operators pass
// BatchViews: borrowed columns read through an optional selection. A filter
// refines its input's selection instead of copying rows; a projection
// borrows bare column references and evaluates only computed outputs, over
// the selected rows; an aggregate reads through the selection; a join
// composes its probe and build indexes with its inputs' selections, so its
// one gather reads the unfiltered columns. Predicates and projections
// evaluate through the vectorized evaluator in morsel-sized ranges. Every
// plan decision (pushdown, greedy join order, hash vs nested-loop step)
// keys off filtered child row counts only, never off thread count, so
// threads=1 and threads=N run the same plan and produce bit-identical
// results up to output row order.
#include <cstring>
#include <memory>
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

using BatchPtr = std::shared_ptr<const Batch>;
using exec_internal::IsEquiJoin;
using exec_internal::kMorselRows;
using exec_internal::PredQuantifiers;
using expr::ExprPtr;
using qgm::Box;
using qgm::BoxId;
using qgm::Quantifier;

/// The lanes' row lists in lane order, as one.
Selection ConcatLanes(std::vector<Selection>* lanes) {
  size_t total = 0;
  for (const Selection& part : *lanes) total += part.size();
  Selection out = std::move((*lanes)[0]);
  out.reserve(total);
  for (size_t lane = 1; lane < lanes->size(); ++lane) {
    out.insert(out.end(), (*lanes)[lane].begin(), (*lanes)[lane].end());
  }
  return out;
}

/// Filters the view by `pred` morsel-parallel: its selection becomes the
/// rows that pass, in order (chunk outputs concatenated in chunk order,
/// matching the serial scan). A view every row of which passes is left
/// as it is.
Status Refine(const ExprPtr& pred, const std::vector<int>& offsets,
              BatchView* view, int max_threads) {
  const int64_t n = view->num_rows;
  const int lanes = ParallelLanes(n, max_threads, kMorselRows);
  std::vector<Selection> lane_rows(lanes);
  std::vector<Status> lane_status(lanes, Status::OK());
  ParallelFor(n, lanes, [&](int lane, int64_t begin, int64_t end) {
    Selection& rows = lane_rows[lane];
    rows.reserve(end - begin);
    for (int64_t from = begin; from < end; from += kMorselRows) {
      expr::VecEvalContext ctx{&offsets, view, from,
                               std::min(end, from + kMorselRows)};
      Status st = expr::SelectVec(pred, ctx, &rows);
      if (!st.ok()) {
        lane_status[lane] = std::move(st);
        return;
      }
    }
  }, kMorselRows);
  for (const Status& st : lane_status) SUMTAB_RETURN_NOT_OK(st);
  Selection rows = ConcatLanes(&lane_rows);
  if (static_cast<int64_t>(rows.size()) == n) return Status::OK();
  view->num_rows = static_cast<int64_t>(rows.size());
  view->sel = std::make_shared<const Selection>(std::move(rows));
  return Status::OK();
}

/// Gathers the joined batch: left columns at `left_rows`, right columns at
/// `right_rows` — column rows, already composed with each side's selection
/// — where `keep` (over left then right columns) is set; the rest stay
/// empty, as nothing reads them. Columns are independent, so large gathers
/// go column-parallel.
BatchView GatherJoin(const BatchView& left, const BatchView& right,
                     const Selection& left_rows, const Selection& right_rows,
                     const std::vector<bool>& keep, int max_threads) {
  auto out = std::make_shared<Batch>();
  out->num_rows = static_cast<int64_t>(left_rows.size());
  const int lw = left.NumColumns();
  out->columns.resize(lw + right.NumColumns());
  std::vector<int> kept;
  for (int c = 0; c < static_cast<int>(keep.size()); ++c) {
    if (keep[c]) kept.push_back(c);
  }
  const int nkept = static_cast<int>(kept.size());
  const int lanes = out->num_rows >= kMorselRows
                        ? std::min(max_threads, std::max(nkept, 1))
                        : 1;
  ParallelFor(nkept, lanes, [&](int, int64_t begin, int64_t end) {
    for (int64_t k = begin; k < end; ++k) {
      const int c = kept[k];
      out->columns[c] =
          c < lw ? ColumnVector::Gather(*left.columns[c], left_rows)
                 : ColumnVector::Gather(*right.columns[c - lw], right_rows);
    }
  }, /*min_chunk=*/1);
  return BatchView::Of(BatchPtr(std::move(out)));
}

/// A hash join's key reduced to one int64 code per row of each side: two
/// rows' codes are equal iff their key Values are equal column by column,
/// and a row with a NULL in any key column is flagged, as SQL '=' never
/// matches it. `in_place` codes and flags are read at a view row's column
/// row, the others at the view row itself.
struct JoinKeys {
  struct Side {
    const int64_t* codes = nullptr;
    const uint8_t* nulls = nullptr;
    bool in_place = false;
  };
  Side build;
  Side probe;
  // What the sides read.
  std::vector<EncodedKey> encoded;  // per column, build's then probe's
  std::vector<int64_t> ids;
  std::vector<uint8_t> null_rows;
};

/// True for a key column pair of ints and doubles with a double on at
/// least one side: Value::Compare widens both to double.
bool IsDoubleKey(const ColumnVector& a, const ColumnVector& b) {
  using Tag = ColumnVector::Tag;
  auto numeric = [](Tag t) { return t == Tag::kInt || t == Tag::kDouble; };
  return numeric(a.tag()) && numeric(b.tag()) &&
         (a.tag() == Tag::kDouble || b.tag() == Tag::kDouble);
}

/// An int or double column widened to one int64 code per column row: the
/// bit pattern of its value as a double, -0.0 folded into 0.0, so equal
/// codes <=> equal widened values (a NaN meets only its own bit pattern).
void WidenToDoubleBits(const ColumnVector& col, EncodedKey* out) {
  out->col = &col;
  out->nulls = col.nulls().data();
  const int64_t n = col.size();
  out->scratch.resize(n);
  auto put = [out](int64_t i, double d) {
    d = d == 0.0 ? 0.0 : d;
    std::memcpy(&out->scratch[i], &d, sizeof d);
  };
  if (col.tag() == ColumnVector::Tag::kDouble) {
    for (int64_t i = 0; i < n; ++i) put(i, col.doubles()[i]);
  } else {
    for (int64_t i = 0; i < n; ++i) put(i, static_cast<double>(col.ints()[i]));
  }
  out->values = out->scratch.data();
}

/// Reduces the key columns `build_cols` and `probe_cols` to JoinKeys. A
/// single column whose two sides encode into one code space — ints, dates
/// and bools; or dictionary strings, the probe's codes translated into the
/// build's dictionary so that a string absent there never matches; or ints
/// and doubles with a double among them, widened to double bits — is its
/// own code, read in place or widened as EncodedKey does. Any other key is
/// coded by pass 1 over the build rows then the probe rows, ids offset to
/// run on across partitions: CodeKey over widened codes when every column
/// encodes into one code space, else ValueKey over the key Values.
void ReduceJoinKeys(const BatchView& build, const std::vector<int>& build_cols,
                    const BatchView& probe, const std::vector<int>& probe_cols,
                    int max_threads, JoinKeys* keys) {
  const size_t w = build_cols.size();
  std::vector<EncodedKey>& enc = keys->encoded;
  enc.resize(2 * w);
  if (w == 1 && IsDoubleKey(*build.columns[build_cols[0]],
                            *probe.columns[probe_cols[0]])) {
    WidenToDoubleBits(*build.columns[build_cols[0]], &enc[0]);
    WidenToDoubleBits(*probe.columns[probe_cols[0]], &enc[1]);
    keys->build = {enc[0].values, enc[0].nulls, true};
    keys->probe = {enc[1].values, enc[1].nulls, true};
    return;
  }
  bool one_space = w <= kMaxEncodedKeyCols;
  for (size_t k = 0; k < w; ++k) {
    EncodedKey& to = enc[k];
    EncodedKey& from = enc[w + k];
    EncodeKeyColumn(*build.columns[build_cols[k]], &to);
    EncodeKeyColumn(*probe.columns[probe_cols[k]], &from);
    // Encoded strings are the columns with a dictionary.
    one_space = one_space && to.values != nullptr && from.values != nullptr &&
                (to.col->dict() == nullptr) == (from.col->dict() == nullptr);
    if (!one_space || from.col->dict() == to.col->dict()) continue;
    const std::vector<int64_t> xlate =
        kernels::TranslateCodes(*from.col->dict(), *to.col->dict());
    for (size_t r = 0; r < from.scratch.size(); ++r) {
      if (from.nulls[r] == 0) from.scratch[r] = xlate[from.scratch[r]];
    }
  }
  if (w == 1 && one_space) {
    keys->build = {enc[0].values, enc[0].nulls, true};
    keys->probe = {enc[1].values, enc[1].nulls, true};
    return;
  }
  const int64_t nb = build.num_rows;
  const int64_t n = nb + probe.num_rows;
  std::vector<uint8_t>& null_rows = keys->null_rows;
  null_rows.assign(n, 0);
  std::vector<EncodedKey> rows(w);  // the key rows: build's, then probe's
  std::vector<ColumnVector> values(w);
  auto gather = [&](const EncodedKey& side, const BatchView& view,
                    int64_t first, EncodedKey* out) {
    for (int64_t i = 0; i < view.num_rows; ++i) {
      const int64_t r = view.Row(i);
      out->scratch[first + i] = side.values[r];
      null_rows[first + i] |= side.nulls[r];
    }
  };
  for (size_t k = 0; k < w; ++k) {
    if (one_space) {
      rows[k].scratch.resize(n);
      gather(enc[k], build, 0, &rows[k]);
      gather(enc[w + k], probe, nb, &rows[k]);
      rows[k].values = rows[k].scratch.data();
      rows[k].nulls = null_rows.data();  // all zero on the rows pass 1 reads
      continue;
    }
    auto dense = [](const BatchView& view, int c) {
      const ColumnVector& col = *view.columns[c];
      return view.sel != nullptr ? ColumnVector::Gather(col, *view.sel) : col;
    };
    values[k] = ColumnVector::Concat(dense(build, build_cols[k]),
                                     dense(probe, probe_cols[k]));
    rows[k].col = &values[k];
    for (int64_t i = 0; i < n; ++i) null_rows[i] |= rows[k].col->nulls()[i];
  }
  Selection live;
  for (int64_t i = 0; i < n; ++i) {
    if (null_rows[i] == 0) live.push_back(i);
  }
  std::vector<const EncodedKey*> key_cols;
  for (const EncodedKey& col : rows) key_cols.push_back(&col);
  const int64_t nlive = static_cast<int64_t>(live.size());
  const std::vector<Partition> parts = GroupIdsOf(
      key_cols, nlive == n ? nullptr : live.data(), nlive,
      ParallelLanes(nlive, max_threads, kMinParallelRowsPerLane));
  keys->ids.assign(n, -1);
  int64_t base = 0;
  for (const Partition& part : parts) {
    ForEachRow(part, [&](int64_t k, int64_t i) {
      keys->ids[i] = base + part.gid[k];
    });
    base += static_cast<int64_t>(part.first_row.size());
  }
  keys->build = {keys->ids.data(), null_rows.data(), false};
  keys->probe = {keys->ids.data() + nb, null_rows.data() + nb, false};
}

}  // namespace

std::vector<std::string> Executor::RootColumnNames(
    const qgm::Graph& graph) const {
  const Box& root = *graph.box(graph.root());
  // An override stands in for the table of the same name, so a bare scan's
  // names come from storage either way.
  if (root.kind == Box::Kind::kBase) {
    return snapshot_.ColumnNames(root.table_name);
  }
  std::vector<std::string> names;
  for (const auto& out : root.outputs) names.push_back(out.name);
  return names;
}

StatusOr<BatchView> Executor::ExecuteBox(const qgm::Graph& graph, BoxId id) {
  SUMTAB_RETURN_NOT_OK(CheckDeadline());
  const Box& box = *graph.box(id);
  switch (box.kind) {
    case Box::Kind::kBase: {
      SUMTAB_FAULT_POINT("executor/scan");
      if (options_.columnar_overrides != nullptr) {
        auto it = options_.columnar_overrides->find(box.table_name);
        if (it != options_.columnar_overrides->end()) {
          return BatchView::Of(it->second);
        }
      }
      // Scans borrow storage's published columns without copying.
      BatchPtr batch = snapshot_.FindColumnar(box.table_name);
      if (batch == nullptr) {
        return Status::NotFound("no data for table '" + box.table_name + "'");
      }
      return BatchView::Of(std::move(batch));
    }
    case Box::Kind::kSelect:
      return ExecuteSelect(graph, box);
    case Box::Kind::kGroupBy:
      return ExecuteGroupBy(graph, box);
  }
  return Status::Internal("unknown box kind");
}

StatusOr<BatchView> Executor::ExecuteSelect(const qgm::Graph& graph,
                                            const Box& box) {
  const int nq = static_cast<int>(box.quantifiers.size());

  // 1. Execute children. Scalar subqueries collapse to a single row.
  std::vector<BatchView> child(nq);
  std::vector<int> child_width(nq);
  for (int q = 0; q < nq; ++q) {
    SUMTAB_ASSIGN_OR_RETURN(BatchView view,
                            ExecuteBox(graph, box.quantifiers[q].child));
    child_width[q] = view.NumColumns();
    if (box.quantifiers[q].kind == Quantifier::Kind::kScalar) {
      if (view.num_rows > 1) {
        return Status::InvalidArgument(
            "scalar subquery returned more than one row");
      }
      if (view.num_rows == 1) {
        child[q] = std::move(view);
      } else {
        auto one = std::make_shared<Batch>();
        one->num_rows = 1;
        one->columns.resize(view.NumColumns());
        for (ColumnVector& col : one->columns) col.AppendNull();
        child[q] = BatchView::Of(BatchPtr(std::move(one)));
      }
    } else {
      SUMTAB_RETURN_NOT_OK(Charge(view.num_rows));
      child[q] = std::move(view);
    }
  }

  // 2. Partition predicates: single-quantifier filters push down, refining
  //    their child's selection; equi-joins become hash keys; the rest apply
  //    as soon as their quantifiers join.
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
      SUMTAB_RETURN_NOT_OK(
          Refine(pred, offsets, &child[qs[0]], options_.max_threads));
      continue;
    }
    JoinPred jp;
    if (qs.size() == 2 && IsEquiJoin(pred, &jp.qa, &jp.ca, &jp.qb, &jp.cb)) {
      jp.pred = pred;
      join_preds.push_back(jp);
      continue;
    }
    residual.push_back(pred);
  }

  // 3. Greedy join: the next quantifier is one with a hash-join edge to the
  //    joined set, else the smallest unjoined child (cartesian step). The
  //    combined view holds the concatenated child columns; offsets[q] is
  //    q's first column slot.
  std::vector<int> offsets(nq, -1);
  BatchView combined;
  std::vector<bool> joined(nq, false);
  int joined_count = 0;
  int width = 0;

  // A join gathers only the columns of the joined set and of `next` that
  // something still reads: the outputs, and the predicates not yet applied
  // (hash keys just used are not). The rest stay empty, since nothing
  // reads them.
  auto still_read = [&](int next) {
    std::vector<bool> keep(width + child_width[next], false);
    auto mark = [&](const ExprPtr& e) {
      expr::Visit(e, [&](const expr::Expr& node) {
        if (node.kind != expr::Expr::Kind::kColumnRef) return;
        const int q = node.quantifier;
        if (q < 0 || q >= nq || (!joined[q] && q != next) || node.column < 0 ||
            node.column >= child_width[q]) {
          return;
        }
        keep[(q == next ? width : offsets[q]) + node.column] = true;
      });
    };
    for (const qgm::OutputColumn& out : box.outputs) mark(out.expr);
    for (const ExprPtr& pred : residual) mark(pred);
    for (const JoinPred& jp : join_preds) {
      if (!jp.used) mark(jp.pred);
    }
    return keep;
  };

  auto apply_ready_residuals = [&]() -> Status {
    std::vector<ExprPtr> still;
    for (const ExprPtr& pred : residual) {
      bool ready = true;
      for (int q : PredQuantifiers(pred)) ready = ready && joined[q];
      if (!ready) {
        still.push_back(pred);
        continue;
      }
      SUMTAB_RETURN_NOT_OK(
          Refine(pred, offsets, &combined, options_.max_threads));
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
        if (next == -1 || child[q].num_rows < child[next].num_rows) {
          next = q;
        }
      }
    }

    if (joined_count == 0) {
      combined = std::move(child[next]);
      offsets[next] = 0;
      width = child_width[next];
    } else if (!edges.empty()) {
      // Hash join `next` against the combined view: build an index table
      // over the smaller side (`next` on a tie), probe morsel-parallel with
      // the other collecting (probe, build) column-row pairs, then gather
      // both sides column-wise.
      const bool swap = child[next].num_rows > combined.num_rows;
      const BatchView& build = swap ? combined : child[next];
      const BatchView& probe = swap ? child[next] : combined;
      std::vector<int> build_cols;
      std::vector<int> probe_slots;
      for (JoinPred* jp : edges) {
        jp->used = true;
        const int next_col = jp->qa == next ? jp->ca : jp->cb;
        int qj = jp->qa == next ? jp->qb : jp->qa;
        int cj = jp->qa == next ? jp->cb : jp->ca;
        build_cols.push_back(swap ? offsets[qj] + cj : next_col);
        probe_slots.push_back(swap ? next_col : offsets[qj] + cj);
      }
      // Every key reduces to one int64 code per row and side, so one flat
      // table serves every equi-join. It holds build view rows; probes read
      // through the probe view's selection.
      JoinKeys keys;
      ReduceJoinKeys(build, build_cols, probe, probe_slots,
                     options_.max_threads, &keys);
      kernels::Int64JoinTable table(build.num_rows);
      // Reverse insertion: chains come back in ascending build-row order.
      for (int64_t i = build.num_rows - 1; i >= 0; --i) {
        const int64_t at = keys.build.in_place ? build.Row(i) : i;
        if (keys.build.nulls[at] != 0) continue;
        table.Insert(keys.build.codes[at], i);
      }
      const int64_t probe_n = probe.num_rows;
      const int lanes =
          ParallelLanes(probe_n, options_.max_threads, kMorselRows);
      const int64_t* probe_sel =
          probe.sel != nullptr ? probe.sel->data() : nullptr;
      const int64_t* build_sel =
          build.sel != nullptr ? build.sel->data() : nullptr;
      // Per lane, the matching pairs' column rows on either side.
      std::vector<Selection> lane_probe(lanes);
      std::vector<Selection> lane_build(lanes);
      std::vector<Status> lane_status(lanes, Status::OK());
      ParallelFor(probe_n, lanes, [&](int lane, int64_t begin, int64_t end) {
        // Lane-local lists, handed over at the end: lanes appending to
        // neighbouring vectors would share their headers' cache lines.
        Selection probe_match;
        Selection build_match;
        auto emit = [&](int64_t r, int64_t bi) {
          probe_match.push_back(r);
          build_match.push_back(build_sel != nullptr ? build_sel[bi] : bi);
        };
        // Charges the lane's uncharged pairs once there are at least
        // `at_least` of them, so the row budget trips within a morsel of
        // matches of its limit without an atomic add per probe row.
        size_t charged = 0;
        auto charge = [&](size_t at_least) {
          const size_t pairs = probe_match.size();
          if (pairs - charged < at_least) return true;
          Status st = Charge(static_cast<int64_t>(pairs - charged));
          charged = pairs;
          if (!st.ok()) lane_status[lane] = std::move(st);
          return lane_status[lane].ok();
        };
        for (int64_t i = begin; i < end; ++i) {
          const int64_t r = probe_sel != nullptr ? probe_sel[i] : i;
          const int64_t at = keys.probe.in_place ? r : i;
          if (keys.probe.nulls[at] != 0) continue;
          for (int64_t bi = table.Probe(keys.probe.codes[at]); bi != -1;
               bi = table.Next(bi)) {
            emit(r, bi);
          }
          if (!charge(kMorselRows)) break;
        }
        charge(1);
        lane_probe[lane] = std::move(probe_match);
        lane_build[lane] = std::move(build_match);
      }, kMorselRows);
      for (const Status& st : lane_status) SUMTAB_RETURN_NOT_OK(st);
      const Selection probe_rows = ConcatLanes(&lane_probe);
      const Selection build_rows = ConcatLanes(&lane_build);
      combined = GatherJoin(combined, child[next],
                            swap ? build_rows : probe_rows,
                            swap ? probe_rows : build_rows, still_read(next),
                            options_.max_threads);
      offsets[next] = width;
      width += child_width[next];
      child[next] = BatchView();
    } else {
      // Nested-loop (cartesian) step; residual predicates prune right after.
      const BatchView& right = child[next];
      Selection left_rows;
      Selection right_rows;
      left_rows.reserve(combined.num_rows * right.num_rows);
      right_rows.reserve(combined.num_rows * right.num_rows);
      for (int64_t i = 0; i < combined.num_rows; ++i) {
        for (int64_t j = 0; j < right.num_rows; ++j) {
          SUMTAB_RETURN_NOT_OK(Charge(1));
          left_rows.push_back(combined.Row(i));
          right_rows.push_back(right.Row(j));
        }
      }
      combined = GatherJoin(combined, right, left_rows, right_rows,
                            still_read(next), options_.max_threads);
      offsets[next] = width;
      width += child_width[next];
      child[next] = BatchView();
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

  // 4. Project. Bare column references are borrowed: when every output is
  //    one, the result keeps the combined view's selection; otherwise the
  //    result is dense, and only under a selection do bare references
  //    gather. Everything else evaluates vectorized over morsel-sized
  //    ranges of the selected rows; lane results concatenate in chunk
  //    order.
  const int64_t project_n = combined.num_rows;
  const int nout = static_cast<int>(box.outputs.size());
  bool all_bare = true;
  for (const qgm::OutputColumn& out : box.outputs) {
    all_bare = all_bare && out.expr->kind == expr::Expr::Kind::kColumnRef;
  }
  const bool borrow = all_bare || combined.sel == nullptr;
  std::vector<int> computed;  // outputs evaluated, in order
  for (int c = 0; c < nout; ++c) {
    if (!borrow || box.outputs[c].expr->kind != expr::Expr::Kind::kColumnRef) {
      computed.push_back(c);
    }
  }
  const int ncomputed = static_cast<int>(computed.size());
  auto fresh = std::make_shared<Batch>();
  fresh->num_rows = project_n;
  fresh->columns.resize(ncomputed);
  if (ncomputed > 0) {
    const int project_lanes =
        ParallelLanes(project_n, options_.max_threads, kMorselRows);
    std::vector<std::vector<ColumnVector>> lane_cols(
        project_lanes, std::vector<ColumnVector>(ncomputed));
    std::vector<Status> project_status(project_lanes, Status::OK());
    ParallelFor(project_n, project_lanes,
                [&](int lane, int64_t begin, int64_t end) {
      expr::VecEvalContext ctx{&offsets, &combined, begin, end};
      for (int k = 0; k < ncomputed; ++k) {
        StatusOr<ColumnVector> col =
            expr::EvalVec(box.outputs[computed[k]].expr, ctx);
        if (!col.ok()) {
          project_status[lane] = col.status();
          return;
        }
        lane_cols[lane][k] = std::move(*col);
      }
    }, kMorselRows);
    for (const Status& st : project_status) SUMTAB_RETURN_NOT_OK(st);
    for (int k = 0; k < ncomputed; ++k) {
      if (project_lanes == 1) {
        fresh->columns[k] = std::move(lane_cols[0][k]);
        continue;
      }
      for (int lane = 0; lane < project_lanes; ++lane) {
        fresh->columns[k].AppendColumn(lane_cols[lane][k]);
      }
    }
  }
  BatchView result;
  result.num_rows = project_n;
  if (borrow) {
    result.sel = all_bare ? combined.sel : nullptr;
    result.owners = combined.owners;
  }
  if (ncomputed > 0) result.owners.push_back(fresh);
  result.columns.resize(nout);
  for (int c = 0, k = 0; c < nout; ++c) {
    if (k < ncomputed && computed[k] == c) {
      result.columns[c] = &fresh->columns[k++];
      continue;
    }
    const expr::Expr& ref = *box.outputs[c].expr;
    result.columns[c] = combined.columns[offsets[ref.quantifier] + ref.column];
  }

  if (box.distinct) {
    BatchPtr rows = DenseBatch(result);
    std::vector<int64_t> keep = DistinctRows(*rows, options_.max_threads);
    if (static_cast<int64_t>(keep.size()) != rows->num_rows) {
      rows = std::make_shared<Batch>(GatherBatch(*rows, keep));
    }
    return BatchView::Of(std::move(rows));
  }
  return result;
}

StatusOr<BatchView> Executor::ExecuteGroupBy(const qgm::Graph& graph,
                                             const Box& box) {
  SUMTAB_ASSIGN_OR_RETURN(BatchView child,
                          ExecuteBox(graph, box.quantifiers[0].child));
  exec_internal::GroupBySpec spec;
  SUMTAB_RETURN_NOT_OK(exec_internal::BuildGroupBySpec(box, &spec));
  SUMTAB_ASSIGN_OR_RETURN(
      Batch packed, AggregateBatch(child, spec.grouping_cols, spec.sets,
                                   spec.aggs, options_.max_threads));
  SUMTAB_RETURN_NOT_OK(Charge(packed.num_rows));
  // Packed layout (grouping ordinals, then aggregates) -> output layout.
  const int ng = static_cast<int>(spec.grouping_cols.size());
  std::vector<ColumnVector> columns;
  columns.swap(packed.columns);
  for (int i = 0; i < box.NumOutputs(); ++i) {
    const int g = spec.grouping_ordinal[i];
    packed.columns.push_back(
        std::move(columns[g >= 0 ? g : ng + spec.agg_ordinal[i]]));
  }
  return BatchView::Of(std::make_shared<const Batch>(std::move(packed)));
}

}  // namespace engine
}  // namespace sumtab
