// Summary-table maintenance (paper related problem (c)): insert-delta
// propagation in the style of Mumick et al., "Maintenance of Data Cubes and
// Summary Tables in a Warehouse" (the paper's reference [10]).
//
// For a mergeable AST — a single aggregate block whose root projects the
// GROUP-BY outputs untouched — the delta rows are aggregated by executing
// the AST's own QGM graph with the appended table overridden by the delta,
// and the per-group results merge into the materialized table: COUNT/SUM
// add, MIN/MAX combine, new groups append. Anything else (HAVING, DISTINCT
// aggregates, scalar subqueries, self-references, nested blocks) recomputes.
#include "sumtab/maintenance.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/reject_reason.h"
#include "common/str_util.h"
#include "engine/column_vector.h"
#include "engine/executor.h"
#include "expr/expr_rewrite.h"
#include "sumtab/database.h"
#include "wal/wal.h"

namespace sumtab {
namespace maintenance {

StatusOr<MergePlan> AnalyzeMergePlan(const qgm::Graph& graph,
                                     const std::string& delta_table) {
  int references = 0;
  bool has_group_by = false;
  for (qgm::BoxId id : graph.TopologicalOrder()) {
    const qgm::Box* box = graph.box(id);
    if (box->kind == qgm::Box::Kind::kBase &&
        box->table_name == delta_table) {
      ++references;
    }
    if (box->IsGroupBy()) has_group_by = true;
    if (box->distinct) {
      return RejectUnsupported(RejectReason::kMaintDistinctBlock,
                               "DISTINCT block");
    }
    for (const qgm::Quantifier& q : box->quantifiers) {
      if (q.kind == qgm::Quantifier::Kind::kScalar) {
        return RejectUnsupported(RejectReason::kMaintScalarSubquery,
                                 "scalar subquery");
      }
    }
  }
  if (references != 1) {
    // The caller tells "unaffected" (0 refs) from "self-join" (>1) by
    // counting references itself, keyed on this subcode.
    return RejectUnsupported(RejectReason::kMaintDeltaRefCount,
                             "appended table referenced != 1 time");
  }

  const qgm::Box* root = graph.box(graph.root());
  if (root->kind != qgm::Box::Kind::kSelect || root->quantifiers.empty()) {
    return RejectUnsupported(RejectReason::kMaintRootShape,
                             "unexpected root shape");
  }
  MergePlan plan;
  if (!has_group_by) {
    // Select-project-join AST: for an insert-only delta over a table
    // referenced exactly once, delta(R join S) == deltaR join S, so the
    // delta's SPJ result appends directly. This holds for any number of
    // root quantifiers (all are kForeach — scalars were rejected above).
    plan.spj_append = true;
    return plan;
  }
  // Aggregate path: one aggregate block — SELECT root over a single
  // GROUP-BY over a SELECT over base tables.
  if (root->quantifiers.size() != 1) {
    // A join above (or beside) the aggregation consumes summary rows more
    // than once; merging deltas into it is not linear. Explicitly rejected
    // rather than inferred from quantifiers[0]'s kind.
    return RejectUnsupported(RejectReason::kMaintMultiQuantifierRoot,
                             "aggregate root has multiple quantifiers");
  }
  if (!root->predicates.empty()) {
    // HAVING filters rows whose aggregates a delta may push across the
    // threshold; merging cannot resurrect filtered groups.
    return RejectUnsupported(RejectReason::kMaintHavingPredicate,
                             "HAVING predicate");
  }
  const qgm::Box* gb = graph.box(root->quantifiers[0].child);
  if (!gb->IsGroupBy()) {
    return RejectUnsupported(RejectReason::kMaintAggBelowJoin,
                             "aggregation below a join");
  }
  // Exactly one aggregate block: nothing below the GROUP-BY's select may
  // group again.
  const qgm::Box* lower = graph.box(gb->quantifiers[0].child);
  if (lower->kind != qgm::Box::Kind::kSelect) {
    return RejectUnsupported(RejectReason::kMaintGroupByChildNotSelect,
                             "GROUP-BY child is not a SELECT");
  }
  for (const qgm::Quantifier& q : lower->quantifiers) {
    if (graph.box(q.child)->kind != qgm::Box::Kind::kBase) {
      return RejectUnsupported(RejectReason::kMaintNestedBlock,
                               "nested query block");
    }
  }
  if (!gb->IsSimpleGroupBy()) {
    // CUBE/ROLLUP/GROUPING SETS merge per-cuboid: a delta row's NULL
    // pattern identifies its cuboid, so the keyed merge lands each delta
    // row on its own cuboid's groups — unless a grouping column can be
    // NULL in the *data*, where a data-NULL in one cuboid and the padding
    // NULL of a coarser cuboid produce the same key and the merge would
    // combine rows across cuboids (a recompute keeps them separate).
    // Nullability must come from the grouping source below the GROUP-BY:
    // the GROUP-BY's own column_info already folds in padding nullability.
    for (int i = 0; i < gb->NumOutputs(); ++i) {
      if (!gb->IsGroupingOutput(i)) continue;
      int col = -1;
      bool source_nullable = true;  // conservatively reject odd shapes
      if (expr::IsSimpleColumnRef(gb->outputs[i].expr, 0, &col) && col >= 0 &&
          col < static_cast<int>(lower->column_info.size())) {
        source_nullable = lower->column_info[col].nullable;
      }
      if (source_nullable) {
        return RejectUnsupported(
            RejectReason::kMaintMultiGroupingSet,
            "nullable grouping column '" + gb->outputs[i].name +
                "' under multiple grouping sets");
      }
    }
  }
  // Root outputs must be bare references to GROUP-BY outputs.
  std::vector<bool> key_projected(gb->outputs.size(), false);
  for (size_t i = 0; i < root->outputs.size(); ++i) {
    int col = -1;
    if (!expr::IsSimpleColumnRef(root->outputs[i].expr, 0, &col)) {
      return RejectUnsupported(RejectReason::kMaintComputedOutput,
                               "computed expression above the aggregate");
    }
    if (gb->IsGroupingOutput(col)) {
      plan.key_cols.push_back(static_cast<int>(i));
      key_projected[col] = true;
      continue;
    }
    const expr::ExprPtr& agg = gb->outputs[col].expr;
    if (agg->agg_distinct) {
      return RejectUnsupported(RejectReason::kMaintDistinctAggregate,
                               "DISTINCT aggregate");
    }
    switch (agg->agg) {
      case expr::AggFunc::kCount:
      case expr::AggFunc::kSum:
      case expr::AggFunc::kMin:
      case expr::AggFunc::kMax:
        break;
      default:
        return RejectUnsupported(RejectReason::kMaintNonMergeableAggregate,
                                 "non-mergeable aggregate");
    }
    plan.agg_cols.push_back(MergePlan::AggCol{static_cast<int>(i), agg->agg});
  }
  // The merge is keyed on the projected grouping columns; if the root drops
  // one, distinct groups alias in the materialized table and deltas would
  // merge into whichever row the key index found first.
  for (int i = 0; i < gb->NumOutputs(); ++i) {
    if (gb->IsGroupingOutput(i) && !key_projected[i]) {
      return RejectUnsupported(RejectReason::kMaintPartialGroupKey,
                               "root does not project grouping column '" +
                                   gb->outputs[i].name + "'");
    }
  }
  return plan;
}

Value MergeAggregateValues(expr::AggFunc func, const Value& current,
                           const Value& delta) {
  // NULL identity: SUM/MIN/MAX over an all-NULL partition is NULL, and the
  // accumulator ignores NULL partitions when combining — so does the merge.
  if (current.is_null()) return delta;
  if (delta.is_null()) return current;
  switch (func) {
    case expr::AggFunc::kCount:
      return Value::Int(current.AsInt() + delta.AsInt());
    case expr::AggFunc::kSum:
      // Accumulator-combine semantics: the result is Double iff either
      // partition saw a double (sticky-double promotion), else Int.
      if (current.kind() == Value::Kind::kInt &&
          delta.kind() == Value::Kind::kInt) {
        return Value::Int(current.AsInt() + delta.AsInt());
      }
      return Value::Double(current.ToDouble() + delta.ToDouble());
    case expr::AggFunc::kMin:
      return delta < current ? delta : current;
    case expr::AggFunc::kMax:
      return current < delta ? delta : current;
    default:
      return current;
  }
}

}  // namespace maintenance

namespace {

using maintenance::AnalyzeMergePlan;
using maintenance::MergeAggregateValues;
using maintenance::MergePlan;

}  // namespace

Status Database::RefreshSummaryTable(const std::string& name) {
  std::lock_guard<std::mutex> maint(maint_mu_);
  SummaryTablePtr st;
  {
    // The registry is mutated only under both locks; shared suffices here.
    std::shared_lock<std::shared_mutex> lock(ddl_mu_);
    st = FindSummaryTable(name);
  }
  if (st == nullptr) {
    return Status::NotFound("summary table '" + name + "'");
  }
  // Logged before the recompute runs: a refresh that fails after this point
  // fails identically on replay (deterministic against the same state), so
  // the recovered AST lands in the same stale-with-failure state.
  SUMTAB_RETURN_NOT_OK(LogNameOp(
      static_cast<uint8_t>(wal::RecordType::kRefreshSummary), st->name));
  Status refreshed = RefreshUnderMaint(st.get());
  MaybeCheckpointLocked();
  return refreshed;
}

Status Database::RefreshUnderMaint(SummaryTable* st) {
  SUMTAB_FAULT_POINT("maintenance/refresh");
  // Recompute without ddl_mu_: maint_mu_ excludes every other writer, so
  // storage is stable and concurrent queries keep planning while the (full)
  // re-aggregation runs.
  engine::Executor executor(storage_);
  SUMTAB_ASSIGN_OR_RETURN(engine::Relation data, executor.Execute(st->graph));
  // A full materialization is stored sorted, not in the aggregator's
  // hash-table order: the stored order is then deterministic, and queries
  // over the AST run faster on it (perfbench dashboard tiles: median query
  // latency ~12% lower than over hash-ordered ASTs, 4-core Xeon VM).
  engine::SortRows(&data);
  const engine::Relation* stored = storage_.FindTable(st->name);
  if (stored == nullptr) {
    return Status::Internal("summary table data missing");
  }
  engine::Relation updated;
  updated.column_names = stored->column_names;
  updated.rows = std::move(data.rows);
  {
    // Copy-on-write commit: queries pinned to the old version keep it.
    std::unique_lock<std::shared_mutex> lock(ddl_mu_);
    SUMTAB_RETURN_NOT_OK(storage_.Replace(st->name, std::move(updated)));
    // A successful recompute is the one event that both re-captures the base
    // epochs and lifts a quarantine.
    MarkRefreshed(st);
  }
  // The refresh absorbed every retained delta of its base tables up to the
  // epochs just recorded; drop the slices no other AST still needs.
  for (const auto& entry : st->materialized_epochs) {
    PruneAbsorbedDeltas(entry.first);
  }
  return Status::OK();
}

StatusOr<Database::MaintenanceReport> Database::Append(
    const std::string& table, std::vector<Row> rows,
    const AppendOptions& append_options) {
  // maint_mu_ serializes the whole append-and-maintain transaction against
  // other mutators; ddl_mu_ is taken exclusively only for the commit window
  // below, after every new version has been built. Concurrent queries either
  // planned before the commit (and execute against their pinned pre-append
  // snapshot) or plan after the base table and every incrementally-merged
  // AST published together — they never observe the base table appended but
  // a dependent AST unmerged. ASTs on the recompute path go visibly stale at
  // the commit (their epochs lag) and stop serving rewrites until phase 4
  // refreshes them; answers stay correct throughout, from base tables.
  std::lock_guard<std::mutex> maint(maint_mu_);
  const catalog::Table* meta = catalog_.FindTable(table);
  if (meta == nullptr) {
    return Status::NotFound("table '" + table + "'");
  }
  if (meta->is_summary_table) {
    return Status::InvalidArgument("cannot append to a summary table");
  }
  for (const Row& row : rows) {
    if (row.size() != meta->columns.size()) {
      return Status::InvalidArgument("row arity mismatch for '" + table + "'");
    }
  }
  engine::Relation delta;
  const engine::Relation* stored_base = storage_.FindTable(table);
  delta.column_names = stored_base->column_names;
  delta.rows = std::move(rows);
  // Workload telemetry: the advisor charges candidates their maintenance
  // cost from this observed append rate. Recording during replay is correct
  // — a restored checkpoint covers appends up to its last_lsn only.
  const int64_t appended_rows = static_cast<int64_t>(delta.rows.size());

  MaintenanceReport report;

  // Deferred maintenance: publish the base rows and RETAIN the appended
  // slice, but leave dependent ASTs untouched. Their epochs now lag by a
  // pure-append delta with full coverage, so the rewriter can still answer
  // exactly through them via delta compensation; a later Refresh (or eager
  // append) absorbs the slices. This trades per-append maintenance cost for
  // per-query compensation cost — the ingest-heavy end of the paper's
  // maintenance spectrum.
  if (!append_options.maintain) {
    SUMTAB_RETURN_NOT_OK(
        LogRowsOp(static_cast<uint8_t>(wal::RecordType::kAppendDeferred),
                  meta->name, delta.rows));
    engine::Relation next_base = *stored_base;
    next_base.rows.insert(next_base.rows.end(), delta.rows.begin(),
                          delta.rows.end());
    {
      std::unique_lock<std::shared_mutex> lock(ddl_mu_);
      SUMTAB_RETURN_NOT_OK(storage_.Replace(meta->name, std::move(next_base)));
      int64_t new_epoch = storage_.BumpEpoch(meta->name);
      storage_.RetainDelta(meta->name, new_epoch, std::move(delta));
    }
    for (const auto& st : summary_tables_) {
      int refs = 0;
      for (qgm::BoxId id : st->graph.TopologicalOrder()) {
        const qgm::Box* box = st->graph.box(id);
        refs += box->kind == qgm::Box::Kind::kBase &&
                        box->table_name == meta->name
                    ? 1
                    : 0;
      }
      report.entries.push_back(RefreshEntry{
          st->name,
          refs == 0 ? RefreshMode::kUnaffected : RefreshMode::kDeferred, 0,
          ""});
    }
    for (const RefreshEntry& entry : report.entries) {
      MetricsRegistry::Global()
          .counter(entry.mode == RefreshMode::kDeferred
                       ? "maintenance.deferred"
                       : "maintenance.unaffected")
          ->Increment();
    }
    // No-op unless every dependent AST already covers the new epoch (e.g.
    // an append to a table no enabled AST reads).
    PruneAbsorbedDeltas(meta->name);
    workload_log_.RecordAppend(meta->name, appended_rows);
    MaybeCheckpointLocked();
    return report;
  }

  // Maintenance scans a prebuilt columnar delta: encoded once against the
  // base table's dictionaries (so joins and group keys land on the table's
  // shared codes) and reused by every AST's phase-1 evaluation instead of
  // re-converting the delta rows per AST.
  auto delta_batch = std::make_shared<engine::Batch>(
      engine::BatchFromRows(delta.rows, delta.NumColumns()));
  engine::DictEncodeBatch(delta_batch.get(), storage_.DictSeeds(meta->name));
  const std::map<std::string, std::shared_ptr<const engine::Batch>>
      delta_columnar = {{meta->name, std::move(delta_batch)}};

  // Phase 1: aggregate the delta through every incrementally-maintainable
  // AST (reads dimensions from storage, the appended table from the delta).
  // Storage and the registry are stable under maint_mu_ alone.
  struct Pending {
    SummaryTable* st;
    MergePlan plan;
    engine::Relation delta_result;
    engine::Relation merged;  // built in phase 3, published at the commit
  };
  std::vector<Pending> incremental;
  std::vector<SummaryTable*> recompute;
  for (const auto& st : summary_tables_) {
    auto start = std::chrono::steady_clock::now();
    StatusOr<MergePlan> plan = AnalyzeMergePlan(st->graph, meta->name);
    if (!plan.ok()) {
      bool unaffected = false;
      if (RejectReasonFromStatus(plan.status()) ==
          RejectReason::kMaintDeltaRefCount) {
        // Distinguish 0 references (unaffected) from self-joins.
        int refs = 0;
        for (qgm::BoxId id : st->graph.TopologicalOrder()) {
          const qgm::Box* box = st->graph.box(id);
          refs += box->kind == qgm::Box::Kind::kBase &&
                          box->table_name == meta->name
                      ? 1
                      : 0;
        }
        unaffected = refs == 0;
      }
      if (unaffected) {
        report.entries.push_back(
            RefreshEntry{st->name, RefreshMode::kUnaffected, 0, ""});
      } else {
        recompute.push_back(st.get());
      }
      continue;
    }
    if (StalenessOf(*st) > 0) {
      // The AST is already stale (e.g. a BulkLoad without refresh): its
      // materialization is missing earlier rows, so merging just this delta
      // and stamping the new epoch would mark it fresh while still wrong.
      // Route it to a full recompute instead.
      recompute.push_back(st.get());
      continue;
    }
    std::map<std::string, const engine::Relation*> overrides;
    overrides[meta->name] = &delta;
    engine::ExecOptions options;
    options.table_overrides = &overrides;
    options.columnar_overrides = &delta_columnar;
    engine::Executor executor(storage_, options);
    Status injected = FaultInjector::Instance().Check("maintenance/incremental");
    StatusOr<engine::Relation> delta_eval =
        injected.ok() ? executor.Execute(st->graph)
                      : StatusOr<engine::Relation>(std::move(injected));
    if (!delta_eval.ok()) {
      // Incremental path broke; fall back to full recomputation rather than
      // failing the append.
      recompute.push_back(st.get());
      continue;
    }
    engine::Relation delta_result = std::move(*delta_eval);
    auto end = std::chrono::steady_clock::now();
    Pending pending;
    pending.st = st.get();
    pending.plan = std::move(*plan);
    pending.delta_result = std::move(delta_result);
    incremental.push_back(std::move(pending));
    report.entries.push_back(RefreshEntry{
        st->name, RefreshMode::kIncremental,
        std::chrono::duration<double, std::milli>(end - start).count(), ""});
  }

  // Phase 2: build the base table's next copy-on-write version offline (the
  // full-table copy is the expensive part of an append — it must not happen
  // under ddl_mu_).
  engine::Relation next_base = *stored_base;
  next_base.rows.insert(next_base.rows.end(), delta.rows.begin(),
                        delta.rows.end());

  // Phase 3: merge the delta aggregates into copies of the materialized
  // tables, still offline.
  for (Pending& pending : incremental) {
    const engine::Relation* current = storage_.FindTable(pending.st->name);
    if (current == nullptr) {
      return Status::Internal("summary table data missing");
    }
    pending.merged = *current;
    engine::Relation& merged = pending.merged;
    if (pending.plan.spj_append) {
      merged.rows.insert(merged.rows.end(),
                         pending.delta_result.rows.begin(),
                         pending.delta_result.rows.end());
      continue;
    }
    std::unordered_map<Row, size_t, RowHash> index;
    index.reserve(merged.rows.size());
    auto key_of = [&pending](const Row& row) {
      Row key;
      key.reserve(pending.plan.key_cols.size());
      for (int c : pending.plan.key_cols) key.push_back(row[c]);
      return key;
    };
    for (size_t i = 0; i < merged.rows.size(); ++i) {
      index.emplace(key_of(merged.rows[i]), i);
    }
    for (Row& drow : pending.delta_result.rows) {
      auto it = index.find(key_of(drow));
      if (it == index.end()) {
        index.emplace(key_of(drow), merged.rows.size());
        merged.rows.push_back(std::move(drow));
        continue;
      }
      Row& existing = merged.rows[it->second];
      for (const MergePlan::AggCol& agg : pending.plan.agg_cols) {
        existing[agg.col] =
            MergeAggregateValues(agg.func, existing[agg.col], drow[agg.col]);
      }
    }
  }

  // Log + harden before publishing anything: every phase so far was pure
  // offline computation, so a crash up to here means the append never
  // happened; a crash after the harden replays it in full — base rows,
  // incremental merges, and recomputes — through this same code path.
  SUMTAB_RETURN_NOT_OK(LogRowsOp(
      static_cast<uint8_t>(wal::RecordType::kAppend), meta->name, delta.rows));

  // Commit: publish the appended base and every merged AST, bump the epoch,
  // and advance the merged ASTs' recorded epochs (lifting any quarantine —
  // maintenance just succeeded) in ONE exclusive window. The window is pure
  // pointer swaps and map updates: queries see pre-append or post-append
  // state, never the base appended with a dependent AST unmerged.
  {
    std::unique_lock<std::shared_mutex> lock(ddl_mu_);
    SUMTAB_RETURN_NOT_OK(storage_.Replace(meta->name, std::move(next_base)));
    int64_t new_epoch = storage_.BumpEpoch(meta->name);
    // Retain the slice even on the eager path: if a phase-4 recompute fails
    // below, the AST it leaves stale is still exactly one pure-append epoch
    // behind — compensatable instead of unusable. Absorbed slices are pruned
    // right after phase 4.
    storage_.RetainDelta(meta->name, new_epoch, std::move(delta));
    for (Pending& pending : incremental) {
      SUMTAB_RETURN_NOT_OK(
          storage_.Replace(pending.st->name, std::move(pending.merged)));
      pending.st->materialized_epochs[meta->name] = new_epoch;
      pending.st->consecutive_failures = 0;
      pending.st->disabled = false;
    }
  }

  // Phase 4: full recomputation for the rest. A refresh failure marks the
  // AST (stale, failure counted toward quarantine) but does not fail the
  // append: the base data is already in, and the rewriter will simply stop
  // routing through the un-refreshed table.
  for (SummaryTable* st : recompute) {
    auto start = std::chrono::steady_clock::now();
    Status refreshed = RefreshUnderMaint(st);
    auto end = std::chrono::steady_clock::now();
    double millis =
        std::chrono::duration<double, std::milli>(end - start).count();
    if (!refreshed.ok()) {
      RecordAstFailure(st);
      report.entries.push_back(RefreshEntry{st->name, RefreshMode::kFailed,
                                            millis, refreshed.ToString()});
      continue;
    }
    report.entries.push_back(
        RefreshEntry{st->name, RefreshMode::kRecompute, millis, ""});
  }
  for (const RefreshEntry& entry : report.entries) {
    const char* mode = "unknown";
    switch (entry.mode) {
      case RefreshMode::kUnaffected:
        mode = "unaffected";
        break;
      case RefreshMode::kIncremental:
        mode = "incremental";
        break;
      case RefreshMode::kRecompute:
        mode = "recompute";
        break;
      case RefreshMode::kFailed:
        mode = "failed";
        break;
      case RefreshMode::kDeferred:
        mode = "deferred";  // unreachable on the eager path
        break;
    }
    MetricsRegistry::Global()
        .counter(std::string("maintenance.") + mode)
        ->Increment();
  }
  PruneAbsorbedDeltas(meta->name);
  workload_log_.RecordAppend(meta->name, appended_rows);
  MaybeCheckpointLocked();
  return report;
}

void Database::PruneAbsorbedDeltas(const std::string& table) {
  // Caller holds maint_mu_ (the registry and materialized epochs are
  // stable); ddl_mu_ is taken here for the storage mutation. Disabled ASTs
  // do not pin slices — compensation never routes through quarantine.
  std::string key = ToLower(table);
  int64_t min_epoch = storage_.Epoch(key);
  for (const auto& st : summary_tables_) {
    if (st->disabled.load(std::memory_order_acquire)) continue;
    auto it = st->materialized_epochs.find(key);
    if (it == st->materialized_epochs.end()) continue;
    min_epoch = std::min(min_epoch, it->second);
  }
  std::unique_lock<std::shared_mutex> lock(ddl_mu_);
  storage_.PruneDeltasThrough(key, min_epoch);
}

}  // namespace sumtab
