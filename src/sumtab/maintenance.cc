// Summary-table maintenance (paper related problem (c)): insert-delta
// propagation in the style of Mumick et al., "Maintenance of Data Cubes and
// Summary Tables in a Warehouse" (the paper's reference [10]).
//
// For a mergeable AST — a single aggregate block whose root projects the
// GROUP-BY outputs untouched — the delta rows are aggregated by executing
// the AST's own QGM graph with the appended table overridden by the delta,
// and engine::MergeGroups re-aggregates the materialized table together
// with that delta aggregate: COUNT/SUM add, MIN/MAX combine, new groups
// append. Anything else (HAVING, DISTINCT aggregates, scalar subqueries,
// self-references, nested blocks) recomputes.
#include "sumtab/maintenance.h"

#include <algorithm>
#include <chrono>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/reject_reason.h"
#include "common/str_util.h"
#include "engine/aggregator.h"
#include "engine/column_vector.h"
#include "engine/executor.h"
#include "expr/expr_rewrite.h"
#include "sumtab/database.h"
#include "wal/wal.h"

namespace sumtab {
namespace maintenance {

namespace {

/// How many BASE boxes of `graph` scan `table`.
int TableReferences(const qgm::Graph& graph, const std::string& table) {
  int references = 0;
  for (qgm::BoxId id : graph.TopologicalOrder()) {
    const qgm::Box* box = graph.box(id);
    if (box->kind == qgm::Box::Kind::kBase && box->table_name == table) {
      ++references;
    }
  }
  return references;
}

}  // namespace

StatusOr<MergePlan> AnalyzeMergePlan(const qgm::Graph& graph,
                                     const std::string& delta_table) {
  bool has_group_by = false;
  for (qgm::BoxId id : graph.TopologicalOrder()) {
    const qgm::Box* box = graph.box(id);
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
  if (TableReferences(graph, delta_table) != 1) {
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
    plan.agg_cols.push_back(expr::AggColumn{static_cast<int>(i), agg->agg});
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

}  // namespace maintenance

namespace {

using maintenance::AnalyzeMergePlan;
using maintenance::MergePlan;
using maintenance::TableReferences;

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
  SUMTAB_ASSIGN_OR_RETURN(std::shared_ptr<const engine::Batch> result,
                          executor.ExecuteColumns(st->graph));
  // A full materialization is stored sorted, not in the aggregator's
  // hash-table order: the stored order is then deterministic, and queries
  // over the AST run faster on it (perfbench dashboard tiles: median query
  // latency ~12% lower than over hash-ordered ASTs, 4-core Xeon VM).
  engine::Batch updated =
      storage_.Encode(st->name, engine::SortBatch(*result));
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
  // the commit (their epochs lag) and stop serving rewrites until phase 3
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
  // Encoded once against the base table's dictionaries (so joins and group
  // keys land on the table's shared codes): phase 1 scans it, the next base
  // version concatenates it, and the retained slice is this same Batch.
  auto delta = std::make_shared<const engine::Batch>(storage_.Encode(
      meta->name,
      engine::BatchFromRows(rows, static_cast<int>(meta->columns.size()))));
  // The base table's next copy-on-write version, built offline (the
  // full-table copy is the expensive part of an append — it must not happen
  // under ddl_mu_).
  engine::Batch next_base =
      engine::ConcatBatches(*storage_.FindColumnar(meta->name), *delta);
  MaintenanceReport report;

  const std::map<std::string, std::shared_ptr<const engine::Batch>>
      delta_override = {{meta->name, delta}};

  // Phase 1: aggregate the delta through every incrementally-maintainable
  // AST (reads dimensions from storage, the appended table from the delta).
  // Storage and the registry are stable under maint_mu_ alone.
  //
  // Deferred maintenance skips phases 1-3: it publishes the base rows and
  // RETAINS the appended slice, but leaves dependent ASTs untouched. Their
  // epochs now lag by a pure-append delta with full coverage, so the
  // rewriter can still answer exactly through them via delta compensation;
  // a later Refresh (or eager append) absorbs the slices. This trades
  // per-append maintenance cost for per-query compensation cost — the
  // ingest-heavy end of the paper's maintenance spectrum.
  struct Pending {
    SummaryTable* st;
    MergePlan plan;
    engine::Batch delta_result;
    size_t entry;          // its RefreshEntry: phase 2 adds the merge time
    engine::Batch merged;  // built in phase 2, published at the commit
  };
  std::vector<Pending> incremental;
  std::vector<SummaryTable*> recompute;
  for (const auto& st : summary_tables_) {
    if (!append_options.maintain) {
      report.entries.push_back(RefreshEntry{
          st->name,
          TableReferences(st->graph, meta->name) == 0
              ? RefreshMode::kUnaffected
              : RefreshMode::kDeferred,
          0, ""});
      continue;
    }
    auto start = std::chrono::steady_clock::now();
    StatusOr<MergePlan> plan = AnalyzeMergePlan(st->graph, meta->name);
    if (!plan.ok()) {
      bool unaffected = false;
      if (RejectReasonFromStatus(plan.status()) ==
          RejectReason::kMaintDeltaRefCount) {
        // Distinguish 0 references (unaffected) from self-joins.
        unaffected = TableReferences(st->graph, meta->name) == 0;
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
    engine::ExecOptions options;
    options.columnar_overrides = &delta_override;
    engine::Executor executor(storage_, options);
    Status injected = FaultInjector::Instance().Check("maintenance/incremental");
    StatusOr<engine::Executor::BatchPtr> delta_eval =
        injected.ok() ? executor.ExecuteColumns(st->graph)
                      : StatusOr<engine::Executor::BatchPtr>(
                            std::move(injected));
    if (!delta_eval.ok()) {
      // Incremental path broke; fall back to full recomputation rather than
      // failing the append.
      recompute.push_back(st.get());
      continue;
    }
    auto end = std::chrono::steady_clock::now();
    Pending pending;
    pending.st = st.get();
    pending.plan = std::move(*plan);
    pending.delta_result = **delta_eval;
    pending.entry = report.entries.size();
    incremental.push_back(std::move(pending));
    report.entries.push_back(RefreshEntry{
        st->name, RefreshMode::kIncremental,
        std::chrono::duration<double, std::milli>(end - start).count(), ""});
  }

  // Phase 2: merge the delta aggregates into copies of the materialized
  // tables, still offline, through the one keyed merge compensation also
  // uses. Each merge is timed into its AST's entry.
  for (Pending& pending : incremental) {
    auto start = std::chrono::steady_clock::now();
    std::shared_ptr<const engine::Batch> current =
        storage_.FindColumnar(pending.st->name);
    if (current == nullptr) {
      return Status::Internal("summary table data missing");
    }
    engine::Batch delta =
        storage_.Encode(pending.st->name, std::move(pending.delta_result));
    if (pending.plan.spj_append) {
      pending.merged = engine::ConcatBatches(*current, delta);
    } else {
      SUMTAB_ASSIGN_OR_RETURN(
          pending.merged,
          engine::MergeGroups(*current, delta, pending.plan.key_cols,
                              pending.plan.agg_cols));
    }
    pending.merged =
        storage_.Encode(pending.st->name, std::move(pending.merged));
    report.entries[pending.entry].millis +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
  }

  // Log + harden before publishing anything: every phase so far was pure
  // offline computation, so a crash up to here means the append never
  // happened; a crash after the harden replays it in full — base rows,
  // incremental merges, and recomputes — through this same code path.
  SUMTAB_RETURN_NOT_OK(
      LogRowsOp(static_cast<uint8_t>(append_options.maintain
                                         ? wal::RecordType::kAppend
                                         : wal::RecordType::kAppendDeferred),
                meta->name, rows));

  // Commit: publish the appended base and every merged AST, bump the epoch,
  // and advance the merged ASTs' recorded epochs (lifting any quarantine —
  // maintenance just succeeded) in ONE exclusive window. The window is pure
  // pointer swaps and map updates: queries see pre-append or post-append
  // state, never the base appended with a dependent AST unmerged.
  {
    std::unique_lock<std::shared_mutex> lock(ddl_mu_);
    SUMTAB_RETURN_NOT_OK(storage_.Replace(meta->name, std::move(next_base)));
    int64_t new_epoch = storage_.BumpEpoch(meta->name);
    // Retain the slice even on the eager path: if a phase-3 recompute fails
    // below, the AST it leaves stale is still exactly one pure-append epoch
    // behind — compensatable instead of unusable. Absorbed slices are pruned
    // right after phase 3.
    storage_.RetainDelta(meta->name, new_epoch, delta);
    for (Pending& pending : incremental) {
      SUMTAB_RETURN_NOT_OK(
          storage_.Replace(pending.st->name, std::move(pending.merged)));
      pending.st->materialized_epochs[meta->name] = new_epoch;
      pending.st->consecutive_failures = 0;
      pending.st->disabled = false;
    }
  }

  // Phase 3: full recomputation for the rest. A refresh failure marks the
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
  // Indexed by RefreshMode.
  static const char* const kModeCounters[] = {
      "maintenance.unaffected", "maintenance.incremental",
      "maintenance.recompute", "maintenance.failed", "maintenance.deferred"};
  for (const RefreshEntry& entry : report.entries) {
    MetricsRegistry::Global()
        .counter(kModeCounters[static_cast<int>(entry.mode)])
        ->Increment();
  }
  // After a deferred append this is a no-op unless every dependent AST
  // already covers the new epoch (e.g. no enabled AST reads the table).
  PruneAbsorbedDeltas(meta->name);
  // Workload telemetry: the advisor charges candidates their maintenance
  // cost from this observed append rate. Recording during replay is correct
  // — a restored checkpoint covers appends up to its last_lsn only.
  workload_log_.RecordAppend(meta->name, delta->num_rows);
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
