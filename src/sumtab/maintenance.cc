// Summary-table maintenance (paper related problem (c)): insert-delta
// propagation in the style of Mumick et al., "Maintenance of Data Cubes and
// Summary Tables in a Warehouse" (the paper's reference [10]).
//
// For a mergeable AST — one that matching::AnalyzeCompensableQuery finds
// decomposable under an append-only delta and whose root stores the
// GROUP-BY's rows untouched — compensation::MergeDeltaLeg evaluates the
// AST's own QGM graph over the delta and engine::MergeGroups re-aggregates
// the stored rows together with it: COUNT/SUM add, MIN/MAX combine, new
// groups append. An AST that deferred appends left behind catches up the
// same way, over the retained slices it lags by. Everything else recomputes.
#include "sumtab/maintenance.h"

#include <algorithm>
#include <chrono>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/reject_reason.h"
#include "common/str_util.h"
#include "engine/column_vector.h"
#include "engine/executor.h"
#include "expr/expr_rewrite.h"
#include "sumtab/compensation_exec.h"
#include "sumtab/database.h"
#include "wal/wal.h"

namespace sumtab {
namespace maintenance {

StatusOr<matching::DeltaMerge> AnalyzeMergePlan(
    const qgm::Graph& graph, const std::string& delta_table) {
  SUMTAB_ASSIGN_OR_RETURN(
      matching::DeltaMerge shape,
      matching::AnalyzeCompensableQuery(graph, ToLower(delta_table)));
  // Select-project-join: for an insert-only delta over a table referenced
  // exactly once, delta(R join S) == deltaR join S, so the delta's rows
  // append as stored.
  if (shape.spj) return shape;

  // One aggregate block, whose root SELECT is what the table stores. Unlike
  // a compensated query, which re-evaluates its root over merged groups, the
  // stored rows must be the GROUP-BY's rows themselves.
  const qgm::Box* root = graph.box(graph.root());
  if (!root->predicates.empty()) {
    // HAVING filters rows whose aggregates a delta may push across the
    // threshold; merging cannot resurrect filtered groups.
    return RejectUnsupported(RejectReason::kMaintHavingPredicate,
                             "HAVING predicate");
  }
  const qgm::Box* gb = graph.box(root->quantifiers[0].child);
  matching::DeltaMerge plan;
  std::vector<bool> key_projected(gb->outputs.size(), false);
  for (size_t i = 0; i < root->outputs.size(); ++i) {
    int col = -1;
    if (!expr::IsSimpleColumnRef(root->outputs[i].expr, 0, &col)) {
      return RejectUnsupported(RejectReason::kMaintComputedOutput,
                               "computed expression above the aggregate");
    }
    const int stored = static_cast<int>(i);
    if (gb->IsGroupingOutput(col)) {
      plan.key_cols.push_back(stored);
      key_projected[col] = true;
      continue;
    }
    // Every other GROUP-BY output is one of the analysis' aggregates.
    auto agg = std::find_if(
        shape.agg_cols.begin(), shape.agg_cols.end(),
        [col](const expr::AggColumn& a) { return a.col == col; });
    plan.agg_cols.push_back(expr::AggColumn{stored, agg->func});
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

}  // namespace

StatusOr<engine::Batch> Database::CatchUp(const SummaryTablePtr& st,
                                          const matching::DeltaMerge& plan,
                                          const std::string& table,
                                          engine::Executor::BatchPtr delta,
                                          const engine::Storage::Snapshot& snap)
    const {
  if (st->disabled.load(std::memory_order_acquire)) {
    // Quarantine means the stored rows are untrusted; no delta fixes them.
    return Status::InvalidArgument("ast '" + st->name + "' is quarantined");
  }
  SUMTAB_ASSIGN_OR_RETURN(Lag lag, Classify(st, snap).lag);
  std::vector<engine::Executor::BatchPtr> slices;
  if (!lag.table.empty()) {
    if (lag.table != table) {
      return RejectUnsupported(RejectReason::kCompMultiTableStaleness,
                               "ast '" + st->name + "' lags behind '" +
                                   lag.table + "', not '" + table + "'");
    }
    slices = snap.DeltaSlices(table, lag.from, lag.to);
  }
  if (delta != nullptr) slices.push_back(std::move(delta));
  SUMTAB_RETURN_NOT_OK(
      FaultInjector::Instance().Check("maintenance/incremental"));
  std::shared_ptr<const engine::Batch> current = snap.FindColumnar(st->name);
  if (current == nullptr) {
    return Status::Internal("summary table data missing");
  }
  SUMTAB_ASSIGN_OR_RETURN(
      engine::Batch merged,
      compensation::MergeDeltaLeg(*current, st->graph, table, slices, plan,
                                  snap, engine::ExecOptions{}));
  return storage_.Encode(st->name, std::move(merged));
}

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
  // Logged before the refresh runs: a refresh that fails after this point
  // fails identically on replay (deterministic against the same state), so
  // the recovered AST lands in the same stale-with-failure state.
  SUMTAB_RETURN_NOT_OK(LogNameOp(
      static_cast<uint8_t>(wal::RecordType::kRefreshSummary), st->name));
  // An AST that lags behind retained appends on one table catches up: the
  // slices merge through the one delta leg, exactly as the next eager append
  // would merge them. Everything else recomputes — a fresh AST, a
  // quarantined one, BulkLoad staleness, a coverage gap, lag on more than
  // one table, a shape AnalyzeMergePlan rejects.
  const engine::Storage::Snapshot snap = storage_.Snap();
  StatusOr<Lag> lag = Classify(st, snap).lag;
  StatusOr<engine::Batch> caught_up = Status::NotSupported("not lagging");
  if (lag.ok() && !lag->table.empty()) {
    StatusOr<matching::DeltaMerge> plan =
        AnalyzeMergePlan(st->graph, lag->table);
    caught_up = plan.ok() ? CatchUp(st, *plan, lag->table, nullptr, snap)
                          : StatusOr<engine::Batch>(plan.status());
  }
  Status refreshed = caught_up.ok()
                         ? PublishRefresh(st.get(), std::move(*caught_up))
                         : RefreshUnderMaint(st.get());
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
  return PublishRefresh(st,
                        storage_.Encode(st->name, engine::SortBatch(*result)));
}

Status Database::PublishRefresh(SummaryTable* st, engine::Batch rows) {
  {
    // Copy-on-write commit: queries pinned to the old version keep it.
    std::unique_lock<std::shared_mutex> lock(ddl_mu_);
    SUMTAB_RETURN_NOT_OK(storage_.Replace(st->name, std::move(rows)));
    // A successful refresh is the one event that both re-captures the base
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
  // the commit (their epochs lag) and stop serving rewrites until phase 2
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

  // Phase 1: merge the delta into a copy of every incrementally-maintainable
  // AST (reads dimensions from storage, the appended table from the delta),
  // through the one delta leg compensation also uses. Storage and the
  // registry are stable under maint_mu_ alone. Each entry is timed.
  //
  // Deferred maintenance skips phases 1 and 2: it publishes the base rows and
  // RETAINS the appended slice, but leaves dependent ASTs untouched. Their
  // epochs now lag by a pure-append delta with full coverage, so the
  // rewriter can still answer exactly through them via delta compensation,
  // and the next eager append or Refresh catches them up by merging the
  // retained slices. This trades per-append maintenance cost for per-query
  // compensation cost — the ingest-heavy end of the paper's maintenance
  // spectrum.
  struct Pending {
    SummaryTable* st;
    engine::Batch merged;  // published at the commit
  };
  std::vector<Pending> incremental;
  std::vector<SummaryTable*> recompute;
  const engine::Storage::Snapshot snap = storage_.Snap();
  for (const auto& st : summary_tables_) {
    if (!append_options.maintain) {
      report.entries.push_back(RefreshEntry{
          st->name,
          matching::TableReferences(st->graph, meta->name) == 0
              ? RefreshMode::kUnaffected
              : RefreshMode::kDeferred,
          0, ""});
      continue;
    }
    auto start = std::chrono::steady_clock::now();
    StatusOr<matching::DeltaMerge> plan =
        AnalyzeMergePlan(st->graph, meta->name);
    if (!plan.ok()) {
      // The reference-count reject covers both an AST that does not read
      // the table (unaffected) and a self-join (recompute).
      if (RejectReasonFromStatus(plan.status()) ==
              RejectReason::kCompDeltaRefCount &&
          matching::TableReferences(st->graph, meta->name) == 0) {
        report.entries.push_back(
            RefreshEntry{st->name, RefreshMode::kUnaffected, 0, ""});
      } else {
        recompute.push_back(st.get());
      }
      continue;
    }
    // A fresh AST merges the new delta; one that deferred appends to this
    // table left behind merges its retained slices along with it. Whatever
    // CatchUp refuses recomputes: BulkLoad staleness, a coverage gap, lag
    // on another table, quarantine, and a failed evaluation — the append
    // itself never fails for it.
    StatusOr<engine::Batch> merged =
        CatchUp(st, *plan, meta->name, delta, snap);
    if (!merged.ok()) {
      recompute.push_back(st.get());
      continue;
    }
    incremental.push_back(Pending{st.get(), std::move(*merged)});
    report.entries.push_back(RefreshEntry{
        st->name, RefreshMode::kIncremental,
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count(),
        ""});
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
  // and advance the merged ASTs' recorded epochs in ONE exclusive window.
  // The window is pure pointer swaps and map updates: queries see
  // pre-append or post-append state, never the base appended with a
  // dependent AST unmerged.
  {
    std::unique_lock<std::shared_mutex> lock(ddl_mu_);
    SUMTAB_RETURN_NOT_OK(storage_.Replace(meta->name, std::move(next_base)));
    int64_t new_epoch = storage_.BumpEpoch(meta->name);
    // Retain the slice even on the eager path: if a phase-2 recompute fails
    // below, the AST it leaves stale is still exactly one pure-append epoch
    // behind — compensatable instead of unusable. Absorbed slices are pruned
    // right after phase 2.
    storage_.RetainDelta(meta->name, new_epoch, delta);
    for (Pending& pending : incremental) {
      SUMTAB_RETURN_NOT_OK(
          storage_.Replace(pending.st->name, std::move(pending.merged)));
      pending.st->materialized_epochs[meta->name] = new_epoch;
      pending.st->consecutive_failures = 0;
    }
  }

  // Phase 2: full recomputation for the rest. A refresh failure marks the
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
