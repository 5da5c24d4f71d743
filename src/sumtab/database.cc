#include "sumtab/database.h"

#include <algorithm>

#include "advisor/advisor.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/reject_reason.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "matching/rewriter.h"
#include "qgm/qgm_builder.h"
#include "qgm/qgm_print.h"
#include "qgm/qgm_to_sql.h"
#include "sql/parser.h"
#include "sumtab/compensation_exec.h"
#include "sumtab/maintenance.h"
#include "wal/wal.h"

namespace sumtab {

namespace {

/// Leaf-scan cost of a graph against a pinned snapshot: total rows of every
/// scanned base table. Same heuristic TryRewrite costs candidates with; here
/// it prices the query's base-table form for the workload log.
int64_t LeafRowCost(const qgm::Graph& graph,
                    const engine::Storage::Snapshot& snap) {
  int64_t cost = 0;
  for (int id = 0; id < graph.size(); ++id) {
    const qgm::Box* box = graph.box(id);
    if (box->kind != qgm::Box::Kind::kBase) continue;
    const engine::Relation* rel = snap.FindTable(box->table_name);
    if (rel != nullptr) cost += static_cast<int64_t>(rel->NumRows());
  }
  return cost;
}

}  // namespace

Database::Database() : plan_cache_(kPlanCacheCapacity) {}
Database::~Database() = default;

// ---- rewrite-plan cache ----

std::string Database::PlanCacheKey(const std::string& sql,
                                   const QueryOptions& options) const {
  // Only options that change the *plan graph* belong in the key; execution
  // knobs (threads, budgets, join strategy) reuse the same entry.
  return NormalizeSqlText(sql) + "#rw=" + (options.enable_rewrite ? "1" : "0") +
         "#stale=" + (options.allow_stale_reads ? "1" : "0") +
         "#comp=" + (options.enable_compensation ? "1" : "0");
}

ShardedPlanCache::Validator Database::PlanValidator(
    const engine::Storage::Snapshot& snap, int64_t generation,
    const QueryOptions& options) const {
  // The captured references outlive the synchronous lookup only; the
  // validator must not be stored. Caller holds ddl_mu_, so the registry and
  // the epochs it consults cannot change mid-validation.
  return [this, &snap, generation, &options](
             const CachedPlan& entry) -> std::string {
    // "Stale but compensatable" entries pin a delta high-water mark: the
    // plan is exact only for the precise epoch range it was built over.
    // Checked FIRST so a refresh that absorbed the range (which also bumps
    // the generation) reports the specific cause, not the generic one.
    if (entry.compensation != nullptr) {
      const matching::CompensationPlan& comp = *entry.compensation;
      SummaryTablePtr st = FindSummaryTable(comp.summary_table);
      if (st == nullptr || st->disabled.load(std::memory_order_acquire)) {
        return "ast:" + comp.summary_table;
      }
      auto it = st->materialized_epochs.find(comp.stale_table);
      int64_t materialized =
          it == st->materialized_epochs.end() ? 0 : it->second;
      if (materialized != comp.from_epoch ||
          snap.Epoch(comp.stale_table) != comp.to_epoch ||
          !snap.HasDeltaCoverage(comp.stale_table, comp.from_epoch,
                                 comp.to_epoch)) {
        return "delta:" + comp.stale_table;
      }
    }
    // Generation captures DDL / AST-lifecycle changes since planning.
    if (entry.generation != generation) return "generation";
    // Any epoch bump of a base table the original query scans invalidates:
    // a spliced-in AST may now be stale, and even the relative costs that
    // picked this plan have changed.
    for (const auto& [table, epoch] : entry.base_epochs) {
      if (snap.Epoch(table) != epoch) return "epoch:" + table;
    }
    // The ASTs this plan reads must still be serviceable under the *current*
    // options — a quarantined or newly-stale AST must not be served from
    // cache when a fresh search would have skipped it.
    for (const std::string& name : entry.used_asts) {
      // The compensated AST is *expected* to be stale — the compensation
      // block above already pinned its exact staleness window.
      if (entry.compensation != nullptr &&
          name == entry.compensation->summary_table) {
        continue;
      }
      SummaryTablePtr st = FindSummaryTable(name);
      if (st == nullptr || !UsableForRewrite(*st, options.allow_stale_reads)) {
        return "ast:" + name;
      }
    }
    return "";
  };
}

void Database::BumpGeneration() {
  catalog_generation_.fetch_add(1, std::memory_order_acq_rel);
}

DatabaseStats Database::Stats() const {
  ShardedPlanCache::Stats cache = plan_cache_.TotalStats();
  DatabaseStats stats;
  stats.plan_cache_hits = cache.hits;
  stats.plan_cache_misses = cache.misses;
  stats.plan_cache_invalidations = cache.invalidations;
  stats.plan_cache_entries = cache.entries;
  stats.catalog_generation = catalog_generation_.load(std::memory_order_acquire);
  stats.metrics = MetricsRegistry::Global().Snap();
  stats.durability.enabled = wal_ != nullptr;
  if (wal_ != nullptr) {
    stats.durability.last_lsn = wal_->last_lsn();
    stats.durability.durable_lsn = wal_->durable_lsn();
    stats.durability.wal_records = wal_->records_appended();
    stats.durability.wal_bytes = wal_->bytes_appended();
  }
  stats.durability.checkpoints_written =
      checkpoints_written_.load(std::memory_order_acquire);
  stats.durability.last_checkpoint_seq =
      checkpoint_seq_.load(std::memory_order_acquire);
  stats.durability.recovery_replayed_records = recovery_replayed_;
  stats.durability.recovery_truncated_bytes = recovery_truncated_bytes_;
  stats.durability.recovery_asts_dropped = recovery_asts_dropped_;
  stats.durability.recovery_deltas_dropped = recovery_deltas_dropped_;
  return stats;
}

Status Database::CreateTable(const std::string& name,
                             const std::vector<catalog::Column>& columns,
                             const std::vector<std::string>& primary_key) {
  std::lock_guard<std::mutex> maint(maint_mu_);
  catalog::Table table;
  table.name = name;
  table.columns = columns;
  table.primary_key = primary_key;
  // Pre-validate the checks Catalog::AddTable will apply, so only an
  // operation that will publish gets a WAL record (replay never sees a
  // record that would fail).
  if (catalog_.FindTable(name) != nullptr) {
    return Status::AlreadyExists("table '" + ToLower(name) + "'");
  }
  for (const std::string& pk : primary_key) {
    if (table.ColumnIndex(pk) < 0) {
      return Status::InvalidArgument("primary key column '" + ToLower(pk) +
                                     "' not in table '" + ToLower(name) + "'");
    }
  }
  SUMTAB_RETURN_NOT_OK(LogCreateTableOp(table));
  {
    std::unique_lock<std::shared_mutex> lock(ddl_mu_);
    SUMTAB_RETURN_NOT_OK(catalog_.AddTable(std::move(table)));
    engine::Relation empty;
    for (const catalog::Column& col : columns) {
      empty.column_names.push_back(ToLower(col.name));
    }
    SUMTAB_RETURN_NOT_OK(storage_.AddTable(name, std::move(empty)));
    BumpGeneration();
  }
  MaybeCheckpointLocked();
  return Status::OK();
}

Status Database::AddForeignKey(const std::string& child_table,
                               const std::string& child_column,
                               const std::string& parent_table,
                               const std::string& parent_column) {
  std::lock_guard<std::mutex> maint(maint_mu_);
  // Pre-validate (mirrors Catalog::AddForeignKey) so only an operation that
  // will publish gets logged.
  const catalog::Table* child = catalog_.FindTable(child_table);
  if (child == nullptr) {
    return Status::NotFound("table '" + ToLower(child_table) + "'");
  }
  if (catalog_.FindTable(parent_table) == nullptr) {
    return Status::NotFound("table '" + ToLower(parent_table) + "'");
  }
  if (child->ColumnIndex(child_column) < 0) {
    return Status::NotFound("column '" + ToLower(child_column) + "' in '" +
                            ToLower(child_table) + "'");
  }
  if (!catalog_.IsPrimaryKey(parent_table, parent_column)) {
    return Status::InvalidArgument(
        "FK must reference the parent's single-column primary key");
  }
  SUMTAB_RETURN_NOT_OK(
      LogForeignKeyOp(child_table, child_column, parent_table, parent_column));
  {
    std::unique_lock<std::shared_mutex> lock(ddl_mu_);
    SUMTAB_RETURN_NOT_OK(catalog_.AddForeignKey(child_table, child_column,
                                                parent_table, parent_column));
    BumpGeneration();  // RI constraints feed the matcher's rejoin reasoning
  }
  MaybeCheckpointLocked();
  return Status::OK();
}

Status Database::BulkLoad(const std::string& table, std::vector<Row> rows) {
  // maint_mu_ (not ddl_mu_) covers the copy-on-write build: no other mutator
  // can touch storage/catalog meanwhile, and readers only read, so the
  // full-table copy runs without stalling query planning.
  std::lock_guard<std::mutex> maint(maint_mu_);
  const engine::Relation* existing = storage_.FindTable(table);
  if (existing == nullptr) {
    return Status::NotFound("table '" + table + "'");
  }
  const catalog::Table* meta = catalog_.FindTable(table);
  for (const Row& row : rows) {
    if (row.size() != meta->columns.size()) {
      return Status::InvalidArgument("row arity mismatch for '" + table + "'");
    }
  }
  SUMTAB_RETURN_NOT_OK(LogRowsOp(
      static_cast<uint8_t>(wal::RecordType::kBulkLoad), meta->name, rows));
  engine::Relation updated = *existing;
  for (Row& row : rows) updated.rows.push_back(std::move(row));
  // Commit: publish the new version and bump the epoch in one exclusive
  // window. Queries that pinned a snapshot before this point keep reading
  // the pre-load rows.
  {
    std::unique_lock<std::shared_mutex> lock(ddl_mu_);
    SUMTAB_RETURN_NOT_OK(storage_.Replace(table, std::move(updated)));
    // BulkLoad deliberately does not maintain summary tables; bumping the
    // epoch is what flips dependent ASTs to kStale so the rewriter stops
    // serving pre-load answers through them.
    storage_.BumpEpoch(table);
  }
  MaybeCheckpointLocked();
  return Status::OK();
}

StatusOr<int64_t> Database::DefineSummaryTable(const std::string& name,
                                               const std::string& sql) {
  return DefineSummaryTable(name, sql, /*advisor_owned=*/false);
}

StatusOr<int64_t> Database::DefineSummaryTable(const std::string& name,
                                               const std::string& sql,
                                               bool advisor_owned) {
  // Parse + materialize under maint_mu_ alone (catalog/storage are stable:
  // no other mutator can run); only the registration commits under ddl_mu_.
  std::lock_guard<std::mutex> maint(maint_mu_);
  if (catalog_.FindTable(name) != nullptr) {
    return Status::AlreadyExists("table '" + name + "'");
  }
  SUMTAB_ASSIGN_OR_RETURN(std::shared_ptr<sql::SelectStmt> stmt,
                          sql::Parse(sql));
  SUMTAB_ASSIGN_OR_RETURN(qgm::Graph graph, qgm::BuildGraph(*stmt, catalog_));

  // Materialize; stored sorted, like every full recompute (see
  // RefreshUnderMaint).
  engine::Executor executor(storage_);
  SUMTAB_ASSIGN_OR_RETURN(engine::Relation data, executor.Execute(graph));
  engine::SortRows(&data);
  int64_t rows = static_cast<int64_t>(data.NumRows());

  // The definition parsed, built, and materialized — it will publish, so it
  // is safe (and required) to harden its record before the commit window.
  SUMTAB_RETURN_NOT_OK(LogDefineOp(name, sql, advisor_owned));

  {
    std::unique_lock<std::shared_mutex> lock(ddl_mu_);
    // Register in the catalog with inferred column types.
    const qgm::Box* root = graph.box(graph.root());
    catalog::Table table;
    table.name = name;
    table.is_summary_table = true;
    for (int i = 0; i < root->NumOutputs(); ++i) {
      catalog::Column col;
      col.name = root->outputs[i].name;
      col.type = root->column_info[i].type;
      col.nullable = root->column_info[i].nullable;
      table.columns.push_back(std::move(col));
    }
    SUMTAB_RETURN_NOT_OK(catalog_.AddTable(std::move(table)));
    SUMTAB_RETURN_NOT_OK(storage_.AddTable(name, std::move(data)));

    auto st = std::make_shared<SummaryTable>();
    st->name = ToLower(name);
    st->sql = sql;
    st->graph = std::move(graph);
    st->advisor_owned = advisor_owned;
    st->created_at_query = queries_observed_.load(std::memory_order_acquire);
    MarkRefreshed(st.get());  // bumps the catalog generation
    summary_tables_.push_back(std::move(st));
  }
  MaybeCheckpointLocked();
  return rows;
}

Status Database::DropSummaryTable(const std::string& name) {
  std::lock_guard<std::mutex> maint(maint_mu_);
  std::string key = ToLower(name);
  // The registry only changes under maint_mu_ + exclusive ddl_mu_, so this
  // existence check is stable through the log + publish below.
  if (FindSummaryTable(key) == nullptr) {
    return Status::NotFound("summary table '" + name + "'");
  }
  SUMTAB_RETURN_NOT_OK(
      LogNameOp(static_cast<uint8_t>(wal::RecordType::kDropSummary), key));
  Status dropped;
  {
    std::unique_lock<std::shared_mutex> lock(ddl_mu_);
    for (size_t i = 0; i < summary_tables_.size(); ++i) {
      if (summary_tables_[i]->name == key) {
        // In-flight queries that spliced this AST in keep it alive through
        // their shared_ptr refs; only the registry entry goes away.
        summary_tables_.erase(summary_tables_.begin() + i);
        break;
      }
    }
    BumpGeneration();
    // Note: the catalog keeps the (now dangling) table entry out of
    // simplicity; queries naming it will fail at execution.
    dropped = storage_.DropTable(key);
  }
  MaybeCheckpointLocked();
  return dropped;
}

std::vector<std::string> Database::SummaryTableNames() const {
  std::shared_lock<std::shared_mutex> lock(ddl_mu_);
  std::vector<std::string> names;
  for (const auto& st : summary_tables_) names.push_back(st->name);
  return names;
}

int64_t Database::TableRows(const std::string& name) const {
  // Pin a snapshot so a concurrent Replace can't free the version mid-read.
  engine::Storage::Snapshot snap = storage_.Snap();
  const engine::Relation* rel = snap.FindTable(name);
  return rel == nullptr ? 0 : static_cast<int64_t>(rel->NumRows());
}

// ---- freshness bookkeeping ----

Database::SummaryTablePtr Database::FindSummaryTable(
    const std::string& name) const {
  std::string key = ToLower(name);
  for (const auto& st : summary_tables_) {
    if (st->name == key) return st;
  }
  return nullptr;
}

int64_t Database::StalenessOf(const SummaryTable& st) const {
  int64_t lag = 0;
  for (const auto& [table, epoch] : st.materialized_epochs) {
    int64_t current = storage_.Epoch(table);
    if (current > epoch) lag += current - epoch;
  }
  return lag;
}

AstState Database::StateOf(const SummaryTable& st) const {
  if (st.disabled.load(std::memory_order_acquire)) return AstState::kDisabled;
  return StalenessOf(st) > 0 ? AstState::kStale : AstState::kFresh;
}

bool Database::UsableForRewrite(const SummaryTable& st,
                                bool allow_stale) const {
  if (st.disabled.load(std::memory_order_acquire)) {
    return false;  // quarantine overrides everything
  }
  int64_t lag = StalenessOf(st);
  return lag == 0 || lag <= st.max_staleness || allow_stale;
}

void Database::RecordAstFailure(SummaryTable* st) {
  // Called from concurrent queries' post-execution paths without ddl_mu_;
  // fetch_add keeps the streak exact under racing failures.
  int streak =
      st->consecutive_failures.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (streak >= kQuarantineThreshold) {
    st->disabled.store(true, std::memory_order_release);
  }
}

void Database::MarkRefreshed(SummaryTable* st) {
  st->materialized_epochs.clear();
  for (const std::string& table : matching::LeafBaseTables(st->graph)) {
    st->materialized_epochs[ToLower(table)] = storage_.Epoch(table);
  }
  st->consecutive_failures.store(0, std::memory_order_release);
  st->disabled.store(false, std::memory_order_release);
  // A define/refresh/revival changes which rewrites a fresh search would
  // pick, so cached plans from before it must be re-searched.
  BumpGeneration();
}

StatusOr<SummaryTableInfo> Database::GetSummaryTableInfo(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(ddl_mu_);
  SummaryTablePtr st = FindSummaryTable(name);
  if (st == nullptr) {
    return Status::NotFound("summary table '" + name + "'");
  }
  SummaryTableInfo info;
  info.name = st->name;
  info.sql = st->sql;
  info.state = StateOf(*st);
  info.staleness = StalenessOf(*st);
  info.max_staleness = st->max_staleness;
  info.consecutive_failures =
      st->consecutive_failures.load(std::memory_order_acquire);
  info.compensated_queries =
      st->compensated_queries.load(std::memory_order_acquire);
  info.advisor_owned = st->advisor_owned;
  info.rewrite_hits = st->rewrite_hits.load(std::memory_order_acquire);
  info.queries_since_creation =
      std::max<int64_t>(0, queries_observed_.load(std::memory_order_acquire) -
                               st->created_at_query);
  return info;
}

// ---- workload log ----

WorkloadSnapshot Database::WorkloadLogSnapshot() const {
  return workload_log_.Snapshot();
}

void Database::ClearWorkloadLog() { workload_log_.Clear(); }

int64_t Database::QueriesObserved() const {
  return queries_observed_.load(std::memory_order_acquire);
}

Status Database::SetMaxStaleness(const std::string& name,
                                 int64_t max_epoch_lag) {
  if (max_epoch_lag < 0) {
    return Status::InvalidArgument("max staleness must be >= 0");
  }
  std::lock_guard<std::mutex> maint(maint_mu_);
  SummaryTablePtr st = FindSummaryTable(name);
  if (st == nullptr) {
    return Status::NotFound("summary table '" + name + "'");
  }
  SUMTAB_RETURN_NOT_OK(LogStalenessOp(ToLower(name), max_epoch_lag));
  {
    std::unique_lock<std::shared_mutex> lock(ddl_mu_);
    st->max_staleness = max_epoch_lag;
    BumpGeneration();  // staleness tolerance changes rewrite eligibility
  }
  MaybeCheckpointLocked();
  return Status::OK();
}

std::unique_ptr<qgm::Graph> Database::TryRewrite(
    const qgm::Graph& query, const engine::Storage::Snapshot& snap,
    const QueryOptions& options, std::string* chosen, int* candidates,
    std::vector<SummaryTablePtr>* used_refs, QueryDegradation* degradation,
    QueryTrace* trace,
    std::shared_ptr<const matching::CompensationPlan>* compensation) {
  *candidates = 0;
  // EXPLAIN REWRITE also reports, per AST, whether an append to each of its
  // base tables would merge incrementally — computed once (round 0) and only
  // when tracing.
  auto maintenance_verdict = [](const SummaryTable& st) {
    std::string verdict;
    for (const std::string& table : matching::LeafBaseTables(st.graph)) {
      StatusOr<maintenance::MergePlan> plan =
          maintenance::AnalyzeMergePlan(st.graph, table);
      if (!verdict.empty()) verdict += ", ";
      verdict += table;
      verdict += "=";
      if (plan.ok()) {
        verdict += plan->spj_append ? "incremental(spj)" : "incremental";
      } else {
        verdict += RejectReasonToken(RejectReasonFromStatus(plan.status()));
      }
    }
    return verdict;
  };
  // Cost heuristic: total rows scanned at the leaves, counted against the
  // query's pinned snapshot so concurrent loads don't skew the comparison.
  auto leaf_cost = [&snap](const qgm::Graph& graph) {
    int64_t cost = 0;
    for (int id = 0; id < graph.size(); ++id) {
      const qgm::Box* box = graph.box(id);
      if (box->kind == qgm::Box::Kind::kBase) {
        const engine::Relation* rel = snap.FindTable(box->table_name);
        if (rel != nullptr) cost += static_cast<int64_t>(rel->NumRows());
      }
    }
    return cost;
  };

  // Iterative rerouting (paper Sec. 7): match the best AST, then feed the
  // rewritten query back through the remaining ASTs — distinct subtrees
  // (e.g. a scalar subquery and the main block) can each land on their own
  // summary table.
  std::unique_ptr<qgm::Graph> current;
  int64_t current_cost = leaf_cost(query);
  std::vector<SummaryTablePtr> used;
  constexpr int kMaxRounds = 4;
  for (int round = 0; round < kMaxRounds; ++round) {
    std::unique_ptr<qgm::Graph> best;
    int64_t best_cost = current_cost;
    SummaryTablePtr best_st;
    // Round-0-only: a stale AST can still answer EXACTLY if its missing
    // updates are retained as append deltas — the two-leg delta-compensation
    // path (DESIGN.md §13). Its candidates compete on cost with ordinary
    // rewrites; a win ends the iterative search, since the merged answer is
    // produced outside QGM and cannot be re-fed to the matcher.
    std::shared_ptr<matching::CompensationPlan> best_comp;
    SummaryTablePtr best_comp_st;
    int64_t best_comp_cost = 0;
    int64_t best_comp_rows = 0;
    int best_comp_attempt = -1;
    std::vector<AstAttemptTrace> attempts;  // this round's, when tracing
    int best_attempt = -1;                  // index into `attempts`
    for (const auto& st : summary_tables_) {
      if (!UsableForRewrite(*st, options.allow_stale_reads)) {
        bool disabled = st->disabled.load(std::memory_order_acquire);
        bool try_comp = round == 0 && !disabled && compensation != nullptr &&
                        options.enable_compensation;
        if (!try_comp) {
          if (trace != nullptr && round == 0) {
            trace->AddNote("ast '" + st->name + "' skipped: " +
                           (disabled ? "quarantined" : "stale"));
          }
          continue;
        }
        AstAttemptTrace attempt;
        AstAttemptTrace* attempt_ptr = nullptr;
        if (trace != nullptr) {
          attempt.ast_name = st->name;
          attempt.round = round;
          attempt.cost_before = static_cast<double>(current_cost);
          attempt.maintenance = maintenance_verdict(*st);
          attempt_ptr = &attempt;
        }
        // Which base tables lag the materialization? Compensation handles
        // exactly one (the merge key joins one AST leg to one delta leg).
        std::vector<std::pair<std::string, int64_t>> lagging;
        for (const auto& [table, epoch] : st->materialized_epochs) {
          if (snap.Epoch(table) > epoch) lagging.emplace_back(table, epoch);
        }
        StatusOr<matching::CompensationPlan> comp =
            [&]() -> StatusOr<matching::CompensationPlan> {
          if (lagging.size() != 1) {
            return RejectUnsupported(
                RejectReason::kCompMultiTableStaleness,
                std::to_string(lagging.size()) +
                    " base tables lag behind ast '" + st->name + "'");
          }
          const std::string& table = lagging[0].first;
          int64_t from = lagging[0].second;
          int64_t to = snap.Epoch(table);
          if (!snap.HasDeltaCoverage(table, from, to)) {
            return RejectUnsupported(
                RejectReason::kCompDeltaUnavailable,
                "no contiguous retained deltas for '" + table + "' epochs (" +
                    std::to_string(from) + ", " + std::to_string(to) + "]");
          }
          matching::SummaryTableDef def{st->name, &st->graph};
          SUMTAB_ASSIGN_OR_RETURN(
              matching::CompensationPlan plan,
              matching::BuildCompensationPlan(query, table, def, catalog_,
                                              attempt_ptr, trace));
          plan.from_epoch = from;
          plan.to_epoch = to;
          return plan;
        }();
        if (!comp.ok()) {
          if (trace != nullptr) {
            attempt.reason = RejectReasonFromStatus(comp.status());
            attempt.detail = comp.status().ToString();
            attempt.compensation = RejectReasonToken(attempt.reason);
            attempts.push_back(std::move(attempt));
          }
          continue;
        }
        ++*candidates;
        int64_t delta_rows =
            snap.DeltaRows(comp->stale_table, comp->from_epoch, comp->to_epoch);
        int64_t cost = leaf_cost(comp->ast_leg) + delta_rows;
        bool acceptable = cost <= current_cost &&
                          (best_comp == nullptr || cost < best_comp_cost);
        if (trace != nullptr) {
          attempt.produced = true;
          attempt.cost_after = static_cast<double>(cost);
          attempt.compensation =
              "compensated(" + std::to_string(delta_rows) + " delta rows, " +
              std::to_string(comp->to_epoch - comp->from_epoch) + " epochs)";
          if (!acceptable) attempt.detail = "costlier than the current plan";
        }
        if (acceptable) {
          best_comp =
              std::make_shared<matching::CompensationPlan>(std::move(*comp));
          best_comp_cost = cost;
          best_comp_rows = delta_rows;
          best_comp_st = st;
          if (trace != nullptr) {
            best_comp_attempt = static_cast<int>(attempts.size());
          }
        }
        if (trace != nullptr) attempts.push_back(std::move(attempt));
        continue;
      }
      matching::SummaryTableDef def{st->name, &st->graph};
      AstAttemptTrace attempt;
      AstAttemptTrace* attempt_ptr = nullptr;
      if (trace != nullptr) {
        attempt.ast_name = st->name;
        attempt.round = round;
        attempt.cost_before = static_cast<double>(current_cost);
        if (round == 0) attempt.maintenance = maintenance_verdict(*st);
        attempt_ptr = &attempt;
      }
      StatusOr<matching::RewriteResult> rewrite = matching::RewriteQuery(
          current != nullptr ? *current : query, def, catalog_, attempt_ptr,
          trace);
      if (!rewrite.ok()) {
        // A broken AST must not take down the search: skip it, count the
        // failure toward quarantine, and surface the event as degradation.
        RecordAstFailure(st.get());
        degradation->degraded = true;
        degradation->stage = "rewrite";
        if (!degradation->summary_table.empty()) {
          degradation->summary_table += "+";
        }
        degradation->summary_table += st->name;
        if (!degradation->message.empty()) degradation->message += "; ";
        degradation->message += rewrite.status().ToString();
        if (trace != nullptr) {
          attempt.reason = RejectReasonFromStatus(rewrite.status());
          attempt.detail = rewrite.status().ToString();
          attempts.push_back(std::move(attempt));
        }
        continue;
      }
      if (!rewrite->rewritten) {
        if (trace != nullptr) {
          attempt.num_matches = rewrite->num_matches;
          attempt.detail = "no match against the AST root";
          attempts.push_back(std::move(attempt));
        }
        continue;
      }
      if (round == 0) ++*candidates;
      int64_t cost = leaf_cost(rewrite->graph);
      // The first round takes any match (<=): even a same-size SPJ summary
      // table is worth using (filters/expressions are precomputed). Later
      // rounds demand strict improvement so the iteration terminates.
      bool acceptable = best == nullptr
                            ? (round == 0 ? cost <= current_cost
                                          : cost < current_cost)
                            : cost < best_cost;
      if (trace != nullptr) {
        attempt.produced = true;
        attempt.num_matches = rewrite->num_matches;
        attempt.cost_after = static_cast<double>(cost);
        if (!acceptable) attempt.detail = "costlier than the current plan";
      }
      if (acceptable) {
        best = std::make_unique<qgm::Graph>(std::move(rewrite->graph));
        best_cost = cost;
        best_st = st;
        if (trace != nullptr) best_attempt = static_cast<int>(attempts.size());
      }
      if (trace != nullptr) attempts.push_back(std::move(attempt));
    }
    // A compensation candidate wins only by strictly beating every ordinary
    // rewrite: at equal scan cost a fresh AST beats two-leg complexity.
    if (best_comp != nullptr &&
        (best == nullptr || best_comp_cost < best_cost)) {
      if (trace != nullptr) {
        if (best_comp_attempt >= 0) attempts[best_comp_attempt].chosen = true;
        for (AstAttemptTrace& attempt : attempts) {
          trace->AddAstAttempt(std::move(attempt));
        }
        trace->AddNote("delta compensation: stale ast '" + best_comp_st->name +
                       "' + " + std::to_string(best_comp_rows) +
                       " delta rows of '" + best_comp->stale_table + "'");
      }
      MetricsRegistry::Global().counter("rewrite.rewritten")->Increment();
      MetricsRegistry::Global().counter("rewrite.compensated")->Increment();
      *chosen = best_comp_st->name;
      *used_refs = {best_comp_st};
      *compensation = std::move(best_comp);
      return nullptr;
    }
    if (trace != nullptr) {
      if (best_attempt >= 0) attempts[best_attempt].chosen = true;
      for (AstAttemptTrace& attempt : attempts) {
        trace->AddAstAttempt(std::move(attempt));
      }
    }
    if (best == nullptr) break;
    current = std::move(best);
    current_cost = best_cost;
    if (used.empty() || used.back() != best_st) used.push_back(best_st);
  }
  if (current != nullptr) {
    MetricsRegistry::Global().counter("rewrite.rewritten")->Increment();
  }
  std::vector<std::string> names;
  for (const SummaryTablePtr& st : used) names.push_back(st->name);
  *chosen = Join(names, "+");
  *used_refs = std::move(used);
  return current;
}

StatusOr<QueryResult> Database::Query(const std::string& sql,
                                      const QueryOptions& options) {
  std::string inner_sql;
  if (sql::IsExplainRewrite(sql, &inner_sql)) {
    SUMTAB_ASSIGN_OR_RETURN(std::string text,
                            ExplainRewrite(inner_sql, options));
    QueryResult result;
    result.relation.column_names = {"explain rewrite"};
    size_t start = 0;
    while (start < text.size()) {
      size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      result.relation.rows.push_back(
          {Value::String(text.substr(start, end - start))});
      start = end + 1;
    }
    return result;
  }
  int64_t tune_budget = -1;
  if (sql::IsTuneStatement(sql, &tune_budget)) {
    advisor::AdvisorOptions tune_options;
    tune_options.budget_rows = tune_budget;
    SUMTAB_ASSIGN_OR_RETURN(advisor::TuneOutcome outcome,
                            advisor::AdviseAndApply(this, tune_options));
    QueryResult result;
    result.relation.column_names = {"action", "name", "rows", "detail"};
    for (const advisor::TuneAction& action : outcome.actions) {
      result.relation.rows.push_back(
          {Value::String(action.action), Value::String(action.name),
           Value::Int(action.rows), Value::String(action.detail)});
    }
    return result;
  }
  return QuerySelect(sql, options);
}

StatusOr<QueryResult> Database::QuerySelect(const std::string& sql,
                                            const QueryOptions& options) {
  static Counter* queries = MetricsRegistry::Global().counter("query.total");
  static Counter* degraded_queries =
      MetricsRegistry::Global().counter("query.degraded");
  static Counter* rewritten_queries =
      MetricsRegistry::Global().counter("query.rewritten");
  static Histogram* total_hist =
      MetricsRegistry::Global().histogram("query.latency");
  static Histogram* parse_hist =
      MetricsRegistry::Global().histogram("phase.parse");
  static Histogram* build_hist =
      MetricsRegistry::Global().histogram("phase.qgm_build");
  static Histogram* rewrite_hist =
      MetricsRegistry::Global().histogram("phase.rewrite");
  static Histogram* execute_hist =
      MetricsRegistry::Global().histogram("phase.execute");
  queries->Increment();
  ScopedLatency total_timer(total_hist);

  QueryResult result;
  if (options.collect_trace) result.trace = std::make_shared<QueryTrace>();
  QueryTrace* trace = result.trace.get();
  std::string cache_key;
  std::unique_ptr<qgm::Graph> plan;      // the graph to execute (owned)
  std::unique_ptr<qgm::Graph> original;  // base-table form, for fallback
  std::vector<SummaryTablePtr> used;     // ASTs the plan splices in (pinned)
  // Non-null when the query is served by the two-leg delta-compensation path
  // (stale AST + retained deltas); `plan` stays null then and `original`
  // holds the base-table fallback.
  std::shared_ptr<const matching::CompensationPlan> comp;
  int64_t comp_delta_rows = 0;
  bool was_rewritten = false;
  // Leaf rows a base-table plan scans (against the pinned snapshot): the
  // workload log's direct-cost figure. Cache hits reuse the memoized value.
  int64_t base_leaf_rows = 0;
  engine::Storage::Snapshot snap;
  int64_t plan_generation = 0;

  // Planning happens under the shared catalog lock: pin the storage
  // snapshot every later step reads, capture the generation, consult the
  // cache, and (on a miss) run parse -> QGM build -> match search. Loads and
  // DDL (exclusive holders) are ordered entirely before or after this block.
  {
    std::shared_lock<std::shared_mutex> lock(ddl_mu_);
    snap = storage_.Snap();
    plan_generation = catalog_generation_.load(std::memory_order_acquire);

    // 1. Plan-cache lookup: a hit skips parse -> QGM build -> match search.
    if (options.enable_plan_cache) {
      cache_key = PlanCacheKey(sql, options);
      CachedPlan cached;
      std::string cause;
      ShardedPlanCache::Lookup lookup = plan_cache_.LookupAndValidate(
          cache_key, PlanValidator(snap, plan_generation, options), &cached,
          &cause);
      if (trace != nullptr) {
        switch (lookup) {
          case ShardedPlanCache::Lookup::kHit:
            trace->SetPlanCache(PlanCacheOutcome::kHit, "");
            break;
          case ShardedPlanCache::Lookup::kMiss:
            trace->SetPlanCache(PlanCacheOutcome::kMiss, "");
            break;
          case ShardedPlanCache::Lookup::kInvalidated:
            trace->SetPlanCache(PlanCacheOutcome::kInvalidated, cause);
            break;
        }
      }
      if (lookup == ShardedPlanCache::Lookup::kHit) {
        result.plan_cache_hit = true;
        result.used_summary_table = cached.used_summary_table;
        result.summary_table = cached.summary_table;
        result.rewritten_sql = cached.rewritten_sql;
        result.candidate_rewrites = cached.candidate_rewrites;
        // The validator just vouched for these ASTs under this same lock, so
        // the lookups cannot miss; pin them for post-execution bookkeeping.
        for (const std::string& name : cached.used_asts) {
          if (SummaryTablePtr st = FindSummaryTable(name)) {
            used.push_back(std::move(st));
          }
        }
        was_rewritten = cached.used_summary_table;
        base_leaf_rows = cached.base_leaf_rows;
        comp = cached.compensation;
        if (comp != nullptr) {
          // For compensation entries the cached graph is the ORIGINAL
          // base-table form (the execution fallback); the immutable
          // compensation plan itself is shared, not copied.
          original = std::make_unique<qgm::Graph>(std::move(cached.plan));
        } else {
          plan = std::make_unique<qgm::Graph>(std::move(cached.plan));
        }
      }
    }

    // 2. Compile path (miss / invalidated / cache disabled).
    if (plan == nullptr && comp == nullptr) {
      int64_t t0 = MonotonicNanos();
      SUMTAB_ASSIGN_OR_RETURN(std::shared_ptr<sql::SelectStmt> stmt,
                              sql::Parse(sql));
      int64_t t1 = MonotonicNanos();
      SUMTAB_ASSIGN_OR_RETURN(qgm::Graph graph,
                              qgm::BuildGraph(*stmt, catalog_));
      int64_t t2 = MonotonicNanos();
      parse_hist->Record((t1 - t0) / 1000);
      build_hist->Record((t2 - t1) / 1000);
      if (trace != nullptr) {
        trace->RecordPhaseMicros(QueryTrace::kPhaseParse, (t1 - t0) / 1000);
        trace->RecordPhaseMicros(QueryTrace::kPhaseQgmBuild, (t2 - t1) / 1000);
      }
      original = std::make_unique<qgm::Graph>(std::move(graph));
      base_leaf_rows = LeafRowCost(*original, snap);
      if (options.enable_rewrite) {
        std::string chosen;
        int64_t rw0 = MonotonicNanos();
        std::unique_ptr<qgm::Graph> rewritten =
            TryRewrite(*original, snap, options, &chosen,
                       &result.candidate_rewrites, &used, &result.degradation,
                       trace, &comp);
        int64_t rw_micros = (MonotonicNanos() - rw0) / 1000;
        rewrite_hist->Record(rw_micros);
        if (trace != nullptr) {
          trace->RecordPhaseMicros(QueryTrace::kPhaseRewrite, rw_micros);
        }
        if (rewritten != nullptr) {
          StatusOr<std::string> new_sql = qgm::ToSql(*rewritten);
          if (new_sql.ok()) {
            result.used_summary_table = true;
            result.summary_table = chosen;
            result.rewritten_sql = std::move(*new_sql);
            was_rewritten = true;
            plan = std::move(rewritten);
          } else {
            // The rewrite can't be rendered/executed: degrade to base tables.
            for (const SummaryTablePtr& st : used) RecordAstFailure(st.get());
            result.degradation.degraded = true;
            result.degradation.stage = "rewrite";
            result.degradation.summary_table = chosen;
            if (!result.degradation.message.empty()) {
              result.degradation.message += "; ";
            }
            result.degradation.message += new_sql.status().ToString();
            used.clear();
          }
        } else if (comp != nullptr) {
          // Two-leg compensation won the search. Leg A (the AST scan) is the
          // closest single-statement rendering of the plan.
          StatusOr<std::string> leg_sql = qgm::ToSql(comp->ast_leg);
          result.used_summary_table = true;
          result.summary_table = chosen;
          result.rewritten_sql = leg_sql.ok() ? std::move(*leg_sql) : "";
          was_rewritten = true;
        }
      }
      if (plan == nullptr && comp == nullptr) {
        plan = std::make_unique<qgm::Graph>(qgm::Graph::CloneGraph(*original));
        used.clear();
      }
    }
  }  // ddl_mu_ released — execution must not hold the catalog lock.

  engine::ExecOptions exec_options;
  exec_options.disable_hash_join = options.disable_hash_join;
  exec_options.max_rows = options.max_rows;
  exec_options.timeout_millis = options.timeout_millis;
  // 0 = hardware concurrency; clamp so aggregation partition ids stay narrow.
  exec_options.max_threads =
      options.max_threads == 0
          ? ThreadPool::HardwareParallelism()
          : std::min(options.max_threads, 128);
  exec_options.trace = trace;
  int64_t exec_start = MonotonicNanos();
  StatusOr<engine::Relation> data =
      comp != nullptr ? compensation::ExecuteCompensationPlan(
                            *comp, snap, exec_options, &comp_delta_rows)
                      : engine::Executor(snap, exec_options).Execute(*plan);
  if (!data.ok() && was_rewritten) {
    // Graceful degradation: the rewritten plan failed, so fall back to the
    // base tables — a summary table is an optimization, never a requirement.
    // The retry runs against the SAME pinned snapshot, so the answer still
    // reflects one consistent point in time.
    for (const SummaryTablePtr& st : used) RecordAstFailure(st.get());
    if (result.plan_cache_hit) plan_cache_.Forget(cache_key);  // broken entry
    result.degradation.degraded = true;
    result.degradation.stage = "execute";
    result.degradation.summary_table = result.summary_table;
    if (!result.degradation.message.empty()) result.degradation.message += "; ";
    result.degradation.message += data.status().ToString();
    result.used_summary_table = false;
    result.summary_table.clear();
    result.rewritten_sql.clear();
    comp.reset();  // the retry answers from base tables, not the deltas
    if (original == nullptr) {
      // Cache hit: the base-table form was never built this call. Re-parse
      // under the shared lock (the catalog may be newer than the snapshot;
      // for the table/column facts parsing needs, that is compatible).
      std::shared_lock<std::shared_mutex> lock(ddl_mu_);
      SUMTAB_ASSIGN_OR_RETURN(std::shared_ptr<sql::SelectStmt> stmt,
                              sql::Parse(sql));
      SUMTAB_ASSIGN_OR_RETURN(qgm::Graph graph,
                              qgm::BuildGraph(*stmt, catalog_));
      original = std::make_unique<qgm::Graph>(std::move(graph));
    }
    engine::Executor retry(snap, exec_options);
    data = retry.Execute(*original);
  }
  {
    int64_t exec_micros = (MonotonicNanos() - exec_start) / 1000;
    execute_hist->Record(exec_micros);
    if (trace != nullptr) {
      trace->RecordPhaseMicros(QueryTrace::kPhaseExecute, exec_micros);
    }
  }
  if (!data.ok()) return data.status();
  if (result.used_summary_table) {
    rewritten_queries->Increment();
    if (trace != nullptr) {
      trace->SetChosen(result.summary_table, result.rewritten_sql);
    }
  }
  if (result.degradation.degraded) degraded_queries->Increment();
  if (result.used_summary_table) {
    // Serving through the AST(s) worked: clear their failure streaks and
    // credit the hit (the advisor's auto-DROP lifecycle reads these).
    for (const SummaryTablePtr& st : used) {
      st->consecutive_failures.store(0, std::memory_order_release);
      st->rewrite_hits.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  if (comp != nullptr && result.used_summary_table) {
    static Counter* compensated_counter =
        MetricsRegistry::Global().counter("query.compensated");
    static Counter* compensated_rows_counter =
        MetricsRegistry::Global().counter("query.compensation_delta_rows");
    result.compensated = true;
    result.compensation_delta_rows = comp_delta_rows;
    result.compensation_epochs = comp->to_epoch - comp->from_epoch;
    compensated_counter->Increment();
    compensated_rows_counter->Increment(comp_delta_rows);
    for (const SummaryTablePtr& st : used) {
      st->compensated_queries.fetch_add(1, std::memory_order_acq_rel);
    }
    if (trace != nullptr) {
      trace->AddNote("compensated: " + std::to_string(comp_delta_rows) +
                     " delta rows over " +
                     std::to_string(result.compensation_epochs) +
                     " epoch(s) of '" + comp->stale_table + "'");
    }
  }
  // 3. Memoize the decision — only a plan that parsed, matched, and executed
  //    cleanly this call (a fallback plan is not the search's answer). The
  //    entry is stamped with the generation and epochs observed at planning
  //    time, so a load/DDL that raced past us invalidates it on next lookup
  //    instead of serving a stale decision as current.
  if (options.enable_plan_cache && !result.plan_cache_hit &&
      !result.degradation.degraded && original != nullptr) {
    CachedPlan entry;
    if (comp != nullptr) {
      // Cache the base-table form as the fallback graph; the compensation
      // plan itself is immutable and shared across hits.
      entry.plan = qgm::Graph::CloneGraph(*original);
      entry.compensation = comp;
    } else {
      entry.plan = std::move(*plan);
    }
    entry.used_summary_table = result.used_summary_table;
    entry.summary_table = result.summary_table;
    entry.rewritten_sql = result.rewritten_sql;
    entry.candidate_rewrites = result.candidate_rewrites;
    for (const SummaryTablePtr& st : used) entry.used_asts.push_back(st->name);
    entry.generation = plan_generation;
    entry.base_leaf_rows = base_leaf_rows;
    for (const std::string& table : matching::LeafBaseTables(*original)) {
      entry.base_epochs[ToLower(table)] = snap.Epoch(ToLower(table));
    }
    plan_cache_.Insert(cache_key, std::move(entry));
  }
  // 4. Feed the workload log — the advisor's input. Off for the advisor's
  //    own sizing probes (record_workload=false) so tuning doesn't observe
  //    itself.
  if (options.record_workload) {
    queries_observed_.fetch_add(1, std::memory_order_acq_rel);
    sumtab::WorkloadLog::QueryObservation obs;
    obs.normalized_sql = NormalizeSqlText(sql);
    obs.base_leaf_rows = base_leaf_rows;
    obs.rewritten = result.used_summary_table;
    obs.compensated = result.compensated;
    if (!obs.rewritten) {
      obs.reject =
          result.candidate_rewrites > 0 ? "costlier_than_base" : "no_match";
    }
    for (const SummaryTablePtr& st : used) obs.used_asts.push_back(st->name);
    workload_log_.RecordQuery(obs);
  }
  result.relation = std::move(*data);
  return result;
}

StatusOr<std::string> Database::Explain(const std::string& sql) {
  std::shared_lock<std::shared_mutex> lock(ddl_mu_);
  engine::Storage::Snapshot snap = storage_.Snap();
  SUMTAB_ASSIGN_OR_RETURN(std::shared_ptr<sql::SelectStmt> stmt,
                          sql::Parse(sql));
  SUMTAB_ASSIGN_OR_RETURN(qgm::Graph graph, qgm::BuildGraph(*stmt, catalog_));
  std::string out = "-- original QGM --\n" + qgm::ToString(graph);
  std::string chosen;
  int candidates = 0;
  std::vector<SummaryTablePtr> used;
  QueryDegradation degradation;
  int skipped = 0;
  for (const auto& st : summary_tables_) {
    if (!UsableForRewrite(*st, /*allow_stale=*/false)) ++skipped;
  }
  std::unique_ptr<qgm::Graph> rewritten = TryRewrite(
      graph, snap, QueryOptions{}, &chosen, &candidates, &used, &degradation);
  out += "-- candidate rewrites: " + std::to_string(candidates) + "\n";
  if (skipped > 0) {
    out += "-- skipped " + std::to_string(skipped) +
           " stale/quarantined summary table(s)\n";
  }
  if (degradation.degraded) {
    out += "-- degraded (" + degradation.stage + "): " + degradation.message +
           "\n";
  }
  if (rewritten == nullptr) {
    out += "-- no summary table matches; executing against base tables\n";
    return out;
  }
  out += "-- rerouted through summary table: " + chosen + "\n";
  out += "-- rewritten QGM --\n" + qgm::ToString(*rewritten);
  SUMTAB_ASSIGN_OR_RETURN(std::string new_sql, qgm::ToSql(*rewritten));
  out += "-- rewritten SQL --\n" + new_sql + "\n";
  return out;
}

StatusOr<std::string> Database::ExplainRewrite(const std::string& sql,
                                               const QueryOptions& options) {
  QueryTrace trace;
  std::shared_lock<std::shared_mutex> lock(ddl_mu_);
  engine::Storage::Snapshot snap = storage_.Snap();
  int64_t generation = catalog_generation_.load(std::memory_order_acquire);

  // Plan-cache fate first, exactly as Query() would see it. This is a real
  // lookup — a hit refreshes the LRU, a stale entry is dropped — but EXPLAIN
  // never inserts, so explaining cannot seed the cache with an unexecuted
  // plan.
  if (options.enable_plan_cache) {
    CachedPlan cached;
    std::string cause;
    switch (plan_cache_.LookupAndValidate(
        PlanCacheKey(sql, options), PlanValidator(snap, generation, options),
        &cached, &cause)) {
      case ShardedPlanCache::Lookup::kHit:
        trace.SetPlanCache(PlanCacheOutcome::kHit, "");
        break;
      case ShardedPlanCache::Lookup::kMiss:
        trace.SetPlanCache(PlanCacheOutcome::kMiss, "");
        break;
      case ShardedPlanCache::Lookup::kInvalidated:
        trace.SetPlanCache(PlanCacheOutcome::kInvalidated, cause);
        break;
    }
  }

  int64_t t0 = MonotonicNanos();
  SUMTAB_ASSIGN_OR_RETURN(std::shared_ptr<sql::SelectStmt> stmt,
                          sql::Parse(sql));
  int64_t t1 = MonotonicNanos();
  SUMTAB_ASSIGN_OR_RETURN(qgm::Graph graph, qgm::BuildGraph(*stmt, catalog_));
  int64_t t2 = MonotonicNanos();
  trace.RecordPhaseMicros(QueryTrace::kPhaseParse, (t1 - t0) / 1000);
  trace.RecordPhaseMicros(QueryTrace::kPhaseQgmBuild, (t2 - t1) / 1000);

  std::string chosen;
  int candidates = 0;
  std::vector<SummaryTablePtr> used;
  QueryDegradation degradation;
  int64_t rw0 = MonotonicNanos();
  std::unique_ptr<qgm::Graph> rewritten;
  std::shared_ptr<const matching::CompensationPlan> comp;
  if (options.enable_rewrite) {
    rewritten = TryRewrite(graph, snap, options, &chosen, &candidates, &used,
                           &degradation, &trace, &comp);
  } else {
    trace.AddNote("rewriting disabled by options");
  }
  trace.RecordPhaseMicros(QueryTrace::kPhaseRewrite,
                          (MonotonicNanos() - rw0) / 1000);
  if (rewritten != nullptr) {
    StatusOr<std::string> new_sql = qgm::ToSql(*rewritten);
    trace.SetChosen(chosen, new_sql.ok() ? *new_sql : "");
  } else if (comp != nullptr) {
    StatusOr<std::string> leg_sql = qgm::ToSql(comp->ast_leg);
    trace.SetChosen(chosen, leg_sql.ok() ? *leg_sql : "");
  }
  if (degradation.degraded) {
    trace.AddNote("degraded (" + degradation.stage +
                  "): " + degradation.message);
  }
  // Advisor-owned ASTs carry their lifecycle status into the trace so TUNE
  // decisions are EXPLAIN-able: who created the AST and how it is earning
  // its keep against the auto-DROP threshold.
  for (const auto& st : summary_tables_) {
    if (!st->advisor_owned) continue;
    int64_t hits = st->rewrite_hits.load(std::memory_order_acquire);
    int64_t window =
        queries_observed_.load(std::memory_order_acquire) -
        st->created_at_query;
    trace.AddNote("ast '" + st->name + "' is advisor-owned (" +
                  std::to_string(hits) + " rewrite hit(s) over " +
                  std::to_string(window < 0 ? 0 : window) +
                  " observed queries)");
  }

  std::string out = "== EXPLAIN REWRITE ==\n";
  out += "candidates: " + std::to_string(candidates) + "\n";
  out += trace.ToString();
  return out;
}

}  // namespace sumtab
