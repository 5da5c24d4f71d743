#include "sumtab/database.h"

#include <algorithm>
#include <optional>

#include "advisor/advisor.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/reject_reason.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "matching/rewriter.h"
#include "qgm/qgm_builder.h"
#include "qgm/qgm_to_sql.h"
#include "sql/parser.h"
#include "sql/template.h"
#include "sumtab/compensation_exec.h"
#include "sumtab/maintenance.h"
#include "wal/wal.h"

namespace sumtab {

namespace {

/// The lower-cased table of every base-table scan in `graph`, repeats kept.
std::vector<std::string> LeafTables(const qgm::Graph& graph) {
  std::vector<std::string> tables;
  for (int id = 0; id < graph.size(); ++id) {
    const qgm::Box* box = graph.box(id);
    if (box->kind == qgm::Box::Kind::kBase) {
      tables.push_back(ToLower(box->table_name));
    }
  }
  return tables;
}

/// Total rows of `tables` in a pinned snapshot. Over a graph's LeafTables it
/// is the graph's leaf-scan cost: TryRewrite costs its candidates with it,
/// and the workload log prices the query's base-table form with it.
int64_t LeafRows(const std::vector<std::string>& tables,
                 const engine::Storage::Snapshot& snap) {
  int64_t rows = 0;
  for (const std::string& table : tables) {
    std::shared_ptr<const engine::Batch> batch = snap.FindColumnar(table);
    if (batch != nullptr) rows += batch->num_rows;
  }
  return rows;
}

/// The trace's plan-cache fate for a lookup; on a hit, `*detail` becomes
/// "template", or the decision that keeps the plan to its own literals.
PlanCacheOutcome PlanCacheFate(ShardedPlanCache::Lookup lookup,
                               const CachedPlan* cached, std::string* detail) {
  switch (lookup) {
    case ShardedPlanCache::Lookup::kHit:
      *detail = cached->literal_read.empty()
                    ? "template"
                    : "literal-sensitive: " + cached->literal_read;
      return PlanCacheOutcome::kHit;
    case ShardedPlanCache::Lookup::kMiss:
      return PlanCacheOutcome::kMiss;
    case ShardedPlanCache::Lookup::kInvalidated:
      return PlanCacheOutcome::kInvalidated;
    case ShardedPlanCache::Lookup::kLiteralSensitive:
      return PlanCacheOutcome::kLiteralSensitive;
  }
  return PlanCacheOutcome::kMiss;
}

int64_t LeafRowCost(const qgm::Graph& graph,
                    const engine::Storage::Snapshot& snap) {
  return LeafRows(LeafTables(graph), snap);
}

}  // namespace

Database::Database() : plan_cache_(kPlanCacheCapacity) {}
Database::~Database() = default;

// ---- rewrite-plan cache ----

std::string Database::PlanCacheKey(const sql::SqlTemplate& tmpl,
                                   const QueryOptions& options) {
  // Only options that change the *plan graph* belong in the key; execution
  // knobs (threads, budgets, join strategy) reuse the same entry.
  return tmpl.text + "#slots=" + tmpl.SlotKinds() +
         "#rw=" + (options.enable_rewrite ? "1" : "0") +
         "#stale=" + (options.allow_stale_reads ? "1" : "0");
}

PlanContext Database::PlanningContext(
    const std::vector<std::string>& leaf_tables,
    const engine::Storage::Snapshot& snap, int64_t generation,
    const QueryOptions& options) const {
  PlanContext context;
  context.generation = generation;
  // With rewriting off the plan is the base-table form, whatever the ASTs.
  if (!options.enable_rewrite) return context;
  // Mirrors TryRewrite's branches: UsableForRewrite (fresh or tolerated),
  // else the compensation attempt (LagOf), else skipped.
  for (const SummaryTablePtr& st : summary_tables_) {
    bool reads = false;
    for (const std::string& table : leaf_tables) {
      reads = reads || st->materialized_epochs.count(table) > 0;
    }
    if (!reads) continue;
    AstPlanState& state = context.asts.emplace_back();
    state.name = st->name;
    if (st->disabled.load(std::memory_order_acquire)) {
      state.kind = AstPlanState::Kind::kQuarantined;
      continue;
    }
    int64_t lag = 0;
    for (const auto& [table, epoch] : st->materialized_epochs) {
      int64_t behind = snap.Epoch(table) - epoch;
      if (behind <= 0) continue;
      if (lag == 0) state.table = table;
      lag += behind;
    }
    if (lag == 0) continue;  // kFresh
    if (lag <= st->max_staleness || options.allow_stale_reads) {
      state.kind = AstPlanState::Kind::kTolerated;
      state.epochs = lag;
      continue;
    }
    state.kind = AstPlanState::Kind::kUnusable;
    if (StatusOr<Lag> delta = LagOf(*st, snap); delta.ok()) {
      state.kind = AstPlanState::Kind::kLagging;
      state.table = delta->table;
      state.epochs = delta->to - delta->from;
    }
  }
  return context;
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
  stats.plan_cache_literal_sensitive = cache.literal_sensitive;
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
    std::vector<std::string> column_names;
    for (const catalog::Column& col : columns) {
      column_names.push_back(ToLower(col.name));
    }
    SUMTAB_RETURN_NOT_OK(storage_.AddTable(
        name, std::move(column_names),
        engine::BatchFromRows({}, static_cast<int>(columns.size()))));
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
  const catalog::Table* meta = catalog_.FindTable(table);
  std::shared_ptr<const engine::Batch> existing = storage_.FindColumnar(table);
  if (meta == nullptr || existing == nullptr) {
    return Status::NotFound("table '" + table + "'");
  }
  if (meta->is_summary_table) {
    // A summary table's rows are derived: loading into one would make the
    // rewriter serve answers no query over the base tables can produce.
    return Status::InvalidArgument("cannot bulk load into a summary table");
  }
  for (const Row& row : rows) {
    if (row.size() != meta->columns.size()) {
      return Status::InvalidArgument("row arity mismatch for '" + table + "'");
    }
  }
  SUMTAB_RETURN_NOT_OK(LogRowsOp(
      static_cast<uint8_t>(wal::RecordType::kBulkLoad), meta->name, rows));
  engine::Batch loaded = storage_.Encode(
      table,
      engine::BatchFromRows(std::move(rows),
                            static_cast<int>(meta->columns.size())));
  engine::Batch updated = existing->num_rows == 0
                              ? std::move(loaded)
                              : engine::ConcatBatches(*existing, loaded);
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

  // Materialize; stored sorted and encoded, like every full recompute (see
  // RefreshUnderMaint).
  engine::Executor executor(storage_);
  SUMTAB_ASSIGN_OR_RETURN(std::shared_ptr<const engine::Batch> result,
                          executor.ExecuteColumns(graph));
  engine::Batch data = storage_.Encode(name, engine::SortBatch(*result));
  int64_t rows = data.num_rows;

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
    std::vector<std::string> column_names;
    for (int i = 0; i < root->NumOutputs(); ++i) {
      catalog::Column col;
      col.name = root->outputs[i].name;
      col.type = root->column_info[i].type;
      col.nullable = root->column_info[i].nullable;
      column_names.push_back(col.name);
      table.columns.push_back(std::move(col));
    }
    SUMTAB_RETURN_NOT_OK(catalog_.AddTable(std::move(table)));
    SUMTAB_RETURN_NOT_OK(
        storage_.AddTable(name, std::move(column_names), std::move(data)));

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
  // The shared_ptr keeps the version alive across a concurrent Replace.
  std::shared_ptr<const engine::Batch> batch = storage_.FindColumnar(name);
  return batch == nullptr ? 0 : batch->num_rows;
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
  // EXPLAIN REWRITE also reports, per AST, what the next eager append to
  // each of its base tables would do — merge the delta, catch up by merging
  // the retained slices too, or recompute for the analysis' or the lag
  // check's reason — computed once (round 0) and only when tracing.
  auto maintenance_verdict = [this, &snap](const SummaryTable& st) {
    StatusOr<Lag> lag = LagOf(st, snap);
    std::string verdict;
    for (const std::string& table : matching::LeafBaseTables(st.graph)) {
      StatusOr<matching::DeltaMerge> plan =
          maintenance::AnalyzeMergePlan(st.graph, table);
      if (!verdict.empty()) verdict += ", ";
      verdict += table;
      verdict += "=";
      if (!plan.ok() || !lag.ok()) {
        verdict += RejectReasonToken(
            RejectReasonFromStatus(plan.ok() ? lag.status() : plan.status()));
      } else if (lag->table.empty()) {
        verdict += plan->spj ? "incremental(spj)" : "incremental";
      } else if (lag->table == ToLower(table)) {
        verdict += "catch_up(" + std::to_string(lag->to - lag->from) +
                   " epochs)";
      } else {
        // An append here would leave two tables lagging.
        verdict += RejectReasonToken(RejectReason::kCompMultiTableStaleness);
      }
    }
    return verdict;
  };
  // Cost heuristic: LeafRowCost, counted against the query's pinned snapshot
  // so concurrent loads don't skew the comparison.
  //
  // Iterative rerouting (paper Sec. 7): match the best AST, then feed the
  // rewritten query back through the remaining ASTs — distinct subtrees
  // (e.g. a scalar subquery and the main block) can each land on their own
  // summary table.
  std::unique_ptr<qgm::Graph> current;
  int64_t current_cost = LeafRowCost(query, snap);
  std::vector<SummaryTablePtr> used;
  // Delta compensation (DESIGN.md §13), round 0 only: a stale AST can still
  // answer a block EXACTLY if its missing updates are retained appends.
  // Each block keeps its cheapest leg over the lagging ASTs. The blocks and
  // their queries Q'_B are made on the first lagging AST.
  std::vector<qgm::BoxId> blocks;
  std::vector<StatusOr<matching::BlockQueryGraph>> block_queries;
  struct BlockLeg {
    std::optional<matching::CompensationLeg> leg;
    int64_t cost = 0;  // AST-leg leaf rows + delta rows
    int64_t delta_rows = 0;
    SummaryTablePtr st;
  };
  std::vector<BlockLeg> block_legs;
  // One block's verdict against one lagging AST: its leg, or the comp_*
  // reject. Blocks that do not read the stale table need no leg.
  auto try_blocks = [&](const SummaryTablePtr& st, const Lag& lag,
                        AstAttemptTrace* attempt_ptr) {
    if (blocks.empty()) {
      blocks = matching::CompensationBlocks(query);
      for (qgm::BoxId block : blocks) {
        block_queries.push_back(matching::BlockQuery(query, block));
      }
      block_legs.resize(blocks.size());
    }
    matching::SummaryTableDef def{st->name, &st->graph};
    std::string verdicts;
    Status reject;  // the first block's comp_* reject
    int64_t delta_rows = snap.DeltaRows(lag.table, lag.from, lag.to);
    int legs = 0;
    int64_t cost = 0;
    for (size_t b = 0; b < blocks.size(); ++b) {
      if (block_queries[b].ok() &&
          matching::TableReferences(block_queries[b]->graph, lag.table) == 0) {
        continue;
      }
      StatusOr<matching::CompensationLeg> leg =
          block_queries[b].ok()
              ? matching::BuildCompensationLeg(*block_queries[b], lag.table,
                                               def, catalog_, attempt_ptr,
                                               trace)
              : StatusOr<matching::CompensationLeg>(block_queries[b].status());
      std::string verdict;
      if (leg.ok()) {
        int64_t leg_cost = LeafRowCost(leg->ast_leg, snap) + delta_rows;
        ++legs;
        cost += leg_cost;
        verdict = "compensated(" + std::to_string(delta_rows) +
                  " delta rows, " + std::to_string(lag.to - lag.from) +
                  " epochs)";
        BlockLeg& best = block_legs[b];
        if (!best.leg || leg_cost < best.cost) {
          best = BlockLeg{std::move(*leg), leg_cost, delta_rows, st};
        }
      } else {
        if (reject.ok()) reject = leg.status();
        verdict = RejectReasonToken(RejectReasonFromStatus(leg.status()));
      }
      if (!verdicts.empty()) verdicts += ", ";
      if (blocks.size() > 1) verdicts += "q" + std::to_string(blocks[b]) + "=";
      verdicts += verdict;
    }
    if (verdicts.empty()) {
      // The stale table is read only above the blocks, or not at all.
      reject = RejectUnsupported(
          RejectReason::kCompDeltaRefCount,
          "no aggregate block reads stale table '" + lag.table + "'");
      verdicts = RejectReasonToken(RejectReason::kCompDeltaRefCount);
    }
    if (attempt_ptr != nullptr) {
      attempt_ptr->compensation = std::move(verdicts);
      if (legs > 0) {
        attempt_ptr->produced = true;
        attempt_ptr->cost_after = static_cast<double>(cost);
      } else {
        attempt_ptr->reason = RejectReasonFromStatus(reject);
        attempt_ptr->detail = reject.ToString();
      }
    }
    return legs > 0;
  };
  constexpr int kMaxRounds = 4;
  for (int round = 0; round < kMaxRounds; ++round) {
    std::unique_ptr<qgm::Graph> best;
    int64_t best_cost = current_cost;
    SummaryTablePtr best_st;
    std::vector<AstAttemptTrace> attempts;  // this round's, when tracing
    int best_attempt = -1;                  // index into `attempts`
    for (const auto& st : summary_tables_) {
      if (!UsableForRewrite(*st, options.allow_stale_reads)) {
        bool disabled = st->disabled.load(std::memory_order_acquire);
        bool try_comp = round == 0 && !disabled;
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
        // Compensation needs the lag to be retained appends on one table
        // (each leg merges one AST leg with one delta leg).
        StatusOr<Lag> lag = LagOf(*st, snap);
        if (!lag.ok()) {
          if (trace != nullptr) {
            attempt.reason = RejectReasonFromStatus(lag.status());
            attempt.detail = lag.status().ToString();
            attempt.compensation = RejectReasonToken(attempt.reason);
          }
        } else if (try_blocks(st, *lag, attempt_ptr)) {
          ++*candidates;
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
      int64_t cost = LeafRowCost(rewrite->graph, snap);
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
    // The compensation candidate serves every block that has a leg; it wins
    // only by strictly beating every ordinary rewrite (at equal scan cost a
    // fresh AST beats merging), and its win ends the search, since the
    // merged rows are produced outside QGM and cannot be re-fed to the
    // matcher.
    std::vector<qgm::BoxId> comp_blocks;
    std::vector<matching::CompensationLeg> comp_legs;
    std::vector<SummaryTablePtr> comp_asts;  // distinct, in block order
    std::vector<std::string> notes;
    int64_t comp_cost = 0;
    for (size_t b = 0; b < block_legs.size(); ++b) {
      BlockLeg& block = block_legs[b];
      if (!block.leg) continue;
      comp_blocks.push_back(blocks[b]);
      comp_cost += block.cost;
      notes.push_back("delta compensation: stale ast '" + block.st->name +
                      "' + " + std::to_string(block.delta_rows) +
                      " delta rows of '" + block.leg->stale_table + "'");
      comp_legs.push_back(std::move(*block.leg));
      if (std::find(comp_asts.begin(), comp_asts.end(), block.st) ==
          comp_asts.end()) {
        comp_asts.push_back(block.st);
      }
    }
    if (!comp_blocks.empty()) {
      block_legs.clear();
      auto comp = std::make_shared<matching::CompensationPlan>(
          matching::AssembleCompensationPlan(query, comp_blocks,
                                             std::move(comp_legs)));
      comp_cost += LeafRowCost(comp->residual, snap);
      if (comp_cost <= current_cost &&
          (best == nullptr || comp_cost < best_cost)) {
        std::vector<std::string> names;
        for (const SummaryTablePtr& st : comp_asts) names.push_back(st->name);
        if (trace != nullptr) {
          for (AstAttemptTrace& attempt : attempts) {
            attempt.chosen =
                attempt.produced && !attempt.compensation.empty() &&
                std::find(names.begin(), names.end(), attempt.ast_name) !=
                    names.end();
            trace->AddAstAttempt(std::move(attempt));
          }
          for (std::string& note : notes) trace->AddNote(std::move(note));
        }
        MetricsRegistry::Global().counter("rewrite.rewritten")->Increment();
        MetricsRegistry::Global().counter("rewrite.compensated")->Increment();
        *chosen = Join(names, "+");
        *used_refs = std::move(comp_asts);
        *compensation = std::move(comp);
        return nullptr;
      }
      if (trace != nullptr) {
        for (AstAttemptTrace& attempt : attempts) {
          if (attempt.produced && !attempt.compensation.empty()) {
            attempt.detail = "costlier than the current plan";
          }
        }
      }
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
  // One lex serves the statement dispatch, the plan-cache template and, on
  // a miss, the parse.
  SUMTAB_ASSIGN_OR_RETURN(std::vector<sql::Token> tokens, sql::Lex(sql));
  std::string inner_sql;
  if (sql::IsExplainRewrite(sql, tokens, &inner_sql)) {
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
  if (sql::IsTuneStatement(tokens, &tune_budget)) {
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
  return QuerySelect(sql, std::move(tokens), options);
}

StatusOr<QueryResult> Database::QuerySelect(const std::string& sql,
                                            std::vector<sql::Token> tokens,
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
  // The plan cache keys the query by its template (DESIGN.md §8); the
  // workload log keeps the literal text, which the advisor re-parses.
  sql::SqlTemplate tmpl;
  if (options.enable_plan_cache) tmpl = sql::Templatize(&tokens);
  const std::string normalized =
      options.record_workload ? NormalizeSqlText(sql) : std::string();
  std::string cache_key;
  ShardedPlanCache::PlanPtr cached;            // set on a hit
  std::shared_ptr<const qgm::Graph> plan;      // the graph to execute
  std::shared_ptr<const qgm::Graph> original;  // base-table form, fallback
  std::vector<SummaryTablePtr> used;  // ASTs the plan splices in (pinned)
  // Non-null when the query is served by per-block delta compensation
  // (stale ASTs + retained deltas); `plan` stays null then and `original`
  // holds the base-table fallback. comp_lags[i] is leg i's AST's lag in
  // `snap`: the epochs its delta leg covers.
  std::shared_ptr<const matching::CompensationPlan> comp;
  std::vector<compensation::EpochRange> comp_lags;
  int64_t comp_delta_rows = 0;
  // The compensated plan's AST legs as one graph, on the compile path: what
  // its rewritten SQL renders.
  std::optional<qgm::Graph> comp_sql_graph;
  bool was_rewritten = false;
  // Leaf rows a base-table plan scans (against the pinned snapshot): the
  // workload log's direct-cost figure.
  int64_t base_leaf_rows = 0;
  engine::Storage::Snapshot snap;
  int64_t plan_generation = 0;
  // What a compile-path plan is memoized under (step 3).
  std::vector<std::string> leaf_tables;
  PlanContext plan_context;
  std::string literal_read;  // the search's first read of a slot's value

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
      cache_key = PlanCacheKey(tmpl, options);
      std::string detail;
      ShardedPlanCache::Lookup lookup = plan_cache_.Find(
          cache_key, tmpl.params,
          [&](const std::vector<std::string>& tables) {
            return PlanningContext(tables, snap, plan_generation, options);
          },
          &cached, &detail);
      if (trace != nullptr) {
        PlanCacheOutcome outcome = PlanCacheFate(lookup, cached.get(), &detail);
        trace->SetPlanCache(outcome, std::move(detail), tmpl.text);
      }
      if (lookup == ShardedPlanCache::Lookup::kHit) {
        result.plan_cache_hit = true;
        result.used_summary_table = cached->used_summary_table;
        result.summary_table = cached->summary_table;
        result.candidate_rewrites = cached->candidate_rewrites;
        // The context check just vouched for these ASTs under this same
        // lock, so the lookups cannot miss; pin them for post-execution
        // bookkeeping.
        for (const std::string& name : cached->used_asts) {
          if (SummaryTablePtr st = FindSummaryTable(name)) {
            used.push_back(std::move(st));
          }
        }
        was_rewritten = cached->used_summary_table;
        base_leaf_rows = LeafRows(cached->leaf_tables, snap);
        // Other literals than the plan's own: bind them into copies of the
        // graphs (a literal-sensitive plan never gets here with other ones).
        const bool rebind = cached->params != tmpl.params;
        result.rewritten_sql =
            rebind && !cached->rewritten_sql_slots.pieces.empty()
                ? cached->rewritten_sql_slots.Render(tmpl.params)
                : cached->rewritten_sql;
        comp = cached->compensation;
        if (rebind && comp != nullptr) {
          comp = std::make_shared<const matching::CompensationPlan>(
              matching::BindSlots(*comp, tmpl.params));
        }
        // A compensation entry's graph is the base-table fallback.
        (comp != nullptr ? original : plan) =
            rebind ? std::make_shared<const qgm::Graph>(
                         qgm::BindSlots(*cached->plan, tmpl.params))
                   : cached->plan;
      }
    }

    // 2. Compile path (miss / invalidated / cache disabled).
    if (plan == nullptr && comp == nullptr) {
      // Notes any step below that reads a slot literal's value.
      expr::SlotReadScope slot_reads;
      int64_t t0 = MonotonicNanos();
      SUMTAB_ASSIGN_OR_RETURN(std::shared_ptr<sql::SelectStmt> stmt,
                              sql::ParseTokens(std::move(tokens)));
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
      original = std::make_shared<const qgm::Graph>(std::move(graph));
      leaf_tables = LeafTables(*original);
      base_leaf_rows = LeafRows(leaf_tables, snap);
      if (options.enable_plan_cache) {
        plan_context =
            PlanningContext(leaf_tables, snap, plan_generation, options);
      }
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
          // Compensation won the search. Its AST legs in place of the merge
          // nodes are the closest single-statement rendering of the plan.
          comp_sql_graph = matching::AstLegsGraph(*comp);
          StatusOr<std::string> leg_sql = qgm::ToSql(*comp_sql_graph);
          result.used_summary_table = true;
          result.summary_table = chosen;
          result.rewritten_sql = leg_sql.ok() ? std::move(*leg_sql) : "";
          was_rewritten = true;
        }
      }
      if (plan == nullptr && comp == nullptr) {
        plan = original;
        used.clear();
      }
      if (slot_reads.first_read() != nullptr) {
        literal_read = slot_reads.first_read();
      }
    }

    // Each delta leg covers its AST's lag at this snapshot, not the lag it
    // had when the plan was made: an equal planning context guarantees only
    // the same stale table and the same number of epochs.
    if (comp != nullptr) {
      for (const matching::CompensationLeg& leg : comp->legs) {
        auto st = std::find_if(used.begin(), used.end(),
                               [&leg](const SummaryTablePtr& ast) {
                                 return ast->name == leg.summary_table;
                               });
        if (st == used.end()) {
          return Status::Internal("compensation leg over unpinned ast '" +
                                  leg.summary_table + "'");
        }
        SUMTAB_ASSIGN_OR_RETURN(Lag lag, LagOf(**st, snap));
        comp_lags.push_back(compensation::EpochRange{lag.from, lag.to});
      }
    }
  }  // ddl_mu_ released — execution must not hold the catalog lock.

  engine::ExecOptions exec_options;
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
      comp != nullptr
          ? compensation::ExecuteCompensationPlan(*comp, comp_lags, snap,
                                                  exec_options,
                                                  &comp_delta_rows)
          : engine::Executor(snap, exec_options).Execute(*plan);
  if (!data.ok() && was_rewritten) {
    // Graceful degradation: the rewritten plan failed, so fall back to the
    // base tables — a summary table is an optimization, never a requirement.
    // The retry runs against the SAME pinned snapshot, so the answer still
    // reflects one consistent point in time.
    for (const SummaryTablePtr& st : used) RecordAstFailure(st.get());
    if (cached != nullptr) plan_cache_.Forget(cache_key, cached.get());
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
      original = std::make_shared<const qgm::Graph>(std::move(graph));
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
    for (const compensation::EpochRange& lag : comp_lags) {
      result.compensation_epochs =
          std::max(result.compensation_epochs, lag.to - lag.from);
    }
    compensated_counter->Increment();
    compensated_rows_counter->Increment(comp_delta_rows);
    for (const SummaryTablePtr& st : used) {
      st->compensated_queries.fetch_add(1, std::memory_order_acq_rel);
    }
    if (trace != nullptr) {
      trace->AddNote("compensated: " + std::to_string(comp_delta_rows) +
                     " delta rows over " +
                     std::to_string(result.compensation_epochs) +
                     " epoch(s) in " + std::to_string(comp->legs.size()) +
                     " block(s)");
    }
  }
  // 3. Memoize the decision — only a plan that parsed, matched, and executed
  //    cleanly this call (a fallback plan is not the search's answer). The
  //    entry is stamped with the planning context observed under the
  //    planning lock, so a load/DDL that raced past us misses it on the next
  //    lookup instead of serving a stale decision as current.
  if (options.enable_plan_cache && cached == nullptr &&
      !result.degradation.degraded) {
    auto entry = std::make_shared<CachedPlan>();
    // Compensation entries keep the base-table form as the fallback graph;
    // the compensation plan itself is immutable and shared across hits.
    entry->plan = comp != nullptr ? original : plan;
    entry->used_summary_table = result.used_summary_table;
    entry->summary_table = result.summary_table;
    entry->rewritten_sql = result.rewritten_sql;
    entry->params = std::move(tmpl.params);
    entry->literal_read = std::move(literal_read);
    if (entry->literal_read.empty() && !entry->params.empty() &&
        !entry->rewritten_sql.empty()) {
      // Cut the SQL at its slots, so a hit renders its own literals. A
      // string literal that holds the cut marker leaves it uncut, and the
      // plan then serves only these literals.
      StatusOr<qgm::SlottedSql> slotted = qgm::ToSlottedSql(
          comp != nullptr ? *comp_sql_graph : *plan, entry->params.size());
      if (slotted.ok() &&
          slotted->Render(entry->params) == entry->rewritten_sql) {
        entry->rewritten_sql_slots = std::move(*slotted);
      } else {
        entry->literal_read = "rewritten sql";
      }
    }
    entry->candidate_rewrites = result.candidate_rewrites;
    for (const SummaryTablePtr& st : used) entry->used_asts.push_back(st->name);
    entry->compensation = comp;
    entry->leaf_tables = std::move(leaf_tables);
    entry->context = std::move(plan_context);
    plan_cache_.Insert(cache_key, std::move(entry));
  }
  // 4. Feed the workload log — the advisor's input. Off for the advisor's
  //    own sizing probes (record_workload=false) so tuning doesn't observe
  //    itself.
  if (options.record_workload) {
    queries_observed_.fetch_add(1, std::memory_order_acq_rel);
    sumtab::WorkloadLog::QueryObservation obs;
    obs.normalized_sql = normalized;
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

StatusOr<std::string> Database::ExplainRewrite(const std::string& sql,
                                               const QueryOptions& options) {
  QueryTrace trace;
  std::shared_lock<std::shared_mutex> lock(ddl_mu_);
  engine::Storage::Snapshot snap = storage_.Snap();
  int64_t generation = catalog_generation_.load(std::memory_order_acquire);

  // Plan-cache fate first, exactly as Query() would see it. This is a real
  // lookup — a hit refreshes the LRU, plans of a dead generation are
  // dropped — but EXPLAIN never inserts, so explaining cannot seed the cache
  // with an unexecuted plan.
  if (options.enable_plan_cache) {
    SUMTAB_ASSIGN_OR_RETURN(std::vector<sql::Token> tokens, sql::Lex(sql));
    sql::SqlTemplate tmpl = sql::Templatize(&tokens);
    ShardedPlanCache::PlanPtr cached;
    std::string detail;
    ShardedPlanCache::Lookup lookup = plan_cache_.Find(
        PlanCacheKey(tmpl, options), tmpl.params,
        [&](const std::vector<std::string>& tables) {
          return PlanningContext(tables, snap, generation, options);
        },
        &cached, &detail);
    PlanCacheOutcome outcome = PlanCacheFate(lookup, cached.get(), &detail);
    trace.SetPlanCache(outcome, std::move(detail), std::move(tmpl.text));
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
    StatusOr<std::string> leg_sql = qgm::ToSql(matching::AstLegsGraph(*comp));
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
