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

/// The standing of AST `name` among `asts`, or null.
template <typename Standing>
const Standing* FindStanding(const std::vector<Standing>& asts,
                             const std::string& name) {
  for (const Standing& ast : asts) {
    if (ast.st->name == name) return &ast;
  }
  return nullptr;
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

Database::AstStanding Database::Classify(const SummaryTablePtr& st,
                                         const engine::Storage::Snapshot& snap,
                                         bool allow_stale) const {
  AstStanding out;
  out.st = st;
  AstPlanState& state = out.state;
  state.name = st->name;
  std::string first_table;  // the first lagging table by name
  int lagging = 0;
  Lag lag;
  for (const auto& [table, epoch] : st->materialized_epochs) {
    int64_t current = snap.Epoch(table);
    if (current <= epoch) continue;
    if (lagging++ == 0) first_table = table;
    out.staleness += current - epoch;
    lag = Lag{table, epoch, current};
  }
  // One delta leg merges into one stored result, so one table may lag.
  if (lagging > 1) {
    out.lag = RejectUnsupported(RejectReason::kCompMultiTableStaleness,
                                std::to_string(lagging) +
                                    " base tables lag behind ast '" +
                                    st->name + "'");
  } else if (!snap.HasDeltaCoverage(lag.table, lag.from, lag.to)) {
    // Only pure appends are retained: a BulkLoad, or a slice dropped past
    // kMaxRetainedDeltas, leaves a gap no delta leg can cover.
    out.lag = RejectUnsupported(
        RejectReason::kCompDeltaUnavailable,
        "no contiguous retained deltas for '" + lag.table + "' epochs (" +
            std::to_string(lag.from) + ", " + std::to_string(lag.to) + "]");
  } else {
    out.lag = std::move(lag);
  }
  if (st->disabled.load(std::memory_order_acquire)) {
    state.kind = AstPlanState::Kind::kQuarantined;  // overrides everything
  } else if (out.staleness > 0) {
    state.table = std::move(first_table);
    if (out.staleness <= st->max_staleness || allow_stale) {
      state.kind = AstPlanState::Kind::kTolerated;
      state.epochs = out.staleness;
    } else if (out.lag.ok()) {
      state.kind = AstPlanState::Kind::kLagging;
      state.epochs = out.staleness;
    } else {
      state.kind = AstPlanState::Kind::kUnusable;
    }
  }
  return out;
}

std::vector<Database::AstStanding> Database::Standings(
    const engine::Storage::Snapshot& snap, const QueryOptions& options) const {
  std::vector<AstStanding> asts;
  // With rewriting off the plan is the base-table form, whatever the ASTs.
  if (!options.enable_rewrite) return asts;
  asts.reserve(summary_tables_.size());
  for (const SummaryTablePtr& st : summary_tables_) {
    asts.push_back(Classify(st, snap, options.allow_stale_reads));
  }
  return asts;
}

PlanContext Database::PlanContextOf(const std::vector<AstStanding>& asts,
                                    const std::vector<std::string>& leaf_tables,
                                    int64_t generation) {
  PlanContext context;
  context.generation = generation;
  for (const AstStanding& ast : asts) {
    for (const std::string& table : leaf_tables) {
      if (ast.st->materialized_epochs.count(table) > 0) {
        context.asts.push_back(ast.state);
        break;
      }
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
    // The table entry goes with the AST, so the name can be defined again,
    // live as after a restart.
    dropped = catalog_.DropTable(key);
    Status data_dropped = storage_.DropTable(key);
    if (dropped.ok()) dropped = std::move(data_dropped);
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
  AstStanding standing = Classify(st, storage_.Snap());
  info.state = standing.state.kind == AstPlanState::Kind::kQuarantined
                   ? AstState::kDisabled
               : standing.state.kind == AstPlanState::Kind::kFresh
                   ? AstState::kFresh
                   : AstState::kStale;
  info.staleness = standing.staleness;
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
    const qgm::Graph& query, const std::vector<AstStanding>& asts,
    const engine::Storage::Snapshot& snap, CachedPlan* record,
    QueryDegradation* degradation, QueryTrace* trace) {
  // EXPLAIN REWRITE also reports, per AST, what the next eager append to
  // each of its base tables would do — merge the delta, catch up by merging
  // the retained slices too, or recompute for the analysis' or the lag
  // check's reason — computed once (round 0) and only when tracing.
  auto maintenance_verdict = [](const AstStanding& ast) {
    const StatusOr<Lag>& lag = ast.lag;
    std::string verdict;
    for (const std::string& table : matching::LeafBaseTables(ast.st->graph)) {
      StatusOr<matching::DeltaMerge> plan =
          maintenance::AnalyzeMergePlan(ast.st->graph, table);
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
    for (const AstStanding& ast : asts) {
      const SummaryTablePtr& st = ast.st;
      const AstPlanState::Kind kind = ast.state.kind;
      if (kind == AstPlanState::Kind::kQuarantined) {
        if (trace != nullptr && round == 0) {
          trace->AddNote("ast '" + st->name + "' skipped: quarantined");
        }
        continue;
      }
      // Lagging and unusable ASTs get one attempt, at compensation, in
      // round 0.
      const bool usable = kind == AstPlanState::Kind::kFresh ||
                          kind == AstPlanState::Kind::kTolerated;
      if (!usable && round > 0) continue;
      AstAttemptTrace attempt;
      AstAttemptTrace* attempt_ptr = nullptr;
      if (trace != nullptr) {
        attempt.ast_name = st->name;
        attempt.round = round;
        attempt.cost_before = static_cast<double>(current_cost);
        if (round == 0) attempt.maintenance = maintenance_verdict(ast);
        attempt_ptr = &attempt;
      }
      if (!usable) {
        // Compensation needs the lag to be retained appends on one table
        // (each leg merges one AST leg with one delta leg).
        if (!ast.lag.ok()) {
          if (trace != nullptr) {
            attempt.reason = RejectReasonFromStatus(ast.lag.status());
            attempt.detail = ast.lag.status().ToString();
            attempt.compensation = RejectReasonToken(attempt.reason);
          }
        } else if (try_blocks(st, *ast.lag, attempt_ptr)) {
          ++record->candidate_rewrites;
        }
        if (trace != nullptr) attempts.push_back(std::move(attempt));
        continue;
      }
      matching::SummaryTableDef def{st->name, &st->graph};
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
      if (round == 0) ++record->candidate_rewrites;
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
        record->summary_table = Join(names, "+");
        record->used_asts = std::move(names);
        record->compensation = std::move(comp);
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
  for (const SummaryTablePtr& st : used) record->used_asts.push_back(st->name);
  record->summary_table = Join(record->used_asts, "+");
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

ShardedPlanCache::PlanPtr Database::LookupPlan(
    const std::string& key, const sql::SqlTemplate& tmpl,
    const std::vector<AstStanding>& asts, int64_t generation,
    QueryTrace* trace) {
  ShardedPlanCache::PlanPtr cached;
  std::string detail;
  ShardedPlanCache::Lookup lookup = plan_cache_.Find(
      key, tmpl.params,
      [&](const std::vector<std::string>& tables) {
        return PlanContextOf(asts, tables, generation);
      },
      &cached, &detail);
  if (trace != nullptr) {
    PlanCacheOutcome outcome = PlanCacheFate(lookup, cached.get(), &detail);
    trace->SetPlanCache(outcome, std::move(detail), tmpl.text);
  }
  return lookup == ShardedPlanCache::Lookup::kHit ? cached : nullptr;
}

StatusOr<std::shared_ptr<CachedPlan>> Database::CompilePlan(
    std::vector<sql::Token> tokens, std::vector<Value> params,
    const std::vector<AstStanding>& asts,
    const engine::Storage::Snapshot& snap, int64_t generation,
    const QueryOptions& options, QueryTrace* trace,
    QueryDegradation* degradation) {
  static Histogram* parse_hist =
      MetricsRegistry::Global().histogram("phase.parse");
  static Histogram* build_hist =
      MetricsRegistry::Global().histogram("phase.qgm_build");
  static Histogram* rewrite_hist =
      MetricsRegistry::Global().histogram("phase.rewrite");
  // Notes any step below that reads a slot literal's value.
  expr::SlotReadScope slot_reads;
  int64_t t0 = MonotonicNanos();
  SUMTAB_ASSIGN_OR_RETURN(std::shared_ptr<sql::SelectStmt> stmt,
                          sql::ParseTokens(std::move(tokens)));
  int64_t t1 = MonotonicNanos();
  SUMTAB_ASSIGN_OR_RETURN(qgm::Graph graph, qgm::BuildGraph(*stmt, catalog_));
  int64_t t2 = MonotonicNanos();
  parse_hist->Record((t1 - t0) / 1000);
  build_hist->Record((t2 - t1) / 1000);
  if (trace != nullptr) {
    trace->RecordPhaseMicros(QueryTrace::kPhaseParse, (t1 - t0) / 1000);
    trace->RecordPhaseMicros(QueryTrace::kPhaseQgmBuild, (t2 - t1) / 1000);
  }
  auto record = std::make_shared<CachedPlan>();
  record->base = std::make_shared<const qgm::Graph>(std::move(graph));
  record->plan = record->base;
  record->leaf_tables = LeafTables(*record->base);
  record->context = PlanContextOf(asts, record->leaf_tables, generation);
  record->params = std::move(params);
  // What the rewritten SQL renders: the rewrite, or a compensation plan's
  // AST legs in place of its merge nodes, the closest single-statement
  // rendering of that plan.
  const qgm::Graph* sql_graph = nullptr;
  std::optional<qgm::Graph> legs;
  if (options.enable_rewrite) {
    int64_t rw0 = MonotonicNanos();
    std::unique_ptr<qgm::Graph> rewritten =
        TryRewrite(*record->base, asts, snap, record.get(), degradation, trace);
    int64_t rw_micros = (MonotonicNanos() - rw0) / 1000;
    rewrite_hist->Record(rw_micros);
    if (trace != nullptr) {
      trace->RecordPhaseMicros(QueryTrace::kPhaseRewrite, rw_micros);
    }
    if (rewritten != nullptr) {
      StatusOr<std::string> new_sql = qgm::ToSql(*rewritten);
      if (new_sql.ok()) {
        record->used_summary_table = true;
        record->rewritten_sql = std::move(*new_sql);
        record->plan = std::move(rewritten);
        sql_graph = record->plan.get();
      } else {
        // The rewrite can't be rendered/executed: degrade to base tables.
        for (const std::string& name : record->used_asts) {
          RecordAstFailure(FindStanding(asts, name)->st.get());
        }
        degradation->degraded = true;
        degradation->stage = "rewrite";
        degradation->summary_table = std::move(record->summary_table);
        if (!degradation->message.empty()) degradation->message += "; ";
        degradation->message += new_sql.status().ToString();
        record->summary_table.clear();
        record->used_asts.clear();
      }
    } else if (record->compensation != nullptr) {
      record->plan = nullptr;
      legs = matching::AstLegsGraph(*record->compensation);
      sql_graph = &*legs;
      StatusOr<std::string> leg_sql = qgm::ToSql(*legs);
      record->used_summary_table = true;
      record->rewritten_sql = leg_sql.ok() ? std::move(*leg_sql) : "";
    }
  }
  if (slot_reads.first_read() != nullptr) {
    record->literal_read = slot_reads.first_read();
  }
  if (record->literal_read.empty() && !record->params.empty() &&
      !record->rewritten_sql.empty()) {
    // Cut the SQL at its slots, so a hit renders its own literals. A string
    // literal that holds the cut marker leaves it uncut, and the plan then
    // serves only these literals.
    StatusOr<qgm::SlottedSql> slotted =
        qgm::ToSlottedSql(*sql_graph, record->params.size());
    if (slotted.ok() &&
        slotted->Render(record->params) == record->rewritten_sql) {
      record->rewritten_sql_slots = std::move(*slotted);
    } else {
      record->literal_read = "rewritten sql";
    }
  }
  return record;
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
  ShardedPlanCache::PlanPtr record;  // shared with the cache on a hit
  bool compiled = false;
  engine::Storage::Snapshot snap;
  std::vector<SummaryTablePtr> used;  // ASTs the plan reads (pinned)
  // Each compensation leg's epoch range: its AST's lag at this snapshot.
  std::vector<compensation::EpochRange> comp_lags;

  // 1. Plan under the shared catalog lock: pin the storage snapshot every
  //    later step reads, classify the ASTs at it, then look the plan up or
  //    compile it. Loads and DDL (exclusive holders) are ordered entirely
  //    before or after this block.
  {
    std::shared_lock<std::shared_mutex> lock(ddl_mu_);
    snap = storage_.Snap();
    const int64_t generation =
        catalog_generation_.load(std::memory_order_acquire);
    const std::vector<AstStanding> asts = Standings(snap, options);
    if (options.enable_plan_cache) {
      cache_key = PlanCacheKey(tmpl, options);
      record = LookupPlan(cache_key, tmpl, asts, generation, trace);
    }
    if (record == nullptr) {
      SUMTAB_ASSIGN_OR_RETURN(
          record,
          CompilePlan(std::move(tokens), std::move(tmpl.params), asts, snap,
                      generation, options, trace, &result.degradation));
      compiled = true;
    }
    // A hit's context check vouched for these ASTs under this same lock,
    // so they are all registered. Each delta leg covers its AST's lag at
    // this snapshot, not the lag it had when the plan was made: an equal
    // planning context guarantees only the same stale table and the same
    // number of epochs.
    for (const std::string& name : record->used_asts) {
      const AstStanding* ast = FindStanding(asts, name);
      if (ast == nullptr) {
        return Status::Internal("plan over unregistered ast '" + name + "'");
      }
      used.push_back(ast->st);
    }
    if (record->compensation != nullptr) {
      for (const matching::CompensationLeg& leg : record->compensation->legs) {
        SUMTAB_ASSIGN_OR_RETURN(
            Lag lag, FindStanding(asts, leg.summary_table)->lag);
        comp_lags.push_back(compensation::EpochRange{lag.from, lag.to});
      }
    }
  }  // ddl_mu_ released — execution must not hold the catalog lock.

  // 2. Bind the query's literals into what it runs, when they are not the
  //    plan's own (a literal-sensitive plan never gets here with others).
  const bool rebind = !compiled && record->params != tmpl.params;
  auto bound = [&](const std::shared_ptr<const qgm::Graph>& graph) {
    return rebind ? std::make_shared<const qgm::Graph>(
                        qgm::BindSlots(*graph, tmpl.params))
                  : graph;
  };
  std::shared_ptr<const matching::CompensationPlan> comp =
      record->compensation;
  if (rebind && comp != nullptr) {
    comp = std::make_shared<const matching::CompensationPlan>(
        matching::BindSlots(*comp, tmpl.params));
  }
  result.plan_cache_hit = !compiled;
  result.used_summary_table = record->used_summary_table;
  result.summary_table = record->summary_table;
  result.candidate_rewrites = record->candidate_rewrites;
  result.rewritten_sql = rebind && !record->rewritten_sql_slots.pieces.empty()
                             ? record->rewritten_sql_slots.Render(tmpl.params)
                             : record->rewritten_sql;

  // 3. Execute.
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
  int64_t comp_delta_rows = 0;
  StatusOr<engine::Relation> data =
      comp != nullptr
          ? compensation::ExecuteCompensationPlan(*comp, comp_lags, snap,
                                                  exec_options,
                                                  &comp_delta_rows)
          : engine::Executor(snap, exec_options).Execute(*bound(record->plan));
  if (!data.ok() && record->used_summary_table) {
    // Graceful degradation: the rewritten plan failed, so fall back to the
    // base tables — a summary table is an optimization, never a requirement.
    // The retry runs against the SAME pinned snapshot, so the answer still
    // reflects one consistent point in time.
    for (const SummaryTablePtr& st : used) RecordAstFailure(st.get());
    if (!compiled) plan_cache_.Forget(cache_key, record.get());
    result.degradation.degraded = true;
    result.degradation.stage = "execute";
    result.degradation.summary_table = result.summary_table;
    if (!result.degradation.message.empty()) result.degradation.message += "; ";
    result.degradation.message += data.status().ToString();
    result.used_summary_table = false;
    result.summary_table.clear();
    result.rewritten_sql.clear();
    comp.reset();  // the retry answers from base tables, not the deltas
    data = engine::Executor(snap, exec_options).Execute(*bound(record->base));
  }
  {
    int64_t exec_micros = (MonotonicNanos() - exec_start) / 1000;
    execute_hist->Record(exec_micros);
    if (trace != nullptr) {
      trace->RecordPhaseMicros(QueryTrace::kPhaseExecute, exec_micros);
    }
  }
  if (!data.ok()) return data.status();

  // 4. Bookkeeping.
  if (result.used_summary_table) {
    rewritten_queries->Increment();
    if (trace != nullptr) {
      trace->SetChosen(result.summary_table, result.rewritten_sql);
    }
    // Serving through the AST(s) worked: clear their failure streaks and
    // credit the hit (the advisor's auto-DROP lifecycle reads these).
    for (const SummaryTablePtr& st : used) {
      st->consecutive_failures.store(0, std::memory_order_release);
      st->rewrite_hits.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  if (result.degradation.degraded) degraded_queries->Increment();
  if (comp != nullptr) {
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
  // Memoize only a plan this call compiled, whose search did not degrade
  // and which executed cleanly (a fallback plan is not the search's
  // answer). It carries the planning context observed under the planning
  // lock, so a load/DDL that raced past us misses it on the next lookup
  // instead of serving a stale decision as current.
  if (options.enable_plan_cache && compiled && !result.degradation.degraded) {
    plan_cache_.Insert(cache_key, record);
  }
  // Feed the workload log — the advisor's input. Off for the advisor's own
  // sizing probes (record_workload=false) so tuning doesn't observe itself.
  if (options.record_workload) {
    queries_observed_.fetch_add(1, std::memory_order_acq_rel);
    sumtab::WorkloadLog::QueryObservation obs;
    obs.normalized_sql = normalized;
    obs.base_leaf_rows = LeafRows(record->leaf_tables, snap);
    obs.rewritten = result.used_summary_table;
    obs.compensated = result.compensated;
    if (!obs.rewritten) {
      obs.reject =
          result.candidate_rewrites > 0 ? "costlier_than_base" : "no_match";
    }
    obs.used_asts = record->used_asts;
    workload_log_.RecordQuery(obs);
  }
  result.relation = std::move(*data);
  return result;
}

StatusOr<std::string> Database::ExplainRewrite(const std::string& sql,
                                               const QueryOptions& options) {
  SUMTAB_ASSIGN_OR_RETURN(std::vector<sql::Token> tokens, sql::Lex(sql));
  QueryTrace trace;
  std::shared_lock<std::shared_mutex> lock(ddl_mu_);
  const engine::Storage::Snapshot snap = storage_.Snap();
  const int64_t generation =
      catalog_generation_.load(std::memory_order_acquire);
  const std::vector<AstStanding> asts = Standings(snap, options);
  // Plan-cache fate first, exactly as Query() would see it. This is a real
  // lookup — a hit refreshes the LRU, plans of a dead generation are
  // dropped — but EXPLAIN never inserts, so explaining cannot seed the cache
  // with an unexecuted plan. The plan itself is compiled afresh, traced.
  sql::SqlTemplate tmpl;
  if (options.enable_plan_cache) {
    tmpl = sql::Templatize(&tokens);
    LookupPlan(PlanCacheKey(tmpl, options), tmpl, asts, generation, &trace);
  }
  QueryDegradation degradation;
  SUMTAB_ASSIGN_OR_RETURN(
      std::shared_ptr<CachedPlan> record,
      CompilePlan(std::move(tokens), std::move(tmpl.params), asts, snap,
                  generation, options, &trace, &degradation));
  if (!options.enable_rewrite) trace.AddNote("rewriting disabled by options");
  if (record->used_summary_table) {
    trace.SetChosen(record->summary_table, record->rewritten_sql);
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
  out += "candidates: " + std::to_string(record->candidate_rewrites) + "\n";
  out += trace.ToString();
  return out;
}

}  // namespace sumtab
