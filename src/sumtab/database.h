// Public facade: an embedded analytical database with Automatic Summary
// Tables. Create tables, declare RI constraints, load data, define summary
// tables (materialized aggregate views), and run SQL queries — which the
// engine transparently reroutes through a matching summary table whenever
// the paper's algorithm finds a rewrite.
//
// Quickstart:
//   sumtab::Database db;
//   db.CreateTable("trans", {{"faid", Type::kInt}, ...}, {"tid"});
//   db.BulkLoad("trans", rows);
//   db.DefineSummaryTable("ast1",
//       "select faid, flid, year(date) as year, count(*) as cnt "
//       "from trans group by faid, flid, year(date)");
//   auto result = db.Query("select ... from trans ... group by ...");
//   // result->used_summary_table == true when rerouted.
//
// Thread-safety (DESIGN.md, "Concurrent serving"): Query / ExplainRewrite /
// Stats may be called from any number of threads concurrently with each
// other and with the mutators (BulkLoad / Append / DefineSummaryTable /
// RefreshSummaryTable / DDL). Each query plans under a shared catalog lock
// and executes against a storage snapshot pinned at query start, so a
// concurrent load or maintenance pass never torn-reads a serving query —
// it either sees the whole change or none of it. The serving::Server /
// serving::Session layer adds admission control and inter-query scheduling
// on top of this class.
#ifndef SUMTAB_SUMTAB_DATABASE_H_
#define SUMTAB_SUMTAB_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "engine/executor.h"
#include "engine/relation.h"
#include "matching/compensation.h"
#include "qgm/qgm.h"
#include "sql/template.h"
#include "sumtab/plan_cache.h"
#include "sumtab/workload_log.h"

namespace sumtab {

namespace wal {
class Writer;
struct CheckpointAst;
}  // namespace wal

/// Lifecycle state of a registered summary table (see DESIGN.md,
/// "Freshness and degradation semantics").
///   kFresh    — consistent with its base tables; eligible for rewriting.
///   kStale    — a base table changed under it (BulkLoad without refresh);
///               skipped by the rewriter unless the query opts into
///               staleness or the AST's max-staleness covers the lag.
///   kDisabled — quarantined after repeated failures; never used until a
///               successful refresh revives it.
enum class AstState { kFresh, kStale, kDisabled };

/// Durability configuration (DESIGN.md, "Durability and recovery"). Default
/// construction stays pure in-memory: the WAL/checkpoint machinery activates
/// only when `data_dir` is set and the Database comes from Database::Open().
struct DatabaseOptions {
  /// Directory for WAL segments and checkpoints. Empty = in-memory only.
  std::string data_dir;
  /// True (strict): every mutator hardens its WAL record — one fsync'd
  /// group-commit batch — BEFORE publishing the in-memory change, so the
  /// on-disk commit lattice matches the in-memory one and recovery can never
  /// surface state a concurrent reader could not have observed. False
  /// (relaxed): records flush within `group_commit_interval_micros`; a crash
  /// may lose that window of acknowledged mutations, but always as a clean
  /// prefix cut, never a torn state.
  bool wal_sync = true;
  /// Upper bound on how long a relaxed-mode record may sit unflushed.
  int64_t group_commit_interval_micros = 2000;
  /// Auto-checkpoint after this many logged operations (0 = manual
  /// Checkpoint() calls only). Checkpoints prune covered WAL segments.
  int64_t checkpoint_interval_records = 0;
};

/// One noteworthy event from Database::Open()'s recovery pass.
struct RecoveryEvent {
  /// Stable snake_case kind (reject-reason tokens): "wal_torn_tail",
  /// "ast_dropped_on_recovery", "delta_dropped_on_recovery".
  std::string kind;
  std::string detail;
};

/// Durability counters in Database::Stats() (zero/false when in-memory).
struct DurabilityStats {
  bool enabled = false;
  uint64_t last_lsn = 0;     // last appended WAL record
  uint64_t durable_lsn = 0;  // last fsync'd WAL record
  int64_t wal_records = 0;   // appended by this process
  int64_t wal_bytes = 0;
  int64_t checkpoints_written = 0;
  uint64_t last_checkpoint_seq = 0;
  int64_t recovery_replayed_records = 0;  // WAL records replayed at Open()
  int64_t recovery_truncated_bytes = 0;   // torn tail bytes cut at Open()
  int64_t recovery_asts_dropped = 0;      // ASTs disabled by corrupt sections
  int64_t recovery_deltas_dropped = 0;    // delta slices lost to corruption
};

struct QueryOptions {
  /// Attempt rerouting through registered summary tables.
  bool enable_rewrite = true;
  /// Permit rerouting through kStale summary tables (answers may predate
  /// the latest loads). kDisabled tables are never used.
  bool allow_stale_reads = false;
  /// Executor row budget (total materialized rows, join intermediates
  /// included); 0 = unbounded. Exceeded => kResourceExhausted.
  int64_t max_rows = 0;
  /// Executor wall-clock budget in milliseconds; 0 = none.
  double timeout_millis = 0;
  /// Max concurrent lanes for intra-query parallelism. 0 (the default)
  /// resolves to hardware concurrency; 1 is the single-threaded semantic
  /// reference (bit-identical to the pre-parallel engine).
  int max_threads = 0;
  /// Consult/populate the rewrite-plan cache. A hit skips the
  /// parse -> QGM-build -> match-search pipeline entirely; a plan is served
  /// only while its planning context holds: the catalog generation and the
  /// state of every summary table over the query's base tables.
  bool enable_plan_cache = true;
  /// Attach a QueryTrace to the result: per-phase wall times, every
  /// (query-box, AST) match attempt with its structured outcome, plan-cache
  /// fate, and rows processed. Off by default — the untraced path pays only
  /// null-pointer checks.
  bool collect_trace = false;
  /// Record this query in the workload log (src/sumtab/workload_log.h) so
  /// the advisor can mine it. The advisor's own sizing probes turn this off
  /// to keep its introspection from polluting the telemetry it reads.
  bool record_workload = true;
};

/// Diagnostic attached to a QueryResult when something on the rewrite path
/// failed and the engine recovered by answering from base tables (or by
/// skipping the broken AST). The query itself still succeeded.
struct QueryDegradation {
  bool degraded = false;
  std::string stage;          // "rewrite" or "execute"
  std::string summary_table;  // implicated AST(s), '+'-joined
  std::string message;        // underlying failure, for logs
};

struct QueryResult {
  engine::Relation relation;
  bool used_summary_table = false;
  std::string summary_table;       // which AST answered the query
  std::string rewritten_sql;       // the NewQ form (empty if not rewritten)
  int candidate_rewrites = 0;      // how many ASTs offered a rewrite
  bool plan_cache_hit = false;     // served from the rewrite-plan cache
  /// The answer came from STALE summary tables plus, per aggregate block,
  /// a compensating aggregate over their retained append deltas (exact,
  /// not degraded).
  bool compensated = false;
  int64_t compensation_delta_rows = 0;  // delta rows read, summed over blocks
  int64_t compensation_epochs = 0;      // the widest block's delta range
  QueryDegradation degradation;    // set when a failure was recovered
  /// Set when QueryOptions::collect_trace was on (shared so the executor's
  /// parallel lanes can keep counting rows while the caller holds it).
  std::shared_ptr<QueryTrace> trace;
};

/// Counters exposed by Database::Stats(). Hits/misses/invalidations
/// partition plan-cache lookups: an invalidation is a lookup that found the
/// query's key only under other planning contexts (a DDL generation change,
/// or a summary table over its base tables in another state). A lookup that
/// found only a literal-sensitive plan made with other literals is a miss.
struct DatabaseStats {
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  int64_t plan_cache_invalidations = 0;
  int64_t plan_cache_entries = 0;
  /// Cached plans whose search read a literal's value, so they serve only
  /// the literals they were made with (DESIGN.md §8).
  int64_t plan_cache_literal_sensitive = 0;
  /// Monotonic DDL counter (CreateTable / DefineSummaryTable / Drop /
  /// SetMaxStaleness / refresh); part of every cached plan's context.
  int64_t catalog_generation = 0;
  /// Snapshot of the process-wide metrics registry (counters + latency
  /// histograms): query/rewrite/match/maintenance counters and per-phase
  /// timings. Process-wide, not per-Database.
  MetricsRegistry::Snapshot metrics;
  /// WAL/checkpoint/recovery counters (enabled=false when in-memory).
  DurabilityStats durability;
};

/// Introspection snapshot of one summary table's freshness bookkeeping.
struct SummaryTableInfo {
  std::string name;
  /// The defining SELECT (as registered). The advisor compares candidates
  /// against it (normalized) so TUNE never re-creates an existing AST.
  std::string sql;
  AstState state = AstState::kFresh;
  /// Total epoch lag across base tables (0 when fully fresh).
  int64_t staleness = 0;
  /// Lag this AST tolerates while still serving rewrites (default 0).
  int64_t max_staleness = 0;
  /// Consecutive rewrite-path failures since the last success/refresh.
  int consecutive_failures = 0;
  /// Queries this AST answered while stale, via delta compensation.
  int64_t compensated_queries = 0;
  /// True when the advisor created this AST (AdviseAndApply / TUNE): it is
  /// subject to the auto-DROP lifecycle when its hit rate decays.
  bool advisor_owned = false;
  /// Queries this AST's rewrite actually answered since creation.
  int64_t rewrite_hits = 0;
  /// Queries the database has observed since this AST was created — the
  /// denominator of the advisor's hit-rate decay check.
  int64_t queries_since_creation = 0;
};

class Database {
 public:
  Database();
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // ---- durability (src/wal/; DESIGN.md, "Durability and recovery") ----

  /// Opens a durable database on `options.data_dir` (created if missing):
  /// loads the latest checkpoint, replays the WAL past it (truncating any
  /// torn tail — repeated crashed recoveries converge on the same state),
  /// then starts logging to a fresh segment. A corrupt AST data section in
  /// the checkpoint drops only that AST (registered kDisabled; see
  /// recovery_events()) — the database still opens and serves every query
  /// from base tables. A corrupt meta/base-table section or a checkpoint
  /// version mismatch fails with a structured reject
  /// (checkpoint_corruption / checkpoint_version_mismatch).
  static StatusOr<std::unique_ptr<Database>> Open(
      const DatabaseOptions& options);

  /// Snapshots base tables, AST contents AND the freshness bookkeeping
  /// (generation, per-table epochs, per-AST materialized epochs/staleness
  /// budget/quarantine) to a new checkpoint, then prunes covered WAL
  /// segments and older checkpoints. No-op error when in-memory.
  Status Checkpoint();

  /// What recovery found at Open(): torn tails truncated, ASTs dropped.
  const std::vector<RecoveryEvent>& recovery_events() const {
    return recovery_events_;
  }

  // ---- schema ----
  Status CreateTable(const std::string& name,
                     const std::vector<catalog::Column>& columns,
                     const std::vector<std::string>& primary_key = {});
  Status AddForeignKey(const std::string& child_table,
                       const std::string& child_column,
                       const std::string& parent_table,
                       const std::string& parent_column);

  // ---- data ----
  Status BulkLoad(const std::string& table, std::vector<Row> rows);

  // ---- maintenance (paper related problem (c), cf. Mumick et al. [10]) ----

  /// kFailed: the refresh attempt errored; the AST is left stale (and may
  /// be quarantined) but Append itself still succeeds — the base data is in.
  /// kDeferred: maintenance was skipped on purpose (AppendOptions::maintain
  /// false); the AST is stale but compensatable from the retained delta.
  enum class RefreshMode {
    kUnaffected,
    kIncremental,
    kRecompute,
    kFailed,
    kDeferred,
  };

  struct RefreshEntry {
    std::string summary_table;
    RefreshMode mode = RefreshMode::kUnaffected;
    double millis = 0;
    std::string error;  // set when mode == kFailed
  };

  struct MaintenanceReport {
    std::vector<RefreshEntry> entries;
  };

  /// Appends rows to a base table AND maintains every registered summary
  /// table. Single-block aggregate ASTs over one occurrence of the appended
  /// table (no HAVING, no DISTINCT aggregates, no scalar subqueries) refresh
  /// incrementally by aggregating only the delta and merging it into the
  /// materialized groups (count/sum add, min/max combine); an AST that
  /// deferred appends to the same table left behind merges its retained
  /// slices along with the delta. Everything else — including staleness
  /// from a BulkLoad, lag on another table and quarantine — falls back to
  /// full recomputation. In contrast, plain BulkLoad does NOT maintain
  /// summary tables (bulk-load-then-define workflows).
  ///
  /// Either way the appended rows are additionally RETAINED as an
  /// addressable delta slice keyed by the epoch the append produced, so an
  /// AST left stale (deferred maintenance, or a failed recompute) can
  /// still answer queries exactly via delta compensation.
  struct AppendOptions {
    /// False: skip AST maintenance entirely (no incremental merges, no
    /// recomputes) — the high-ingest mode delta compensation exists for.
    /// Dependent ASTs go stale; their entries report RefreshMode::kDeferred.
    bool maintain = true;
  };
  StatusOr<MaintenanceReport> Append(const std::string& table,
                                     std::vector<Row> rows,
                                     const AppendOptions& options);
  StatusOr<MaintenanceReport> Append(const std::string& table,
                                     std::vector<Row> rows) {
    return Append(table, std::move(rows), AppendOptions());
  }

  /// Brings one summary table up to date. An AST that lags only behind
  /// retained appends on one table (deferred maintenance) catches up by
  /// merging those slices, as the next eager Append would; any other AST
  /// is recomputed from the base tables.
  Status RefreshSummaryTable(const std::string& name);

  const DatabaseOptions& options() const { return options_; }

  // ---- summary tables ----
  /// Parses and materializes `sql` (executing it against the base tables),
  /// registers the result as table `name`, and makes it available to the
  /// rewriter. Returns the number of materialized rows.
  StatusOr<int64_t> DefineSummaryTable(const std::string& name,
                                       const std::string& sql);
  /// Same, but stamps the AST advisor-owned: the TUNE / AdviseAndApply
  /// lifecycle may auto-DROP it later when its hit rate decays. Ownership
  /// is WAL-logged and checkpointed, so it survives restart.
  StatusOr<int64_t> DefineSummaryTable(const std::string& name,
                                       const std::string& sql,
                                       bool advisor_owned);
  Status DropSummaryTable(const std::string& name);
  std::vector<std::string> SummaryTableNames() const;

  // ---- freshness ----
  /// Freshness/quarantine snapshot for one summary table.
  StatusOr<SummaryTableInfo> GetSummaryTableInfo(const std::string& name) const;
  /// Allows `name` to keep serving rewrites while its base tables are at
  /// most `max_epoch_lag` data changes ahead of its materialization
  /// (bounded staleness; 0 restores exact freshness).
  Status SetMaxStaleness(const std::string& name, int64_t max_epoch_lag);

  // ---- queries ----
  /// Also routes two statement forms besides plain SELECTs:
  /// "explain rewrite <select...>" (rewrite trace as a one-column relation)
  /// and "tune [budget <rows>]" (runs the workload advisor over the observed
  /// log and applies its recommendation; returns the action report).
  StatusOr<QueryResult> Query(const std::string& sql,
                              const QueryOptions& options = {});

  /// Runs the full rewrite pipeline (plan-cache lookup included, execution
  /// excluded) with tracing on and renders the trace: chosen AST and
  /// compensation summary, every match attempt's pattern + structured
  /// reject reason (verbatim snake_case tokens), each AST's
  /// incremental-maintainability verdict, plan-cache hit/miss/invalidation
  /// cause, and phase timings. Also reachable through
  /// Query("explain rewrite <select...>"), which returns the same text as
  /// a single-column relation.
  StatusOr<std::string> ExplainRewrite(const std::string& sql,
                                       const QueryOptions& options = {});

  // ---- introspection ----
  const catalog::Catalog& catalog() const { return catalog_; }
  const engine::Storage& storage() const { return storage_; }
  /// Row count of a loaded table (0 if absent).
  int64_t TableRows(const std::string& name) const;
  /// Plan-cache and DDL counters (snapshot).
  DatabaseStats Stats() const;

  // ---- workload log (src/sumtab/workload_log.h; advisor input) ----
  /// Point-in-time copy of the observed workload: per normalized query the
  /// execution count, leaf-row costs, rewrite outcome and per-AST hit
  /// counts; per base table the append rate. Persisted across restarts via
  /// checkpoints (kWorkloadLog section).
  WorkloadSnapshot WorkloadLogSnapshot() const;
  void ClearWorkloadLog();
  /// Total SELECT queries observed (workload-recorded) since open/clear —
  /// the denominator of per-AST hit rates.
  int64_t QueriesObserved() const;

 private:
  struct SummaryTable {
    std::string name;
    std::string sql;
    qgm::Graph graph;  // definition over base tables
    /// Base-table epochs captured when the materialization last matched the
    /// base data (define / refresh / successful incremental maintenance).
    /// Written under the exclusive DDL lock; read under the shared lock.
    std::map<std::string, int64_t> materialized_epochs;
    int64_t max_staleness = 0;
    /// Failure/quarantine streaks are written from the post-execution path
    /// of concurrent queries (no lock held), so they are atomics.
    std::atomic<int> consecutive_failures{0};
    std::atomic<bool> disabled{false};  // quarantined until next refresh
    /// Queries answered while stale via delta compensation (post-execution
    /// path, no lock held).
    std::atomic<int64_t> compensated_queries{0};
    /// True when the advisor created this AST; persists across restart.
    bool advisor_owned = false;
    /// Queries whose winning rewrite spliced this AST in (post-execution
    /// path, no lock held).
    std::atomic<int64_t> rewrite_hits{0};
    /// Value of Database::queries_observed_ when this AST was registered;
    /// hit rate = rewrite_hits / (queries_observed_ - created_at_query).
    int64_t created_at_query = 0;
  };
  /// Queries keep shared_ptr copies of the ASTs their plan spliced in, so a
  /// concurrent DropSummaryTable cannot free an AST out from under the
  /// post-execution bookkeeping.
  using SummaryTablePtr = std::shared_ptr<SummaryTable>;

  /// Consecutive rewrite-path failures before an AST is quarantined.
  static constexpr int kQuarantineThreshold = 3;

  /// Max cached plans; least-recently-used entries are evicted beyond it.
  static constexpr size_t kPlanCacheCapacity = 256;

  /// The plan-cache key: the query's template and slot kinds, plus the
  /// options that change the plan graph.
  static std::string PlanCacheKey(const sql::SqlTemplate& tmpl,
                                  const QueryOptions& options);
  /// The planning context (plan_cache.h) of a query over `leaf_tables`
  /// under `options`: `generation` plus the state in `snap` of every AST
  /// that reads one of the tables, classified the way TryRewrite's search
  /// treats it. Caller holds ddl_mu_ (shared), since it reads the registry.
  PlanContext PlanningContext(const std::vector<std::string>& leaf_tables,
                              const engine::Storage::Snapshot& snap,
                              int64_t generation,
                              const QueryOptions& options) const;
  /// DDL/AST-lifecycle change: bump the generation so every cached plan made
  /// before it is discarded on next lookup.
  void BumpGeneration();

  /// Best rewrite across the usable (fresh-enough, non-quarantined) ASTs —
  /// fewest estimated scanned rows against `snap`; null result when none
  /// matches. An AST whose match/rewrite errors is skipped (failure recorded
  /// for quarantine accounting and appended to `degradation`) instead of
  /// failing the search. `used_refs` receives the ASTs spliced into the
  /// rewrite. Caller holds ddl_mu_ (shared or exclusive).
  /// `compensation` receives a per-block delta-compensation plan
  /// when STALE ASTs win via compensation instead; the returned graph is
  /// then null (the plan carries its residual and leg graphs) and
  /// `used_refs` receives the ASTs its legs read.
  std::unique_ptr<qgm::Graph> TryRewrite(
      const qgm::Graph& query, const engine::Storage::Snapshot& snap,
      const QueryOptions& options, std::string* chosen, int* candidates,
      std::vector<SummaryTablePtr>* used_refs, QueryDegradation* degradation,
      QueryTrace* trace,
      std::shared_ptr<const matching::CompensationPlan>* compensation);

  /// Query() body for a plain SELECT (Query() itself also routes
  /// "explain rewrite" statements to ExplainRewrite()); `tokens` is
  /// Lex(sql).
  StatusOr<QueryResult> QuerySelect(const std::string& sql,
                                    std::vector<sql::Token> tokens,
                                    const QueryOptions& options);

  /// Epoch lag of `st` summed over its base tables.
  int64_t StalenessOf(const SummaryTable& st) const;
  /// The base table a summary table lags behind and the lagging epochs
  /// (from, to]; table empty and from == to when nothing lags.
  struct Lag {
    std::string table;
    int64_t from = 0;
    int64_t to = 0;
  };
  /// The one lag check: `st`'s lag in `snap`, when it is retained appends
  /// on one table — the condition for compensating a query through `st` and
  /// for catching `st` up by merging the slices. Rejects with
  /// comp_multi_table_staleness when more than one table lags and with
  /// comp_delta_unavailable when a lagging epoch has no retained slice.
  StatusOr<Lag> LagOf(const SummaryTable& st,
                      const engine::Storage::Snapshot& snap) const;
  /// `st`'s stored rows with every retained slice of `table` it lags by and
  /// `delta` (Append's new rows; null on refresh) merged in through the one
  /// delta leg, encoded for publishing. Rejects — and the caller recomputes
  /// — when `st` is quarantined, LagOf rejects, `st` lags behind another
  /// table, or the evaluation fails. Caller holds maint_mu_.
  StatusOr<engine::Batch> CatchUp(const SummaryTable& st,
                                  const matching::DeltaMerge& plan,
                                  const std::string& table,
                                  engine::Executor::BatchPtr delta,
                                  const engine::Storage::Snapshot& snap) const;
  AstState StateOf(const SummaryTable& st) const;
  bool UsableForRewrite(const SummaryTable& st, bool allow_stale) const;
  /// Counts a rewrite-path failure; quarantines at kQuarantineThreshold.
  void RecordAstFailure(SummaryTable* st);
  /// Marks `st` consistent with the current base epochs and revives it.
  void MarkRefreshed(SummaryTable* st);
  SummaryTablePtr FindSummaryTable(const std::string& name) const;
  /// Drops delta slices of `table` that every registered AST has already
  /// absorbed (min materialized epoch across non-disabled ASTs referencing
  /// it; everything when none do). Caller holds maint_mu_; pinned snapshots
  /// keep their slices via shared ownership.
  void PruneAbsorbedDeltas(const std::string& table);
  /// Full recompute of `st`; caller holds maint_mu_ but NOT ddl_mu_: the
  /// recompute runs against stable storage (maint_mu_ excludes other
  /// writers), then publishes through PublishRefresh.
  Status RefreshUnderMaint(SummaryTable* st);
  /// Publishes `rows` as `st`'s contents under a brief exclusive ddl_mu_
  /// window, marks `st` refreshed and prunes the slices it absorbed.
  Status PublishRefresh(SummaryTable* st, engine::Batch rows);

  // ---- durability internals (src/sumtab/durability.cc) ----
  //
  // Each mutator, after its cheap validation and before its exclusive
  // ddl_mu_ publish window, calls the matching Log* helper: the operation's
  // logical record is appended and (strict mode) hardened, so a crash at any
  // point leaves the WAL holding exactly the operations whose effects were
  // published — never a published-but-unlogged op. All Log* helpers are
  // no-ops when durability is off or while recovery is replaying (the replay
  // re-executes mutators through their normal code paths; replaying_ stops
  // them from re-logging themselves). Caller holds maint_mu_.

  explicit Database(const DatabaseOptions& options);

  Status LogCreateTableOp(const catalog::Table& table);
  Status LogForeignKeyOp(const std::string& child_table,
                         const std::string& child_column,
                         const std::string& parent_table,
                         const std::string& parent_column);
  /// BulkLoad and Append share one body shape: table name + rows.
  Status LogRowsOp(uint8_t type, const std::string& table,
                   const std::vector<Row>& rows);
  /// Drop and refresh: just the summary table's name.
  Status LogNameOp(uint8_t type, const std::string& name);
  Status LogDefineOp(const std::string& name, const std::string& sql,
                     bool advisor_owned);
  Status LogStalenessOp(const std::string& name, int64_t max_epoch_lag);
  /// Appends + hardens (strict mode) one framed record. OK when in-memory.
  Status LogOp(uint8_t type, const std::string& body);

  /// Open() body: checkpoint load + WAL replay. No locks held (single
  ///-threaded: the Database has not been published yet).
  Status Recover();
  /// Re-executes one WAL record through the normal mutator code path.
  Status ApplyRecord(uint64_t lsn, uint8_t type, const std::string& body);
  /// Registers one checkpointed AST: catalog entry, stored data, registry
  /// entry with recovered freshness state. An AST whose data section was
  /// corrupt (or whose definition no longer builds) is dropped to kDisabled
  /// instead of failing recovery.
  Status RecoverAst(wal::CheckpointAst&& ast);
  /// Checkpoint body; caller holds maint_mu_ (and NOT ddl_mu_). Called at
  /// the END of mutators only — never mid-operation — so every logged
  /// record's effect is published before it can be snapshotted.
  Status CheckpointLocked();
  /// Auto-checkpoint when checkpoint_interval_records is due.
  void MaybeCheckpointLocked();

  DatabaseOptions options_;
  std::unique_ptr<wal::Writer> wal_;
  /// True while Recover() replays the WAL: Log* helpers become no-ops and
  /// Append routes every AST through the same refresh decisions it made
  /// live, so replay converges on the identical state.
  bool replaying_ = false;
  /// Written under maint_mu_; atomics so Stats() reads them lock-free.
  std::atomic<uint64_t> checkpoint_seq_{0};  // last checkpoint written/loaded
  std::atomic<int64_t> checkpoints_written_{0};
  int64_t records_since_checkpoint_ = 0;  // maint_mu_ only
  /// The encoding buffer WriteCheckpoint reuses, kept between checkpoints
  /// (maint_mu_ only).
  std::string checkpoint_buffer_;
  std::vector<RecoveryEvent> recovery_events_;
  int64_t recovery_replayed_ = 0;
  int64_t recovery_truncated_bytes_ = 0;
  int64_t recovery_asts_dropped_ = 0;
  int64_t recovery_deltas_dropped_ = 0;

  /// Serializes mutators (DDL, loads, maintenance) among themselves so each
  /// can run its expensive compute phase — full-table copy-on-write builds,
  /// delta aggregation, AST recomputes — without holding ddl_mu_ and thus
  /// without stalling query planning. Lock order: maint_mu_ before ddl_mu_,
  /// always; readers never touch maint_mu_.
  mutable std::mutex maint_mu_;
  /// Readers (query planning, freshness introspection) hold it shared;
  /// mutators commit under it exclusively — and only for the commit (the
  /// version pointer swaps + epoch/registry updates), microseconds even for
  /// a multi-megabyte append, since the new versions were built under
  /// maint_mu_ alone. Execution happens OUTSIDE the lock, against the
  /// query's pinned storage snapshot, so a long scan never blocks an Append.
  mutable std::shared_mutex ddl_mu_;
  catalog::Catalog catalog_;
  engine::Storage storage_;
  std::vector<SummaryTablePtr> summary_tables_;

  /// Rewrite-plan cache, mutex-sharded (src/sumtab/plan_cache.h); safe to
  /// consult from any thread.
  ShardedPlanCache plan_cache_;
  std::atomic<int64_t> catalog_generation_{0};

  /// Observed-workload telemetry (internally synchronized); the advisor's
  /// input. Persisted in checkpoints, restored by Recover().
  sumtab::WorkloadLog workload_log_;
  /// Workload-recorded SELECTs since open/clear (post-execution path, no
  /// lock held).
  std::atomic<int64_t> queries_observed_{0};
};

}  // namespace sumtab

#endif  // SUMTAB_SUMTAB_DATABASE_H_
