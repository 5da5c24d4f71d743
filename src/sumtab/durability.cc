// Database durability: logical WAL logging, checkpointing, and recovery
// (DESIGN.md, "Durability and recovery").
//
// The log is *logical*: each record is the already-validated input of one
// mutator (CreateTable / BulkLoad / Append / DefineSummaryTable / ...), and
// recovery replays it by calling that mutator again with `replaying_` set —
// the exact production code path runs, including incremental AST maintenance
// and recompute fallbacks, so the recovered state is bit-identical to the
// state a never-crashed process would hold after the same operation prefix.
//
// Commit protocol: a mutator logs (and, strict mode, hardens) its record
// AFTER its cheap validation but BEFORE its exclusive ddl_mu_ publish
// window. Consequences:
//   - A crash before the append: the operation never happened, in memory or
//     on disk.
//   - A crash between harden and publish: the op is on disk but was never
//     visible to any reader; replay applies it, which is indistinguishable
//     from the op having committed an instant before the crash.
//   - Operations that fail validation are never logged, so replay never
//     sees a record that would fail.
// The fsync therefore happens under maint_mu_ only — never inside the
// ddl_mu_ window that query planning waits on.
#include <filesystem>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/reject_reason.h"
#include "common/str_util.h"
#include "qgm/qgm_builder.h"
#include "sql/parser.h"
#include "sumtab/database.h"
#include "wal/checkpoint.h"
#include "wal/codec.h"
#include "wal/wal.h"

namespace sumtab {

namespace {

namespace fs = std::filesystem;

void PutCatalogTable(std::string* out, const catalog::Table& table) {
  wal::PutString(out, table.name);
  wal::PutU32(out, static_cast<uint32_t>(table.columns.size()));
  for (const catalog::Column& col : table.columns) {
    wal::PutString(out, col.name);
    wal::PutU8(out, static_cast<uint8_t>(col.type));
    wal::PutU8(out, col.nullable ? 1 : 0);
  }
  wal::PutU32(out, static_cast<uint32_t>(table.primary_key.size()));
  for (const std::string& pk : table.primary_key) wal::PutString(out, pk);
}

Status MalformedRecord(uint64_t lsn, const char* what) {
  return RejectIo(RejectReason::kWalCorruption,
                  std::string("malformed ") + what + " record at lsn " +
                      std::to_string(lsn));
}

}  // namespace

Database::Database(const DatabaseOptions& options)
    : options_(options), plan_cache_(kPlanCacheCapacity) {}

// ---- logging (callers hold maint_mu_) ----

Status Database::LogOp(uint8_t type, const std::string& body) {
  if (wal_ == nullptr || replaying_) return Status::OK();
  SUMTAB_ASSIGN_OR_RETURN(
      uint64_t lsn, wal_->Append(static_cast<wal::RecordType>(type), body));
  ++records_since_checkpoint_;
  if (options_.wal_sync) return wal_->Harden(lsn);
  return Status::OK();
}

Status Database::LogCreateTableOp(const catalog::Table& table) {
  if (wal_ == nullptr || replaying_) return Status::OK();
  std::string body;
  PutCatalogTable(&body, table);
  return LogOp(static_cast<uint8_t>(wal::RecordType::kCreateTable), body);
}

Status Database::LogForeignKeyOp(const std::string& child_table,
                                 const std::string& child_column,
                                 const std::string& parent_table,
                                 const std::string& parent_column) {
  if (wal_ == nullptr || replaying_) return Status::OK();
  std::string body;
  wal::PutString(&body, child_table);
  wal::PutString(&body, child_column);
  wal::PutString(&body, parent_table);
  wal::PutString(&body, parent_column);
  return LogOp(static_cast<uint8_t>(wal::RecordType::kAddForeignKey), body);
}

Status Database::LogRowsOp(uint8_t type, const std::string& table,
                           const std::vector<Row>& rows) {
  if (wal_ == nullptr || replaying_) return Status::OK();
  std::string body;
  wal::PutString(&body, table);
  wal::PutU64(&body, rows.size());
  for (const Row& row : rows) wal::PutRow(&body, row);
  return LogOp(type, body);
}

Status Database::LogNameOp(uint8_t type, const std::string& name) {
  if (wal_ == nullptr || replaying_) return Status::OK();
  std::string body;
  wal::PutString(&body, name);
  return LogOp(type, body);
}

Status Database::LogDefineOp(const std::string& name, const std::string& sql,
                             bool advisor_owned) {
  if (wal_ == nullptr || replaying_) return Status::OK();
  std::string body;
  wal::PutString(&body, name);
  wal::PutString(&body, sql);
  wal::PutU8(&body, advisor_owned ? 1 : 0);
  return LogOp(static_cast<uint8_t>(wal::RecordType::kDefineSummary), body);
}

Status Database::LogStalenessOp(const std::string& name,
                                int64_t max_epoch_lag) {
  if (wal_ == nullptr || replaying_) return Status::OK();
  std::string body;
  wal::PutString(&body, name);
  wal::PutI64(&body, max_epoch_lag);
  return LogOp(static_cast<uint8_t>(wal::RecordType::kSetMaxStaleness), body);
}

// ---- recovery ----

StatusOr<std::unique_ptr<Database>> Database::Open(
    const DatabaseOptions& options) {
  if (options.data_dir.empty()) {
    return Status::InvalidArgument(
        "DatabaseOptions::data_dir is required for Database::Open()");
  }
  std::unique_ptr<Database> db(new Database(options));
  SUMTAB_RETURN_NOT_OK(db->Recover());
  return db;
}

Status Database::Recover() {
  static Counter* replayed_counter =
      MetricsRegistry::Global().counter("recovery.replayed_records");
  static Counter* dropped_counter =
      MetricsRegistry::Global().counter("recovery.asts_dropped");
  static Histogram* replay_hist =
      MetricsRegistry::Global().histogram("recovery.replay");

  std::error_code ec;
  fs::create_directories(options_.data_dir, ec);
  if (ec) {
    return RejectIo(RejectReason::kIoError,
                    "create " + options_.data_dir + ": " + ec.message());
  }

  // 1. Latest checkpoint, if any: restore catalog + storage + the AST
  //    registry with their recorded freshness state.
  SUMTAB_ASSIGN_OR_RETURN(wal::CheckpointLoadResult ckpt,
                          wal::LoadLatestCheckpoint(options_.data_dir));
  uint64_t replay_from = 0;  // records with lsn <= this are in the snapshot
  uint64_t covered_seq = 0;  // WAL segments <= this predate the checkpoint
  if (ckpt.found) {
    checkpoint_seq_.store(ckpt.seq, std::memory_order_release);
    replay_from = ckpt.state.last_lsn;
    covered_seq = ckpt.state.wal_segment_seq;
    catalog_generation_.store(ckpt.state.catalog_generation,
                              std::memory_order_release);
    for (wal::CheckpointBaseTable& bt : ckpt.state.base_tables) {
      std::string name = bt.table.name;
      SUMTAB_RETURN_NOT_OK(catalog_.AddTable(std::move(bt.table)));
      SUMTAB_RETURN_NOT_OK(storage_.AdoptTable(
          name, std::move(bt.column_names), std::move(bt.data)));
      storage_.SetEpoch(name, bt.epoch);
    }
    for (const catalog::ForeignKey& fk : ckpt.state.foreign_keys) {
      SUMTAB_RETURN_NOT_OK(catalog_.AddForeignKey(
          fk.child_table, fk.child_column, fk.parent_table, fk.parent_column));
    }
    if (ckpt.state.workload_corrupt) {
      // Advisory telemetry only: dropping it never affects answers, so a
      // corrupt section is an event, not a failure.
      recovery_events_.push_back(RecoveryEvent{
          RejectReasonToken(RejectReason::kWorkloadDroppedOnRecovery),
          "workload log dropped: corrupt checkpoint section"});
    } else if (ckpt.state.workload_present) {
      workload_log_.Restore(ckpt.state.workload);
      // Re-seed the query counter from the restored log BEFORE recovering
      // ASTs: RecoverAst stamps created_at_query from it, so recovered ASTs
      // restart their decay window at zero instead of appearing to have
      // idled through every pre-restart query.
      int64_t observed = 0;
      for (const WorkloadQueryStats& q : ckpt.state.workload.queries) {
        observed += q.executions;
      }
      queries_observed_.store(observed, std::memory_order_release);
    }
    for (wal::CheckpointAst& ast : ckpt.state.asts) {
      SUMTAB_RETURN_NOT_OK(RecoverAst(std::move(ast)));
    }
    for (wal::CheckpointDelta& delta : ckpt.state.deltas) {
      if (!delta.data_ok) {
        // Graceful: a lost slice only opens a coverage gap — compensation
        // refuses and the stale AST waits for a refresh; answers stay
        // correct from base tables.
        recovery_events_.push_back(RecoveryEvent{
            RejectReasonToken(RejectReason::kDeltaDroppedOnRecovery),
            "delta slice for '" + delta.table + "' epoch " +
                std::to_string(delta.epoch) +
                " dropped: corrupt checkpoint section"});
        ++recovery_deltas_dropped_;
        continue;
      }
      // A v3 slice's string columns already index the recovered table's
      // dictionaries, and Encode leaves them be; a v2 slice's raw strings
      // are encoded against them, as Append does.
      storage_.RetainDelta(delta.table, delta.epoch,
                           std::make_shared<const engine::Batch>(
                               storage_.Encode(delta.table, *delta.data)));
    }
  }

  // 2. Scan the WAL with repair on: a torn tail is truncated off its
  //    segment, so a crash *during this recovery* re-runs against the same
  //    clean prefix — repeated crashed recoveries converge.
  SUMTAB_ASSIGN_OR_RETURN(wal::ScanResult scan,
                          wal::ScanDir(options_.data_dir, /*repair=*/true));
  if (scan.torn_events > 0) {
    recovery_truncated_bytes_ = scan.truncated_bytes;
    recovery_events_.push_back(RecoveryEvent{
        RejectReasonToken(RejectReason::kWalTornTail),
        "truncated " + std::to_string(scan.truncated_bytes) +
            " torn tail byte(s)"});
  }

  // 3. Replay past the checkpoint through the normal mutator code paths.
  //    Recovery writes nothing here (Log* helpers are disabled), so a crash
  //    mid-replay leaves the directory exactly as this pass found it.
  ScopedLatency replay_timer(replay_hist);
  replaying_ = true;
  for (const wal::Record& record : scan.records) {
    if (record.lsn <= replay_from) continue;
    Status st = FaultInjector::Instance().Check("recovery/replay");
    if (st.ok()) st = ApplyRecord(record.lsn, record.type, record.body);
    if (!st.ok()) {
      replaying_ = false;
      return RejectIo(RejectReason::kRecoveryFailed,
                      "replaying lsn " + std::to_string(record.lsn) + ": " +
                          st.ToString());
    }
    ++recovery_replayed_;
    replayed_counter->Increment();
  }
  replaying_ = false;
  if (recovery_asts_dropped_ > 0) {
    dropped_counter->Increment(recovery_asts_dropped_);
  }
  if (recovery_deltas_dropped_ > 0) {
    MetricsRegistry::Global()
        .counter("recovery.deltas_dropped")
        ->Increment(recovery_deltas_dropped_);
  }

  // 4. Start logging on a FRESH segment past everything scanned — never
  //    append into a segment a previous incarnation wrote (idempotent even
  //    when the previous recovery died between truncation and here).
  uint64_t last_lsn = replay_from;
  if (!scan.records.empty()) {
    last_lsn = std::max(last_lsn, scan.records.back().lsn);
  }
  uint64_t next_seq = std::max(scan.max_segment_seq, covered_seq) + 1;
  wal::Writer::Options wopts;
  wopts.sync = options_.wal_sync;
  wopts.flush_interval_micros = options_.group_commit_interval_micros;
  SUMTAB_ASSIGN_OR_RETURN(
      wal_,
      wal::Writer::Open(options_.data_dir, next_seq, last_lsn + 1, wopts));
  return Status::OK();
}

Status Database::RecoverAst(wal::CheckpointAst&& ast) {
  SUMTAB_RETURN_NOT_OK(catalog_.AddTable(ast.table));

  // The definition graph is rebuilt by re-parsing the stored SQL — cheap,
  // deterministic, and independent of whether the data section survived.
  qgm::Graph graph;
  bool graph_ok = false;
  {
    StatusOr<std::shared_ptr<sql::SelectStmt>> stmt = sql::Parse(ast.sql);
    if (stmt.ok()) {
      StatusOr<qgm::Graph> built = qgm::BuildGraph(**stmt, catalog_);
      if (built.ok()) {
        graph = std::move(*built);
        graph_ok = true;
      }
    }
  }

  bool dropped = !ast.data_ok || !graph_ok;
  if (dropped) {
    // Graceful degradation: the AST is dropped to kDisabled with an empty
    // materialization — queries keep succeeding from base tables, and (if
    // the graph rebuilt) a RefreshSummaryTable() recompute revives it.
    ast.column_names.clear();
    for (const catalog::Column& col : ast.table.columns) {
      ast.column_names.push_back(col.name);
    }
    auto empty = std::make_shared<engine::Batch>();
    empty->columns.resize(ast.column_names.size());
    ast.data = std::move(empty);
    recovery_events_.push_back(RecoveryEvent{
        RejectReasonToken(RejectReason::kAstDroppedOnRecovery),
        "summary table '" + ast.name + "' dropped: " +
            (ast.data_ok ? "definition no longer builds"
                         : "corrupt checkpoint data section")});
    ++recovery_asts_dropped_;
  }
  SUMTAB_RETURN_NOT_OK(storage_.AdoptTable(
      ast.name, std::move(ast.column_names), std::move(ast.data)));

  if (!graph_ok) {
    // Without a definition graph the AST can neither serve rewrites nor be
    // refreshed; leave it out of the registry entirely (its catalog/storage
    // entries are inert, like a dropped summary table's).
    return Status::OK();
  }
  auto st = std::make_shared<SummaryTable>();
  st->name = ToLower(ast.name);
  st->sql = ast.sql;
  st->graph = std::move(graph);
  st->materialized_epochs = std::move(ast.materialized_epochs);
  st->max_staleness = ast.max_staleness;
  st->consecutive_failures.store(ast.consecutive_failures,
                                 std::memory_order_release);
  st->disabled.store(ast.disabled || dropped, std::memory_order_release);
  // Advisor ownership survives restart so the auto-DROP lifecycle keeps
  // governing the AST. The hit-rate window restarts with the process.
  st->advisor_owned = ast.advisor_owned;
  st->created_at_query = queries_observed_.load(std::memory_order_acquire);
  summary_tables_.push_back(std::move(st));
  return Status::OK();
}

Status Database::ApplyRecord(uint64_t lsn, uint8_t type,
                             const std::string& body) {
  wal::Decoder in(body);
  switch (static_cast<wal::RecordType>(type)) {
    case wal::RecordType::kCreateTable: {
      std::string name = in.String();
      uint32_t ncols = in.U32();
      std::vector<catalog::Column> columns;
      for (uint32_t i = 0; i < ncols && in.ok(); ++i) {
        catalog::Column col;
        col.name = in.String();
        col.type = static_cast<Type>(in.U8());
        col.nullable = in.U8() != 0;
        columns.push_back(std::move(col));
      }
      uint32_t npk = in.U32();
      std::vector<std::string> primary_key;
      for (uint32_t i = 0; i < npk && in.ok(); ++i) {
        primary_key.push_back(in.String());
      }
      if (!in.AtEnd()) return MalformedRecord(lsn, "CreateTable");
      return CreateTable(name, columns, primary_key);
    }
    case wal::RecordType::kAddForeignKey: {
      std::string ct = in.String();
      std::string cc = in.String();
      std::string pt = in.String();
      std::string pc = in.String();
      if (!in.AtEnd()) return MalformedRecord(lsn, "AddForeignKey");
      return AddForeignKey(ct, cc, pt, pc);
    }
    case wal::RecordType::kBulkLoad:
    case wal::RecordType::kAppend:
    case wal::RecordType::kAppendDeferred: {
      std::string table = in.String();
      uint64_t nrows = in.U64();
      std::vector<Row> rows;
      for (uint64_t i = 0; i < nrows && in.ok(); ++i) {
        rows.push_back(in.GetRow());
      }
      if (!in.AtEnd()) return MalformedRecord(lsn, "BulkLoad/Append");
      if (static_cast<wal::RecordType>(type) == wal::RecordType::kBulkLoad) {
        return BulkLoad(table, std::move(rows));
      }
      // A deferred append replays deferred: the rows are re-appended and
      // re-retained as a delta slice, no maintenance runs, and dependent
      // ASTs recover into the same stale-but-compensatable state (identical
      // epoch high-water marks) the pre-crash process held.
      AppendOptions append_options;
      append_options.maintain = static_cast<wal::RecordType>(type) !=
                                wal::RecordType::kAppendDeferred;
      return Append(table, std::move(rows), append_options).status();
    }
    case wal::RecordType::kDefineSummary: {
      std::string name = in.String();
      std::string sql = in.String();
      // Trailing advisor-owned flag; absent in records written before the
      // advisor existed (treated as user-owned).
      bool advisor_owned = !in.AtEnd() && in.U8() != 0;
      if (!in.AtEnd()) return MalformedRecord(lsn, "DefineSummary");
      return DefineSummaryTable(name, sql, advisor_owned).status();
    }
    case wal::RecordType::kDropSummary: {
      std::string name = in.String();
      if (!in.AtEnd()) return MalformedRecord(lsn, "DropSummary");
      return DropSummaryTable(name);
    }
    case wal::RecordType::kRefreshSummary: {
      std::string name = in.String();
      if (!in.AtEnd()) return MalformedRecord(lsn, "RefreshSummary");
      // Refreshes are logged before they run, so the live attempt may have
      // failed AFTER logging; the replayed attempt fails the same
      // deterministic way and the AST lands in the same (stale) state.
      (void)RefreshSummaryTable(name);
      return Status::OK();
    }
    case wal::RecordType::kSetMaxStaleness: {
      std::string name = in.String();
      int64_t lag = in.I64();
      if (!in.AtEnd()) return MalformedRecord(lsn, "SetMaxStaleness");
      return SetMaxStaleness(name, lag);
    }
  }
  return RejectIo(RejectReason::kWalCorruption,
                  "unknown record type " + std::to_string(type) +
                      " at lsn " + std::to_string(lsn));
}

// ---- checkpointing ----

Status Database::Checkpoint() {
  std::lock_guard<std::mutex> maint(maint_mu_);
  return CheckpointLocked();
}

Status Database::CheckpointLocked() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument(
        "durability is not enabled (open with DatabaseOptions::data_dir)");
  }
  // Cut the log first: everything logged so far lands in the old segments
  // (covered by this checkpoint); everything after the roll lands in the
  // new one (to be replayed on top of it). Under maint_mu_ no mutator is
  // mid-operation, so every logged record's effect is published and the
  // in-memory state captured below reflects exactly the log through
  // last_lsn.
  uint64_t covered_seq = wal_->segment_seq();
  uint64_t last_lsn = wal_->last_lsn();
  SUMTAB_RETURN_NOT_OK(wal_->Roll(covered_seq + 1));

  wal::CheckpointState state;
  state.last_lsn = last_lsn;
  state.wal_segment_seq = covered_seq;
  state.catalog_generation =
      catalog_generation_.load(std::memory_order_acquire);
  state.foreign_keys = catalog_.foreign_keys();
  // Tables are checkpointed as their published columns, shared with the
  // snapshot pinned here: nothing is copied before the encoder reads them.
  engine::Storage::Snapshot snap = storage_.Snap();
  for (const std::string& name : catalog_.TableNames()) {
    const catalog::Table* table = catalog_.FindTable(name);
    if (table->is_summary_table) continue;  // ASTs come from the registry
    wal::CheckpointBaseTable bt;
    bt.data = snap.FindColumnar(name);
    if (bt.data == nullptr) continue;
    bt.table = *table;
    bt.epoch = snap.Epoch(name);
    bt.column_names = snap.ColumnNames(name);
    state.base_tables.push_back(std::move(bt));
  }
  for (const SummaryTablePtr& st : summary_tables_) {
    const catalog::Table* table = catalog_.FindTable(st->name);
    std::shared_ptr<const engine::Batch> data = snap.FindColumnar(st->name);
    if (table == nullptr || data == nullptr) continue;
    wal::CheckpointAst ast;
    ast.name = st->name;
    ast.sql = st->sql;
    ast.table = *table;
    ast.materialized_epochs = st->materialized_epochs;
    ast.max_staleness = st->max_staleness;
    ast.consecutive_failures =
        st->consecutive_failures.load(std::memory_order_acquire);
    ast.disabled = st->disabled.load(std::memory_order_acquire);
    ast.advisor_owned = st->advisor_owned;
    ast.column_names = snap.ColumnNames(st->name);
    ast.data = std::move(data);
    state.asts.push_back(std::move(ast));
  }
  // The observed workload travels with the checkpoint so the advisor's
  // input survives restart (always present; an empty log encodes small).
  state.workload = workload_log_.Snapshot();
  state.workload_present = true;
  // Retained delta slices travel with the checkpoint so a recovered process
  // can re-compensate the same stale ASTs without the covering WAL segments.
  std::vector<engine::Storage::RetainedDelta> retained =
      storage_.RetainedDeltas();
  for (engine::Storage::RetainedDelta& rd : retained) {
    wal::CheckpointDelta cd;
    cd.table = std::move(rd.table);
    cd.epoch = rd.epoch;
    cd.column_names = std::move(rd.column_names);
    cd.data = std::move(rd.data);
    state.deltas.push_back(std::move(cd));
  }

  uint64_t seq = checkpoint_seq_.load(std::memory_order_acquire) + 1;
  SUMTAB_RETURN_NOT_OK(wal::WriteCheckpoint(options_.data_dir, seq, state,
                                            &checkpoint_buffer_));
  checkpoint_seq_.store(seq, std::memory_order_release);
  checkpoints_written_.fetch_add(1, std::memory_order_acq_rel);
  records_since_checkpoint_ = 0;

  // Prune what the new checkpoint supersedes. Failures here are real IO
  // errors worth surfacing, but the state on disk stays recoverable either
  // way: replay skips records at or below the checkpoint's last_lsn.
  SUMTAB_RETURN_NOT_OK(wal::RemoveCheckpointsBefore(options_.data_dir, seq));
  return wal::RemoveSegmentsThrough(options_.data_dir, covered_seq);
}

void Database::MaybeCheckpointLocked() {
  if (wal_ == nullptr || replaying_ ||
      options_.checkpoint_interval_records <= 0 ||
      records_since_checkpoint_ < options_.checkpoint_interval_records) {
    return;
  }
  // Best effort: a failed auto-checkpoint must not fail the mutation that
  // triggered it (the WAL still covers everything); it is counted and the
  // next mutation retries.
  if (!CheckpointLocked().ok()) {
    MetricsRegistry::Global().counter("checkpoint.auto_failures")->Increment();
  }
}

}  // namespace sumtab
