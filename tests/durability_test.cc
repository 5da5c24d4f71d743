// Durability end-to-end tests through the Database facade: open/replay round
// trips, checkpoints with WAL pruning, freshness state surviving restarts,
// graceful AST drop on checkpoint corruption, and the strict/relaxed WAL
// modes. Process-kill crash coverage lives in crash_recovery_test.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <map>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/reject_reason.h"
#include "data/card_schema.h"
#include "tests/test_util.h"
#include "wal/checkpoint.h"
#include "wal/codec.h"
#include "wal/wal.h"

namespace sumtab {
namespace {

namespace fs = std::filesystem;

constexpr char kAstDef[] =
    "select faid, count(*) as c, sum(qty) as s from trans group by faid";
constexpr char kAstQuery[] =
    "select faid, count(*) as c from trans group by faid";

std::vector<Row> MakeTransRows(int start_tid, int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row{Value::Int(start_tid + i), Value::Int(i % 50),
                       Value::Int(i % 12), Value::Int(i % 40),
                       Value::Date(19940101 + (i % 28)), Value::Int(1 + i % 5),
                       Value::Double(10.0), Value::Double(0.0)});
  }
  return rows;
}

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().Reset();
    dir_ = ::testing::TempDir() + "sumtab_durability_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    FaultInjector::Instance().Reset();
    fs::remove_all(dir_);
  }

  DatabaseOptions Options() {
    DatabaseOptions options;
    options.data_dir = dir_;
    return options;
  }

  std::unique_ptr<Database> MustOpen(DatabaseOptions options) {
    StatusOr<std::unique_ptr<Database>> db = Database::Open(options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return db.ok() ? std::move(*db) : nullptr;
  }
  std::unique_ptr<Database> MustOpen() { return MustOpen(Options()); }

  /// Durable equivalent of testing::MakeCardDb (small, deterministic).
  std::unique_ptr<Database> MustOpenCardDb(int64_t num_trans = 600) {
    auto db = MustOpen();
    if (db == nullptr) return nullptr;
    data::CardSchemaParams params;
    params.num_trans = num_trans;
    Status st = data::SetupCardSchema(db.get(), params);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return db;
  }

  engine::Relation BaseAnswer(Database* db, const std::string& sql) {
    QueryOptions opts;
    opts.enable_rewrite = false;
    StatusOr<QueryResult> result = db->Query(sql, opts);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(result->relation) : engine::Relation{};
  }

  AstState StateOf(Database* db, const std::string& name) {
    StatusOr<SummaryTableInfo> info = db->GetSummaryTableInfo(name);
    EXPECT_TRUE(info.ok()) << info.status().ToString();
    return info.ok() ? info->state : AstState::kFresh;
  }

  /// One checkpoint file is on disk (and exactly one).
  uint64_t SoleCheckpointSeq() {
    uint64_t seq = 0;
    int count = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("ckpt-", 0) != 0) continue;
      ++count;
      seq = std::stoull(name.substr(5, 8));
    }
    EXPECT_EQ(count, 1);
    return seq;
  }

  int CountWalSegments() {
    int count = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().filename().string().rfind("wal-", 0) == 0) ++count;
    }
    return count;
  }

  std::string dir_;
};

TEST_F(DurabilityTest, OpenRequiresDataDir) {
  DatabaseOptions options;  // data_dir empty
  EXPECT_FALSE(Database::Open(options).ok());
}

TEST_F(DurabilityTest, InMemoryDatabaseRejectsCheckpoint) {
  Database db;
  EXPECT_FALSE(db.Checkpoint().ok());
  EXPECT_FALSE(db.Stats().durability.enabled);
}

TEST_F(DurabilityTest, WalReplayRoundTrip) {
  // Everything through the WAL, no checkpoint at all: schema, loads, AST
  // definition, an incremental append, and a staleness budget.
  {
    auto db = MustOpenCardDb();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->DefineSummaryTable("ast1", kAstDef).ok());
    ASSERT_TRUE(db->Append("trans", MakeTransRows(1000000, 40)).ok());
    ASSERT_TRUE(db->SetMaxStaleness("ast1", 3).ok());
    EXPECT_TRUE(db->recovery_events().empty());
    DurabilityStats ds = db->Stats().durability;
    EXPECT_TRUE(ds.enabled);
    EXPECT_GT(ds.wal_records, 0);
    EXPECT_EQ(ds.durable_lsn, ds.last_lsn);  // strict mode hardens every op
    EXPECT_GT(ds.wal_bytes, 0);
  }

  auto recovered = MustOpen();
  ASSERT_NE(recovered, nullptr);
  auto twin = testing::MakeCardDb(600);
  ASSERT_TRUE(twin->DefineSummaryTable("ast1", kAstDef).ok());
  ASSERT_TRUE(twin->Append("trans", MakeTransRows(1000000, 40)).ok());
  ASSERT_TRUE(twin->SetMaxStaleness("ast1", 3).ok());

  EXPECT_GT(recovered->Stats().durability.recovery_replayed_records, 0);
  EXPECT_EQ(recovered->TableRows("trans"), twin->TableRows("trans"));
  EXPECT_EQ(recovered->SummaryTableNames(), twin->SummaryTableNames());
  EXPECT_EQ(StateOf(recovered.get(), "ast1"), AstState::kFresh);

  StatusOr<SummaryTableInfo> info = recovered->GetSummaryTableInfo("ast1");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->max_staleness, 3);

  // Same answers, same rewrite decisions, as the never-restarted twin.
  EXPECT_TRUE(engine::SameRowMultiset(BaseAnswer(recovered.get(), kAstQuery),
                                      BaseAnswer(twin.get(), kAstQuery)));
  testing::ExpectRewriteEquivalent(recovered.get(), kAstQuery);
}

TEST_F(DurabilityTest, CheckpointPrunesWalAndRestores) {
  {
    auto db = MustOpenCardDb();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->DefineSummaryTable("ast1", kAstDef).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    DurabilityStats ds = db->Stats().durability;
    EXPECT_EQ(ds.checkpoints_written, 1);
    EXPECT_EQ(ds.last_checkpoint_seq, SoleCheckpointSeq());
    // All pre-checkpoint segments were pruned; only the fresh one remains.
    EXPECT_EQ(CountWalSegments(), 1);
    // Mutations after the checkpoint land in the WAL and replay on top.
    ASSERT_TRUE(db->Append("trans", MakeTransRows(2000000, 25)).ok());
  }

  auto recovered = MustOpen();
  ASSERT_NE(recovered, nullptr);
  auto twin = testing::MakeCardDb(600);
  ASSERT_TRUE(twin->DefineSummaryTable("ast1", kAstDef).ok());
  ASSERT_TRUE(twin->Append("trans", MakeTransRows(2000000, 25)).ok());

  // Exactly the post-checkpoint suffix was replayed (one Append record).
  EXPECT_EQ(recovered->Stats().durability.recovery_replayed_records, 1);
  EXPECT_EQ(recovered->TableRows("trans"), twin->TableRows("trans"));
  EXPECT_TRUE(engine::SameRowMultiset(BaseAnswer(recovered.get(), kAstQuery),
                                      BaseAnswer(twin.get(), kAstQuery)));
  EXPECT_EQ(StateOf(recovered.get(), "ast1"), AstState::kFresh);
  testing::ExpectRewriteEquivalent(recovered.get(), kAstQuery);
}

TEST_F(DurabilityTest, StaleAstStaysStaleAcrossRestart) {
  {
    auto db = MustOpenCardDb();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->DefineSummaryTable("ast1", kAstDef).ok());
    // BulkLoad does NOT maintain ASTs: ast1 is now stale.
    ASSERT_TRUE(db->BulkLoad("trans", MakeTransRows(3000000, 30)).ok());
    ASSERT_EQ(StateOf(db.get(), "ast1"), AstState::kStale);
    // Persist the stale state via checkpoint, not replay, so this exercises
    // the freshness-vector snapshot specifically.
    ASSERT_TRUE(db->Checkpoint().ok());
  }

  auto recovered = MustOpen();
  ASSERT_NE(recovered, nullptr);
  // The whole point of checkpointing freshness vectors: a stale AST must
  // still be known-stale after recovery, not silently serve wrong rewrites.
  ASSERT_EQ(StateOf(recovered.get(), "ast1"), AstState::kStale);
  StatusOr<QueryResult> routed = recovered->Query(kAstQuery);
  ASSERT_TRUE(routed.ok());
  EXPECT_FALSE(routed->used_summary_table);
  EXPECT_TRUE(engine::SameRowMultiset(
      routed->relation, BaseAnswer(recovered.get(), kAstQuery)));

  // Refresh revives it; the revival is logged and survives another restart.
  ASSERT_TRUE(recovered->RefreshSummaryTable("ast1").ok());
  ASSERT_EQ(StateOf(recovered.get(), "ast1"), AstState::kFresh);
  testing::ExpectRewriteEquivalent(recovered.get(), kAstQuery);
  recovered.reset();

  auto again = MustOpen();
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(StateOf(again.get(), "ast1"), AstState::kFresh);
  testing::ExpectRewriteEquivalent(again.get(), kAstQuery);
}

TEST_F(DurabilityTest, AppendToStaleAstRecomputesInsteadOfBadMerge) {
  // Regression test: an Append while an AST is already stale (post-BulkLoad)
  // must NOT merge just the delta and stamp the AST fresh — that would be
  // fresh-but-wrong. It must recompute from the full base table.
  auto db = MustOpenCardDb();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->DefineSummaryTable("ast1", kAstDef).ok());
  ASSERT_TRUE(db->BulkLoad("trans", MakeTransRows(3000000, 30)).ok());
  ASSERT_EQ(StateOf(db.get(), "ast1"), AstState::kStale);

  StatusOr<Database::MaintenanceReport> report =
      db->Append("trans", MakeTransRows(4000000, 10));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->entries.size(), 1u);
  EXPECT_EQ(report->entries[0].mode, Database::RefreshMode::kRecompute);
  ASSERT_EQ(StateOf(db.get(), "ast1"), AstState::kFresh);
  // Fresh AND right: the rewritten answer includes the bulk-loaded rows.
  testing::ExpectRewriteEquivalent(db.get(), kAstQuery);
}

TEST_F(DurabilityTest, DropSummaryTableSurvivesRestart) {
  {
    auto db = MustOpenCardDb();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->DefineSummaryTable("ast1", kAstDef).ok());
    ASSERT_TRUE(db->DropSummaryTable("ast1").ok());
  }
  auto recovered = MustOpen();
  ASSERT_NE(recovered, nullptr);
  EXPECT_TRUE(recovered->SummaryTableNames().empty());
  StatusOr<QueryResult> result = recovered->Query(kAstQuery);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->used_summary_table);
}

// A dropped AST's table entry goes with it, so its name can be defined again
// — live, after a WAL-only restart and after a checkpoint restart alike.
class DropRedefineTest : public DurabilityTest {
 protected:
  /// `name` is neither an AST nor a table any query can name.
  void ExpectGone(Database* db, const std::string& name) {
    EXPECT_EQ(db->catalog().FindTable(name), nullptr);
    EXPECT_TRUE(db->SummaryTableNames().empty());
    StatusOr<QueryResult> read = db->Query("select faid from " + name);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), Status::Code::kNotFound);
    EXPECT_EQ(read.status().message(), "table '" + name + "'");
  }
  /// kAstQuery rewrites through `name` and answers as the base tables do.
  void ExpectRewritesThrough(Database* db, const std::string& name) {
    StatusOr<QueryResult> routed = db->Query(kAstQuery);
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    EXPECT_TRUE(routed->used_summary_table);
    EXPECT_EQ(routed->summary_table, name);
    EXPECT_TRUE(engine::SameRowMultiset(BaseAnswer(db, kAstQuery),
                                        routed->relation));
  }
};

TEST_F(DropRedefineTest, LiveRedefineRewrites) {
  auto db = MustOpenCardDb();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->DefineSummaryTable("a1", kAstDef).ok());
  ExpectRewritesThrough(db.get(), "a1");
  ASSERT_TRUE(db->DropSummaryTable("a1").ok());
  ExpectGone(db.get(), "a1");
  StatusOr<int64_t> again = db->DefineSummaryTable("a1", kAstDef);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ExpectRewritesThrough(db.get(), "a1");
}

TEST_F(DropRedefineTest, RedefineSurvivesWalOnlyRestart) {
  {
    auto db = MustOpenCardDb();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->DefineSummaryTable("a1", kAstDef).ok());
    ASSERT_TRUE(db->DropSummaryTable("a1").ok());
    ASSERT_TRUE(db->DefineSummaryTable("a1", kAstDef).ok());
  }
  {
    auto recovered = MustOpen();
    ASSERT_NE(recovered, nullptr);
    EXPECT_EQ(recovered->SummaryTableNames(), std::vector<std::string>{"a1"});
    ExpectRewritesThrough(recovered.get(), "a1");
    ASSERT_TRUE(recovered->DropSummaryTable("a1").ok());
  }
  auto again = MustOpen();
  ASSERT_NE(again, nullptr);
  ExpectGone(again.get(), "a1");
}

TEST_F(DropRedefineTest, RedefineSurvivesCheckpointRestart) {
  {
    auto db = MustOpenCardDb();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->DefineSummaryTable("a1", kAstDef).ok());
    ASSERT_TRUE(db->DropSummaryTable("a1").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->DefineSummaryTable("a1", kAstDef).ok());
    ExpectRewritesThrough(db.get(), "a1");
  }
  {
    auto recovered = MustOpen();
    ASSERT_NE(recovered, nullptr);
    ExpectRewritesThrough(recovered.get(), "a1");
    ASSERT_TRUE(recovered->DropSummaryTable("a1").ok());
    ASSERT_TRUE(recovered->Checkpoint().ok());
    ExpectGone(recovered.get(), "a1");
  }
  auto again = MustOpen();
  ASSERT_NE(again, nullptr);
  ExpectGone(again.get(), "a1");
  ASSERT_TRUE(again->DefineSummaryTable("a1", kAstDef).ok());
  ExpectRewritesThrough(again.get(), "a1");
}

TEST_F(DurabilityTest, TornWalTailIsTruncatedOnOpen) {
  {
    auto db = MustOpenCardDb();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->DefineSummaryTable("ast1", kAstDef).ok());
  }
  // Tear the newest segment: append a plausible frame prefix by hand, as a
  // power cut mid-write(2) would leave it.
  uint64_t max_seq = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) {
      max_seq = std::max<uint64_t>(max_seq, std::stoull(name.substr(4, 8)));
    }
  }
  ASSERT_GT(max_seq, 0u);
  {
    std::ofstream f(dir_ + "/" + wal::SegmentFileName(max_seq),
                    std::ios::binary | std::ios::app);
    std::string partial("\x80\x00\x00\x00half-a-frame", 16);
    f.write(partial.data(), static_cast<std::streamsize>(partial.size()));
  }

  auto recovered = MustOpen();
  ASSERT_NE(recovered, nullptr);
  ASSERT_EQ(recovered->recovery_events().size(), 1u);
  EXPECT_EQ(recovered->recovery_events()[0].kind,
            RejectReasonToken(RejectReason::kWalTornTail));
  EXPECT_EQ(recovered->Stats().durability.recovery_truncated_bytes, 16);
  // The clean prefix survived in full.
  EXPECT_EQ(recovered->TableRows("trans"), 600);
  EXPECT_EQ(StateOf(recovered.get(), "ast1"), AstState::kFresh);
  testing::ExpectRewriteEquivalent(recovered.get(), kAstQuery);
}

TEST_F(DurabilityTest, CorruptAstCheckpointSectionDropsOnlyThatAst) {
  {
    auto db = MustOpenCardDb();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->DefineSummaryTable("ast1", kAstDef).ok());
    ASSERT_TRUE(db->DefineSummaryTable(
                      "ast2",
                      "select flid, count(*) as c from trans group by flid")
                    .ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  // Corrupt ast1's kAstData payload (the first AST section pair written).
  const std::string path = dir_ + "/" + wal::CheckpointFileName(1);
  StatusOr<std::vector<wal::SectionInfo>> sections =
      wal::ListCheckpointSections(path);
  ASSERT_TRUE(sections.ok()) << sections.status().ToString();
  bool corrupted = false;
  for (const wal::SectionInfo& s : *sections) {
    if (s.type != wal::SectionType::kAstData) continue;
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(s.payload_offset + s.payload_len / 2));
    f.put('\x7f');
    corrupted = true;
    break;
  }
  ASSERT_TRUE(corrupted);

  auto recovered = MustOpen();
  ASSERT_NE(recovered, nullptr);
  // Graceful degradation: ONLY the corrupt AST is dropped (to kDisabled),
  // the other one still serves rewrites, and base answers are unaffected.
  ASSERT_EQ(recovered->recovery_events().size(), 1u);
  EXPECT_EQ(recovered->recovery_events()[0].kind,
            RejectReasonToken(RejectReason::kAstDroppedOnRecovery));
  EXPECT_NE(recovered->recovery_events()[0].detail.find("ast1"),
            std::string::npos);
  EXPECT_EQ(recovered->Stats().durability.recovery_asts_dropped, 1);
  EXPECT_EQ(StateOf(recovered.get(), "ast1"), AstState::kDisabled);
  EXPECT_EQ(StateOf(recovered.get(), "ast2"), AstState::kFresh);

  StatusOr<QueryResult> routed = recovered->Query(kAstQuery);
  ASSERT_TRUE(routed.ok());
  EXPECT_FALSE(routed->used_summary_table);
  EXPECT_TRUE(engine::SameRowMultiset(
      routed->relation, BaseAnswer(recovered.get(), kAstQuery)));
  testing::ExpectRewriteEquivalent(
      recovered.get(), "select flid, count(*) as c from trans group by flid");

  // A recompute revives the dropped AST from base tables.
  ASSERT_TRUE(recovered->RefreshSummaryTable("ast1").ok());
  EXPECT_EQ(StateOf(recovered.get(), "ast1"), AstState::kFresh);
  testing::ExpectRewriteEquivalent(recovered.get(), kAstQuery);
}

TEST_F(DurabilityTest, CompensationSurvivesRestart) {
  constexpr char kSumQuery[] =
      "select faid, count(*) as c, sum(qty) as s from trans group by faid";
  Database::AppendOptions deferred;
  deferred.maintain = false;

  // Twin: identical schema/data/deferred appends, never restarted. The
  // recovered database must re-compensate to the twin's exact answers.
  auto twin = testing::MakeCardDb(600);
  ASSERT_TRUE(twin->DefineSummaryTable("ast1", kAstDef).ok());
  ASSERT_TRUE(twin->Append("trans", MakeTransRows(900000, 25), deferred).ok());
  ASSERT_TRUE(twin->Append("trans", MakeTransRows(910000, 35), deferred).ok());
  StatusOr<QueryResult> twin_result = twin->Query(kSumQuery);
  ASSERT_TRUE(twin_result.ok());
  ASSERT_TRUE(twin_result->compensated);

  {
    auto db = MustOpenCardDb();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->DefineSummaryTable("ast1", kAstDef).ok());
    ASSERT_TRUE(db->Append("trans", MakeTransRows(900000, 25), deferred).ok());
    ASSERT_TRUE(db->Append("trans", MakeTransRows(910000, 35), deferred).ok());
    StatusOr<QueryResult> live = db->Query(kSumQuery);
    ASSERT_TRUE(live.ok());
    EXPECT_TRUE(live->compensated);
    EXPECT_EQ(live->compensation_delta_rows, 60);
    EXPECT_EQ(live->compensation_epochs, 2);
  }

  // Restart #1: no checkpoint, so the deferred appends come back via
  // kAppendDeferred WAL replay — which must NOT maintain the AST (that
  // would silently absorb the delta and change the epoch high-water mark).
  {
    auto db = MustOpen();
    ASSERT_NE(db, nullptr);
    StatusOr<SummaryTableInfo> info = db->GetSummaryTableInfo("ast1");
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->state, AstState::kStale);
    EXPECT_EQ(info->staleness, 2);  // same epoch lag as before the restart
    StatusOr<QueryResult> result = db->Query(kSumQuery);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->used_summary_table);
    EXPECT_TRUE(result->compensated);
    EXPECT_EQ(result->compensation_delta_rows, 60);
    EXPECT_EQ(result->compensation_epochs, 2);
    EXPECT_FALSE(result->degradation.degraded);
    EXPECT_TRUE(
        engine::SameRowMultiset(result->relation, twin_result->relation));
    // Restart #2 seeds from a checkpoint instead: the retained delta
    // partitions round-trip through kDeltaPartition sections.
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  {
    auto db = MustOpen();
    ASSERT_NE(db, nullptr);
    EXPECT_EQ(db->Stats().durability.recovery_deltas_dropped, 0);
    StatusOr<SummaryTableInfo> info = db->GetSummaryTableInfo("ast1");
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->staleness, 2);
    StatusOr<QueryResult> result = db->Query(kSumQuery);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->compensated);
    EXPECT_EQ(result->compensation_delta_rows, 60);
    EXPECT_EQ(result->compensation_epochs, 2);
    EXPECT_TRUE(
        engine::SameRowMultiset(result->relation, twin_result->relation));

    // Refresh absorbs; a restarted-and-refreshed database serves the plain
    // (uncompensated) rewrite again.
    ASSERT_TRUE(db->RefreshSummaryTable("ast1").ok());
    StatusOr<QueryResult> fresh = db->Query(kSumQuery);
    ASSERT_TRUE(fresh.ok());
    EXPECT_TRUE(fresh->used_summary_table);
    EXPECT_FALSE(fresh->compensated);
    EXPECT_TRUE(
        engine::SameRowMultiset(fresh->relation, twin_result->relation));
  }
}

TEST_F(DurabilityTest, CorruptDeltaCheckpointSectionDropsOnlyCompensation) {
  Database::AppendOptions deferred;
  deferred.maintain = false;
  {
    auto db = MustOpenCardDb();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->DefineSummaryTable("ast1", kAstDef).ok());
    ASSERT_TRUE(db->Append("trans", MakeTransRows(920000, 30), deferred).ok());
    ASSERT_TRUE(db->Query(kAstQuery)->compensated);
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  // Flip a byte inside the retained delta's kDeltaPartition payload.
  const std::string path = dir_ + "/" + wal::CheckpointFileName(1);
  StatusOr<std::vector<wal::SectionInfo>> sections =
      wal::ListCheckpointSections(path);
  ASSERT_TRUE(sections.ok()) << sections.status().ToString();
  bool corrupted = false;
  for (const wal::SectionInfo& s : *sections) {
    if (s.type != wal::SectionType::kDeltaPartition) continue;
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(s.payload_offset + s.payload_len / 2));
    f.put('\x7f');
    corrupted = true;
    break;
  }
  ASSERT_TRUE(corrupted);

  auto recovered = MustOpen();
  ASSERT_NE(recovered, nullptr);
  // Graceful degradation: ONLY the delta slice is dropped. The AST stays
  // registered (stale), the base table keeps the appended rows, and the
  // query falls back to base tables because compensation now has a
  // coverage gap — a wrong answer is never an option.
  ASSERT_EQ(recovered->recovery_events().size(), 1u);
  EXPECT_EQ(recovered->recovery_events()[0].kind,
            RejectReasonToken(RejectReason::kDeltaDroppedOnRecovery));
  EXPECT_EQ(recovered->Stats().durability.recovery_deltas_dropped, 1);
  EXPECT_EQ(StateOf(recovered.get(), "ast1"), AstState::kStale);

  StatusOr<QueryResult> routed = recovered->Query(kAstQuery);
  ASSERT_TRUE(routed.ok());
  EXPECT_FALSE(routed->used_summary_table);
  EXPECT_FALSE(routed->compensated);
  EXPECT_FALSE(routed->degradation.degraded);
  EXPECT_TRUE(engine::SameRowMultiset(
      routed->relation, BaseAnswer(recovered.get(), kAstQuery)));

  // A refresh recomputes from base tables and restores plain rewrites.
  ASSERT_TRUE(recovered->RefreshSummaryTable("ast1").ok());
  testing::ExpectRewriteEquivalent(recovered.get(), kAstQuery);
}

TEST_F(DurabilityTest, CorruptCheckpointMetaFailsOpenWithStructuredReason) {
  {
    auto db = MustOpenCardDb();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  const std::string path = dir_ + "/" + wal::CheckpointFileName(1);
  StatusOr<std::vector<wal::SectionInfo>> sections =
      wal::ListCheckpointSections(path);
  ASSERT_TRUE(sections.ok());
  ASSERT_EQ((*sections)[0].type, wal::SectionType::kMeta);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>((*sections)[0].payload_offset));
    f.put('\x7f');
  }
  StatusOr<std::unique_ptr<Database>> opened = Database::Open(Options());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(RejectReasonFromStatus(opened.status()),
            RejectReason::kCheckpointCorruption);
}

TEST_F(DurabilityTest, CheckpointVersionMismatchFailsOpen) {
  {
    auto db = MustOpenCardDb();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  const std::string path = dir_ + "/" + wal::CheckpointFileName(1);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(4);
    f.put(static_cast<char>(wal::kCheckpointVersion + 1));
  }
  StatusOr<std::unique_ptr<Database>> opened = Database::Open(Options());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(RejectReasonFromStatus(opened.status()),
            RejectReason::kCheckpointVersionMismatch);
}

TEST_F(DurabilityTest, AutoCheckpointInterval) {
  DatabaseOptions options = Options();
  options.checkpoint_interval_records = 4;
  auto db = MustOpen(options);
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->CreateTable("t", {{"a", Type::kInt, false}}, {"a"}).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db->BulkLoad("t", {Row{Value::Int(i)}}).ok());
  }
  EXPECT_GE(db->Stats().durability.checkpoints_written, 2);
  db.reset();

  auto recovered = MustOpen(options);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->TableRows("t"), 8);
}

TEST_F(DurabilityTest, RelaxedModeRoundTrip) {
  DatabaseOptions options = Options();
  options.wal_sync = false;
  options.group_commit_interval_micros = 500;
  {
    auto db = MustOpen(options);
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->CreateTable("t", {{"a", Type::kInt, false}}, {"a"}).ok());
    ASSERT_TRUE(db->BulkLoad("t", {Row{Value::Int(1)}, Row{Value::Int(2)}})
                    .ok());
    // A clean shutdown (destructor) flushes the relaxed-mode window.
  }
  auto recovered = MustOpen(options);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->TableRows("t"), 2);
}

TEST_F(DurabilityTest, WalFsyncFaultFailsMutatorWithoutPublishing) {
  auto db = MustOpenCardDb();
  ASSERT_NE(db, nullptr);
  const int64_t before = db->TableRows("trans");
  {
    ScopedFault fault("wal/fsync",
                      RejectIo(RejectReason::kIoError, "injected fsync"), 1);
    Status st = db->BulkLoad("trans", MakeTransRows(5000000, 10));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(RejectReasonFromStatus(st), RejectReason::kIoError);
  }
  // Log-before-publish: the failed mutation is not visible in memory either.
  EXPECT_EQ(db->TableRows("trans"), before);
}

// ---- columnar checkpoints ----

/// The small schema of the committed v2 fixture (tests/fixtures/
/// checkpoint_v2.stck, written by the v2 checkpoint writer): a dimension
/// and a fact table with string, double, date and bool columns and NULLs, a
/// string-keyed AST (cat_sum) and a join AST (region_sum), a maintained
/// append, a deferred append that leaves both ASTs stale over a retained
/// slice with a string column, and the fixture queries run once each, so
/// the workload log is not empty.
constexpr const char* kFixtureQueries[] = {
    "select cat, count(*) as c, sum(amt) as s from sales group by cat",
    "select rname, count(*) as c from sales, region "
    "where sales.rid = region.rid group by rname",
    "select rname, cat, sum(amt) as s from sales, region "
    "where sales.rid = region.rid group by rname, cat",
};

Row FixtureSale(int sid, const char* cat) {
  return Row{Value::Int(sid),
             Value::Int(sid % 4),
             Value::String(cat),
             sid % 7 == 0 ? Value::Null() : Value::Double(1.25 * (sid % 9)),
             Value::Date(19990101 + sid % 28),
             sid % 5 == 0 ? Value::Null() : Value::Bool(sid % 2 == 0)};
}

Status BuildFixture(Database* db) {
  using catalog::Column;
  SUMTAB_RETURN_NOT_OK(db->CreateTable(
      "region",
      {Column{"rid", Type::kInt, false}, Column{"rname", Type::kString, false}},
      {"rid"}));
  SUMTAB_RETURN_NOT_OK(db->CreateTable(
      "sales",
      {Column{"sid", Type::kInt, false}, Column{"rid", Type::kInt, false},
       Column{"cat", Type::kString, false}, Column{"amt", Type::kDouble, true},
       Column{"d", Type::kDate, false}, Column{"flag", Type::kBool, true}},
      {"sid"}));
  SUMTAB_RETURN_NOT_OK(db->AddForeignKey("sales", "rid", "region", "rid"));
  SUMTAB_RETURN_NOT_OK(db->BulkLoad(
      "region", {Row{Value::Int(0), Value::String("north")},
                 Row{Value::Int(1), Value::String("south")},
                 Row{Value::Int(2), Value::String("east")},
                 Row{Value::Int(3), Value::String("west")}}));
  const char* cats[] = {"tools", "toys", "books"};
  std::vector<Row> sales;
  for (int sid = 0; sid < 40; ++sid) {
    sales.push_back(FixtureSale(sid, cats[sid % 3]));
  }
  SUMTAB_RETURN_NOT_OK(db->BulkLoad("sales", std::move(sales)));
  SUMTAB_RETURN_NOT_OK(
      db->DefineSummaryTable(
            "cat_sum",
            "select cat, count(*) as c, sum(amt) as s from sales group by cat")
          .status());
  SUMTAB_RETURN_NOT_OK(
      db->DefineSummaryTable("region_sum",
                             "select rname, count(*) as c from sales, region "
                             "where sales.rid = region.rid group by rname")
          .status());
  std::vector<Row> maintained;
  for (int sid = 40; sid < 45; ++sid) {
    maintained.push_back(FixtureSale(sid, "toys"));
  }
  SUMTAB_RETURN_NOT_OK(db->Append("sales", std::move(maintained)).status());
  Database::AppendOptions deferred;
  deferred.maintain = false;
  std::vector<Row> late;
  for (int sid = 45; sid < 51; ++sid) {
    late.push_back(FixtureSale(sid, sid % 2 == 0 ? "games" : "books"));
  }
  SUMTAB_RETURN_NOT_OK(
      db->Append("sales", std::move(late), deferred).status());
  for (const char* q : kFixtureQueries) {
    SUMTAB_RETURN_NOT_OK(db->Query(q).status());
  }
  return Status::OK();
}

/// Every fixture query answers on `db` as on `twin`, rewritten the same way.
void ExpectFixtureAnswers(Database* db, Database* twin) {
  for (const char* q : kFixtureQueries) {
    StatusOr<QueryResult> got = db->Query(q);
    StatusOr<QueryResult> want = twin->Query(q);
    ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << q;
    ASSERT_TRUE(want.ok()) << want.status().ToString() << "\n" << q;
    EXPECT_EQ(got->used_summary_table, want->used_summary_table) << q;
    EXPECT_EQ(got->compensated, want->compensated) << q;
    EXPECT_TRUE(engine::SameRowMultiset(got->relation, want->relation))
        << q << "\ngot:\n" << got->relation.ToString() << "want:\n"
        << want->relation.ToString();
  }
}

TEST_F(DurabilityTest, LoadsCommittedV2Checkpoint) {
  fs::create_directories(dir_);
  const std::string path = dir_ + "/" + wal::CheckpointFileName(1);
  fs::copy_file(SUMTAB_TEST_FIXTURES "/checkpoint_v2.stck", path);
  {
    std::ifstream f(path, std::ios::binary);
    char header[8];
    ASSERT_TRUE(f.read(header, 8));
    ASSERT_EQ(header[4], 2) << "the fixture is a v2 checkpoint";
  }
  auto twin = std::make_unique<Database>();
  ASSERT_TRUE(BuildFixture(twin.get()).ok());

  auto db = MustOpen();
  ASSERT_NE(db, nullptr);
  EXPECT_TRUE(db->recovery_events().empty());
  EXPECT_EQ(db->TableRows("sales"), 51);
  EXPECT_EQ(StateOf(db.get(), "cat_sum"), AstState::kStale);
  EXPECT_EQ(StateOf(db.get(), "region_sum"), AstState::kStale);
  EXPECT_FALSE(db->WorkloadLogSnapshot().queries.empty());
  StatusOr<QueryResult> cat = db->Query(kFixtureQueries[0]);
  ASSERT_TRUE(cat.ok());
  EXPECT_TRUE(cat->compensated);
  ExpectFixtureAnswers(db.get(), twin.get());

  // The next checkpoint is written as v3 and answers the same after reopen.
  ASSERT_TRUE(db->Checkpoint().ok());
  db.reset();
  {
    std::ifstream f(dir_ + "/" + wal::CheckpointFileName(2), std::ios::binary);
    char header[8];
    ASSERT_TRUE(f.read(header, 8));
    EXPECT_EQ(static_cast<uint32_t>(header[4]), wal::kCheckpointVersion);
  }
  db = MustOpen();
  ASSERT_NE(db, nullptr);
  ExpectFixtureAnswers(db.get(), twin.get());
}

TEST_F(DurabilityTest, EveryColumnKindSurvivesCheckpointAndReopen) {
  using catalog::Column;
  std::map<std::string, std::shared_ptr<const engine::Batch>> before;
  const std::vector<std::string> tables = {"kinds", "empty", "kind_sum"};
  constexpr char kSumSql[] =
      "select s, count(*) as c, sum(d) as sd, min(dt) as mdt, max(i) as mi "
      "from kinds group by s";
  {
    auto db = MustOpen();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->CreateTable("kinds", {Column{"i", Type::kInt, true},
                                          Column{"d", Type::kDouble, true},
                                          Column{"dt", Type::kDate, true},
                                          Column{"b", Type::kBool, true},
                                          Column{"s", Type::kString, true},
                                          Column{"none", Type::kString, true},
                                          Column{"k", Type::kInt, false}})
                    .ok());
    ASSERT_TRUE(db->CreateTable("empty", {Column{"a", Type::kInt, false},
                                          Column{"s", Type::kString, false}})
                    .ok());
    std::vector<Row> rows;
    for (int i = 0; i < 30; ++i) {
      const bool null = i % 4 == 1;
      rows.push_back(Row{
          null ? Value::Null() : Value::Int(int64_t{1} << (i + 20)),
          null ? Value::Null() : Value::Double(i == 0 ? -0.0 : 0.5 * i),
          null ? Value::Null() : Value::Date(19980101 + i),
          null ? Value::Null() : Value::Bool(i % 3 == 0),
          i % 5 == 2 ? Value::Null() : Value::String("s" + std::to_string(i % 6)),
          Value::Null(), Value::Int(i)});
    }
    ASSERT_TRUE(db->BulkLoad("kinds", rows).ok());
    ASSERT_TRUE(db->DefineSummaryTable("kind_sum", kSumSql).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    engine::Storage::Snapshot snap = db->storage().Snap();
    for (const std::string& t : tables) before[t] = snap.FindColumnar(t);
  }
  auto db = MustOpen();
  ASSERT_NE(db, nullptr);
  EXPECT_TRUE(db->recovery_events().empty());
  EXPECT_EQ(db->Stats().durability.recovery_replayed_records, 0);
  engine::Storage::Snapshot snap = db->storage().Snap();
  for (const std::string& t : tables) {
    SCOPED_TRACE(t);
    std::shared_ptr<const engine::Batch> got = snap.FindColumnar(t);
    const engine::Batch& want = *before[t];
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(got->num_rows, want.num_rows);
    ASSERT_EQ(got->NumColumns(), want.NumColumns());
    for (int c = 0; c < want.NumColumns(); ++c) {
      const engine::ColumnVector& g = got->columns[c];
      const engine::ColumnVector& w = want.columns[c];
      EXPECT_EQ(g.tag(), w.tag()) << "column " << c;
      EXPECT_EQ(g.nulls(), w.nulls()) << "column " << c;
      EXPECT_EQ(g.dict_encoded(), w.dict_encoded()) << "column " << c;
      if (w.dict_encoded() && g.dict_encoded()) {
        EXPECT_EQ(g.codes(), w.codes()) << "column " << c;
        EXPECT_EQ(g.dict()->size(), w.dict()->size()) << "column " << c;
      }
      for (int64_t i = 0; i < want.num_rows; ++i) {
        EXPECT_EQ(g.ValueAt(i).ToString(), w.ValueAt(i).ToString())
            << "column " << c << " row " << i;
        EXPECT_EQ(g.ValueAt(i).kind(), w.ValueAt(i).kind());
      }
    }
  }
  EXPECT_EQ(StateOf(db.get(), "kind_sum"), AstState::kFresh);
  testing::ExpectRewriteEquivalent(db.get(), kSumSql);
}

TEST_F(DurabilityTest, RecoveredDictionariesServeJoinWithCompensatedDelta) {
  // The AST joins on a string key, so the compensated query's delta leg
  // joins the recovered slice's dictionary codes against another table's
  // dictionary.
  using catalog::Column;
  static constexpr char kAst[] =
      "select zone, count(*) as c, sum(amt) as s from orders, shop "
      "where orders.sname = shop.sname group by zone";
  auto build = [](Database* db) {
    ASSERT_TRUE(db->CreateTable("shop", {Column{"sname", Type::kString, false},
                                         Column{"zone", Type::kString, false}},
                                {"sname"})
                    .ok());
    ASSERT_TRUE(db->CreateTable("orders", {Column{"oid", Type::kInt, false},
                                           Column{"sname", Type::kString, false},
                                           Column{"amt", Type::kDouble, false}})
                    .ok());
    ASSERT_TRUE(db->AddForeignKey("orders", "sname", "shop", "sname").ok());
    std::vector<Row> shops;
    for (int i = 0; i < 6; ++i) {
      shops.push_back(Row{Value::String("s" + std::to_string(i)),
                          Value::String("z" + std::to_string(i % 3))});
    }
    ASSERT_TRUE(db->BulkLoad("shop", shops).ok());
    std::vector<Row> orders;
    for (int i = 0; i < 50; ++i) {
      orders.push_back(Row{Value::Int(i),
                           Value::String("s" + std::to_string(i % 4)),
                           Value::Double(1.5 * (i % 7))});
    }
    ASSERT_TRUE(db->BulkLoad("orders", orders).ok());
    ASSERT_TRUE(db->DefineSummaryTable("zone_sum", kAst).ok());
    Database::AppendOptions deferred;
    deferred.maintain = false;
    for (int batch = 0; batch < 2; ++batch) {
      std::vector<Row> late;
      for (int i = 0; i < 7; ++i) {
        // Shops 4 and 5 first appear in the deltas.
        late.push_back(Row{Value::Int(100 + 10 * batch + i),
                           Value::String("s" + std::to_string((i + batch) % 6)),
                           Value::Double(0.5 * i)});
      }
      ASSERT_TRUE(db->Append("orders", std::move(late), deferred).ok());
    }
  };
  auto twin = std::make_unique<Database>();
  build(twin.get());
  StatusOr<QueryResult> want = twin->Query(kAst);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(want->compensated);
  {
    auto db = MustOpen();
    ASSERT_NE(db, nullptr);
    build(db.get());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  auto db = MustOpen();
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->Stats().durability.recovery_replayed_records, 0);
  // Each recovered slice's string column indexes the recovered table's
  // dictionary object itself.
  std::shared_ptr<const engine::Batch> orders =
      db->storage().FindColumnar("orders");
  ASSERT_NE(orders, nullptr);
  ASSERT_TRUE(orders->columns[1].dict_encoded());
  std::vector<engine::Storage::RetainedDelta> deltas =
      db->storage().RetainedDeltas();
  ASSERT_EQ(deltas.size(), 2u);
  for (const engine::Storage::RetainedDelta& rd : deltas) {
    EXPECT_EQ(rd.data->columns[1].dict(), orders->columns[1].dict());
  }
  for (int threads : {1, 4}) {
    QueryOptions opts;
    opts.max_threads = threads;
    StatusOr<QueryResult> got = db->Query(kAst, opts);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->compensated);
    EXPECT_EQ(got->compensation_delta_rows, 14);
    EXPECT_TRUE(engine::SameRowMultiset(got->relation, want->relation))
        << got->relation.ToString() << want->relation.ToString();
  }
}

/// Where a PutBatch payload's fields lie inside one checkpoint section.
struct BatchLayout {
  size_t rows_at = 0;              // the u64 row count
  std::vector<size_t> name_at;     // each column name's u32 length
  std::vector<size_t> dict_at;     // each inline dictionary's u32 size
  std::vector<size_t> codes_at;    // each dictionary column's codes
};

/// Walks the PutBatch payload that starts `at` bytes into `payload`.
BatchLayout LayoutOf(const std::string& payload, size_t at) {
  BatchLayout layout;
  wal::Decoder in(payload.data() + at, payload.size() - at);
  auto pos = [&] { return payload.size() - in.remaining(); };
  const uint32_t ncols = in.U32();
  for (uint32_t c = 0; c < ncols; ++c) {
    layout.name_at.push_back(pos());
    in.String();
  }
  layout.rows_at = pos();
  const uint64_t rows = in.U64();
  for (uint32_t c = 0; c < ncols; ++c) {
    const uint8_t kind = in.U8();
    if (in.U8() != 0) {
      for (uint64_t i = 0; i < rows; ++i) in.U8();
    }
    auto skip = [&](size_t bytes) {
      for (uint64_t i = 0; i < rows * bytes; ++i) in.U8();
    };
    switch (kind) {
      case 0:  // int
      case 1:  // double
        skip(8);
        break;
      case 2:  // raw strings
        for (uint64_t i = 0; i < rows; ++i) in.String();
        break;
      case 3:  // date
        skip(4);
        break;
      case 4:  // bool
        skip(1);
        break;
      case 5:  // variant
        for (uint64_t i = 0; i < rows; ++i) in.GetValue();
        break;
      case 6: {  // inline dictionary, then codes
        layout.dict_at.push_back(pos());
        const uint32_t size = in.U32();
        for (uint32_t k = 0; k < size; ++k) in.String();
        layout.codes_at.push_back(pos());
        skip(4);
        break;
      }
      case 7:  // codes into the base table's dictionary
        layout.codes_at.push_back(pos());
        skip(4);
        break;
    }
  }
  EXPECT_TRUE(in.AtEnd());
  return layout;
}

/// Where the PutBatch payload starts inside a table section's payload.
size_t BatchStart(wal::SectionType type, const std::string& payload) {
  wal::Decoder in(payload);
  if (type == wal::SectionType::kDeltaPartition) {
    in.String();
    in.I64();
  } else if (type == wal::SectionType::kBaseTable) {
    in.String();  // the catalog table, then the epoch
    const uint32_t ncols = in.U32();
    for (uint32_t c = 0; c < ncols; ++c) {
      in.String();
      in.U8();
      in.U8();
    }
    const uint32_t npk = in.U32();
    for (uint32_t k = 0; k < npk; ++k) in.String();
    in.U8();
    in.I64();
  }
  return payload.size() - in.remaining();
}

/// Rewrites the first section of `type` through `lie`, which edits its
/// payload in place, then recomputes the section's CRC so only decoding
/// can catch the lie.
void LieInSection(const std::string& path, wal::SectionType type,
                  const std::function<void(std::string*, const BatchLayout&)>&
                      lie) {
  StatusOr<std::vector<wal::SectionInfo>> sections =
      wal::ListCheckpointSections(path);
  ASSERT_TRUE(sections.ok()) << sections.status().ToString();
  for (const wal::SectionInfo& s : *sections) {
    if (s.type != type) continue;
    std::string contents;
    ASSERT_TRUE(wal::ReadFileContents(path, &contents).ok());
    std::string payload = contents.substr(s.payload_offset, s.payload_len);
    lie(&payload, LayoutOf(payload, BatchStart(type, payload)));
    ASSERT_EQ(payload.size(), s.payload_len);
    std::string crc;
    wal::PutU32(&crc, Crc32(payload));
    contents.replace(s.payload_offset, s.payload_len, payload);
    contents.replace(s.payload_offset - 4, 4, crc);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << contents;
    return;
  }
  FAIL() << "no section of type " << static_cast<int>(type);
}

void SetU32(std::string* payload, size_t at, uint32_t v) {
  std::string field;
  wal::PutU32(&field, v);
  payload->replace(at, 4, field);
}

void SetU64(std::string* payload, size_t at, uint64_t v) {
  std::string field;
  wal::PutU64(&field, v);
  payload->replace(at, 8, field);
}

TEST_F(DurabilityTest, LyingCheckpointPayloadsFailOrDropOnlyTheirSection) {
  const std::string saved = dir_ + "_saved";
  fs::remove_all(saved);
  {
    auto db = MustOpen();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(BuildFixture(db.get()).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  fs::copy(dir_, saved);
  auto twin = std::make_unique<Database>();
  ASSERT_TRUE(BuildFixture(twin.get()).ok());
  const std::string path = dir_ + "/" + wal::CheckpointFileName(1);
  auto restore = [&] {
    fs::remove_all(dir_);
    fs::copy(saved, dir_);
  };
  using Lie = std::function<void(std::string*, const BatchLayout&)>;
  const Lie more_rows = [](std::string* p, const BatchLayout& l) {
    SetU64(p, l.rows_at, 52);
  };
  const Lie huge_rows = [](std::string* p, const BatchLayout& l) {
    SetU64(p, l.rows_at, uint64_t{1} << 40);
  };
  const Lie long_name = [](std::string* p, const BatchLayout& l) {
    SetU32(p, l.name_at[0], 0x7fffffff);
  };
  const Lie bad_code = [](std::string* p, const BatchLayout& l) {
    ASSERT_FALSE(l.codes_at.empty());
    SetU32(p, l.codes_at[0], 1000);
  };
  const Lie long_dict_string = [](std::string* p, const BatchLayout& l) {
    ASSERT_FALSE(l.dict_at.empty());
    SetU32(p, l.dict_at[0] + 4, 0x7fffffff);
  };

  // A base table that lies fails recovery with checkpoint_corruption.
  for (const Lie& lie : {more_rows, huge_rows, long_name, bad_code,
                         long_dict_string}) {
    restore();
    LieInSection(path, wal::SectionType::kBaseTable, lie);
    StatusOr<std::unique_ptr<Database>> opened = Database::Open(Options());
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(RejectReasonFromStatus(opened.status()),
              RejectReason::kCheckpointCorruption);
  }
  // An AST that lies is dropped alone; the answers come from base tables.
  for (const Lie& lie : {more_rows, huge_rows, long_name, bad_code,
                         long_dict_string}) {
    restore();
    LieInSection(path, wal::SectionType::kAstData, lie);
    auto db = MustOpen();
    ASSERT_NE(db, nullptr);
    ASSERT_EQ(db->recovery_events().size(), 1u);
    EXPECT_EQ(db->recovery_events()[0].kind,
              RejectReasonToken(RejectReason::kAstDroppedOnRecovery));
    EXPECT_EQ(StateOf(db.get(), "cat_sum"), AstState::kDisabled);
    EXPECT_EQ(StateOf(db.get(), "region_sum"), AstState::kStale);
    for (const char* q : kFixtureQueries) {
      StatusOr<QueryResult> got = db->Query(q);
      StatusOr<QueryResult> want = twin->Query(q);
      ASSERT_TRUE(got.ok() && want.ok()) << q;
      EXPECT_TRUE(engine::SameRowMultiset(got->relation, want->relation));
    }
  }
  // A slice that lies is dropped alone: compensation refuses, answers hold.
  for (const Lie& lie : {more_rows, huge_rows, long_name, bad_code}) {
    restore();
    LieInSection(path, wal::SectionType::kDeltaPartition, lie);
    auto db = MustOpen();
    ASSERT_NE(db, nullptr);
    ASSERT_EQ(db->recovery_events().size(), 1u);
    EXPECT_EQ(db->recovery_events()[0].kind,
              RejectReasonToken(RejectReason::kDeltaDroppedOnRecovery));
    for (const char* q : kFixtureQueries) {
      StatusOr<QueryResult> got = db->Query(q);
      StatusOr<QueryResult> want = twin->Query(q);
      ASSERT_TRUE(got.ok() && want.ok()) << q;
      EXPECT_FALSE(got->compensated) << q;
      EXPECT_TRUE(engine::SameRowMultiset(got->relation, want->relation));
    }
  }
  fs::remove_all(saved);
}

}  // namespace
}  // namespace sumtab
