// Storage round trips: a table read back through BatchToRelation holds
// exactly the rows that were fed in — same rows, same order, same Value
// kinds, NULLs and empty strings included — along every path that publishes
// a version: CreateTable + BulkLoad, BulkLoad into a non-empty table, eager
// and deferred Append, and checkpoint + reopen. The reference evaluator reads
// tables through this same storage, so it cannot catch storage losing data;
// these tests do. The last test races snapshot readers against publishing
// appends (the suite name matches the CI TSan regex on purpose).
#include <atomic>
#include <filesystem>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/column_vector.h"
#include "engine/relation.h"
#include "sumtab/database.h"
#include "tests/reference.h"

namespace sumtab {
namespace {

using catalog::Column;

/// t(id, name, note, amount, day): two string columns (one nullable), a
/// nullable double and a date.
Status CreateT(Database* db) {
  return db->CreateTable("t", {Column{"id", Type::kInt, false},
                               Column{"name", Type::kString, false},
                               Column{"note", Type::kString, true},
                               Column{"amount", Type::kDouble, true},
                               Column{"day", Type::kDate, false}});
}

/// Rows [first, first + n) of t. Names repeat (dictionary hits), one in
/// seven is the empty string, notes and amounts are NULL every few rows.
std::vector<Row> RowsOfT(int first, int n) {
  std::vector<Row> rows;
  for (int id = first; id < first + n; ++id) {
    rows.push_back(
        {Value::Int(id),
         Value::String(id % 7 == 0 ? "" : "name" + std::to_string(id % 11)),
         id % 3 == 0 ? Value::Null()
                     : Value::String("note" + std::to_string(id)),
         id % 5 == 0 ? Value::Null() : Value::Double(id * 0.5),
         Value::Date(20000101 + id % 28)});
  }
  return rows;
}

std::vector<Row> Concat(std::vector<Row> a, const std::vector<Row>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Table `name` as storage holds it, decoded into rows.
engine::Relation Stored(const Database& db, const std::string& name) {
  engine::Storage::Snapshot snap = db.storage().Snap();
  std::shared_ptr<const engine::Batch> batch = snap.FindColumnar(name);
  if (batch == nullptr) return {};
  return engine::BatchToRelation(*batch, snap.ColumnNames(name));
}

/// SameRowsExactly, and beyond it the same order: cell (i, j) of `got` is
/// cell (i, j) of `want`, of the same kind.
::testing::AssertionResult SameRowsInOrder(const std::vector<Row>& got,
                                           const std::vector<Row>& want) {
  ::testing::AssertionResult multiset = reference::SameRowsExactly(got, want);
  if (!multiset) return multiset;
  for (size_t i = 0; i < got.size(); ++i) {
    for (size_t j = 0; j < got[i].size(); ++j) {
      if (got[i][j].kind() != want[i][j].kind() || !(got[i][j] == want[i][j])) {
        return ::testing::AssertionFailure()
               << "row " << i << " col " << j << ": " << got[i][j].ToString()
               << " vs fed-in " << want[i][j].ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(StorageTest, CreateTableAndBulkLoadKeepRowsExactly) {
  Database db;
  ASSERT_TRUE(CreateT(&db).ok());
  EXPECT_TRUE(SameRowsInOrder(Stored(db, "t").rows, {}));
  std::vector<Row> rows = RowsOfT(0, 40);
  ASSERT_TRUE(db.BulkLoad("t", rows).ok());
  engine::Relation stored = Stored(db, "t");
  EXPECT_EQ(stored.column_names,
            (std::vector<std::string>{"id", "name", "note", "amount", "day"}));
  EXPECT_TRUE(SameRowsInOrder(stored.rows, rows));
}

TEST(StorageTest, BulkLoadIntoNonEmptyTableAppendsInOrder) {
  Database db;
  ASSERT_TRUE(CreateT(&db).ok());
  std::vector<Row> first = RowsOfT(0, 30);
  std::vector<Row> second = RowsOfT(30, 25);
  ASSERT_TRUE(db.BulkLoad("t", first).ok());
  ASSERT_TRUE(db.BulkLoad("t", second).ok());
  EXPECT_TRUE(SameRowsInOrder(Stored(db, "t").rows, Concat(first, second)));
  // An empty load publishes the same rows again.
  ASSERT_TRUE(db.BulkLoad("t", {}).ok());
  EXPECT_TRUE(SameRowsInOrder(Stored(db, "t").rows, Concat(first, second)));
}

TEST(StorageTest, EagerAndDeferredAppendsKeepRowsAndSlices) {
  Database db;
  ASSERT_TRUE(CreateT(&db).ok());
  std::vector<Row> rows = RowsOfT(0, 30);
  ASSERT_TRUE(db.BulkLoad("t", rows).ok());
  // An AST over t gives the eager path maintenance work and keeps the
  // deferred path's slice retained.
  ASSERT_TRUE(db.DefineSummaryTable(
                    "by_name",
                    "select name, count(*) as c, sum(amount) as s from t "
                    "group by name")
                  .ok());

  std::vector<Row> eager = RowsOfT(30, 12);
  ASSERT_TRUE(db.Append("t", eager).ok());
  rows = Concat(rows, eager);
  EXPECT_TRUE(SameRowsInOrder(Stored(db, "t").rows, rows));

  Database::AppendOptions deferred_options;
  deferred_options.maintain = false;
  std::vector<Row> deferred = RowsOfT(42, 9);
  ASSERT_TRUE(db.Append("t", deferred, deferred_options).ok());
  rows = Concat(rows, deferred);
  EXPECT_TRUE(SameRowsInOrder(Stored(db, "t").rows, rows));

  // The retained slice of the deferred append is exactly its rows.
  engine::Storage::Snapshot snap = db.storage().Snap();
  const int64_t epoch = snap.Epoch("t");
  std::vector<std::shared_ptr<const engine::Batch>> slices =
      snap.DeltaSlices("t", epoch - 1, epoch);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_TRUE(SameRowsInOrder(
      engine::BatchToRelation(*slices[0], snap.ColumnNames("t")).rows,
      deferred));
}

TEST(StorageTest, CheckpointAndReopenKeepRowsExactly) {
  const std::string dir = ::testing::TempDir() + "sumtab_storage_round_trip";
  std::filesystem::remove_all(dir);
  DatabaseOptions options;
  options.data_dir = dir;
  std::vector<Row> rows = RowsOfT(0, 25);
  std::vector<Row> deferred = RowsOfT(25, 10);
  {
    StatusOr<std::unique_ptr<Database>> db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(CreateT(db->get()).ok());
    ASSERT_TRUE((*db)->BulkLoad("t", rows).ok());
    ASSERT_TRUE((*db)
                    ->DefineSummaryTable(
                        "by_name", "select name, count(*) as c from t "
                                   "group by name")
                    .ok());
    Database::AppendOptions deferred_options;
    deferred_options.maintain = false;
    ASSERT_TRUE((*db)->Append("t", deferred, deferred_options).ok());
    // The checkpoint carries the table and the retained slice; the append
    // after it (slice included) is recovered from the WAL.
    ASSERT_TRUE((*db)->Checkpoint().ok());
    ASSERT_TRUE((*db)->Append("t", RowsOfT(35, 5), deferred_options).ok());
  }
  rows = Concat(Concat(rows, deferred), RowsOfT(35, 5));
  StatusOr<std::unique_ptr<Database>> reopened = Database::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(SameRowsInOrder(Stored(**reopened, "t").rows, rows));
  engine::Storage::Snapshot snap = (*reopened)->storage().Snap();
  const int64_t epoch = snap.Epoch("t");
  std::vector<std::shared_ptr<const engine::Batch>> slices =
      snap.DeltaSlices("t", epoch - 2, epoch);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_TRUE(SameRowsInOrder(
      engine::BatchToRelation(*slices[0], snap.ColumnNames("t")).rows,
      deferred));
  EXPECT_TRUE(SameRowsInOrder(
      engine::BatchToRelation(*slices[1], snap.ColumnNames("t")).rows,
      RowsOfT(35, 5)));
  reopened->reset();
  std::filesystem::remove_all(dir);
}

TEST(StorageTest, SnapshotsScanWhileAppendsPublish) {
  Database db;
  ASSERT_TRUE(CreateT(&db).ok());
  ASSERT_TRUE(db.BulkLoad("t", RowsOfT(0, 20)).ok());
  ASSERT_TRUE(
      db.DefineSummaryTable("by_name",
                            "select name, count(*) as c from t group by name")
          .ok());

  // Readers pin snapshots and decode every string of the table and of the
  // newest retained slice, checking each against the value its id implies:
  // a row published before its dictionary codes would decode wrongly (or
  // race, under TSan). The appends start only once every reader has
  // finished one pass, and each reader stops only after scanning a
  // snapshot published after the last append, so readers and writer
  // overlap however the threads are scheduled.
  constexpr int kReaders = 3;
  std::latch warmed_up(kReaders);
  std::atomic<int64_t> last_epoch{-1};
  std::atomic<int64_t> checked{0};
  auto check = [&](const engine::Batch& batch) {
    for (int64_t i = 0; i < batch.num_rows; ++i) {
      Row want = RowsOfT(static_cast<int>(batch.columns[0].IntAt(i)), 1)[0];
      ASSERT_EQ(batch.columns[1].StringAt(i), want[1].AsString());
      ASSERT_TRUE(batch.columns[2].ValueAt(i) == want[2]);
    }
    checked.fetch_add(batch.num_rows, std::memory_order_relaxed);
  };
  auto read = [&]() {
    for (bool first_pass = true;; first_pass = false) {
      engine::Storage::Snapshot snap = db.storage().Snap();
      const int64_t epoch = snap.Epoch("t");
      check(*snap.FindColumnar("t"));
      for (const auto& slice : snap.DeltaSlices("t", epoch - 1, epoch)) {
        check(*slice);
      }
      if (first_pass) warmed_up.count_down();
      const int64_t last = last_epoch.load(std::memory_order_acquire);
      if (last >= 0 && epoch >= last) return;
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) readers.emplace_back(read);
  warmed_up.wait();

  // Alternate deferred appends (retain a slice) with eager ones (merge into
  // the AST, which absorbs and prunes the slices).
  int next_id = 20;
  Database::AppendOptions deferred;
  deferred.maintain = false;
  for (int round = 0; round < 40; ++round) {
    StatusOr<Database::MaintenanceReport> appended =
        round % 3 == 2 ? db.Append("t", RowsOfT(next_id, 15))
                       : db.Append("t", RowsOfT(next_id, 15), deferred);
    EXPECT_TRUE(appended.ok()) << appended.status().ToString();
    next_id += 15;
  }
  last_epoch.store(db.storage().Epoch("t"), std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_GT(checked.load(), 0);
  EXPECT_TRUE(SameRowsInOrder(Stored(db, "t").rows, RowsOfT(0, next_id)));
}

}  // namespace
}  // namespace sumtab
