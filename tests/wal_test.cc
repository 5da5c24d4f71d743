// WAL + checkpoint unit tests: codec round trips, CRC framing, torn-tail
// detection and repair, group commit semantics, segment rolling/pruning,
// checkpoint write/load, and targeted section corruption. Crash-shaped
// end-to-end coverage (SIGKILL mid-operation) lives in crash_recovery_test.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/reject_reason.h"
#include "wal/checkpoint.h"
#include "wal/codec.h"
#include "wal/wal.h"

namespace sumtab {
namespace wal {
namespace {

namespace fs = std::filesystem;

// Fresh per-test scratch directory under the gtest temp root.
class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().Reset();
    dir_ = ::testing::TempDir() + "sumtab_wal_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::Instance().Reset();
    fs::remove_all(dir_);
  }

  std::unique_ptr<Writer> MustOpen(uint64_t seq = 1, uint64_t next_lsn = 1,
                                   Writer::Options options = {}) {
    StatusOr<std::unique_ptr<Writer>> w = Writer::Open(dir_, seq, next_lsn,
                                                       options);
    EXPECT_TRUE(w.ok()) << w.status().ToString();
    return w.ok() ? std::move(*w) : nullptr;
  }

  std::string SegmentPath(uint64_t seq) {
    return dir_ + "/" + SegmentFileName(seq);
  }

  std::string dir_;
};

// ---- codec ----

TEST_F(WalTest, CodecScalarRoundTrip) {
  std::string buf;
  PutU8(&buf, 0xab);
  PutU32(&buf, 0xdeadbeef);
  PutU64(&buf, 0x1122334455667788ull);
  PutI64(&buf, -42);
  PutDouble(&buf, 3.25);
  PutString(&buf, "hello");
  PutString(&buf, "");  // empty strings are representable

  Decoder dec(buf);
  EXPECT_EQ(dec.U8(), 0xab);
  EXPECT_EQ(dec.U32(), 0xdeadbeefu);
  EXPECT_EQ(dec.U64(), 0x1122334455667788ull);
  EXPECT_EQ(dec.I64(), -42);
  EXPECT_EQ(dec.Double(), 3.25);
  EXPECT_EQ(dec.String(), "hello");
  EXPECT_EQ(dec.String(), "");
  EXPECT_TRUE(dec.AtEnd());
}

TEST_F(WalTest, CodecValueRowBatchRoundTrip) {
  engine::Relation rel;
  rel.column_names = {"a", "b", "c", "d", "e"};
  rel.rows.push_back(Row{Value::Int(7), Value::Double(1.5),
                         Value::String("x"), Value::Null(), Value::Bool(true)});
  rel.rows.push_back(Row{Value::Int(-1), Value::Double(-0.25),
                         Value::String(""), Value::Date(19940215),
                         Value::Bool(false)});

  std::string buf;
  PutBatch(&buf, rel.column_names, engine::BatchFromRows(rel.rows, 5));
  std::map<std::string, int64_t> epochs{{"trans", 12}, {"acct", 3}};
  PutEpochMap(&buf, epochs);

  Decoder dec(buf);
  std::vector<std::string> names;
  engine::Batch back = dec.GetBatch(&names);
  std::map<std::string, int64_t> epochs_back = dec.GetEpochMap();
  ASSERT_TRUE(dec.AtEnd());
  ASSERT_EQ(names, rel.column_names);
  ASSERT_EQ(back.num_rows, 2);
  EXPECT_TRUE(engine::SameRowMultiset(engine::BatchToRelation(back, names),
                                      rel));
  EXPECT_EQ(epochs_back, epochs);
}

TEST_F(WalTest, CodecReadsRowFormTablePayload) {
  // The v2 checkpoint table layout: [u32 ncols][names][u64 nrows][rows].
  std::vector<Row> rows = {Row{Value::Int(1), Value::String("a")},
                           Row{Value::Null(), Value::String("b")}};
  std::string buf;
  PutU32(&buf, 2);
  PutString(&buf, "k");
  PutString(&buf, "s");
  PutU64(&buf, rows.size());
  for (const Row& row : rows) PutRow(&buf, row);
  Decoder dec(buf);
  engine::Relation back = dec.GetRelation();
  ASSERT_TRUE(dec.AtEnd());
  EXPECT_EQ(back.column_names, (std::vector<std::string>{"k", "s"}));
  EXPECT_EQ(back.rows, rows);
}

/// Every payload kind PutBatch writes, each column with its NULL case: int,
/// double (with -0.0), date, bool, raw string, dictionary string (whose
/// dictionary holds a string no row uses), kVariant, an all-NULL column
/// that keeps its tag, and a column without NULLs.
engine::Batch EveryKindBatch() {
  using engine::ColumnVector;
  using Tag = ColumnVector::Tag;
  auto dict = std::make_shared<engine::StringDictionary>();
  dict->Intern("unused");
  engine::Batch b;
  b.num_rows = 4;
  b.columns.resize(9);
  b.columns[0] = ColumnVector(Tag::kInt);
  b.columns[1] = ColumnVector(Tag::kDouble);
  b.columns[2] = ColumnVector(Tag::kDate);
  b.columns[3] = ColumnVector(Tag::kBool);
  b.columns[4] = ColumnVector(Tag::kString);
  b.columns[5] = ColumnVector(Tag::kString);
  b.columns[7] = ColumnVector(Tag::kDouble);
  for (int i = 0; i < 4; ++i) {
    const bool null = i == 2;
    auto put = [&](int c, Value v) {
      b.columns[c].AppendValue(null ? Value::Null() : std::move(v));
    };
    put(0, Value::Int(int64_t{1} << (40 + i)));
    put(1, Value::Double(i == 1 ? -0.0 : 0.5 * i));
    put(2, Value::Date(19990101 + i));
    put(3, Value::Bool(i % 2 == 0));
    put(4, Value::String(std::string(i, 'r')));
    put(5, Value::String(i % 2 == 0 ? "even" : "odd"));
    put(6, i == 0 ? Value::Int(3) : Value::Double(0.25 * i));
    b.columns[7].AppendNull();
    b.columns[8].AppendValue(Value::Int(-i));
  }
  EXPECT_TRUE(b.columns[5].EncodeStrings(dict));
  EXPECT_EQ(b.columns[6].tag(), Tag::kVariant);
  return b;
}

const std::vector<std::string> kEveryKindNames = {
    "i", "d", "dt", "b", "raw", "dict", "var", "all_null", "no_null"};

void ExpectSameColumns(const engine::Batch& got, const engine::Batch& want) {
  ASSERT_EQ(got.num_rows, want.num_rows);
  ASSERT_EQ(got.NumColumns(), want.NumColumns());
  for (int c = 0; c < want.NumColumns(); ++c) {
    const engine::ColumnVector& g = got.columns[c];
    const engine::ColumnVector& w = want.columns[c];
    EXPECT_EQ(g.tag(), w.tag()) << "column " << c;
    EXPECT_EQ(g.nulls(), w.nulls()) << "column " << c;
    EXPECT_EQ(g.dict_encoded(), w.dict_encoded()) << "column " << c;
    if (w.dict_encoded() && g.dict_encoded()) {
      // Codes survive: same codes into a dictionary with the same strings.
      EXPECT_EQ(g.codes(), w.codes()) << "column " << c;
      ASSERT_EQ(g.dict()->size(), w.dict()->size()) << "column " << c;
      for (int32_t code = 0; code < w.dict()->size(); ++code) {
        EXPECT_EQ(g.dict()->At(code), w.dict()->At(code));
      }
    }
    for (int64_t i = 0; i < want.num_rows; ++i) {
      const Value gv = g.ValueAt(i);
      const Value wv = w.ValueAt(i);
      EXPECT_EQ(gv.kind(), wv.kind()) << "column " << c << " row " << i;
      EXPECT_EQ(gv.ToString(), wv.ToString()) << "column " << c << " row " << i;
      if (wv.kind() == Value::Kind::kDouble) {
        EXPECT_EQ(std::signbit(gv.AsDouble()), std::signbit(wv.AsDouble()));
      }
    }
  }
}

TEST_F(WalTest, CodecBatchRoundTripsEveryColumnKind) {
  const engine::Batch batch = EveryKindBatch();
  std::string buf;
  PutBatch(&buf, kEveryKindNames, batch);
  Decoder dec(buf);
  std::vector<std::string> names;
  engine::Batch back = dec.GetBatch(&names);
  ASSERT_TRUE(dec.AtEnd());
  EXPECT_EQ(names, kEveryKindNames);
  ExpectSameColumns(back, batch);
  // The all-NULL column kept its tag and stays free to take another.
  engine::ColumnVector all_null = back.columns[7];
  all_null.AppendValue(Value::String("late"));
  EXPECT_EQ(all_null.tag(), engine::ColumnVector::Tag::kString);

  // A zero-row table: every column present, each payload empty.
  engine::Batch empty;
  empty.columns.resize(2);
  empty.columns[1] = engine::ColumnVector(engine::ColumnVector::Tag::kString);
  ASSERT_TRUE(
      empty.columns[1].EncodeStrings(std::make_shared<engine::StringDictionary>()));
  buf.clear();
  PutBatch(&buf, {"a", "b"}, empty);
  Decoder dec2(buf);
  engine::Batch empty_back = dec2.GetBatch(&names);
  ASSERT_TRUE(dec2.AtEnd());
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
  ExpectSameColumns(empty_back, empty);
}

TEST_F(WalTest, CodecBatchSharedDictionaryWritesOnlyCodes) {
  const engine::Batch batch = EveryKindBatch();
  const std::vector<engine::DictionaryPtr> shared =
      engine::BatchDictionaries(batch);
  std::string inline_buf;
  std::string shared_buf;
  PutBatch(&inline_buf, kEveryKindNames, batch);
  PutBatch(&shared_buf, kEveryKindNames, batch, shared);
  EXPECT_LT(shared_buf.size(), inline_buf.size());

  // Read back against the same dictionaries: the column shares the object.
  std::vector<std::string> names;
  Decoder dec(shared_buf);
  engine::Batch back = dec.GetBatch(&names, shared);
  ASSERT_TRUE(dec.AtEnd());
  ExpectSameColumns(back, batch);
  EXPECT_EQ(back.columns[5].dict(), shared[5]);

  // Without the dictionary, or with one too small for a code, the payload
  // does not decode.
  Decoder none(shared_buf);
  none.GetBatch(&names);
  EXPECT_FALSE(none.ok());
  std::vector<engine::DictionaryPtr> small(shared.size());
  small[5] = std::make_shared<engine::StringDictionary>();
  small[5]->Intern("unused");
  Decoder too_small(shared_buf);
  too_small.GetBatch(&names, small);
  EXPECT_FALSE(too_small.ok());
}

TEST_F(WalTest, CodecBatchLyingOrTruncatedPayloadFailsCleanly) {
  // Three rows of: an int column, a raw string column, a dictionary column.
  engine::Batch batch;
  batch.num_rows = 3;
  batch.columns.resize(3);
  const char* raw[] = {"x", "yy", "zzz"};
  const char* dict[] = {"p", "q", "p"};
  for (int i = 0; i < 3; ++i) {
    batch.columns[0].AppendValue(Value::Int(i));
    batch.columns[1].AppendValue(Value::String(raw[i]));
    batch.columns[2].AppendValue(Value::String(dict[i]));
  }
  ASSERT_TRUE(batch.columns[2].EncodeStrings(
      std::make_shared<engine::StringDictionary>()));
  std::string good;
  PutBatch(&good, {"i", "s", "d"}, batch);
  // Offsets: 3 names of 5 bytes after the column count, the row count, an
  // int column (kind, bitmap flag, 24 bytes), a raw string column (kind,
  // flag, 5 + 6 + 7 bytes), then the dictionary column (kind, flag, size,
  // "p" and "q", three codes).
  const size_t rows_at = 4 + 3 * 5;
  const size_t strings_at = rows_at + 8 + 2 + 24 + 2;
  const size_t dict_at = strings_at + 18 + 2;
  const size_t codes_at = dict_at + 4 + 10;
  ASSERT_EQ(good.size(), codes_at + 12);

  // Not decoding to exactly the payload's end is what fails a section; a
  // failed read leaves nothing half-built behind.
  auto fails = [](const std::string& bytes) {
    Decoder dec(bytes);
    std::vector<std::string> names;
    engine::Batch b = dec.GetBatch(&names);
    if (!dec.ok()) {
      EXPECT_TRUE(b.num_rows == 0 && names.empty());
    }
    return !dec.AtEnd();
  };
  auto with_u32 = [&good](size_t at, uint32_t v) {
    std::string bytes = good;
    std::string field;
    PutU32(&field, v);
    bytes.replace(at, 4, field);
    return bytes;
  };
  auto with_u64 = [&good](size_t at, uint64_t v) {
    std::string bytes = good;
    std::string field;
    PutU64(&field, v);
    bytes.replace(at, 8, field);
    return bytes;
  };
  {
    Decoder dec(good);
    std::vector<std::string> names;
    dec.GetBatch(&names);
    ASSERT_TRUE(dec.AtEnd());
  }
  EXPECT_TRUE(fails(with_u64(rows_at, 4)));           // one row too many
  EXPECT_TRUE(fails(with_u64(rows_at, 2)));           // one too few
  EXPECT_TRUE(fails(with_u64(rows_at, 1ull << 40)));  // past any payload
  EXPECT_TRUE(fails(with_u64(rows_at, (1ull << 31) - 1)));
  EXPECT_TRUE(fails(with_u32(strings_at, 0x7fffffff)));  // string length
  EXPECT_TRUE(fails(with_u32(dict_at, 0x7fffffff)));     // dictionary size
  EXPECT_TRUE(fails(with_u32(dict_at, 1)));              // code past it
  EXPECT_TRUE(fails(with_u32(codes_at + 4, 2)));         // code == size
  EXPECT_TRUE(fails(with_u32(codes_at, 0xffffffff)));    // negative code
  EXPECT_TRUE(fails(with_u32(0, 1000)));                 // column count
  {
    std::string bytes = good;
    bytes[rows_at + 8] = 9;  // unknown kind
    EXPECT_TRUE(fails(bytes));
    bytes = good;
    bytes[rows_at + 9] = 2;  // bitmap flag neither 0 nor 1
    EXPECT_TRUE(fails(bytes));
  }
  {
    // The dictionary repeats a string: it would come back under one code.
    std::string bytes = good;
    bytes[dict_at + 4 + 5 + 4] = 'p';
    EXPECT_TRUE(fails(bytes));
  }
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_TRUE(fails(good.substr(0, len))) << "prefix " << len;
  }
}

TEST_F(WalTest, CodecTruncatedPayloadIsStickyError) {
  std::string buf;
  PutString(&buf, "a long enough string");
  // Cut the payload mid-string: the decoder must flip to !ok(), not read
  // out of bounds, and every later read must return a zero value.
  Decoder dec(buf.data(), buf.size() - 5);
  EXPECT_EQ(dec.String(), "");
  EXPECT_FALSE(dec.ok());
  EXPECT_EQ(dec.U64(), 0u);
  EXPECT_FALSE(dec.AtEnd());
}

TEST_F(WalTest, Crc32KnownVector) {
  // The IEEE CRC-32 check value ("123456789" -> 0xCBF43926).
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

// ---- writer + scan ----

TEST_F(WalTest, AppendHardenScanRoundTrip) {
  auto w = MustOpen();
  ASSERT_NE(w, nullptr);
  StatusOr<uint64_t> l1 = w->Append(RecordType::kCreateTable, "body-one");
  StatusOr<uint64_t> l2 = w->Append(RecordType::kBulkLoad, "body-two");
  ASSERT_TRUE(l1.ok() && l2.ok());
  EXPECT_EQ(*l1, 1u);
  EXPECT_EQ(*l2, 2u);
  ASSERT_TRUE(w->Harden(*l2).ok());
  EXPECT_EQ(w->durable_lsn(), 2u);
  EXPECT_EQ(w->records_appended(), 2);
  w.reset();

  StatusOr<ScanResult> scan = ScanDir(dir_, /*repair=*/false);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[0].lsn, 1u);
  EXPECT_EQ(scan->records[0].type,
            static_cast<uint8_t>(RecordType::kCreateTable));
  EXPECT_EQ(scan->records[0].body, "body-one");
  EXPECT_EQ(scan->records[1].lsn, 2u);
  EXPECT_EQ(scan->records[1].body, "body-two");
  EXPECT_EQ(scan->max_segment_seq, 1u);
  EXPECT_EQ(scan->torn_events, 0);
}

TEST_F(WalTest, RelaxedModeFlushesWithinInterval) {
  Writer::Options options;
  options.sync = false;
  options.flush_interval_micros = 1000;
  auto w = MustOpen(1, 1, options);
  ASSERT_NE(w, nullptr);
  ASSERT_TRUE(w->Append(RecordType::kAppend, "relaxed").ok());
  // No Harden() call: the background flusher must still land the record
  // within the bounded interval.
  for (int i = 0; i < 1000 && w->durable_lsn() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(w->durable_lsn(), 1u);
}

TEST_F(WalTest, ScanDetectsAndRepairsTornTail) {
  auto w = MustOpen();
  ASSERT_NE(w, nullptr);
  ASSERT_TRUE(w->Append(RecordType::kCreateTable, "keep-me").ok());
  ASSERT_TRUE(w->Harden(1).ok());
  w.reset();

  // Simulate a torn write: append half of a plausible frame by hand.
  const auto clean_size = fs::file_size(SegmentPath(1));
  {
    std::ofstream f(SegmentPath(1), std::ios::binary | std::ios::app);
    std::string partial("\x40\x00\x00\x00garbage-torn-bytes", 22);
    f.write(partial.data(), static_cast<std::streamsize>(partial.size()));
  }

  // Non-repair scan: sees the clean prefix, reports the tear, file intact.
  StatusOr<ScanResult> scan = ScanDir(dir_, /*repair=*/false);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->torn_events, 1);
  EXPECT_GT(fs::file_size(SegmentPath(1)), clean_size);

  // Repair scan truncates the tail; a second repair scan is a no-op
  // (recovery must be idempotent under repeated crashes).
  scan = ScanDir(dir_, /*repair=*/true);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->torn_events, 1);
  EXPECT_EQ(scan->truncated_bytes, 22);
  EXPECT_EQ(fs::file_size(SegmentPath(1)), clean_size);
  scan = ScanDir(dir_, /*repair=*/true);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->torn_events, 0);
  EXPECT_EQ(scan->truncated_bytes, 0);
}

TEST_F(WalTest, ScanStopsAtCorruptFrameMidSegment) {
  auto w = MustOpen();
  ASSERT_NE(w, nullptr);
  ASSERT_TRUE(w->Append(RecordType::kCreateTable, "first").ok());
  ASSERT_TRUE(w->Append(RecordType::kBulkLoad, "second").ok());
  ASSERT_TRUE(w->Harden(2).ok());
  w.reset();

  // Flip one byte inside the SECOND record's payload: its CRC no longer
  // matches, so the scan must keep record 1 and stop — a mid-log bit flip
  // may not resurrect anything after it.
  std::fstream f(SegmentPath(1),
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(-1, std::ios::end);
  f.put('!');
  f.close();

  StatusOr<ScanResult> scan = ScanDir(dir_, /*repair=*/false);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].body, "first");
  EXPECT_EQ(scan->torn_events, 1);
}

TEST_F(WalTest, RollContinuesLsnsAcrossSegments) {
  auto w = MustOpen();
  ASSERT_NE(w, nullptr);
  ASSERT_TRUE(w->Append(RecordType::kCreateTable, "seg1").ok());
  ASSERT_TRUE(w->Roll(2).ok());
  EXPECT_EQ(w->segment_seq(), 2u);
  // Roll hardens everything pending before switching files.
  EXPECT_EQ(w->durable_lsn(), 1u);
  ASSERT_TRUE(w->Append(RecordType::kBulkLoad, "seg2").ok());
  ASSERT_TRUE(w->Harden(2).ok());
  w.reset();

  ASSERT_TRUE(fs::exists(SegmentPath(1)));
  ASSERT_TRUE(fs::exists(SegmentPath(2)));
  StatusOr<ScanResult> scan = ScanDir(dir_, /*repair=*/false);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[0].lsn, 1u);
  EXPECT_EQ(scan->records[1].lsn, 2u);
  EXPECT_EQ(scan->max_segment_seq, 2u);

  // Post-checkpoint pruning: dropping segment 1 leaves only seg2's record.
  ASSERT_TRUE(RemoveSegmentsThrough(dir_, 1).ok());
  EXPECT_FALSE(fs::exists(SegmentPath(1)));
  scan = ScanDir(dir_, /*repair=*/false);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].body, "seg2");
}

TEST_F(WalTest, AppendFaultPointFailsAppend) {
  auto w = MustOpen();
  ASSERT_NE(w, nullptr);
  {
    ScopedFault fault("wal/append", Status::Internal("injected append"), 1);
    EXPECT_FALSE(w->Append(RecordType::kCreateTable, "x").ok());
  }
  // The failure is per-append, not sticky: the next append succeeds.
  StatusOr<uint64_t> lsn = w->Append(RecordType::kCreateTable, "y");
  ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
  EXPECT_TRUE(w->Harden(*lsn).ok());
}

TEST_F(WalTest, FsyncFaultIsStickyIoFailure) {
  auto w = MustOpen();
  ASSERT_NE(w, nullptr);
  Status harden;
  {
    ScopedFault fault("wal/fsync",
                      RejectIo(RejectReason::kIoError, "injected fsync"), 1);
    ASSERT_TRUE(w->Append(RecordType::kCreateTable, "x").ok());
    harden = w->Harden(1);
  }
  EXPECT_FALSE(harden.ok());
  EXPECT_EQ(RejectReasonFromStatus(harden), RejectReason::kIoError);
  // Sticky: the log device "went away", later appends refuse too.
  EXPECT_FALSE(w->Append(RecordType::kBulkLoad, "after").ok());
}

TEST_F(WalTest, TornWriteFaultLeavesRepairableTail) {
  auto w = MustOpen();
  ASSERT_NE(w, nullptr);
  ASSERT_TRUE(w->Append(RecordType::kCreateTable, "whole").ok());
  ASSERT_TRUE(w->Harden(1).ok());
  {
    ScopedFault fault("wal/torn_write",
                      RejectIo(RejectReason::kWalTornTail, "injected tear"),
                      1);
    // The torn-write injection path writes only a prefix of the frame and
    // poisons the writer.
    StatusOr<uint64_t> lsn = w->Append(RecordType::kBulkLoad, "torn-record");
    Status st = lsn.ok() ? w->Harden(*lsn) : lsn.status();
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(RejectReasonFromStatus(st), RejectReason::kWalTornTail);
  }
  w.reset();

  StatusOr<ScanResult> scan = ScanDir(dir_, /*repair=*/true);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].body, "whole");
  EXPECT_EQ(scan->torn_events, 1);
  EXPECT_GT(scan->truncated_bytes, 0);
}

// ---- checkpoint ----

std::shared_ptr<const engine::Batch> Columns(const std::vector<Row>& rows,
                                             int num_columns) {
  engine::Batch batch = engine::BatchFromRows(rows, num_columns);
  engine::DictEncodeBatch(&batch, {});
  return std::make_shared<const engine::Batch>(std::move(batch));
}

CheckpointState MakeState() {
  CheckpointState state;
  state.last_lsn = 17;
  state.wal_segment_seq = 3;
  state.catalog_generation = 9;
  state.foreign_keys.push_back({"trans", "faid", "acct", "aid"});

  CheckpointBaseTable base;
  base.table.name = "trans";
  base.table.columns = {{"tid", Type::kInt, false},
                        {"price", Type::kDouble, true},
                        {"tag", Type::kString, false}};
  base.table.primary_key = {"tid"};
  base.epoch = 4;
  base.column_names = {"tid", "price", "tag"};
  base.data = Columns({Row{Value::Int(1), Value::Double(9.5), Value::String("a")},
                       Row{Value::Int(2), Value::Null(), Value::String("b")}},
                      3);

  CheckpointAst ast;
  ast.name = "ast1";
  ast.sql = "select tid, count(*) as c from trans group by tid";
  ast.table.name = "ast1";
  ast.table.columns = {{"tid", Type::kInt, false}, {"c", Type::kInt, false}};
  ast.table.is_summary_table = true;
  ast.materialized_epochs = {{"trans", 4}};
  ast.max_staleness = 2;
  ast.consecutive_failures = 1;
  ast.disabled = false;
  ast.column_names = {"tid", "c"};
  ast.data = Columns({Row{Value::Int(1), Value::Int(10)}}, 2);
  state.asts.push_back(std::move(ast));

  // A retained slice encoded against the base table's dictionaries, as
  // Storage::Encode leaves it.
  CheckpointDelta delta;
  delta.table = "trans";
  delta.epoch = 4;
  delta.column_names = base.column_names;
  engine::Batch slice = engine::BatchFromRows(
      {Row{Value::Int(3), Value::Double(1.0), Value::String("b")}}, 3);
  engine::DictEncodeBatch(&slice, engine::BatchDictionaries(*base.data));
  delta.data = std::make_shared<const engine::Batch>(std::move(slice));
  state.deltas.push_back(std::move(delta));
  state.base_tables.push_back(std::move(base));
  return state;
}

engine::Relation RowsOf(const std::shared_ptr<const engine::Batch>& batch,
                        const std::vector<std::string>& names) {
  return engine::BatchToRelation(*batch, names);
}

TEST_F(WalTest, CheckpointRoundTrip) {
  ASSERT_TRUE(WriteCheckpoint(dir_, 5, MakeState()).ok());
  StatusOr<CheckpointLoadResult> loaded = LoadLatestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->found);
  EXPECT_EQ(loaded->seq, 5u);
  const CheckpointState& s = loaded->state;
  const CheckpointState want = MakeState();
  EXPECT_EQ(s.last_lsn, 17u);
  EXPECT_EQ(s.wal_segment_seq, 3u);
  EXPECT_EQ(s.catalog_generation, 9);
  ASSERT_EQ(s.foreign_keys.size(), 1u);
  EXPECT_EQ(s.foreign_keys[0].parent_table, "acct");
  ASSERT_EQ(s.base_tables.size(), 1u);
  EXPECT_EQ(s.base_tables[0].epoch, 4);
  EXPECT_EQ(s.base_tables[0].table.primary_key,
            std::vector<std::string>{"tid"});
  EXPECT_EQ(s.base_tables[0].column_names, want.base_tables[0].column_names);
  ExpectSameColumns(*s.base_tables[0].data, *want.base_tables[0].data);
  ASSERT_EQ(s.asts.size(), 1u);
  EXPECT_TRUE(s.asts[0].data_ok);
  EXPECT_EQ(s.asts[0].max_staleness, 2);
  EXPECT_EQ(s.asts[0].consecutive_failures, 1);
  EXPECT_EQ(s.asts[0].materialized_epochs.at("trans"), 4);
  EXPECT_TRUE(s.asts[0].table.is_summary_table);
  EXPECT_TRUE(engine::SameRowMultiset(RowsOf(s.asts[0].data, {"tid", "c"}),
                                      RowsOf(want.asts[0].data, {"tid", "c"})));
  // The slice's string column indexes the loaded base table's dictionary
  // object itself.
  ASSERT_EQ(s.deltas.size(), 1u);
  ASSERT_TRUE(s.deltas[0].data_ok);
  EXPECT_EQ(s.deltas[0].epoch, 4);
  ExpectSameColumns(*s.deltas[0].data, *want.deltas[0].data);
  EXPECT_EQ(s.deltas[0].data->columns[2].dict(),
            s.base_tables[0].data->columns[2].dict());
}

TEST_F(WalTest, LoadPicksHighestSeqAndPrunes) {
  CheckpointState older = MakeState();
  older.catalog_generation = 1;
  CheckpointState newer = MakeState();
  newer.catalog_generation = 2;
  ASSERT_TRUE(WriteCheckpoint(dir_, 1, older).ok());
  ASSERT_TRUE(WriteCheckpoint(dir_, 2, newer).ok());

  StatusOr<CheckpointLoadResult> loaded = LoadLatestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->seq, 2u);
  EXPECT_EQ(loaded->state.catalog_generation, 2);

  ASSERT_TRUE(RemoveCheckpointsBefore(dir_, 2).ok());
  EXPECT_FALSE(fs::exists(dir_ + "/" + CheckpointFileName(1)));
  EXPECT_TRUE(fs::exists(dir_ + "/" + CheckpointFileName(2)));
}

TEST_F(WalTest, EmptyDirHasNoCheckpoint) {
  StatusOr<CheckpointLoadResult> loaded = LoadLatestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->found);
}

// Flips one payload byte of the first section of the given type.
void CorruptSection(const std::string& path, SectionType type) {
  StatusOr<std::vector<SectionInfo>> sections = ListCheckpointSections(path);
  ASSERT_TRUE(sections.ok()) << sections.status().ToString();
  for (const SectionInfo& s : *sections) {
    if (s.type != type) continue;
    ASSERT_GT(s.payload_len, 0u);
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(s.payload_offset));
    char byte = 0;
    f.get(byte);
    f.seekp(static_cast<std::streamoff>(s.payload_offset));
    f.put(static_cast<char>(byte ^ 0xff));
    return;
  }
  FAIL() << "no section of requested type";
}

TEST_F(WalTest, CorruptAstDataSectionIsGraceful) {
  ASSERT_TRUE(WriteCheckpoint(dir_, 1, MakeState()).ok());
  CorruptSection(dir_ + "/" + CheckpointFileName(1), SectionType::kAstData);
  StatusOr<CheckpointLoadResult> loaded = LoadLatestCheckpoint(dir_);
  // Attributable corruption: ONLY the AST's rows are lost. The load
  // succeeds, metadata survives, data_ok flags the drop.
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->state.asts.size(), 1u);
  EXPECT_FALSE(loaded->state.asts[0].data_ok);
  EXPECT_EQ(loaded->state.asts[0].name, "ast1");
  EXPECT_EQ(loaded->state.asts[0].sql, MakeState().asts[0].sql);
  // Base tables are untouched.
  ASSERT_EQ(loaded->state.base_tables.size(), 1u);
  EXPECT_EQ(loaded->state.base_tables[0].data->num_rows, 2);
}

TEST_F(WalTest, CorruptMetaSectionFailsLoad) {
  ASSERT_TRUE(WriteCheckpoint(dir_, 1, MakeState()).ok());
  CorruptSection(dir_ + "/" + CheckpointFileName(1), SectionType::kMeta);
  StatusOr<CheckpointLoadResult> loaded = LoadLatestCheckpoint(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(RejectReasonFromStatus(loaded.status()),
            RejectReason::kCheckpointCorruption);
}

TEST_F(WalTest, CorruptBaseTableSectionFailsLoad) {
  ASSERT_TRUE(WriteCheckpoint(dir_, 1, MakeState()).ok());
  CorruptSection(dir_ + "/" + CheckpointFileName(1), SectionType::kBaseTable);
  StatusOr<CheckpointLoadResult> loaded = LoadLatestCheckpoint(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(RejectReasonFromStatus(loaded.status()),
            RejectReason::kCheckpointCorruption);
}

TEST_F(WalTest, TruncatedCheckpointMissingEndFailsLoad) {
  ASSERT_TRUE(WriteCheckpoint(dir_, 1, MakeState()).ok());
  const std::string path = dir_ + "/" + CheckpointFileName(1);
  // Cut off the kEnd section: an incomplete file (crash mid-write that
  // somehow got renamed) must not load as a shorter-but-valid snapshot.
  fs::resize_file(path, fs::file_size(path) - 9);
  StatusOr<CheckpointLoadResult> loaded = LoadLatestCheckpoint(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(RejectReasonFromStatus(loaded.status()),
            RejectReason::kCheckpointCorruption);
}

TEST_F(WalTest, VersionMismatchFailsLoad) {
  // Too old (v1) and too new both mismatch; v2 files are read (see
  // durability_test's committed v2 fixture).
  for (uint32_t version : {1u, kCheckpointVersion + 1}) {
    ASSERT_TRUE(WriteCheckpoint(dir_, 1, MakeState()).ok());
    const std::string path = dir_ + "/" + CheckpointFileName(1);
    {
      // Rewrite the u32 version right after the 4-byte magic.
      std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
      f.seekp(4);
      f.put(static_cast<char>(version));
    }
    StatusOr<CheckpointLoadResult> loaded = LoadLatestCheckpoint(dir_);
    ASSERT_FALSE(loaded.ok()) << "version " << version;
    EXPECT_EQ(RejectReasonFromStatus(loaded.status()),
              RejectReason::kCheckpointVersionMismatch);
  }
}

TEST_F(WalTest, CheckpointWriteFaultLeavesNoCheckpoint) {
  {
    ScopedFault fault("checkpoint/write",
                      RejectIo(RejectReason::kIoError, "injected"), 1);
    EXPECT_FALSE(WriteCheckpoint(dir_, 1, MakeState()).ok());
  }
  // The tmp-file protocol must not leave a visible (renamed) checkpoint.
  StatusOr<CheckpointLoadResult> loaded = LoadLatestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->found);
  // And the write works once the fault clears.
  ASSERT_TRUE(WriteCheckpoint(dir_, 1, MakeState()).ok());
  loaded = LoadLatestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->found);
}

TEST_F(WalTest, FileNamesAreZeroPadded) {
  EXPECT_EQ(SegmentFileName(42), "wal-00000042.log");
  EXPECT_EQ(CheckpointFileName(7), "ckpt-00000007.stck");
}

}  // namespace
}  // namespace wal
}  // namespace sumtab
