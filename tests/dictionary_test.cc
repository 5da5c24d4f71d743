// Dictionary-encoding edge cases: intern/decode round trips, empty strings,
// all-NULL columns, code-space exhaustion fallbacks, dictionary growth and
// code stability across storage versions, sharing between base tables and
// retained delta slices, snapshot pinning, and concurrent extend-while-decode
// (the suite name matches the CI TSan regex on purpose).
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/column_vector.h"
#include "engine/kernels.h"
#include "engine/relation.h"

namespace sumtab {
namespace {

using engine::Batch;
using engine::BatchDictionaries;
using engine::BatchFromRows;
using engine::ColumnVector;
using engine::DictEncodeBatch;
using engine::DictionaryPtr;
using engine::Storage;
using engine::StringDictionary;

TEST(DictionaryTest, InternFindAtRoundTrip) {
  StringDictionary dict;
  EXPECT_EQ(dict.Intern("alpha"), 0);
  EXPECT_EQ(dict.Intern("beta"), 1);
  EXPECT_EQ(dict.Intern("alpha"), 0);  // duplicate: same code
  EXPECT_EQ(dict.size(), 2);
  EXPECT_EQ(dict.Find("beta"), 1);
  EXPECT_EQ(dict.Find("gamma"), -1);
  EXPECT_EQ(dict.At(0), "alpha");
  EXPECT_EQ(dict.At(1), "beta");
}

TEST(DictionaryTest, EmptyStringIsAnOrdinaryValue) {
  StringDictionary dict;
  EXPECT_EQ(dict.Intern(""), 0);
  EXPECT_EQ(dict.Intern("x"), 1);
  EXPECT_EQ(dict.Find(""), 0);
  EXPECT_EQ(dict.At(0), "");
}

TEST(DictionaryTest, CodeSpaceExhaustionRefusesNewStrings) {
  StringDictionary dict(/*max_codes=*/2);
  EXPECT_EQ(dict.Intern("a"), 0);
  EXPECT_EQ(dict.Intern("b"), 1);
  EXPECT_EQ(dict.Intern("c"), -1);  // full: refused, not reassigned
  EXPECT_EQ(dict.Intern("a"), 0);   // existing strings still resolve
  EXPECT_EQ(dict.Find("c"), -1);
  EXPECT_EQ(dict.size(), 2);
}

TEST(DictionaryTest, EncodeStringsFailureLeavesColumnRaw) {
  ColumnVector col(ColumnVector::Tag::kString);
  col.AppendValue(Value::String("a"));
  col.AppendValue(Value::String("b"));
  col.AppendValue(Value::String("c"));
  auto tiny = std::make_shared<StringDictionary>(2);
  EXPECT_FALSE(col.EncodeStrings(tiny));
  EXPECT_FALSE(col.dict_encoded());
  EXPECT_EQ(col.StringAt(0), "a");
  EXPECT_EQ(col.StringAt(2), "c");
}

TEST(DictionaryTest, AppendBeyondCodeSpaceFallsBackToRaw) {
  ColumnVector col(ColumnVector::Tag::kString);
  col.AppendValue(Value::String("a"));
  col.AppendNull();
  col.AppendValue(Value::String("b"));
  auto tiny = std::make_shared<StringDictionary>(2);
  ASSERT_TRUE(col.EncodeStrings(tiny));
  ASSERT_TRUE(col.dict_encoded());
  // A third distinct string no longer fits: the column decodes itself back
  // to raw strings and keeps accepting appends.
  col.AppendValue(Value::String("overflow"));
  EXPECT_FALSE(col.dict_encoded());
  EXPECT_EQ(col.StringAt(0), "a");
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.StringAt(2), "b");
  EXPECT_EQ(col.StringAt(3), "overflow");
}

TEST(DictionaryTest, EncodedColumnRoundTripsEmptyStringsAndNulls) {
  std::vector<Row> rows = {{Value::String("")},
                           {Value::Null()},
                           {Value::String("")},
                           {Value::String("x")}};
  Batch batch = BatchFromRows(rows, 1);
  DictEncodeBatch(&batch, {});
  const ColumnVector& col = batch.columns[0];
  ASSERT_TRUE(col.dict_encoded());
  EXPECT_EQ(col.StringAt(0), "");
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.codes()[0], col.codes()[2]);
  EXPECT_EQ(col.StringAt(3), "x");
  for (int64_t i = 0; i < batch.num_rows; ++i) {
    EXPECT_TRUE(col.ValueAt(i) == rows[i][0]) << "row " << i;
  }
}

TEST(DictionaryTest, AllNullColumnIsNotEncoded) {
  std::vector<Row> rows = {{Value::Null()}, {Value::Null()}};
  Batch batch = BatchFromRows(rows, 1);
  DictEncodeBatch(&batch, {});
  // Never saw a string: the column keeps its default tag and no dictionary.
  EXPECT_FALSE(batch.columns[0].dict_encoded());
  EXPECT_TRUE(batch.columns[0].ValueAt(0).is_null());
  EXPECT_TRUE(BatchDictionaries(batch)[0] == nullptr);
}

TEST(DictionaryTest, StorageVersionsGrowOneDictionary) {
  Storage storage;
  std::vector<Row> rows = {{Value::String("x")}, {Value::String("y")}};
  ASSERT_TRUE(storage.AddTable("t", {"s"}, BatchFromRows(rows, 1)).ok());
  std::shared_ptr<const Batch> v1 = storage.FindColumnar("t");
  ASSERT_NE(v1, nullptr);
  ASSERT_TRUE(v1->columns[0].dict_encoded());
  DictionaryPtr dict = v1->columns[0].dict();
  const int32_t code_x = v1->columns[0].codes()[0];

  // Append via COW replace of a raw batch: publishing the new version must
  // EXTEND the same dictionary object, keeping old codes stable.
  rows.push_back({Value::String("z")});
  rows.push_back({Value::String("x")});
  ASSERT_TRUE(storage.Replace("t", BatchFromRows(rows, 1)).ok());
  std::shared_ptr<const Batch> v2 = storage.FindColumnar("t");
  ASSERT_TRUE(v2->columns[0].dict_encoded());
  EXPECT_EQ(v2->columns[0].dict().get(), dict.get());
  EXPECT_EQ(dict->size(), 3);
  EXPECT_EQ(v2->columns[0].codes()[0], code_x);
  EXPECT_EQ(v2->columns[0].codes()[3], code_x);
  EXPECT_EQ(v2->columns[0].StringAt(2), "z");

  // Two replaces back to back — one raw, one run through Encode — each
  // extend the dictionary the version before published.
  rows.push_back({Value::String("w")});
  ASSERT_TRUE(storage.Replace("t", BatchFromRows(rows, 1)).ok());
  rows.push_back({Value::String("v")});
  ASSERT_TRUE(
      storage.Replace("t", storage.Encode("t", BatchFromRows(rows, 1))).ok());
  std::shared_ptr<const Batch> v4 = storage.FindColumnar("t");
  EXPECT_EQ(v4->columns[0].dict().get(), dict.get());
  EXPECT_EQ(dict->size(), 5);
  EXPECT_EQ(v4->columns[0].codes()[0], code_x);
  EXPECT_EQ(v4->columns[0].StringAt(5), "v");
}

TEST(DictionaryTest, DeltaSlicesShareTheBaseTableDictionary) {
  Storage storage;
  ASSERT_TRUE(storage
                  .AddTable("t", {"s"},
                            BatchFromRows({{Value::String("x")},
                                           {Value::String("y")}},
                                          1))
                  .ok());
  DictionaryPtr dict = storage.FindColumnar("t")->columns[0].dict();
  ASSERT_NE(dict, nullptr);

  storage.BumpEpoch("t");
  storage.RetainDelta(
      "t", 1,
      std::make_shared<const Batch>(storage.Encode(
          "t", BatchFromRows({{Value::String("y")}, {Value::String("new")}},
                             1))));
  Storage::Snapshot snap = storage.Snap();
  std::vector<std::shared_ptr<const Batch>> slices =
      snap.DeltaSlices("t", 0, 1);
  ASSERT_EQ(slices.size(), 1u);
  const ColumnVector& col = slices[0]->columns[0];
  ASSERT_TRUE(col.dict_encoded());
  // Same dictionary object: a compensated join between base and slice keys
  // on identical codes without translation.
  EXPECT_EQ(col.dict().get(), dict.get());
  EXPECT_EQ(col.codes()[0], dict->Find("y"));
  EXPECT_EQ(col.StringAt(1), "new");
}

TEST(DictionaryTest, SnapshotKeepsItsPinnedTwinAcrossReplace) {
  Storage storage;
  std::vector<Row> rows = {{Value::String("x")}};
  ASSERT_TRUE(storage.AddTable("t", {"s"}, BatchFromRows(rows, 1)).ok());
  Storage::Snapshot snap = storage.Snap();
  std::shared_ptr<const Batch> pinned = snap.FindColumnar("t");
  ASSERT_EQ(pinned->num_rows, 1);

  rows.push_back({Value::String("y")});
  ASSERT_TRUE(storage.Replace("t", BatchFromRows(rows, 1)).ok());
  // The snapshot still serves the one-row version; the live table grew, and
  // both versions decode through the same extended dictionary.
  EXPECT_EQ(snap.FindColumnar("t")->num_rows, 1);
  std::shared_ptr<const Batch> live = storage.FindColumnar("t");
  EXPECT_EQ(live->num_rows, 2);
  EXPECT_EQ(live->columns[0].dict().get(),
            pinned->columns[0].dict().get());
}

TEST(DictionaryTest, TranslateCodesMapsAcrossDictionaries) {
  StringDictionary build;
  build.Intern("a");  // 0
  build.Intern("b");  // 1
  StringDictionary probe;
  probe.Intern("b");        // 0
  probe.Intern("missing");  // 1
  probe.Intern("a");        // 2
  std::vector<int64_t> xlate = engine::kernels::TranslateCodes(probe, build);
  ASSERT_EQ(xlate.size(), 3u);
  EXPECT_EQ(xlate[0], 1);   // "b"
  EXPECT_EQ(xlate[1], -1);  // absent from build side
  EXPECT_EQ(xlate[2], 0);   // "a"
}

TEST(DictionaryTest, ConcurrentInternAndDecode) {
  // Readers decode published codes while a writer extends the dictionary —
  // the chunked layout guarantees At() never observes a relocation. Run
  // under TSan via the CI regex.
  auto dict = std::make_shared<StringDictionary>();
  constexpr int kPublished = 512;
  for (int i = 0; i < kPublished; ++i) {
    ASSERT_EQ(dict->Intern("s" + std::to_string(i)), i);
  }
  std::thread writer([dict] {
    for (int i = kPublished; i < kPublished + 4096; ++i) {
      ASSERT_GE(dict->Intern("s" + std::to_string(i)), 0);
    }
  });
  for (int pass = 0; pass < 200; ++pass) {
    for (int c = 0; c < kPublished; ++c) {
      ASSERT_EQ(dict->At(c), "s" + std::to_string(c));
    }
  }
  writer.join();
  EXPECT_EQ(dict->size(), kPublished + 4096);
}

}  // namespace
}  // namespace sumtab
