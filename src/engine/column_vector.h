// Columnar batch representation the executor runs on.
//
// A ColumnVector is one column of a batch: a null bitmap plus a typed
// payload. The tag is chosen per column at build time — when every non-null
// value shares one Value::Kind the payload is a flat typed vector
// (int64/double/string/date/bool); columns that genuinely mix kinds (e.g. a
// SUM output whose groups split between Int and Double under the
// sticky-double rule) degrade to kVariant, a vector of Values. Conversion is
// loss-free in both directions: ValueAt(i) reconstructs the exact Value that
// was appended, so rows converted into storage's columns and read back out
// (BatchFromRows, then BatchToRelation) are bit-identical.
//
// NULL handling: the bitmap is authoritative. Typed payloads store a zero
// placeholder in null slots; a NULL appended into a column never constrains
// its tag (an all-NULL column keeps whatever tag it started with). Ordering
// of NULLs — data-NULLs and grouping-set padding-NULLs alike — is defined by
// Value::Compare (NULL first), the single total order shared with
// SortBatch/SameRowMultiset.
//
// Dictionary encoding: a kString column may additionally carry int32 codes
// into a shared StringDictionary instead of inline strings. Encoding is
// transparent — StringAt/ValueAt return the same strings either way — but
// lets joins and grouping key on int codes. Storage encodes every table
// version when it is published; appends extend the shared dictionary (codes
// are stable forever) instead of rebuilding it, and a column whose
// dictionary runs out of code space simply stays raw.
#ifndef SUMTAB_ENGINE_COLUMN_VECTOR_H_
#define SUMTAB_ENGINE_COLUMN_VECTOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/value.h"

namespace sumtab {
namespace engine {

/// Append-only code <-> string mapping shared by every dictionary-encoded
/// column built from one table column, across COW versions and delta slices.
///
/// Codes are dense, stable and never reassigned: a column encoded against an
/// older (shorter) prefix of the dictionary stays valid while later versions
/// extend it. Strings live in fixed-size chunks whose slots are allocated at
/// construction, so At() never observes a relocation.
///
/// Thread-safety: Intern/Find/size take an internal mutex (they touch the
/// reverse index). At(code) is deliberately lock-free: a reader only holds
/// codes obtained from a published column, and every such code's string (and
/// its chunk pointer) was fully written before that column was published —
/// the publication itself (Storage's mutex around the version swap, then
/// the shared_ptr hand-off to the reader) provides the happens-before edge.
class StringDictionary {
 public:
  /// Default code-space cap; beyond it Intern refuses and the column falls
  /// back to raw strings (tested with tiny caps).
  static constexpr int32_t kDefaultMaxCodes = 1 << 20;

  explicit StringDictionary(int32_t max_codes = kDefaultMaxCodes);

  /// Returns the code of s, interning it first if needed; -1 when the code
  /// space is exhausted and s is not already present.
  int32_t Intern(const std::string& s);
  /// Returns the code of s, or -1 when absent (never interns).
  int32_t Find(const std::string& s) const;
  /// The string for a code previously returned by Intern/Find. Lock-free.
  const std::string& At(int32_t code) const {
    return chunks_[code >> kChunkBits][code & (kChunkSize - 1)];
  }
  /// Number of interned strings (codes are [0, size())).
  int32_t size() const;

  /// Bulk Intern of `values` (skipping slots where nulls[i] != 0) into
  /// codes[i], holding the lock once. Returns false — leaving *codes
  /// untouched — when the code space runs out.
  bool EncodeAll(const std::vector<std::string>& values,
                 const std::vector<uint8_t>& nulls,
                 std::vector<int32_t>* codes);

 private:
  static constexpr int kChunkBits = 10;
  static constexpr int32_t kChunkSize = 1 << kChunkBits;

  int32_t InternLocked(const std::string& s);

  const int32_t max_codes_;
  /// Sized at construction and never resized; slot c is written (under mu_)
  /// before any code in chunk c is handed out.
  std::vector<std::unique_ptr<std::string[]>> chunks_;
  mutable std::mutex mu_;
  int32_t size_ = 0;                                // guarded by mu_
  std::unordered_map<std::string, int32_t> index_;  // guarded by mu_
};

using DictionaryPtr = std::shared_ptr<StringDictionary>;

class ColumnVector {
 public:
  /// Payload representation. The first five mirror Value kinds; kVariant is
  /// the mixed-kind fallback.
  enum class Tag { kInt, kDouble, kString, kDate, kBool, kVariant };

  ColumnVector() = default;
  explicit ColumnVector(Tag tag) : tag_(tag) {}

  Tag tag() const { return tag_; }
  int64_t size() const { return static_cast<int64_t>(nulls_.size()); }
  bool IsNull(int64_t i) const { return nulls_[i] != 0; }
  const std::vector<uint8_t>& nulls() const { return nulls_; }

  // Typed accessors; valid only for the matching tag (null slots hold a zero
  // placeholder, so reading them is defined but meaningless).
  int64_t IntAt(int64_t i) const { return ints_[i]; }
  double DoubleAt(int64_t i) const { return doubles_[i]; }
  const std::string& StringAt(int64_t i) const {
    return dict_ != nullptr ? dict_->At(codes_[i]) : strings_[i];
  }
  int32_t DateAt(int64_t i) const { return dates_[i]; }
  bool BoolAt(int64_t i) const { return bools_[i] != 0; }
  const Value& VariantAt(int64_t i) const { return variants_[i]; }

  // Raw payload access for tight evaluator loops.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<int32_t>& dates() const { return dates_; }
  const std::vector<uint8_t>& bools() const { return bools_; }

  // Dictionary encoding (kString only). When dict_encoded(), the payload is
  // codes() into dict() and strings_ is empty; StringAt/ValueAt decode
  // transparently.
  bool dict_encoded() const { return dict_ != nullptr; }
  const std::vector<int32_t>& codes() const { return codes_; }
  const DictionaryPtr& dict() const { return dict_; }

  /// Converts a raw kString column to codes into `dict` (interning every
  /// non-null value). No-op — returning false — when the column is not a raw
  /// string column or the dictionary's code space runs out; the column then
  /// keeps its raw strings, which is always correct, just slower.
  bool EncodeStrings(const DictionaryPtr& dict);
  /// Converts a dictionary-encoded column back to inline strings (used when
  /// an append outgrows the code space mid-column).
  void DecodeToRaw();

  /// Reconstructs the Value at i exactly as appended (NULL when the bitmap
  /// says so, regardless of payload).
  Value ValueAt(int64_t i) const;

  /// Numeric widening of slot i (same as Value::ToDouble); callers must
  /// ensure the slot is non-null and the tag numeric.
  double NumericAt(int64_t i) const;

  /// ValueAt(i).Compare(ValueAt(j)) without materializing either Value.
  int CompareAt(int64_t i, int64_t j) const;

  /// True when the tag is int/double/date/bool (kVariant is not, even if
  /// every stored Value happens to be numeric).
  bool IsNumericTag() const {
    return tag_ == Tag::kInt || tag_ == Tag::kDouble || tag_ == Tag::kDate ||
           tag_ == Tag::kBool;
  }

  void Reserve(int64_t n);
  void AppendNull();
  /// Appends v; a kind that disagrees with the current tag (over the
  /// non-null values seen so far) promotes the column to kVariant.
  void AppendValue(const Value& v);
  /// Appends slot i of src (fast path when tags match; promotes otherwise).
  void AppendFrom(const ColumnVector& src, int64_t i);
  /// Appends all of src (concatenation; promotes on tag mismatch). Never
  /// interns: a string src under another encoding than this column's
  /// dictionary turns this column raw.
  void AppendColumn(const ColumnVector& src);

  // Typed appends for evaluator fast paths; only valid while the column's
  // tag matches (fresh columns constructed with ColumnVector(tag)).
  void AppendInt(int64_t v) { nulls_.push_back(0); ints_.push_back(v); }
  void AppendDouble(double v) { nulls_.push_back(0); doubles_.push_back(v); }
  void AppendBool(bool v) { nulls_.push_back(0); bools_.push_back(v ? 1 : 0); }
  void AppendDate(int32_t v) { nulls_.push_back(0); dates_.push_back(v); }

  /// New column holding src rows at `indexes`, in order (join gather, late
  /// materialization of a selection); a negative index yields NULL
  /// (grouping-set padding, empty MIN/MAX).
  static ColumnVector Gather(const ColumnVector& src,
                             const std::vector<int64_t>& indexes);
  /// The same over the n indexes starting at `indexes`.
  static ColumnVector Gather(const ColumnVector& src, const int64_t* indexes,
                             int64_t n);

  /// New column holding src rows [begin, begin + n) — bulk payload copies,
  /// used to materialize borrowed column refs.
  static ColumnVector Slice(const ColumnVector& src, int64_t begin, int64_t n);

  /// New column holding a's rows then b's, allocated once for both (bulk
  /// copies when tags and dictionaries agree).
  static ColumnVector Concat(const ColumnVector& a, const ColumnVector& b);

  /// A column taking over ready payloads (the checkpoint reader): `nulls`
  /// is the 0/1 bitmap and `payload` holds one slot per row, the zero
  /// placeholder in null slots. The payload type picks the tag: int64_t
  /// kInt, double kDouble, int32_t kDate, uint8_t kBool, std::string raw
  /// kString, Value kVariant.
  template <typename T>
  static ColumnVector Adopt(std::vector<uint8_t> nulls,
                            std::vector<T> payload);
  /// The same for a dictionary-encoded kString column: `codes` into `dict`.
  static ColumnVector AdoptCodes(std::vector<uint8_t> nulls,
                                 std::vector<int32_t> codes,
                                 DictionaryPtr dict);

 private:
  void PromoteToVariant();
  void AppendPlaceholder();
  /// Appends one non-null string, interning when encoded (falling back to
  /// raw — decoding the whole column — when the dictionary is full).
  void PushString(const std::string& s);

  Tag tag_ = Tag::kInt;
  bool saw_value_ = false;  // any non-null appended yet (tag still free)
  std::vector<uint8_t> nulls_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<int32_t> dates_;
  std::vector<uint8_t> bools_;
  std::vector<Value> variants_;
  // Dictionary encoding (kString only): when dict_ is set, codes_ replaces
  // strings_ as the payload.
  std::vector<int32_t> codes_;
  DictionaryPtr dict_;
};

/// A batch: equal-length columns. The unit the vectorized executor passes
/// between operators (one morsel = one batch on the parallel lanes).
struct Batch {
  std::vector<ColumnVector> columns;
  int64_t num_rows = 0;

  int NumColumns() const { return static_cast<int>(columns.size()); }
  /// Materializes row i (the row adapter at the facade edge).
  Row RowAt(int64_t i) const;
};

/// Ascending row numbers into a set of columns: the rows a filter kept.
using Selection = std::vector<int64_t>;
using SelectionPtr = std::shared_ptr<const Selection>;

/// Rows as one operator hands them to the next without copying: borrowed
/// columns, all read through `sel` when there is one (row i of the view is
/// row (*sel)[i] of every column) and directly otherwise. A filter refines
/// `sel` instead of gathering; `owners` keep the borrowed columns alive (a
/// view of a caller's batch leaves it empty).
struct BatchView {
  std::vector<const ColumnVector*> columns;
  SelectionPtr sel;
  int64_t num_rows = 0;
  std::vector<std::shared_ptr<const Batch>> owners;

  int NumColumns() const { return static_cast<int>(columns.size()); }
  /// The column row behind view row i.
  int64_t Row(int64_t i) const { return sel != nullptr ? (*sel)[i] : i; }

  /// Every row and column of `batch`, which the caller keeps alive.
  static BatchView Of(const Batch& batch);
  /// Every row and column of `batch`, sharing its ownership.
  static BatchView Of(std::shared_ptr<const Batch> batch);
};

/// The view's rows as one batch, for consumers that need dense columns:
/// the batch itself when the view is all of one it shares, else the rows
/// materialized — one gather per column through the selection, a plain
/// copy without one.
std::shared_ptr<const Batch> DenseBatch(const BatchView& view);

struct Relation;  // engine/relation.h

/// Rows -> columnar conversion (tags inferred per column).
Batch BatchFromRows(const std::vector<Row>& rows, int num_columns);
/// Same, releasing each row right after it is converted: one walk over the
/// rows instead of converting them and then destroying them in a second.
Batch BatchFromRows(std::vector<Row>&& rows, int num_columns);

/// Columnar -> rows conversion; `column_names` become the relation's.
Relation BatchToRelation(const Batch& batch,
                         std::vector<std::string> column_names);

/// a's rows followed by b's (same column count), column by column through
/// ColumnVector::Concat: when b was encoded against a's dictionaries
/// (Storage::Encode) the copy is pure payload concatenation; a string
/// column whose encodings differ comes out raw, and neither dictionary
/// grows.
Batch ConcatBatches(const Batch& a, const Batch& b);

/// The batch's rows ordered by Value::CompareRows (NULL first; data-NULLs
/// and grouping-set padding alike).
Batch SortBatch(const Batch& batch);

/// Keeps the rows whose indexes are listed, in order, across all columns.
Batch GatherBatch(const Batch& batch, const std::vector<int64_t>& indexes);

/// Dictionary-encodes every raw string column of the batch. seeds[c] (when
/// present and non-null) is the dictionary to extend for column c — the hook
/// that keeps one shared dictionary per table column across storage versions
/// and delta slices; columns without a seed get a fresh dictionary. Exhausted
/// code spaces leave the column raw.
void DictEncodeBatch(Batch* batch, const std::vector<DictionaryPtr>& seeds);

/// Per-column dictionaries of the batch (nullptr where not encoded) — the
/// seeds the *next* version's encoding extends.
std::vector<DictionaryPtr> BatchDictionaries(const Batch& batch);

}  // namespace engine
}  // namespace sumtab

#endif  // SUMTAB_ENGINE_COLUMN_VECTOR_H_
