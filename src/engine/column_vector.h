// Columnar batch representation the executor runs on.
//
// A ColumnVector is one column of a batch: a null bitmap plus a typed
// payload. The tag is chosen per column at build time — when every non-null
// value shares one Value::Kind the payload is a flat typed vector
// (int64/double/string/date/bool); columns that genuinely mix kinds (e.g. a
// SUM output whose groups split between Int and Double under the
// sticky-double rule) degrade to kVariant, a vector of Values. Conversion is
// loss-free in both directions: ValueAt(i) reconstructs the exact Value that
// was appended, so a table's row-store version and its columnar version hold
// bit-identical data.
//
// NULL handling: the bitmap is authoritative. Typed payloads store a zero
// placeholder in null slots; a NULL appended into a column never constrains
// its tag (an all-NULL column keeps whatever tag it started with). Ordering
// of NULLs — data-NULLs and grouping-set padding-NULLs alike — is defined by
// Value::Compare (NULL first), the single total order shared with
// SortRows/SameRowMultiset.
//
// Dictionary encoding: a kString column may additionally carry int32 codes
// into a shared StringDictionary instead of inline strings. Encoding is
// transparent — StringAt/ValueAt return the same strings either way — but
// lets joins and grouping key on int codes. Storage encodes the lazily built
// columnar twins; appends extend the shared dictionary (codes are stable
// forever) instead of rebuilding it, and a column whose dictionary runs out
// of code space simply stays raw.
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
/// the publication itself (Storage's per-version columnar lock / shared_ptr
/// hand-off) provides the happens-before edge.
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
  /// Appends all of src (concatenation; promotes on tag mismatch).
  void AppendColumn(const ColumnVector& src);

  // Typed appends for evaluator fast paths; only valid while the column's
  // tag matches (fresh columns constructed with ColumnVector(tag)).
  void AppendInt(int64_t v) { nulls_.push_back(0); ints_.push_back(v); }
  void AppendDouble(double v) { nulls_.push_back(0); doubles_.push_back(v); }
  void AppendBool(bool v) { nulls_.push_back(0); bools_.push_back(v ? 1 : 0); }
  void AppendDate(int32_t v) { nulls_.push_back(0); dates_.push_back(v); }

  /// New column holding src rows at `indexes`, in order (filter/join gather).
  static ColumnVector Gather(const ColumnVector& src,
                             const std::vector<int64_t>& indexes);

  /// New column holding src rows [begin, begin + n) — bulk payload copies,
  /// used to materialize borrowed column refs in projections.
  static ColumnVector Slice(const ColumnVector& src, int64_t begin, int64_t n);

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
  /// Materializes row i (adapter boundary and hash-key construction).
  Row RowAt(int64_t i) const;
};

struct Relation;  // engine/relation.h

/// Row-store -> columnar conversion (tags inferred per column).
Batch BatchFromRows(const std::vector<Row>& rows, int num_columns);

/// Columnar -> row-store conversion; `column_names` become the relation's.
Relation BatchToRelation(const Batch& batch,
                         std::vector<std::string> column_names);

/// Keeps the rows whose indexes are listed, in order, across all columns.
Batch GatherBatch(const Batch& batch, const std::vector<int64_t>& indexes);

/// Dictionary-encodes every raw string column of the batch. seeds[c] (when
/// present and non-null) is the dictionary to extend for column c — the hook
/// that keeps one shared dictionary per table column across COW versions and
/// delta slices; columns without a seed get a fresh dictionary. Exhausted
/// code spaces leave the column raw.
void DictEncodeBatch(Batch* batch, const std::vector<DictionaryPtr>& seeds);

/// Per-column dictionaries of the batch (nullptr where not encoded) — the
/// seeds the *next* version's encoding extends.
std::vector<DictionaryPtr> BatchDictionaries(const Batch& batch);

}  // namespace engine
}  // namespace sumtab

#endif  // SUMTAB_ENGINE_COLUMN_VECTOR_H_
