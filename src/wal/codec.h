// Binary encoding for WAL record bodies and checkpoint sections:
// little-endian fixed-width integers, length-prefixed strings, tagged
// Values/Rows, and columnar Batches (one typed payload per column, copied
// in bulk). The Decoder is bounds-checked and never throws — a truncated or
// corrupted payload flips it into a sticky error state the caller tests
// once at the end, so recovery can treat any malformed region as "not a
// record" instead of crashing on it.
#ifndef SUMTAB_WAL_CODEC_H_
#define SUMTAB_WAL_CODEC_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/value.h"
#include "engine/column_vector.h"
#include "engine/relation.h"

namespace sumtab {
namespace wal {

// ---- encoding (append to a std::string buffer) ----

void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI64(std::string* out, int64_t v);
void PutDouble(std::string* out, double v);
void PutString(std::string* out, const std::string& s);
void PutValue(std::string* out, const Value& v);
void PutRow(std::string* out, const Row& row);
/// `column_names`, the row count, then per column: a kind byte, a byte
/// saying whether a null bitmap follows (left out when the column holds no
/// NULL), the bitmap, and the payload — ints, doubles, dates and bools as
/// one little-endian copy each; a dictionary column as its dictionary's
/// strings then its int32 codes; raw strings length-prefixed; a kVariant
/// column a tagged Value per row. A column encoded against `shared[c]`
/// writes only its codes: the reader supplies the same dictionary (a delta
/// slice names its base table's).
void PutBatch(std::string* out, const std::vector<std::string>& column_names,
              const engine::Batch& batch,
              const std::vector<engine::DictionaryPtr>& shared = {});
void PutEpochMap(std::string* out, const std::map<std::string, int64_t>& m);

// ---- decoding ----

class Decoder {
 public:
  Decoder(const char* data, size_t len) : data_(data), len_(len) {}
  explicit Decoder(const std::string& s) : Decoder(s.data(), s.size()) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  int64_t I64();
  double Double();
  std::string String();
  Value GetValue();
  Row GetRow();
  /// A PutBatch payload; `shared` must hold the dictionaries the writer was
  /// given. Every bulk read is bounds-checked before it allocates, and every
  /// code is checked against its dictionary's size.
  engine::Batch GetBatch(std::vector<std::string>* column_names,
                         const std::vector<engine::DictionaryPtr>& shared = {});
  /// A row-form table payload ([u32 ncols][names][u64 nrows][rows]): how
  /// v2 checkpoints stored tables, read only to load them.
  engine::Relation GetRelation();
  std::map<std::string, int64_t> GetEpochMap();

  /// False once any read ran past the end or hit an invalid tag. All reads
  /// after a failure return zero values; test once when done decoding.
  bool ok() const { return ok_; }
  /// True when the whole payload was consumed (and no read failed).
  bool AtEnd() const { return ok_ && pos_ == len_; }
  size_t remaining() const { return ok_ ? len_ - pos_ : 0; }

 private:
  bool Need(size_t n);
  /// n fixed-width values copied out in one piece.
  template <typename T>
  std::vector<T> Bulk(size_t n);
  engine::ColumnVector GetColumn(size_t rows,
                                 const engine::DictionaryPtr& shared);

  const char* data_;
  size_t len_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace wal
}  // namespace sumtab

#endif  // SUMTAB_WAL_CODEC_H_
