#include "wal/codec.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

namespace sumtab {
namespace wal {

namespace {

/// Value kind tags on disk. Stable format constants: append new kinds at the
/// end, never renumber (checkpoints and WALs from older runs must decode).
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;
constexpr uint8_t kTagDate = 4;
constexpr uint8_t kTagBool = 5;

/// Hard cap on any length-prefixed field, far above real payloads; rejects
/// garbage lengths from corrupted bytes before they turn into allocations.
constexpr uint64_t kMaxFieldLen = 1ull << 31;

/// Column payload kinds of a PutBatch entry. Stable format constants.
constexpr uint8_t kColInt = 0;
constexpr uint8_t kColDouble = 1;
constexpr uint8_t kColString = 2;      // raw, length-prefixed
constexpr uint8_t kColDate = 3;
constexpr uint8_t kColBool = 4;
constexpr uint8_t kColVariant = 5;     // a tagged Value per row
constexpr uint8_t kColDict = 6;        // dictionary strings, then codes
constexpr uint8_t kColSharedDict = 7;  // codes into a reader-held dictionary

/// The fewest payload bytes a column of the kind spends per row: the bound
/// checked before a column's vectors are allocated.
size_t MinBytesPerRow(uint8_t kind) {
  switch (kind) {
    case kColInt:
    case kColDouble:
      return 8;
    case kColString:
    case kColDate:
    case kColDict:
    case kColSharedDict:
      return 4;
    default:
      return 1;
  }
}

template <typename T>
void PutBulk(std::string* out, const std::vector<T>& v) {
  out->append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

void PutColumn(std::string* out, const engine::ColumnVector& col,
               const engine::DictionaryPtr& shared) {
  using Tag = engine::ColumnVector::Tag;
  const int64_t n = col.size();
  uint8_t kind = kColVariant;
  switch (col.tag()) {
    case Tag::kInt:
      kind = kColInt;
      break;
    case Tag::kDouble:
      kind = kColDouble;
      break;
    case Tag::kString:
      kind = !col.dict_encoded()      ? kColString
             : col.dict() == shared ? kColSharedDict
                                    : kColDict;
      break;
    case Tag::kDate:
      kind = kColDate;
      break;
    case Tag::kBool:
      kind = kColBool;
      break;
    case Tag::kVariant:
      break;
  }
  PutU8(out, kind);
  const std::vector<uint8_t>& nulls = col.nulls();
  const bool has_nulls =
      std::find(nulls.begin(), nulls.end(), 1) != nulls.end();
  PutU8(out, has_nulls ? 1 : 0);
  if (has_nulls) PutBulk(out, nulls);
  switch (kind) {
    case kColInt:
      return PutBulk(out, col.ints());
    case kColDouble:
      return PutBulk(out, col.doubles());
    case kColDate:
      return PutBulk(out, col.dates());
    case kColBool:
      return PutBulk(out, col.bools());
    case kColString:
      for (int64_t i = 0; i < n; ++i) PutString(out, col.StringAt(i));
      return;
    case kColDict: {
      // The whole dictionary, so codes keep their values across a restart
      // (later versions and delta slices extend the same code space).
      const int32_t size = col.dict()->size();
      PutU32(out, static_cast<uint32_t>(size));
      for (int32_t code = 0; code < size; ++code) {
        PutString(out, col.dict()->At(code));
      }
      return PutBulk(out, col.codes());
    }
    case kColSharedDict:
      return PutBulk(out, col.codes());
    default:
      for (int64_t i = 0; i < n; ++i) PutValue(out, col.ValueAt(i));
      return;
  }
}

}  // namespace

static_assert(std::endian::native == std::endian::little,
              "PutBatch and GetBatch copy payloads in host byte order");

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(buf, 8);
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutDouble(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutValue(std::string* out, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      PutU8(out, kTagNull);
      return;
    case Value::Kind::kInt:
      PutU8(out, kTagInt);
      PutI64(out, v.AsInt());
      return;
    case Value::Kind::kDouble:
      PutU8(out, kTagDouble);
      PutDouble(out, v.AsDouble());
      return;
    case Value::Kind::kString:
      PutU8(out, kTagString);
      PutString(out, v.AsString());
      return;
    case Value::Kind::kDate:
      PutU8(out, kTagDate);
      PutU32(out, static_cast<uint32_t>(v.AsDate()));
      return;
    case Value::Kind::kBool:
      PutU8(out, kTagBool);
      PutU8(out, v.AsBool() ? 1 : 0);
      return;
  }
}

void PutRow(std::string* out, const Row& row) {
  PutU32(out, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) PutValue(out, v);
}

void PutBatch(std::string* out, const std::vector<std::string>& column_names,
              const engine::Batch& batch,
              const std::vector<engine::DictionaryPtr>& shared) {
  PutU32(out, static_cast<uint32_t>(column_names.size()));
  for (const std::string& name : column_names) PutString(out, name);
  PutU64(out, static_cast<uint64_t>(batch.num_rows));
  for (size_t c = 0; c < batch.columns.size(); ++c) {
    PutColumn(out, batch.columns[c], c < shared.size() ? shared[c] : nullptr);
  }
}

void PutEpochMap(std::string* out, const std::map<std::string, int64_t>& m) {
  PutU32(out, static_cast<uint32_t>(m.size()));
  for (const auto& [name, epoch] : m) {
    PutString(out, name);
    PutI64(out, epoch);
  }
}

bool Decoder::Need(size_t n) {
  if (!ok_ || len_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t Decoder::U8() {
  if (!Need(1)) return 0;
  return static_cast<uint8_t>(data_[pos_++]);
}

uint32_t Decoder::U32() {
  if (!Need(4)) return 0;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

uint64_t Decoder::U64() {
  if (!Need(8)) return 0;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

int64_t Decoder::I64() { return static_cast<int64_t>(U64()); }

double Decoder::Double() {
  uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Decoder::String() {
  uint32_t n = U32();
  if (n > kMaxFieldLen || !Need(n)) {
    ok_ = false;
    return "";
  }
  std::string s(data_ + pos_, n);
  pos_ += n;
  return s;
}

Value Decoder::GetValue() {
  switch (U8()) {
    case kTagNull:
      return Value::Null();
    case kTagInt:
      return Value::Int(I64());
    case kTagDouble:
      return Value::Double(Double());
    case kTagString:
      return Value::String(String());
    case kTagDate:
      return Value::Date(static_cast<int32_t>(U32()));
    case kTagBool:
      return Value::Bool(U8() != 0);
    default:
      ok_ = false;
      return Value::Null();
  }
}

Row Decoder::GetRow() {
  uint32_t n = U32();
  Row row;
  if (n > kMaxFieldLen) {
    ok_ = false;
    return row;
  }
  row.reserve(ok_ ? n : 0);
  for (uint32_t i = 0; i < n && ok_; ++i) row.push_back(GetValue());
  return row;
}

template <typename T>
std::vector<T> Decoder::Bulk(size_t n) {
  if (n == 0 || !Need(n * sizeof(T))) return {};
  std::vector<T> v(n);
  std::memcpy(v.data(), data_ + pos_, n * sizeof(T));
  pos_ += n * sizeof(T);
  return v;
}

engine::ColumnVector Decoder::GetColumn(size_t rows,
                                        const engine::DictionaryPtr& shared) {
  using engine::ColumnVector;
  const uint8_t kind = U8();
  const uint8_t has_nulls = U8();
  // Bound every allocation below by the bytes actually present.
  if (kind > kColSharedDict || has_nulls > 1 ||
      !Need(rows * (MinBytesPerRow(kind) + has_nulls))) {
    ok_ = false;
    return {};
  }
  std::vector<uint8_t> nulls;
  if (has_nulls != 0) {
    nulls = Bulk<uint8_t>(rows);
    for (uint8_t& b : nulls) b = b != 0 ? 1 : 0;
  } else {
    nulls.assign(rows, 0);
  }
  // Null slots hold the zero placeholder, whatever the bytes said.
  auto typed = [&](auto proto) {
    using T = decltype(proto);
    std::vector<T> v = Bulk<T>(rows);
    if (!ok_) return ColumnVector();
    for (size_t i = 0; i < rows; ++i) {
      if (nulls[i] != 0) v[i] = T{};
    }
    if constexpr (std::is_same_v<T, uint8_t>) {
      for (uint8_t& b : v) b = b != 0 ? 1 : 0;
    }
    return ColumnVector::Adopt(std::move(nulls), std::move(v));
  };
  switch (kind) {
    case kColInt:
      return typed(int64_t{});
    case kColDouble:
      return typed(double{});
    case kColDate:
      return typed(int32_t{});
    case kColBool:
      return typed(uint8_t{});
    case kColString: {
      std::vector<std::string> v;
      v.reserve(rows);
      for (size_t i = 0; i < rows && ok_; ++i) {
        v.push_back(String());
        if (nulls[i] != 0) v.back().clear();
      }
      return ColumnVector::Adopt(std::move(nulls), std::move(v));
    }
    case kColVariant: {
      std::vector<Value> v;
      v.reserve(rows);
      for (size_t i = 0; i < rows && ok_; ++i) {
        v.push_back(GetValue());
        // A non-null slot holds a non-null Value; a null slot, NULL.
        if (nulls[i] != 0) {
          v.back() = Value::Null();
        } else if (v.back().is_null()) {
          ok_ = false;
        }
      }
      return ColumnVector::Adopt(std::move(nulls), std::move(v));
    }
    default:
      break;
  }
  // Dictionary codes: inline strings or the reader-held dictionary.
  engine::DictionaryPtr dict = shared;
  if (kind == kColDict) {
    const uint32_t size = U32();
    if (size > static_cast<uint32_t>(
                   engine::StringDictionary::kDefaultMaxCodes) ||
        !Need(static_cast<size_t>(size) * 4)) {
      ok_ = false;
      return {};
    }
    dict = std::make_shared<engine::StringDictionary>();
    for (uint32_t code = 0; code < size && ok_; ++code) {
      // A repeated string would come back under its first code.
      if (dict->Intern(String()) != static_cast<int32_t>(code)) ok_ = false;
    }
  }
  if (dict == nullptr) {
    ok_ = false;
    return {};
  }
  std::vector<int32_t> codes = Bulk<int32_t>(rows);
  const int32_t size = dict->size();
  for (size_t i = 0; i < rows && ok_; ++i) {
    if (nulls[i] != 0) {
      codes[i] = 0;
    } else if (codes[i] < 0 || codes[i] >= size) {
      ok_ = false;
    }
  }
  if (!ok_) return {};
  return ColumnVector::AdoptCodes(std::move(nulls), std::move(codes),
                                  std::move(dict));
}

engine::Batch Decoder::GetBatch(
    std::vector<std::string>* column_names,
    const std::vector<engine::DictionaryPtr>& shared) {
  engine::Batch batch;
  column_names->clear();
  const uint32_t ncols = U32();
  // Every name spends at least its 4-byte length.
  if (!Need(static_cast<size_t>(ncols) * 4)) return batch;
  for (uint32_t i = 0; i < ncols && ok_; ++i) {
    column_names->push_back(String());
  }
  const uint64_t nrows = U64();
  if (nrows > kMaxFieldLen) ok_ = false;
  batch.num_rows = ok_ ? static_cast<int64_t>(nrows) : 0;
  batch.columns.reserve(ok_ ? ncols : 0);
  for (uint32_t c = 0; c < ncols && ok_; ++c) {
    batch.columns.push_back(GetColumn(
        static_cast<size_t>(nrows), c < shared.size() ? shared[c] : nullptr));
  }
  if (!ok_) {
    column_names->clear();
    return engine::Batch{};
  }
  return batch;
}

engine::Relation Decoder::GetRelation() {
  engine::Relation rel;
  uint32_t ncols = U32();
  if (ncols > kMaxFieldLen) {
    ok_ = false;
    return rel;
  }
  for (uint32_t i = 0; i < ncols && ok_; ++i) {
    rel.column_names.push_back(String());
  }
  uint64_t nrows = U64();
  if (nrows > kMaxFieldLen) {
    ok_ = false;
    return rel;
  }
  for (uint64_t i = 0; i < nrows && ok_; ++i) rel.rows.push_back(GetRow());
  if (!ok_) rel = engine::Relation{};
  return rel;
}

std::map<std::string, int64_t> Decoder::GetEpochMap() {
  std::map<std::string, int64_t> m;
  uint32_t n = U32();
  if (n > kMaxFieldLen) {
    ok_ = false;
    return m;
  }
  for (uint32_t i = 0; i < n && ok_; ++i) {
    std::string name = String();
    int64_t epoch = I64();
    if (ok_) m[name] = epoch;
  }
  return m;
}

}  // namespace wal
}  // namespace sumtab
