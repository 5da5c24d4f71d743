#include "engine/column_vector.h"

#include <algorithm>
#include <numeric>
#include <type_traits>

#include "engine/relation.h"

namespace sumtab {
namespace engine {

namespace {

ColumnVector::Tag TagForKind(Value::Kind kind) {
  switch (kind) {
    case Value::Kind::kInt:
      return ColumnVector::Tag::kInt;
    case Value::Kind::kDouble:
      return ColumnVector::Tag::kDouble;
    case Value::Kind::kString:
      return ColumnVector::Tag::kString;
    case Value::Kind::kDate:
      return ColumnVector::Tag::kDate;
    case Value::Kind::kBool:
      return ColumnVector::Tag::kBool;
    case Value::Kind::kNull:
      break;
  }
  return ColumnVector::Tag::kVariant;  // unreachable for non-null kinds
}

}  // namespace

StringDictionary::StringDictionary(int32_t max_codes)
    : max_codes_(max_codes < 0 ? 0 : max_codes) {
  chunks_.resize((static_cast<size_t>(max_codes_) + kChunkSize - 1) /
                 kChunkSize);
}

int32_t StringDictionary::InternLocked(const std::string& s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  if (size_ >= max_codes_) return -1;
  int32_t code = size_;
  auto& chunk = chunks_[code >> kChunkBits];
  if (chunk == nullptr) chunk = std::make_unique<std::string[]>(kChunkSize);
  chunk[code & (kChunkSize - 1)] = s;
  index_.emplace(s, code);
  ++size_;
  return code;
}

int32_t StringDictionary::Intern(const std::string& s) {
  std::lock_guard<std::mutex> lock(mu_);
  return InternLocked(s);
}

int32_t StringDictionary::Find(const std::string& s) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(s);
  return it == index_.end() ? -1 : it->second;
}

int32_t StringDictionary::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

bool StringDictionary::EncodeAll(const std::vector<std::string>& values,
                                 const std::vector<uint8_t>& nulls,
                                 std::vector<int32_t>* codes) {
  std::vector<int32_t> out(values.size(), 0);
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < values.size(); ++i) {
    if (nulls[i] != 0) continue;
    int32_t code = InternLocked(values[i]);
    if (code < 0) return false;  // exhausted; caller keeps raw strings
    out[i] = code;
  }
  *codes = std::move(out);
  return true;
}

Value ColumnVector::ValueAt(int64_t i) const {
  if (nulls_[i] != 0) return Value::Null();
  switch (tag_) {
    case Tag::kInt:
      return Value::Int(ints_[i]);
    case Tag::kDouble:
      return Value::Double(doubles_[i]);
    case Tag::kString:
      return Value::String(StringAt(i));
    case Tag::kDate:
      return Value::Date(dates_[i]);
    case Tag::kBool:
      return Value::Bool(bools_[i] != 0);
    case Tag::kVariant:
      return variants_[i];
  }
  return Value::Null();
}

double ColumnVector::NumericAt(int64_t i) const {
  switch (tag_) {
    case Tag::kInt:
      return static_cast<double>(ints_[i]);
    case Tag::kDouble:
      return doubles_[i];
    case Tag::kDate:
      return static_cast<double>(dates_[i]);
    case Tag::kBool:
      return bools_[i] != 0 ? 1.0 : 0.0;
    default:
      return 0.0;
  }
}

int ColumnVector::CompareAt(int64_t i, int64_t j) const {
  if (nulls_[i] != 0 || nulls_[j] != 0) {
    return nulls_[i] == nulls_[j] ? 0 : (nulls_[i] != 0 ? -1 : 1);
  }
  switch (tag_) {
    case Tag::kString: {
      int c = StringAt(i).compare(StringAt(j));
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case Tag::kVariant:
      return variants_[i].Compare(variants_[j]);
    default: {
      // Numeric tags compare widened to double, exactly as Value::Compare.
      double a = NumericAt(i);
      double b = NumericAt(j);
      return a < b ? -1 : (b < a ? 1 : 0);
    }
  }
}

void ColumnVector::Reserve(int64_t n) {
  nulls_.reserve(n);
  switch (tag_) {
    case Tag::kInt:
      ints_.reserve(n);
      break;
    case Tag::kDouble:
      doubles_.reserve(n);
      break;
    case Tag::kString:
      if (dict_ != nullptr) {
        codes_.reserve(n);
      } else {
        strings_.reserve(n);
      }
      break;
    case Tag::kDate:
      dates_.reserve(n);
      break;
    case Tag::kBool:
      bools_.reserve(n);
      break;
    case Tag::kVariant:
      variants_.reserve(n);
      break;
  }
}

void ColumnVector::AppendPlaceholder() {
  switch (tag_) {
    case Tag::kInt:
      ints_.push_back(0);
      break;
    case Tag::kDouble:
      doubles_.push_back(0.0);
      break;
    case Tag::kString:
      if (dict_ != nullptr) {
        codes_.push_back(0);
      } else {
        strings_.emplace_back();
      }
      break;
    case Tag::kDate:
      dates_.push_back(0);
      break;
    case Tag::kBool:
      bools_.push_back(0);
      break;
    case Tag::kVariant:
      variants_.push_back(Value::Null());
      break;
  }
}

void ColumnVector::AppendNull() {
  nulls_.push_back(1);
  AppendPlaceholder();
}

void ColumnVector::PromoteToVariant() {
  if (tag_ == Tag::kVariant) return;
  variants_.clear();
  variants_.reserve(nulls_.size());
  for (int64_t i = 0; i < size(); ++i) variants_.push_back(ValueAt(i));
  ints_.clear();
  doubles_.clear();
  strings_.clear();
  dates_.clear();
  bools_.clear();
  codes_.clear();
  dict_.reset();
  tag_ = Tag::kVariant;
}

bool ColumnVector::EncodeStrings(const DictionaryPtr& dict) {
  if (tag_ != Tag::kString || dict_ != nullptr || dict == nullptr) {
    return false;
  }
  std::vector<int32_t> codes;
  if (!dict->EncodeAll(strings_, nulls_, &codes)) return false;
  codes_ = std::move(codes);
  dict_ = dict;
  strings_.clear();
  strings_.shrink_to_fit();
  return true;
}

void ColumnVector::DecodeToRaw() {
  if (dict_ == nullptr) return;
  strings_.clear();
  strings_.reserve(codes_.size());
  for (size_t i = 0; i < codes_.size(); ++i) {
    // Null slots get the empty-string placeholder, matching raw columns.
    if (nulls_[i] != 0) {
      strings_.emplace_back();
    } else {
      strings_.push_back(dict_->At(codes_[i]));
    }
  }
  codes_.clear();
  codes_.shrink_to_fit();
  dict_.reset();
}

void ColumnVector::PushString(const std::string& s) {
  saw_value_ = true;
  if (dict_ != nullptr) {
    int32_t code = dict_->Intern(s);
    if (code >= 0) {
      nulls_.push_back(0);
      codes_.push_back(code);
      return;
    }
    DecodeToRaw();  // code space exhausted: the whole column reverts to raw
  }
  nulls_.push_back(0);
  strings_.push_back(s);
}

void ColumnVector::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  Tag want = TagForKind(v.kind());
  if (tag_ != want) {
    if (!saw_value_ && tag_ != Tag::kVariant) {
      // Only nulls so far: the column's tag is still free. Re-tag and refill
      // the placeholder payload at the new type.
      size_t n = nulls_.size();
      ints_.clear();
      doubles_.clear();
      strings_.clear();
      dates_.clear();
      bools_.clear();
      variants_.clear();
      codes_.clear();
      dict_.reset();
      tag_ = want;
      for (size_t i = 0; i < n; ++i) AppendPlaceholder();
    } else if (tag_ != Tag::kVariant) {
      PromoteToVariant();
    }
  }
  if (tag_ == Tag::kString) {
    PushString(v.AsString());
    return;
  }
  saw_value_ = true;
  nulls_.push_back(0);
  switch (tag_) {
    case Tag::kInt:
      ints_.push_back(v.AsInt());
      break;
    case Tag::kDouble:
      doubles_.push_back(v.AsDouble());
      break;
    case Tag::kString:
      break;  // handled above
    case Tag::kDate:
      dates_.push_back(v.AsDate());
      break;
    case Tag::kBool:
      bools_.push_back(v.AsBool() ? 1 : 0);
      break;
    case Tag::kVariant:
      variants_.push_back(v);
      break;
  }
}

void ColumnVector::AppendFrom(const ColumnVector& src, int64_t i) {
  if (src.nulls_[i] != 0) {
    AppendNull();
    return;
  }
  if (tag_ == src.tag_ && tag_ != Tag::kVariant) {
    if (tag_ == Tag::kString) {
      if (dict_ != nullptr && dict_ == src.dict_) {
        saw_value_ = true;
        nulls_.push_back(0);
        codes_.push_back(src.codes_[i]);
      } else {
        PushString(src.StringAt(i));
      }
      return;
    }
    saw_value_ = true;
    nulls_.push_back(0);
    switch (tag_) {
      case Tag::kInt:
        ints_.push_back(src.ints_[i]);
        return;
      case Tag::kDouble:
        doubles_.push_back(src.doubles_[i]);
        return;
      case Tag::kDate:
        dates_.push_back(src.dates_[i]);
        return;
      case Tag::kBool:
        bools_.push_back(src.bools_[i]);
        return;
      default:
        break;
    }
  }
  AppendValue(src.ValueAt(i));
}

void ColumnVector::AppendColumn(const ColumnVector& src) {
  if (size() == 0 && tag_ != Tag::kVariant && !saw_value_) {
    *this = src;
    return;
  }
  if (tag_ == Tag::kString && src.tag_ == Tag::kString && dict_ != nullptr &&
      dict_ != src.dict_ && src.size() > 0) {
    // Strings under another encoding would otherwise intern, row by row,
    // into this column's dictionary, which may be a stored table's: a
    // query merging an AST leg with a delta leg must not grow it. Go raw.
    DecodeToRaw();
  }
  // Bulk concatenation needs matching tags AND — for strings — matching
  // encodings (same dictionary, or both raw); anything else goes per-row.
  if (tag_ == src.tag_ && tag_ != Tag::kVariant &&
      (tag_ != Tag::kString || dict_ == src.dict_)) {
    nulls_.insert(nulls_.end(), src.nulls_.begin(), src.nulls_.end());
    saw_value_ = saw_value_ || src.saw_value_;
    switch (tag_) {
      case Tag::kInt:
        ints_.insert(ints_.end(), src.ints_.begin(), src.ints_.end());
        return;
      case Tag::kDouble:
        doubles_.insert(doubles_.end(), src.doubles_.begin(),
                        src.doubles_.end());
        return;
      case Tag::kString:
        if (dict_ != nullptr) {
          codes_.insert(codes_.end(), src.codes_.begin(), src.codes_.end());
        } else {
          strings_.insert(strings_.end(), src.strings_.begin(),
                          src.strings_.end());
        }
        return;
      case Tag::kDate:
        dates_.insert(dates_.end(), src.dates_.begin(), src.dates_.end());
        return;
      case Tag::kBool:
        bools_.insert(bools_.end(), src.bools_.begin(), src.bools_.end());
        return;
      case Tag::kVariant:
        break;
    }
  }
  Reserve(size() + src.size());
  for (int64_t i = 0; i < src.size(); ++i) AppendFrom(src, i);
}

ColumnVector ColumnVector::Gather(const ColumnVector& src,
                                  const std::vector<int64_t>& indexes) {
  return Gather(src, indexes.data(), static_cast<int64_t>(indexes.size()));
}

ColumnVector ColumnVector::Gather(const ColumnVector& src,
                                  const int64_t* indexes, int64_t n) {
  ColumnVector out(src.tag_);
  if (src.tag_ == Tag::kVariant) {
    out.Reserve(n);
    for (int64_t k = 0; k < n; ++k) {
      const int64_t i = indexes[k];
      if (i < 0) {
        out.AppendNull();
      } else {
        out.AppendFrom(src, i);
      }
    }
    return out;
  }
  // Typed bulk gather: null bitmap first (null slots already hold the zero
  // placeholder in src, and a negative index yields one, so the payload
  // gather below needs no branches beyond that one).
  out.nulls_.resize(n);
  uint8_t all_null = 1;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t j = indexes[i];
    uint8_t nv = j < 0 ? 1 : src.nulls_[j];
    out.nulls_[i] = nv;
    all_null &= nv;
  }
  // Matches the per-row semantics: the gathered column saw a value iff any
  // gathered row is non-null.
  out.saw_value_ = n > 0 && all_null == 0;
  auto gather = [indexes, n](const auto& from, auto* to) {
    to->resize(n);
    for (int64_t i = 0; i < n; ++i) {
      const int64_t j = indexes[i];
      (*to)[i] = j < 0 ? typename std::decay_t<decltype(*to)>::value_type{}
                       : from[j];
    }
  };
  switch (src.tag_) {
    case Tag::kInt:
      gather(src.ints_, &out.ints_);
      break;
    case Tag::kDouble:
      gather(src.doubles_, &out.doubles_);
      break;
    case Tag::kString:
      if (src.dict_ != nullptr) {
        out.dict_ = src.dict_;
        gather(src.codes_, &out.codes_);
      } else {
        gather(src.strings_, &out.strings_);
      }
      break;
    case Tag::kDate:
      gather(src.dates_, &out.dates_);
      break;
    case Tag::kBool:
      gather(src.bools_, &out.bools_);
      break;
    case Tag::kVariant:
      break;
  }
  return out;
}

ColumnVector ColumnVector::Slice(const ColumnVector& src, int64_t begin,
                                 int64_t n) {
  if (begin == 0 && n == src.size()) return src;
  ColumnVector out(src.tag_);
  out.saw_value_ = src.saw_value_;
  out.nulls_.assign(src.nulls_.begin() + begin, src.nulls_.begin() + begin + n);
  switch (src.tag_) {
    case Tag::kInt:
      out.ints_.assign(src.ints_.begin() + begin, src.ints_.begin() + begin + n);
      break;
    case Tag::kDouble:
      out.doubles_.assign(src.doubles_.begin() + begin,
                          src.doubles_.begin() + begin + n);
      break;
    case Tag::kString:
      if (src.dict_ != nullptr) {
        out.dict_ = src.dict_;
        out.codes_.assign(src.codes_.begin() + begin,
                          src.codes_.begin() + begin + n);
      } else {
        out.strings_.assign(src.strings_.begin() + begin,
                            src.strings_.begin() + begin + n);
      }
      break;
    case Tag::kDate:
      out.dates_.assign(src.dates_.begin() + begin,
                        src.dates_.begin() + begin + n);
      break;
    case Tag::kBool:
      out.bools_.assign(src.bools_.begin() + begin,
                        src.bools_.begin() + begin + n);
      break;
    case Tag::kVariant:
      out.variants_.assign(src.variants_.begin() + begin,
                           src.variants_.begin() + begin + n);
      break;
  }
  return out;
}

ColumnVector ColumnVector::Concat(const ColumnVector& a,
                                  const ColumnVector& b) {
  // Reserved with a's tag and dictionary, so copying a in keeps the
  // reservation and b's bulk append needs no reallocation.
  ColumnVector out(a.tag_);
  out.dict_ = a.dict_;
  out.Reserve(a.size() + b.size());
  out.AppendColumn(a);
  out.AppendColumn(b);
  return out;
}

template <typename T>
ColumnVector ColumnVector::Adopt(std::vector<uint8_t> nulls,
                                 std::vector<T> payload) {
  ColumnVector out;
  out.saw_value_ = std::find(nulls.begin(), nulls.end(), 0) != nulls.end();
  out.nulls_ = std::move(nulls);
  if constexpr (std::is_same_v<T, int64_t>) {
    out.tag_ = Tag::kInt;
    out.ints_ = std::move(payload);
  } else if constexpr (std::is_same_v<T, double>) {
    out.tag_ = Tag::kDouble;
    out.doubles_ = std::move(payload);
  } else if constexpr (std::is_same_v<T, int32_t>) {
    out.tag_ = Tag::kDate;
    out.dates_ = std::move(payload);
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    out.tag_ = Tag::kBool;
    out.bools_ = std::move(payload);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out.tag_ = Tag::kString;
    out.strings_ = std::move(payload);
  } else {
    static_assert(std::is_same_v<T, Value>);
    out.tag_ = Tag::kVariant;
    out.variants_ = std::move(payload);
  }
  return out;
}

template ColumnVector ColumnVector::Adopt(std::vector<uint8_t>,
                                         std::vector<int64_t>);
template ColumnVector ColumnVector::Adopt(std::vector<uint8_t>,
                                         std::vector<double>);
template ColumnVector ColumnVector::Adopt(std::vector<uint8_t>,
                                         std::vector<int32_t>);
template ColumnVector ColumnVector::Adopt(std::vector<uint8_t>,
                                         std::vector<uint8_t>);
template ColumnVector ColumnVector::Adopt(std::vector<uint8_t>,
                                         std::vector<std::string>);
template ColumnVector ColumnVector::Adopt(std::vector<uint8_t>,
                                         std::vector<Value>);

ColumnVector ColumnVector::AdoptCodes(std::vector<uint8_t> nulls,
                                      std::vector<int32_t> codes,
                                      DictionaryPtr dict) {
  ColumnVector out = Adopt(std::move(nulls), std::vector<std::string>{});
  out.codes_ = std::move(codes);
  out.dict_ = std::move(dict);
  return out;
}

Row Batch::RowAt(int64_t i) const {
  Row row;
  row.reserve(columns.size());
  for (const ColumnVector& col : columns) row.push_back(col.ValueAt(i));
  return row;
}

namespace {

/// BatchFromRows for both overloads; a mutable `rows` is released row by
/// row as it is converted.
template <typename Rows>
Batch BuildBatch(Rows& rows, int num_columns) {
  Batch batch;
  batch.num_rows = static_cast<int64_t>(rows.size());
  batch.columns.resize(num_columns);
  for (int c = 0; c < num_columns; ++c) {
    // Tag each column by its first non-NULL value up front, so Reserve
    // sizes the payload that will actually be filled.
    for (const Row& row : rows) {
      if (!row[c].is_null()) {
        batch.columns[c] = ColumnVector(TagForKind(row[c].kind()));
        break;
      }
    }
    batch.columns[c].Reserve(batch.num_rows);
  }
  for (auto& row : rows) {
    for (int c = 0; c < num_columns; ++c) {
      batch.columns[c].AppendValue(row[c]);
    }
    if constexpr (!std::is_const_v<Rows>) Row().swap(row);
  }
  return batch;
}

}  // namespace

Batch BatchFromRows(const std::vector<Row>& rows, int num_columns) {
  return BuildBatch(rows, num_columns);
}

Batch BatchFromRows(std::vector<Row>&& rows, int num_columns) {
  Batch batch = BuildBatch(rows, num_columns);
  rows.clear();
  return batch;
}

Relation BatchToRelation(const Batch& batch,
                         std::vector<std::string> column_names) {
  Relation rel;
  rel.column_names = std::move(column_names);
  rel.rows.reserve(batch.num_rows);
  for (int64_t i = 0; i < batch.num_rows; ++i) {
    rel.rows.push_back(batch.RowAt(i));
  }
  return rel;
}

Batch ConcatBatches(const Batch& a, const Batch& b) {
  Batch out;
  out.num_rows = a.num_rows + b.num_rows;
  out.columns.reserve(a.columns.size());
  for (size_t c = 0; c < a.columns.size(); ++c) {
    out.columns.push_back(ColumnVector::Concat(a.columns[c], b.columns[c]));
  }
  return out;
}

Batch SortBatch(const Batch& batch) {
  std::vector<int64_t> order(batch.num_rows);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&batch](int64_t i, int64_t j) {
    for (const ColumnVector& col : batch.columns) {
      int c = col.CompareAt(i, j);
      if (c != 0) return c < 0;
    }
    return false;
  });
  return GatherBatch(batch, order);
}

Batch GatherBatch(const Batch& batch, const std::vector<int64_t>& indexes) {
  Batch out;
  out.num_rows = static_cast<int64_t>(indexes.size());
  out.columns.reserve(batch.columns.size());
  for (const ColumnVector& col : batch.columns) {
    out.columns.push_back(ColumnVector::Gather(col, indexes));
  }
  return out;
}

BatchView BatchView::Of(const Batch& batch) {
  BatchView view;
  view.num_rows = batch.num_rows;
  view.columns.reserve(batch.columns.size());
  for (const ColumnVector& col : batch.columns) view.columns.push_back(&col);
  return view;
}

BatchView BatchView::Of(std::shared_ptr<const Batch> batch) {
  BatchView view = Of(*batch);
  view.owners.push_back(std::move(batch));
  return view;
}

std::shared_ptr<const Batch> DenseBatch(const BatchView& view) {
  if (view.sel == nullptr && view.owners.size() == 1) {
    const std::shared_ptr<const Batch>& owner = view.owners[0];
    bool whole = owner->NumColumns() == view.NumColumns();
    for (int c = 0; whole && c < view.NumColumns(); ++c) {
      whole = view.columns[c] == &owner->columns[c];
    }
    if (whole) return owner;
  }
  auto out = std::make_shared<Batch>();
  out->num_rows = view.num_rows;
  out->columns.reserve(view.columns.size());
  for (const ColumnVector* col : view.columns) {
    out->columns.push_back(view.sel != nullptr
                               ? ColumnVector::Gather(*col, *view.sel)
                               : *col);
  }
  return out;
}

void DictEncodeBatch(Batch* batch, const std::vector<DictionaryPtr>& seeds) {
  for (size_t c = 0; c < batch->columns.size(); ++c) {
    ColumnVector& col = batch->columns[c];
    if (col.tag() != ColumnVector::Tag::kString || col.dict_encoded()) {
      continue;
    }
    DictionaryPtr dict = c < seeds.size() && seeds[c] != nullptr
                             ? seeds[c]
                             : std::make_shared<StringDictionary>();
    col.EncodeStrings(dict);
  }
}

std::vector<DictionaryPtr> BatchDictionaries(const Batch& batch) {
  std::vector<DictionaryPtr> dicts;
  dicts.reserve(batch.columns.size());
  for (const ColumnVector& col : batch.columns) dicts.push_back(col.dict());
  return dicts;
}

}  // namespace engine
}  // namespace sumtab
