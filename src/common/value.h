// Runtime value model for the engine: a tagged union over the SQL types the
// library supports. SQL NULL is an explicit kind; three-valued logic is
// handled by the expression evaluator, not here.
#ifndef SUMTAB_COMMON_VALUE_H_
#define SUMTAB_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace sumtab {

/// Static column types known to the catalog.
enum class Type {
  kInt,     // int64
  kDouble,  // double
  kString,
  kDate,    // int32 yyyymmdd, see common/date.h
  kBool,
};

const char* TypeName(Type type);

/// A single runtime SQL value.
class Value {
 public:
  enum class Kind { kNull, kInt, kDouble, kString, kDate, kBool };

  Value() : rep_(NullRep{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Rep(std::in_place_index<1>, v)); }
  static Value Double(double v) {
    return Value(Rep(std::in_place_index<2>, v));
  }
  static Value String(std::string v) {
    return Value(Rep(std::in_place_index<3>, std::move(v)));
  }
  static Value Date(int32_t yyyymmdd) {
    return Value(Rep(std::in_place_index<4>, yyyymmdd));
  }
  static Value Bool(bool v) { return Value(Rep(std::in_place_index<5>, v)); }

  Kind kind() const { return static_cast<Kind>(rep_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }

  int64_t AsInt() const { return std::get<1>(rep_); }
  double AsDouble() const { return std::get<2>(rep_); }
  const std::string& AsString() const { return std::get<3>(rep_); }
  int32_t AsDate() const { return std::get<4>(rep_); }
  bool AsBool() const { return std::get<5>(rep_); }

  /// Numeric widening: int/date/bool/double -> double. Caller must ensure the
  /// value is numeric and non-null.
  double ToDouble() const;

  /// True if the kind participates in arithmetic (int, double, date, bool).
  bool IsNumeric() const;

  /// Strict equality used for group keys and result comparison: NULL == NULL
  /// here (unlike SQL '='), numerics compare across int/double.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// THE total order on runtime values (-1 / 0 / +1): NULL sorts first
  /// (data-NULLs and grouping-set padding-NULLs are indistinguishable at
  /// runtime, so both land in the same position), numerics compare by value
  /// across int/double/date/bool, strings lexicographically, and remaining
  /// heterogeneous pairs by kind tag. Every row comparator in the engine —
  /// SortBatch, SameRowMultiset, the columnar null bitmap's ordering — must
  /// go through this single definition so NULL placement never diverges
  /// between the row and batch representations.
  int Compare(const Value& other) const;

  /// Total order for sorting results; delegates to Compare().
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Lexicographic row comparison under Compare() — shorter rows first on a
  /// common prefix. The shared comparator for SortBatch / SameRowMultiset.
  static int CompareRows(const std::vector<Value>& a,
                         const std::vector<Value>& b);

  size_t Hash() const;

  /// Display form: NULL, integers, shortest-round-trip doubles, raw strings,
  /// yyyy-mm-dd dates, true/false.
  std::string ToString() const;

 private:
  struct NullRep {
    bool operator==(const NullRep&) const { return true; }
  };
  using Rep = std::variant<NullRep, int64_t, double, std::string, int32_t, bool>;

  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

using Row = std::vector<Value>;

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace sumtab

#endif  // SUMTAB_COMMON_VALUE_H_
