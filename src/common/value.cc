#include "common/value.h"

#include <cmath>
#include <cstdio>
#include <functional>

#include "common/date.h"

namespace sumtab {

const char* TypeName(Type type) {
  switch (type) {
    case Type::kInt:
      return "INT";
    case Type::kDouble:
      return "DOUBLE";
    case Type::kString:
      return "STRING";
    case Type::kDate:
      return "DATE";
    case Type::kBool:
      return "BOOL";
  }
  return "?";
}

double Value::ToDouble() const {
  switch (kind()) {
    case Kind::kInt:
      return static_cast<double>(AsInt());
    case Kind::kDouble:
      return AsDouble();
    case Kind::kDate:
      return static_cast<double>(AsDate());
    case Kind::kBool:
      return AsBool() ? 1.0 : 0.0;
    default:
      return 0.0;
  }
}

bool Value::IsNumeric() const {
  switch (kind()) {
    case Kind::kInt:
    case Kind::kDouble:
    case Kind::kDate:
    case Kind::kBool:
      return true;
    default:
      return false;
  }
}

bool Value::operator==(const Value& other) const {
  if (kind() == other.kind()) return rep_ == other.rep_;
  if (IsNumeric() && other.IsNumeric()) {
    return ToDouble() == other.ToDouble();
  }
  return false;
}

int Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  if (IsNumeric() && other.IsNumeric()) {
    double a = ToDouble();
    double b = other.ToDouble();
    if (a < b) return -1;
    if (b < a) return 1;
    return 0;
  }
  if (kind() == Kind::kString && other.kind() == Kind::kString) {
    int c = AsString().compare(other.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // Heterogeneous non-numeric comparison: order by kind tag.
  if (kind() != other.kind()) return kind() < other.kind() ? -1 : 1;
  return 0;
}

int Value::CompareRows(const std::vector<Value>& a,
                       const std::vector<Value>& b) {
  size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

size_t Value::Hash() const {
  switch (kind()) {
    case Kind::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case Kind::kString:
      return std::hash<std::string>{}(AsString());
    default:
      // Hash all numerics through double so int 3 and double 3.0 collide,
      // consistent with operator==.
      return std::hash<double>{}(ToDouble());
  }
}

std::string Value::ToString() const {
  switch (kind()) {
    case Kind::kNull:
      return "NULL";
    case Kind::kInt:
      return std::to_string(AsInt());
    case Kind::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", AsDouble());
      return buf;
    }
    case Kind::kString:
      return AsString();
    case Kind::kDate:
      return FormatDate(AsDate());
    case Kind::kBool:
      return AsBool() ? "true" : "false";
  }
  return "?";
}

}  // namespace sumtab
