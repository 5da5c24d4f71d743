// Small string helpers shared across modules.
#ifndef SUMTAB_COMMON_STR_UTIL_H_
#define SUMTAB_COMMON_STR_UTIL_H_

#include <string>
#include <vector>

namespace sumtab {

/// ASCII lower-casing; SQL identifiers and keywords are case-insensitive.
std::string ToLower(const std::string& s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(const std::string& a, const std::string& b);

/// Joins parts with sep: Join({"a","b"}, ", ") == "a, b".
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Canonical form of a SQL statement for the workload log and the advisor's
/// dedup (the plan cache keys by sql::Templatize instead): whitespace runs
/// collapse to one space, leading/trailing whitespace is trimmed, and
/// everything outside single-quoted string literals is lower-cased (literals
/// keep their bytes — 'ABC' and 'abc' are different queries). Purely
/// lexical: two texts with equal normal forms parse identically, but
/// semantically equal queries spelled differently may still differ.
std::string NormalizeSqlText(const std::string& sql);

}  // namespace sumtab

#endif  // SUMTAB_COMMON_STR_UTIL_H_
