// Microbenchmark for the dictionary-encoded kernels, below the SQL layer:
// the same hash-join probe and grouped aggregation measured twice — once
// over raw std::string keys in a std::unordered_map (a string hash and
// compare per row), and once over int32 dictionary codes through
// kernels::Int64JoinTable and a flat code-indexed accumulator. Both sides produce the same answers (checked);
// the delta is pure key-representation cost: no per-row string hashing, no
// allocation, branch-light int loops the compiler can vectorize.
//
// Usage: bench_join_kernels [--quick]
//   --quick   100k probe rows only (CI smoke); default adds a 1M-row pass.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/column_vector.h"
#include "engine/kernels.h"

namespace sumtab {
namespace {

using engine::StringDictionary;
using engine::kernels::Int64JoinTable;

constexpr int kDistinctKeys = 1000;
constexpr int kReps = 3;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct Workload {
  std::vector<std::string> build_keys;   // kDistinctKeys distinct strings
  std::vector<std::string> probe_strs;   // n rows, drawn from build_keys
  std::vector<int32_t> probe_codes;      // same rows as dictionary codes
  std::shared_ptr<StringDictionary> dict;
};

Workload MakeWorkload(int64_t n) {
  Workload w;
  w.dict = std::make_shared<StringDictionary>();
  w.build_keys.reserve(kDistinctKeys);
  for (int i = 0; i < kDistinctKeys; ++i) {
    w.build_keys.push_back("key_" + std::to_string(i * 7919 % 100000));
    w.dict->Intern(w.build_keys.back());
  }
  std::mt19937_64 rng(42);
  w.probe_strs.reserve(n);
  w.probe_codes.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    int k = static_cast<int>(rng() % kDistinctKeys);
    w.probe_strs.push_back(w.build_keys[k]);
    w.probe_codes.push_back(w.dict->Find(w.build_keys[k]));
  }
  return w;
}

/// Hash-join probe, string keys: an unordered_map from the key string to the
/// build row, one string hash + compare per probe.
int64_t ProbeStrings(const Workload& w) {
  std::unordered_map<std::string, int64_t> table;
  table.reserve(w.build_keys.size());
  for (size_t i = 0; i < w.build_keys.size(); ++i) {
    table.emplace(w.build_keys[i], static_cast<int64_t>(i));
  }
  int64_t matches = 0;
  for (const std::string& s : w.probe_strs) {
    auto it = table.find(s);
    if (it != table.end()) matches += it->second + 1;
  }
  return matches;
}

/// Hash-join probe, dictionary codes: flat linear-probing table keyed by the
/// int32 code — the kernel the vectorized executor runs.
int64_t ProbeCodes(const Workload& w) {
  Int64JoinTable table(static_cast<int64_t>(w.build_keys.size()));
  for (int64_t i = static_cast<int64_t>(w.build_keys.size()) - 1; i >= 0;
       --i) {
    table.Insert(w.dict->Find(w.build_keys[static_cast<size_t>(i)]), i);
  }
  int64_t matches = 0;
  for (int32_t code : w.probe_codes) {
    int64_t row = table.Probe(code);
    if (row >= 0) matches += row + 1;
  }
  return matches;
}

/// Grouped SUM, string keys: unordered_map<string, sum> — one string hash
/// per input row.
int64_t GroupStrings(const Workload& w) {
  std::unordered_map<std::string, int64_t> groups;
  groups.reserve(w.build_keys.size());
  int64_t v = 0;
  for (const std::string& s : w.probe_strs) {
    groups[s] += ++v;
  }
  int64_t total = 0;
  for (const auto& [key, sum] : groups) {
    total += sum + static_cast<int64_t>(key.size());
  }
  return total;
}

/// Grouped SUM, dictionary codes: the dense code space doubles as the group
/// index — a flat array, no hashing at all.
int64_t GroupCodes(const Workload& w) {
  std::vector<int64_t> sums(w.dict->size(), 0);
  int64_t v = 0;
  for (int32_t code : w.probe_codes) {
    sums[code] += ++v;
  }
  int64_t total = 0;
  for (size_t code = 0; code < sums.size(); ++code) {
    if (sums[code] == 0) continue;
    const std::string& key = w.dict->At(static_cast<int32_t>(code));
    total += sums[code] + static_cast<int64_t>(key.size());
  }
  return total;
}

template <typename Fn>
double BestOf(Fn fn, int64_t* checksum) {
  double best = 1e18;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    int64_t got = fn();
    double ms = MsSince(start);
    if (ms < best) best = ms;
    if (*checksum == 0) {
      *checksum = got;
    } else if (*checksum != got) {
      std::fprintf(stderr, "BENCH FAILURE: nondeterministic checksum\n");
      std::exit(1);
    }
  }
  return best;
}

void RunSize(int64_t n) {
  std::printf("\n-- %lld probe rows, %d distinct keys --\n",
              static_cast<long long>(n), kDistinctKeys);
  Workload w = MakeWorkload(n);
  struct Pair {
    const char* label;
    int64_t (*by_string)(const Workload&);
    int64_t (*by_code)(const Workload&);
  };
  const Pair pairs[] = {{"hash-join probe", ProbeStrings, ProbeCodes},
                        {"grouped sum", GroupStrings, GroupCodes}};
  for (const Pair& p : pairs) {
    int64_t check_s = 0, check_c = 0;
    double string_ms = BestOf([&] { return p.by_string(w); }, &check_s);
    double code_ms = BestOf([&] { return p.by_code(w); }, &check_c);
    if (check_s != check_c) {
      std::fprintf(stderr, "BENCH FAILURE: %s answers diverge (%lld vs %lld)\n",
                   p.label, static_cast<long long>(check_s),
                   static_cast<long long>(check_c));
      std::exit(1);
    }
    std::printf("%-18s string %8.2f ms | codes %8.2f ms | %5.2fx\n", p.label,
                string_ms, code_ms, code_ms > 0 ? string_ms / code_ms : 0.0);
  }
}

}  // namespace
}  // namespace sumtab

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  std::printf("dictionary kernels: string keys vs int32 codes\n");
  sumtab::RunSize(100000);
  if (!quick) sumtab::RunSize(1000000);
  return 0;
}
