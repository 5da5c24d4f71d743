// Workload log: the telemetry the advisor mines (DESIGN.md, "Workload
// advisor"). Database::QuerySelect records every executed SELECT here —
// normalized SQL, execution count, the leaf rows a base-table plan scans,
// whether the query rewrote (and through which ASTs) or why it did not —
// and Database::Append records per-table append rates, so the advisor can
// charge candidates their incremental-maintenance cost. Bounded (eviction
// drops the least-executed entry) and thread-safe (one mutex; entries are
// tiny and recording is far off the execution hot path). Snapshots travel
// in checkpoints (SectionType::kWorkloadLog) so a restart keeps the
// observed workload.
#ifndef SUMTAB_SUMTAB_WORKLOAD_LOG_H_
#define SUMTAB_SUMTAB_WORKLOAD_LOG_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace sumtab {

/// Accumulated observations for one normalized query text.
struct WorkloadQueryStats {
  std::string normalized_sql;
  int64_t executions = 0;
  int64_t rewritten = 0;    // executions answered through an AST
  int64_t compensated = 0;  // subset of `rewritten` served via delta legs
  /// Leaf rows a base-table plan scans for this query (last observed value;
  /// tracks table growth).
  int64_t base_leaf_rows = 0;
  /// Sum of base_leaf_rows over all executions — the workload's direct cost.
  int64_t total_leaf_rows = 0;
  /// Why the last execution did NOT rewrite: "" (it did), "no_match" (no AST
  /// offered a rewrite), or "costlier_than_base" (offers existed but lost on
  /// cost).
  std::string last_reject;
  /// AST name -> times this query's plan spliced it in.
  std::map<std::string, int64_t> ast_hits;
};

/// Observed append traffic for one base table (feeds the advisor's
/// maintenance-cost model: incremental merges cost ~rows, recomputes cost
/// ~batches x base size).
struct WorkloadAppendStats {
  int64_t batches = 0;
  int64_t rows = 0;
};

/// Point-in-time copy of the whole log. `queries` is sorted by
/// normalized_sql so consumers (advisor, checkpoint encoding) iterate in a
/// deterministic order.
struct WorkloadSnapshot {
  std::vector<WorkloadQueryStats> queries;
  std::map<std::string, WorkloadAppendStats> appends;
  /// Entries dropped by the capacity bound since the last Clear().
  int64_t evicted = 0;
};

class WorkloadLog {
 public:
  /// Distinct normalized query texts retained. Beyond it, recording a NEW
  /// text evicts the least-executed entry (ties: lexicographically last), so
  /// the frequent queries the advisor cares about survive a scan of
  /// one-off statements.
  static constexpr size_t kDefaultCapacity = 512;

  explicit WorkloadLog(size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}
  WorkloadLog(const WorkloadLog&) = delete;
  WorkloadLog& operator=(const WorkloadLog&) = delete;

  /// One executed query, as QuerySelect saw it.
  struct QueryObservation {
    std::string normalized_sql;
    int64_t base_leaf_rows = 0;
    bool rewritten = false;
    bool compensated = false;
    std::string reject;  // "" when rewritten
    std::vector<std::string> used_asts;
  };

  void RecordQuery(const QueryObservation& obs);
  void RecordAppend(const std::string& table, int64_t rows);

  WorkloadSnapshot Snapshot() const;
  /// Replaces the whole log with `snap` (checkpoint recovery).
  void Restore(const WorkloadSnapshot& snap);
  void Clear();

 private:
  /// Eviction order: fewest executions first, then the lexicographically
  /// LAST text, so the victim is begin(). Texts point at queries_' keys.
  struct EvictionOrder {
    bool operator()(const std::pair<int64_t, const std::string*>& a,
                    const std::pair<int64_t, const std::string*>& b) const {
      return a.first != b.first ? a.first < b.first : *a.second > *b.second;
    }
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::map<std::string, WorkloadQueryStats> queries_;
  /// One (executions, text) per entry of queries_, kept in step with it.
  std::set<std::pair<int64_t, const std::string*>, EvictionOrder> by_use_;
  std::map<std::string, WorkloadAppendStats> appends_;
  int64_t evicted_ = 0;
};

}  // namespace sumtab

#endif  // SUMTAB_SUMTAB_WORKLOAD_LOG_H_
