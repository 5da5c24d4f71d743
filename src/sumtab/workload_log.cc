#include "sumtab/workload_log.h"

namespace sumtab {

void WorkloadLog::RecordQuery(const QueryObservation& obs) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(obs.normalized_sql);
  if (it == queries_.end()) {
    if (capacity_ > 0 && queries_.size() >= capacity_) {
      // Evict the least-executed entry; among ties the lexicographically
      // LAST key goes, so eviction is deterministic and the retained set is
      // independent of arrival order.
      auto victim = queries_.find(*by_use_.begin()->second);
      by_use_.erase(by_use_.begin());
      queries_.erase(victim);
      ++evicted_;
    }
    WorkloadQueryStats fresh;
    fresh.normalized_sql = obs.normalized_sql;
    it = queries_.emplace(obs.normalized_sql, std::move(fresh)).first;
  } else {
    by_use_.erase({it->second.executions, &it->first});
  }
  WorkloadQueryStats& stats = it->second;
  ++stats.executions;
  by_use_.insert({stats.executions, &it->first});
  stats.base_leaf_rows = obs.base_leaf_rows;
  stats.total_leaf_rows += obs.base_leaf_rows;
  if (obs.rewritten) {
    ++stats.rewritten;
    if (obs.compensated) ++stats.compensated;
    stats.last_reject.clear();
    for (const std::string& ast : obs.used_asts) ++stats.ast_hits[ast];
  } else {
    stats.last_reject = obs.reject;
  }
}

void WorkloadLog::RecordAppend(const std::string& table, int64_t rows) {
  std::lock_guard<std::mutex> lock(mu_);
  WorkloadAppendStats& stats = appends_[table];
  ++stats.batches;
  stats.rows += rows;
}

WorkloadSnapshot WorkloadLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  WorkloadSnapshot snap;
  snap.queries.reserve(queries_.size());
  for (const auto& [key, stats] : queries_) snap.queries.push_back(stats);
  snap.appends = appends_;
  snap.evicted = evicted_;
  return snap;
}

void WorkloadLog::Restore(const WorkloadSnapshot& snap) {
  std::lock_guard<std::mutex> lock(mu_);
  queries_.clear();
  appends_ = snap.appends;
  evicted_ = snap.evicted;
  by_use_.clear();
  for (const WorkloadQueryStats& stats : snap.queries) {
    queries_[stats.normalized_sql] = stats;
  }
  for (const auto& [key, stats] : queries_) {
    by_use_.insert({stats.executions, &key});
  }
}

void WorkloadLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  queries_.clear();
  by_use_.clear();
  appends_.clear();
  evicted_ = 0;
}

}  // namespace sumtab
