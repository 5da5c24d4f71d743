// Mutex-sharded LRU cache of rewrite-plan decisions, stamped with the
// planning context they were made in.
//
// A plan is the outcome of parse -> QGM build -> match search, and it stays
// right for as long as what the search read stays the same: the catalog
// generation and, for every AST over one of the query's base tables, that
// AST's state at the query's pinned snapshot (PlanContext). Appends that
// leave every AST fresh change neither, so they keep the plan. The key is
// the query's template (sql::Templatize: its literals lifted into slots)
// plus the planning options, so queries that differ only in their constants
// share it. A plan whose search read no slot literal's value serves every
// binding of the template; a literal-sensitive one serves only the literals
// it was made with. One key holds up to kMaxVariants plans side by side, one
// per context (and per binding, for literal-sensitive plans): a query that
// alternates between fresh ASTs and ASTs one deferred append behind keeps
// both its rewrite and its compensated plan warm. A lookup hits only when
// the caller's current context equals an entry's; a key found only under
// other contexts counts as an invalidation, and the cause names the first
// component that differs. Entries are immutable and shared: a hit copies a
// pointer, and the caller binds the query's literals into a copy of only the
// graph it runs.
//
// Keys hash across kNumShards independent partitions, each with its own
// mutex, map, LRU list and counters, so unrelated queries proceed in
// parallel (plan_cache.shard<i>.contention counts lock acquisitions that had
// to block). Database computes contexts; the cache only compares them.
#ifndef SUMTAB_SUMTAB_PLAN_CACHE_H_
#define SUMTAB_SUMTAB_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/value.h"
#include "matching/compensation.h"
#include "qgm/qgm.h"
#include "qgm/qgm_to_sql.h"

namespace sumtab {

/// One AST's state at a query's pinned snapshot, as far as planning sees it
/// (DESIGN.md §8): which of the search's branches the AST takes.
struct AstPlanState {
  enum class Kind : uint8_t {
    kFresh,        // no lag: rewrites read it as stored
    kTolerated,    // lags `epochs` in all, within max_staleness or stale reads
    kLagging,      // lags `epochs` retained appends to `table`: compensable
    kUnusable,     // lags behind `table`, neither tolerated nor compensable
    kQuarantined,  // disabled until its next refresh
  };
  std::string name;
  Kind kind = Kind::kFresh;
  /// The base table it lags behind (the first by name when several do);
  /// empty for kFresh and kQuarantined.
  std::string table;
  int64_t epochs = 0;  // kTolerated and kLagging only
  bool operator==(const AstPlanState&) const = default;
};

/// Everything a cached plan depends on besides its key.
struct PlanContext {
  int64_t generation = 0;
  /// Every AST that reads one of the query's base tables, in registry order;
  /// empty when rewriting is off.
  std::vector<AstPlanState> asts;
  bool operator==(const PlanContext&) const = default;
};

/// "" when the contexts are equal; else the cause naming the first component
/// that differs, ASTs before the generation: "delta:<table>" when either side
/// has the AST lagging on `table` (the lag was absorbed or moved),
/// "ast:<name>" when the AST appeared, went or entered or left quarantine,
/// "epoch:<table>" for any other staleness change, and "generation".
std::string ContextChange(const PlanContext& cached,
                          const PlanContext& current);

/// One plan record (DESIGN.md §8): the outcome of parse -> QGM build ->
/// match search -> SQL rendering for one query at one snapshot. Query()
/// executes it and caches it, EXPLAIN REWRITE renders it. Immutable once
/// built, so a cache hit shares it.
struct CachedPlan {
  /// The query's base-table form: what a plan that fails to execute falls
  /// back to.
  std::shared_ptr<const qgm::Graph> base;
  /// The graph Query() executes: the rewrite, or `base`. Null when
  /// `compensation` answers.
  std::shared_ptr<const qgm::Graph> plan;
  bool used_summary_table = false;
  std::string summary_table;
  std::string rewritten_sql;
  /// rewritten_sql cut at its slot literals; empty for a literal-sensitive
  /// entry, which is never bound.
  qgm::SlottedSql rewritten_sql_slots;
  int candidate_rewrites = 0;
  std::vector<std::string> used_asts;
  /// Set when lagging ASTs answer through a compensation plan. Its legs
  /// name their stale tables, not epoch ranges: a leg's range is its AST's
  /// lag at execution, so one entry serves every snapshot in which the ASTs
  /// lag on those tables by the same numbers of epochs.
  std::shared_ptr<const matching::CompensationPlan> compensation;
  /// Lower-cased table of every base-table scan in the query's base-table
  /// form, a table scanned twice listed twice. They select the ASTs of the
  /// planning context, and their rows at the pinned snapshot are the workload
  /// log's direct-cost figure, summed afresh on every hit.
  std::vector<std::string> leaf_tables;
  PlanContext context;
  /// The template's literals the plan was made with (its first sighting),
  /// by slot; the graphs' slot literals hold them.
  std::vector<Value> params;
  /// Empty when no step of the search read a slot literal's value: the plan
  /// is right for every binding, and a hit with other literals binds them.
  /// Else the first decision that read one (expr::SlotReadScope), and the
  /// plan serves only `params`.
  std::string literal_read;
};

class ShardedPlanCache {
 public:
  static constexpr int kNumShards = 8;
  /// Plans kept per key, one per planning context; the least recently
  /// served goes beyond it.
  static constexpr size_t kMaxVariants = 4;

  using PlanPtr = std::shared_ptr<const CachedPlan>;

  /// `capacity` is the total key budget, split evenly across shards;
  /// least-recently-used keys are evicted per shard beyond it.
  explicit ShardedPlanCache(size_t capacity);
  ShardedPlanCache(const ShardedPlanCache&) = delete;
  ShardedPlanCache& operator=(const ShardedPlanCache&) = delete;

  /// kLiteralSensitive: the key holds a plan for the current context, but a
  /// literal-sensitive one made with other literals; it counts as a miss.
  enum class Lookup { kHit, kMiss, kInvalidated, kLiteralSensitive };

  /// The caller's current planning context for a query over `leaf_tables`.
  /// Called at most once per lookup, with the shard lock held, so it must
  /// not re-enter the cache.
  using ContextFn =
      std::function<PlanContext(const std::vector<std::string>& leaf_tables)>;

  /// Serves the plan for `key` whose context equals `current`'s and that
  /// holds for `params`, the query's literals. On kHit, `*out` shares it and
  /// the key moves to the front of its shard's LRU. On kInvalidated,
  /// `*detail` (if non-null) receives ContextChange against the most
  /// recently served plan, and plans from older catalog generations, which
  /// can never be served again, are dropped. On kLiteralSensitive it
  /// receives the decision that made that plan literal-sensitive.
  Lookup Find(const std::string& key, const std::vector<Value>& params,
              const ContextFn& current, PlanPtr* out,
              std::string* detail = nullptr);

  /// Adds `entry` under `key`, replacing any plan from another catalog
  /// generation and the plans for the same context that `entry` covers (all
  /// of them, or the literal-sensitive ones with its literals), and evicting
  /// beyond kMaxVariants per key and the shard's key capacity.
  void Insert(const std::string& key, PlanPtr entry);

  /// Drops `entry` from `key` (a cached plan that failed to execute).
  void Forget(const std::string& key, const CachedPlan* entry);

  /// Aggregated counters across shards (Database::Stats()); `entries`
  /// counts plans, not keys, and `literal_sensitive` the plans among them
  /// that serve only their own literals.
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t invalidations = 0;
    int64_t entries = 0;
    int64_t literal_sensitive = 0;
  };
  Stats TotalStats() const;

 private:
  struct Node {
    std::vector<PlanPtr> variants;  // front = most recently served
    std::list<std::string>::iterator lru_pos;
  };

  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, Node> entries;
    std::list<std::string> lru;  // front = most recent
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t invalidations = 0;
    // Registered once per shard at construction; increments are lock-free.
    Counter* hits_counter = nullptr;
    Counter* misses_counter = nullptr;
    Counter* invalidations_counter = nullptr;
    Counter* contention_counter = nullptr;
  };

  Shard& ShardFor(const std::string& key);

  /// Locks a shard, counting acquisitions that had to block.
  static std::unique_lock<std::mutex> Lock(const Shard& shard);

  /// Removes `it`'s key from `shard` entirely.
  static void Erase(Shard& shard, std::map<std::string, Node>::iterator it);

  size_t shard_capacity_;
  Shard shards_[kNumShards];
};

}  // namespace sumtab

#endif  // SUMTAB_SUMTAB_PLAN_CACHE_H_
