#include "sumtab/plan_cache.h"

#include <algorithm>

namespace sumtab {

std::string ContextChange(const PlanContext& cached,
                          const PlanContext& current) {
  using Kind = AstPlanState::Kind;
  const size_t n = std::max(cached.asts.size(), current.asts.size());
  for (size_t i = 0; i < n; ++i) {
    if (i >= cached.asts.size()) return "ast:" + current.asts[i].name;
    if (i >= current.asts.size()) return "ast:" + cached.asts[i].name;
    const AstPlanState& was = cached.asts[i];
    const AstPlanState& now = current.asts[i];
    if (was.name != now.name) return "ast:" + was.name;
    if (was == now) continue;
    if (was.kind == Kind::kLagging) return "delta:" + was.table;
    if (now.kind == Kind::kLagging) return "delta:" + now.table;
    if (was.kind == Kind::kQuarantined || now.kind == Kind::kQuarantined) {
      return "ast:" + was.name;
    }
    return "epoch:" + (was.table.empty() ? now.table : was.table);
  }
  return cached.generation != current.generation ? "generation" : "";
}

ShardedPlanCache::ShardedPlanCache(size_t capacity) {
  shard_capacity_ = capacity / kNumShards;
  if (shard_capacity_ == 0) shard_capacity_ = 1;
  MetricsRegistry& registry = MetricsRegistry::Global();
  for (int i = 0; i < kNumShards; ++i) {
    const std::string prefix = "plan_cache.shard" + std::to_string(i);
    shards_[i].hits_counter = registry.counter(prefix + ".hits");
    shards_[i].misses_counter = registry.counter(prefix + ".misses");
    shards_[i].invalidations_counter =
        registry.counter(prefix + ".invalidations");
    shards_[i].contention_counter = registry.counter(prefix + ".contention");
  }
}

ShardedPlanCache::Shard& ShardedPlanCache::ShardFor(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % kNumShards];
}

std::unique_lock<std::mutex> ShardedPlanCache::Lock(const Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Another query is in this shard right now: count it, then block. The
    // counter is how the bench proves sharding moved contention off the
    // warm path.
    shard.contention_counter->Increment();
    lock.lock();
  }
  return lock;
}

void ShardedPlanCache::Erase(Shard& shard,
                             std::map<std::string, Node>::iterator it) {
  shard.lru.erase(it->second.lru_pos);
  shard.entries.erase(it);
}

namespace {

/// True when `plan` answers a query with literals `params`.
bool Serves(const CachedPlan& plan, const std::vector<Value>& params) {
  return plan.literal_read.empty() || plan.params == params;
}

}  // namespace

ShardedPlanCache::Lookup ShardedPlanCache::Find(
    const std::string& key, const std::vector<Value>& params,
    const ContextFn& current, PlanPtr* out, std::string* detail) {
  static Counter* hits = MetricsRegistry::Global().counter("plan_cache.hits");
  static Counter* misses =
      MetricsRegistry::Global().counter("plan_cache.misses");
  static Counter* invalidations =
      MetricsRegistry::Global().counter("plan_cache.invalidations");
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lock = Lock(shard);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    ++shard.misses;
    shard.misses_counter->Increment();
    misses->Increment();
    return Lookup::kMiss;
  }
  // Every plan of a key comes from one catalog generation (Insert keeps it
  // so), hence from one parse: their leaf tables agree.
  std::vector<PlanPtr>& variants = it->second.variants;
  const PlanContext now = current(variants.front()->leaf_tables);
  auto match = std::find_if(
      variants.begin(), variants.end(), [&now, &params](const PlanPtr& plan) {
        return plan->context == now && Serves(*plan, params);
      });
  if (match != variants.end()) {
    ++shard.hits;
    shard.hits_counter->Increment();
    hits->Increment();
    std::rotate(variants.begin(), match, match + 1);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    *out = variants.front();
    return Lookup::kHit;
  }
  auto other_literals = std::find_if(
      variants.begin(), variants.end(),
      [&now](const PlanPtr& plan) { return plan->context == now; });
  if (other_literals != variants.end()) {
    ++shard.misses;
    shard.misses_counter->Increment();
    misses->Increment();
    if (detail != nullptr) *detail = (*other_literals)->literal_read;
    return Lookup::kLiteralSensitive;
  }
  ++shard.invalidations;
  shard.invalidations_counter->Increment();
  invalidations->Increment();
  if (detail != nullptr) {
    *detail = ContextChange(variants.front()->context, now);
  }
  // Generations only grow: plans from an older one are dead for good.
  if (variants.front()->context.generation != now.generation) {
    Erase(shard, it);
  }
  return Lookup::kInvalidated;
}

void ShardedPlanCache::Insert(const std::string& key, PlanPtr entry) {
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lock = Lock(shard);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    shard.lru.push_front(key);
    Node node;
    node.lru_pos = shard.lru.begin();
    it = shard.entries.emplace(key, std::move(node)).first;
  } else {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
  }
  std::vector<PlanPtr>& variants = it->second.variants;
  std::erase_if(variants, [&entry](const PlanPtr& plan) {
    return plan->context.generation != entry->context.generation ||
           (plan->context == entry->context &&
            Serves(*entry, plan->params));
  });
  variants.insert(variants.begin(), std::move(entry));
  if (variants.size() > kMaxVariants) variants.resize(kMaxVariants);
  while (shard.entries.size() > shard_capacity_) {
    shard.entries.erase(shard.lru.back());
    shard.lru.pop_back();
  }
}

void ShardedPlanCache::Forget(const std::string& key, const CachedPlan* entry) {
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lock = Lock(shard);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return;
  std::erase_if(it->second.variants, [entry](const PlanPtr& plan) {
    return plan.get() == entry;
  });
  if (it->second.variants.empty()) Erase(shard, it);
}

ShardedPlanCache::Stats ShardedPlanCache::TotalStats() const {
  Stats stats;
  for (const Shard& shard : shards_) {
    std::unique_lock<std::mutex> lock = Lock(shard);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.invalidations += shard.invalidations;
    for (const auto& [key, node] : shard.entries) {
      stats.entries += static_cast<int64_t>(node.variants.size());
      for (const PlanPtr& plan : node.variants) {
        stats.literal_sensitive += plan->literal_read.empty() ? 0 : 1;
      }
    }
  }
  return stats;
}

}  // namespace sumtab
