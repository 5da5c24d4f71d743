#include "engine/aggregator.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <unordered_set>

#include "common/thread_pool.h"
#include "engine/kernels.h"

namespace sumtab {
namespace engine {

namespace {

using expr::AggFunc;

template <typename T>
void Widen(const std::vector<T>& src, EncodedKey* out) {
  out->scratch.assign(src.begin(), src.end());
  out->values = out->scratch.data();
}

/// A key over W widened code columns: equal codes and NULL flags
/// on every column <=> equal Values (a NULL slot's code is the column's
/// zero placeholder).
template <int W>
struct CodeKey {
  const int64_t* values[W];
  const uint8_t* nulls[W];

  uint64_t Hash(int64_t i) const {
    int64_t v[W];
    uint8_t null_mask = 0;
    for (int k = 0; k < W; ++k) {
      v[k] = values[k][i];
      null_mask |= static_cast<uint8_t>(nulls[k][i] << k);
    }
    return kernels::MixKey(v, W, null_mask);
  }
  bool Same(int64_t i, int64_t j) const {
    bool same = true;
    for (int k = 0; k < W; ++k) {
      same &= (values[k][i] == values[k][j]) & (nulls[k][i] == nulls[k][j]);
    }
    return same;
  }
};

/// Any other key (doubles, raw strings, variants, more than
/// kMaxEncodedKeyCols columns): Value equality and Value::Hash, so -0.0
/// meets 0.0 and Int(3) meets Double(3.0).
struct ValueKey {
  std::vector<const ColumnVector*> cols;

  uint64_t Hash(int64_t i) const {
    uint64_t h = 0;
    for (const ColumnVector* c : cols) {
      h = kernels::Mix64(h ^ c->ValueAt(i).Hash());
    }
    return h;
  }
  bool Same(int64_t i, int64_t j) const {
    for (const ColumnVector* c : cols) {
      if (!(c->ValueAt(i) == c->ValueAt(j))) return false;
    }
    return true;
  }
};

/// The partition of a key hash, from bits that are independent of the
/// high bits a GroupIdTable slot is picked by.
uint16_t PartitionOf(uint64_t hash, int lanes) {
  const uint64_t low = kernels::Mix64(hash) & 0xffffffffULL;
  return static_cast<uint16_t>((low * static_cast<uint64_t>(lanes)) >> 32);
}

/// Assigns ids to the partition's rows, hash_of(k) being partition row k's
/// key hash.
template <typename Key, typename HashOf>
void AssignIds(const Key& key, const HashOf& hash_of, Partition* part) {
  kernels::GroupIdTable table;
  // Built in locals and moved in: partitions side by side would share the
  // cache lines of their vectors' headers.
  std::vector<int32_t> gid(part->count);
  std::vector<int64_t> first_row;
  ForEachRow(*part, [&](int64_t k, int64_t i) {
    const int32_t g = table.FindOrInsert(hash_of(k, i), [&](int32_t id) {
      return key.Same(i, first_row[id]);
    });
    if (g == static_cast<int32_t>(first_row.size())) first_row.push_back(i);
    gid[k] = g;
  });
  part->gid = std::move(gid);
  part->first_row = std::move(first_row);
}

/// Pass 1 over the n input rows `sel` lists (column rows 0..n-1 when null).
template <typename Key>
std::vector<Partition> AssignGroupIds(const Key& key, const int64_t* sel,
                                      int64_t n, int lanes) {
  std::vector<Partition> parts(lanes);
  if (lanes <= 1) {
    parts[0].rows = sel;
    parts[0].count = n;
    AssignIds(
        key, [&key](int64_t, int64_t i) { return key.Hash(i); }, &parts[0]);
    return parts;
  }
  // Hash every row once; the hash picks the partition and the table slot.
  std::vector<uint64_t> hashes(n);
  std::vector<uint16_t> partition(n);
  ParallelFor(n, lanes, [&](int, int64_t begin, int64_t end) {
    for (int64_t k = begin; k < end; ++k) {
      hashes[k] = key.Hash(sel != nullptr ? sel[k] : k);
      partition[k] = PartitionOf(hashes[k], lanes);
    }
  }, kMinParallelRowsPerLane);
  // Bucket the rows in one counting pass: count each partition's rows, then
  // scatter rows and hashes in input order.
  std::vector<int64_t> fill(lanes, 0);
  for (int64_t k = 0; k < n; ++k) ++fill[partition[k]];
  std::vector<std::vector<uint64_t>> part_hashes(lanes);
  for (int p = 0; p < lanes; ++p) {
    parts[p].own_rows.resize(fill[p]);
    part_hashes[p].resize(fill[p]);
    fill[p] = 0;
  }
  for (int64_t k = 0; k < n; ++k) {
    const uint16_t p = partition[k];
    const int64_t at = fill[p]++;
    parts[p].own_rows[at] = sel != nullptr ? sel[k] : k;
    part_hashes[p][at] = hashes[k];
  }
  ParallelFor(lanes, lanes, [&](int, int64_t begin, int64_t end) {
    for (int64_t p = begin; p < end; ++p) {
      Partition& part = parts[p];
      part.rows = part.own_rows.data();
      part.count = static_cast<int64_t>(part.own_rows.size());
      const uint64_t* hash = part_hashes[p].data();
      AssignIds(
          key, [hash](int64_t k, int64_t) { return hash[k]; }, &part);
    }
  }, /*min_chunk=*/1);
  return parts;
}

template <int W>
std::vector<Partition> AssignCodeIds(
    const std::vector<const EncodedKey*>& keys, const int64_t* sel, int64_t n,
    int lanes) {
  CodeKey<W> codes;
  for (int k = 0; k < W; ++k) {
    codes.values[k] = keys[k]->values;
    codes.nulls[k] = keys[k]->nulls;
  }
  return AssignGroupIds(codes, sel, n, lanes);
}

/// How one aggregate reads its argument.
enum class Op {
  kCountStar,
  kCount,
  kSumInt,        // SUM/AVG over an int column
  kSumDouble,     // ... over a double column
  kSumValue,      // ... over anything else: the sticky int->double rule
  kMinMaxInt,     // MIN/MAX over int/date/bool, widened to int64
  kMinMaxDouble,  // ... over a double column (`<` orders like Compare)
  kMinMaxRow,     // ... over strings/variants: the best row, by CompareAt
  kDistinct,
};

struct AggPlan {
  Op op = Op::kCountStar;
  bool is_min = false;
  const ColumnVector* arg = nullptr;
  EncodedKey widened;  // kMinMaxInt's argument
};

AggPlan PlanAggregate(const AggSpec& spec, const BatchView& input) {
  using Tag = ColumnVector::Tag;
  AggPlan plan;
  if (spec.star) return plan;
  plan.arg = input.columns[spec.arg_col];
  const Tag tag = plan.arg->tag();
  const bool extreme = spec.func == AggFunc::kMin || spec.func == AggFunc::kMax;
  if (spec.distinct && !extreme) {  // DISTINCT never moves a MIN or MAX
    plan.op = Op::kDistinct;
  } else if (spec.func == AggFunc::kCount) {
    plan.op = Op::kCount;
  } else if (spec.func == AggFunc::kSum || spec.func == AggFunc::kAvg) {
    plan.op = tag == Tag::kInt      ? Op::kSumInt
              : tag == Tag::kDouble ? Op::kSumDouble
                                    : Op::kSumValue;
  } else {
    plan.is_min = spec.func == AggFunc::kMin;
    if (tag == Tag::kDouble) {
      plan.op = Op::kMinMaxDouble;
    } else if (tag == Tag::kInt || tag == Tag::kDate || tag == Tag::kBool) {
      plan.op = Op::kMinMaxInt;
      EncodeKeyColumn(*plan.arg, &plan.widened);
    } else {
      plan.op = Op::kMinMaxRow;
    }
  }
  return plan;
}

/// Pass 2's typed accumulators for one aggregate: struct-of-arrays indexed
/// by group id; each Op reads the few arrays it needs.
struct AggAccum {
  std::vector<int64_t> count;       // rows, or non-NULL arguments
  std::vector<int64_t> ints;        // SUM's int part; int extreme; best row
  std::vector<double> doubles;      // SUM's double part; double extreme
  std::vector<uint8_t> saw_double;  // kSumValue: the SUM went double
  std::vector<std::unordered_set<Value, ValueHash>> distinct;

  void Resize(size_t groups, Op op) {
    count.resize(groups);
    ints.resize(groups);
    doubles.resize(groups);
    saw_double.resize(groups);
    if (op == Op::kDistinct) distinct.resize(groups);
  }

  /// Appends `part`'s groups after this one's.
  void Append(AggAccum&& part) {
    if (count.empty()) {
      *this = std::move(part);
      return;
    }
    count.insert(count.end(), part.count.begin(), part.count.end());
    ints.insert(ints.end(), part.ints.begin(), part.ints.end());
    doubles.insert(doubles.end(), part.doubles.begin(), part.doubles.end());
    saw_double.insert(saw_double.end(), part.saw_double.begin(),
                      part.saw_double.end());
    std::move(part.distinct.begin(), part.distinct.end(),
              std::back_inserter(distinct));
  }
};

/// The global group's COUNT and SUM over one partition, folded in locals
/// and added to group 0 once; false for any other op.
bool FoldGlobal(const AggPlan& plan, const Partition& part, AggAccum* acc) {
  const uint8_t* nulls = plan.arg != nullptr ? plan.arg->nulls().data()
                                             : nullptr;
  int64_t count = 0;
  switch (plan.op) {
    case Op::kCountStar:
      acc->count[0] += part.count;
      return true;
    case Op::kCount:
      ForEachRow(part, [&](int64_t, int64_t i) { count += nulls[i] == 0; });
      acc->count[0] += count;
      return true;
    case Op::kSumInt: {
      const int64_t* v = plan.arg->ints().data();
      int64_t sum = acc->ints[0];
      ForEachRow(part, [&](int64_t, int64_t i) {
        const bool valid = nulls[i] == 0;
        count += valid;
        sum += valid ? v[i] : 0;
      });
      acc->count[0] += count;
      acc->ints[0] = sum;
      return true;
    }
    case Op::kSumDouble: {
      const double* v = plan.arg->doubles().data();
      double sum = acc->doubles[0];
      ForEachRow(part, [&](int64_t, int64_t i) {
        if (nulls[i] != 0) return;  // adding 0.0 could turn -0.0 into 0.0
        ++count;
        sum += v[i];
      });
      acc->count[0] += count;
      acc->doubles[0] = sum;
      return true;
    }
    default:
      return false;
  }
}

/// Folds the partition's rows (input order) into their groups. MIN keeps
/// the first of equal minima and MAX the first of equal maxima, comparing
/// numerics widened to double exactly like Value::Compare.
void Accumulate(const AggPlan& plan, const Partition& part, AggAccum* acc) {
  const bool global = part.global;
  if (global && FoldGlobal(plan, part, acc)) return;
  const uint8_t* nulls = plan.arg != nullptr ? plan.arg->nulls().data()
                                             : nullptr;
  const int32_t* gid = part.gid.data();
  // fn(i, g) for every partition row i whose argument is not NULL.
  auto each = [&](const auto& fn) {
    ForEachRow(part, [&](int64_t k, int64_t i) {
      if (nulls[i] == 0) fn(i, global ? 0 : gid[k]);
    });
  };
  auto better = [min = plan.is_min](double v, double best) {
    return min ? v < best : best < v;
  };
  switch (plan.op) {
    case Op::kCountStar:
      ForEachRow(part, [&](int64_t k, int64_t) { ++acc->count[gid[k]]; });
      return;
    case Op::kCount:
      each([&](int64_t, int32_t g) { ++acc->count[g]; });
      return;
    case Op::kSumInt: {
      const int64_t* v = plan.arg->ints().data();
      each([&](int64_t i, int32_t g) {
        ++acc->count[g];
        acc->ints[g] += v[i];
      });
      return;
    }
    case Op::kSumDouble: {
      const double* v = plan.arg->doubles().data();
      each([&](int64_t i, int32_t g) {
        ++acc->count[g];
        acc->doubles[g] += v[i];
      });
      return;
    }
    case Op::kSumValue:
      each([&](int64_t i, int32_t g) {
        const Value v = plan.arg->ValueAt(i);
        ++acc->count[g];
        if (v.kind() == Value::Kind::kInt && acc->saw_double[g] == 0) {
          acc->ints[g] += v.AsInt();
          return;
        }
        if (acc->saw_double[g] == 0) {
          acc->doubles[g] = static_cast<double>(acc->ints[g]);
          acc->saw_double[g] = 1;
        }
        acc->doubles[g] += v.ToDouble();
      });
      return;
    case Op::kMinMaxInt: {
      const int64_t* v = plan.widened.values;
      each([&](int64_t i, int32_t g) {
        if (acc->count[g]++ == 0 || better(static_cast<double>(v[i]),
                                           static_cast<double>(acc->ints[g]))) {
          acc->ints[g] = v[i];
        }
      });
      return;
    }
    case Op::kMinMaxDouble: {
      const double* v = plan.arg->doubles().data();
      each([&](int64_t i, int32_t g) {
        if (acc->count[g]++ == 0 || better(v[i], acc->doubles[g])) {
          acc->doubles[g] = v[i];
        }
      });
      return;
    }
    case Op::kMinMaxRow:
      each([&](int64_t i, int32_t g) {
        int64_t& best = acc->ints[g];
        if (acc->count[g]++ == 0 ||
            (plan.is_min ? plan.arg->CompareAt(i, best) < 0
                         : plan.arg->CompareAt(best, i) < 0)) {
          best = i;
        }
      });
      return;
    case Op::kDistinct:
      each([&](int64_t i, int32_t g) {
        acc->distinct[g].insert(plan.arg->ValueAt(i));
      });
      return;
  }
}

/// A DISTINCT COUNT/SUM/AVG over one group's set of non-NULL arguments.
Value FinishDistinct(const AggSpec& spec,
                     const std::unordered_set<Value, ValueHash>& values) {
  if (spec.func == AggFunc::kCount) {
    return Value::Int(static_cast<int64_t>(values.size()));
  }
  if (values.empty()) return Value::Null();
  bool any_double = false;
  int64_t si = 0;
  double sd = 0.0;
  for (const Value& v : values) {
    if (v.kind() == Value::Kind::kInt) {
      si += v.AsInt();
    } else {
      any_double = true;
    }
    sd += v.ToDouble();
  }
  if (spec.func == AggFunc::kAvg) {
    return Value::Double(sd / static_cast<double>(values.size()));
  }
  return any_double ? Value::Double(sd) : Value::Int(si);
}

/// Group g's result for every op but kMinMaxRow (which gathers).
Value FinishGroup(const AggPlan& plan, const AggAccum& acc,
                  const AggSpec& spec, int64_t g) {
  using Tag = ColumnVector::Tag;
  if (plan.op == Op::kCountStar || plan.op == Op::kCount) {
    return Value::Int(acc.count[g]);
  }
  if (plan.op == Op::kDistinct) return FinishDistinct(spec, acc.distinct[g]);
  if (acc.count[g] == 0) return Value::Null();
  if (plan.op == Op::kMinMaxDouble) return Value::Double(acc.doubles[g]);
  if (plan.op == Op::kMinMaxInt) {
    const Tag tag = plan.arg->tag();
    return tag == Tag::kDate   ? Value::Date(static_cast<int32_t>(acc.ints[g]))
           : tag == Tag::kBool ? Value::Bool(acc.ints[g] != 0)
                               : Value::Int(acc.ints[g]);
  }
  const bool is_double = plan.op == Op::kSumDouble ||
                         (plan.op == Op::kSumValue && acc.saw_double[g] != 0);
  if (spec.func == AggFunc::kAvg) {
    return Value::Double(
        (is_double ? acc.doubles[g] : static_cast<double>(acc.ints[g])) /
        static_cast<double>(acc.count[g]));
  }
  return is_double ? Value::Double(acc.doubles[g]) : Value::Int(acc.ints[g]);
}

ColumnVector EmitAggregate(const AggPlan& plan, const AggAccum& acc,
                           const AggSpec& spec, int64_t groups) {
  if (plan.op == Op::kMinMaxRow) {
    std::vector<int64_t> best(groups);
    for (int64_t g = 0; g < groups; ++g) {
      best[g] = acc.count[g] > 0 ? acc.ints[g] : -1;
    }
    return ColumnVector::Gather(*plan.arg, best);
  }
  ColumnVector col;
  for (int64_t g = 0; g < groups; ++g) {
    col.AppendValue(FinishGroup(plan, acc, spec, g));
  }
  return col;
}

}  // namespace

StatusOr<Batch> AggregateBatch(
    const Batch& input, const std::vector<int>& grouping_cols,
    const std::vector<std::vector<int>>& grouping_sets,
    const std::vector<AggSpec>& aggs, int max_threads) {
  return AggregateBatch(BatchView::Of(input), grouping_cols, grouping_sets,
                        aggs, max_threads);
}

StatusOr<Batch> AggregateBatch(
    const BatchView& input, const std::vector<int>& grouping_cols,
    const std::vector<std::vector<int>>& grouping_sets,
    const std::vector<AggSpec>& aggs, int max_threads) {
  for (const AggSpec& spec : aggs) {
    if (!spec.star && spec.arg_col < 0) {
      return Status::Internal("aggregate argument column missing");
    }
  }
  const int64_t n = input.num_rows;
  const int64_t* sel = input.sel != nullptr ? input.sel->data() : nullptr;
  std::vector<EncodedKey> widened(grouping_cols.size());
  for (size_t k = 0; k < grouping_cols.size(); ++k) {
    EncodeKeyColumn(*input.columns[grouping_cols[k]], &widened[k]);
  }
  const size_t na = aggs.size();
  std::vector<AggPlan> plans;
  for (const AggSpec& spec : aggs) plans.push_back(PlanAggregate(spec, input));

  // Group ids run across the sets: set s owns [set_end[s-1], set_end[s]),
  // partitions in order inside it.
  std::vector<AggAccum> accums(na);
  std::vector<int64_t> first_row;
  std::vector<int64_t> set_end;
  for (const std::vector<int>& set : grouping_sets) {
    const int lanes =
        set.empty() ? 1 : ParallelLanes(n, max_threads, kMinParallelRowsPerLane);
    std::vector<const EncodedKey*> keys;
    for (int k : set) keys.push_back(&widened[k]);
    const std::vector<Partition> parts = GroupIdsOf(keys, sel, n, lanes);
    const int64_t np = static_cast<int64_t>(parts.size());
    // Each partition accumulates into its own arrays: no two lanes write
    // one cache line.
    std::vector<std::vector<AggAccum>> local(np, std::vector<AggAccum>(na));
    ParallelFor(np, np, [&](int, int64_t begin, int64_t end) {
      for (int64_t p = begin; p < end; ++p) {
        for (size_t a = 0; a < na; ++a) {
          local[p][a].Resize(parts[p].first_row.size(), plans[a].op);
          Accumulate(plans[a], parts[p], &local[p][a]);
        }
      }
    }, /*min_chunk=*/1);
    for (int64_t p = 0; p < np; ++p) {
      first_row.insert(first_row.end(), parts[p].first_row.begin(),
                       parts[p].first_row.end());
      for (size_t a = 0; a < na; ++a) accums[a].Append(std::move(local[p][a]));
    }
    set_end.push_back(static_cast<int64_t>(first_row.size()));
  }

  Batch out;
  out.num_rows = static_cast<int64_t>(first_row.size());
  for (size_t k = 0; k < grouping_cols.size(); ++k) {
    // Each group's first row, or -1 (NULL padding) where its set groups
    // column k out.
    std::vector<int64_t> rows(out.num_rows, -1);
    int64_t begin = 0;
    for (size_t s = 0; s < grouping_sets.size(); begin = set_end[s++]) {
      const std::vector<int>& set = grouping_sets[s];
      if (std::count(set.begin(), set.end(), static_cast<int>(k)) > 0) {
        std::copy(first_row.begin() + begin, first_row.begin() + set_end[s],
                  rows.begin() + begin);
      }
    }
    out.columns.push_back(
        ColumnVector::Gather(*input.columns[grouping_cols[k]], rows));
  }
  for (size_t a = 0; a < na; ++a) {
    out.columns.push_back(
        EmitAggregate(plans[a], accums[a], aggs[a], out.num_rows));
  }
  return out;
}

StatusOr<Batch> MergeGroups(const Batch& current, const Batch& delta,
                            const std::vector<int>& key_cols,
                            const std::vector<expr::AggColumn>& agg_cols,
                            int max_threads) {
  // AggregateBatch emits the keys, then the aggregates; source[c] is the
  // emitted column that returns to position c.
  std::vector<int> positions = key_cols;
  std::vector<AggSpec> aggs;
  for (const expr::AggColumn& agg : agg_cols) {
    positions.push_back(agg.col);
    aggs.push_back(AggSpec{
        agg.func == AggFunc::kCount ? AggFunc::kSum : agg.func, false, false,
        agg.col});
  }
  const int width = current.NumColumns();
  std::vector<int> source(width, -1);
  bool valid = delta.NumColumns() == width &&
               static_cast<int>(positions.size()) == width;
  for (int out = 0; valid && out < width; ++out) {
    const int pos = positions[out];
    valid = pos >= 0 && pos < width && source[pos] < 0;
    if (valid) source[pos] = out;
  }
  if (!valid) {
    return Status::Internal(
        "merge keys and aggregates must cover each column exactly once");
  }
  std::vector<int> set(key_cols.size());
  std::iota(set.begin(), set.end(), 0);
  SUMTAB_ASSIGN_OR_RETURN(
      Batch merged, AggregateBatch(ConcatBatches(current, delta), key_cols,
                                   {set}, aggs, max_threads));
  Batch out;
  out.num_rows = merged.num_rows;
  for (int c : source) out.columns.push_back(std::move(merged.columns[c]));
  return out;
}

std::vector<int64_t> DistinctRows(const Batch& input, int max_threads) {
  std::vector<EncodedKey> widened(input.columns.size());
  std::vector<const EncodedKey*> keys;
  for (size_t c = 0; c < widened.size(); ++c) {
    EncodeKeyColumn(input.columns[c], &widened[c]);
    keys.push_back(&widened[c]);
  }
  const int lanes =
      ParallelLanes(input.num_rows, max_threads, kMinParallelRowsPerLane);
  std::vector<int64_t> rows;
  for (const Partition& part :
       GroupIdsOf(keys, nullptr, input.num_rows, lanes)) {
    rows.insert(rows.end(), part.first_row.begin(), part.first_row.end());
  }
  // Each partition lists its first rows in input order; merge them.
  if (lanes > 1) std::sort(rows.begin(), rows.end());
  return rows;
}

void EncodeKeyColumn(const ColumnVector& col, EncodedKey* out) {
  out->col = &col;
  out->nulls = col.nulls().data();
  switch (col.tag()) {
    case ColumnVector::Tag::kInt:
      out->values = col.ints().data();
      return;
    case ColumnVector::Tag::kDate:
      return Widen(col.dates(), out);
    case ColumnVector::Tag::kBool:
      return Widen(col.bools(), out);
    case ColumnVector::Tag::kString:
      if (col.dict_encoded()) Widen(col.codes(), out);
      return;
    default:
      return;
  }
}

std::vector<Partition> GroupIdsOf(const std::vector<const EncodedKey*>& keys,
                                  const int64_t* sel, int64_t n, int lanes) {
  if (keys.empty()) {
    std::vector<Partition> parts(1);
    parts[0].rows = sel;
    parts[0].count = n;
    parts[0].global = true;
    parts[0].first_row = {-1};  // never read: the global group has no key
    return parts;
  }
  bool encoded = keys.size() <= kMaxEncodedKeyCols;
  for (const EncodedKey* key : keys) encoded = encoded && key->values;
  if (encoded) {
    using Assign = std::vector<Partition> (*)(
        const std::vector<const EncodedKey*>&, const int64_t*, int64_t, int);
    constexpr Assign kByWidth[] = {AssignCodeIds<1>, AssignCodeIds<2>,
                                   AssignCodeIds<3>, AssignCodeIds<4>};
    return kByWidth[keys.size() - 1](keys, sel, n, lanes);
  }
  ValueKey values;
  for (const EncodedKey* key : keys) values.cols.push_back(key->col);
  return AssignGroupIds(values, sel, n, lanes);
}

}  // namespace engine
}  // namespace sumtab
