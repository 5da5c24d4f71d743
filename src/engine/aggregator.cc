#include "engine/aggregator.h"

#include <array>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "common/thread_pool.h"
#include "engine/kernels.h"

namespace sumtab {
namespace engine {

namespace {

using expr::AggFunc;

/// Streaming accumulator for one aggregate within one group.
struct Accum {
  int64_t count = 0;          // rows (COUNT(*)) or non-null arguments
  int64_t sum_int = 0;
  double sum_double = 0.0;
  bool saw_double = false;
  bool saw_value = false;
  Value extreme;              // running MIN or MAX
  std::unordered_set<Value, ValueHash> distinct;

  void AddValue(const AggSpec& spec, const Value& v) {
    if (spec.star) {
      ++count;
      return;
    }
    if (v.is_null()) return;
    if (spec.distinct) {
      distinct.insert(v);
      return;
    }
    switch (spec.func) {
      case AggFunc::kCount:
        ++count;
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        ++count;
        saw_value = true;
        if (v.kind() == Value::Kind::kInt && !saw_double) {
          sum_int += v.AsInt();
        } else {
          if (!saw_double) {
            sum_double = static_cast<double>(sum_int);
            saw_double = true;
          }
          sum_double += v.ToDouble();
        }
        break;
      case AggFunc::kMin:
        if (!saw_value || v < extreme) extreme = v;
        saw_value = true;
        break;
      case AggFunc::kMax:
        if (!saw_value || extreme < v) extreme = v;
        saw_value = true;
        break;
    }
  }

  // Typed adds for the fast paths: exactly the SUM/AVG branch of AddValue
  // with the kind test hoisted out of the loop (the column tag already fixes
  // it), so the sticky int->double promotion order — and thus every
  // floating-point sum — is identical to the generic path.
  void AddSumInt(int64_t v) {
    ++count;
    saw_value = true;
    if (!saw_double) {
      sum_int += v;
    } else {
      sum_double += static_cast<double>(v);
    }
  }
  void AddSumDouble(double v) {
    ++count;
    saw_value = true;
    if (!saw_double) {
      sum_double = static_cast<double>(sum_int);
      saw_double = true;
    }
    sum_double += v;
  }

  Value Finish(const AggSpec& spec) const {
    if (spec.distinct) {
      switch (spec.func) {
        case AggFunc::kCount:
          return Value::Int(static_cast<int64_t>(distinct.size()));
        case AggFunc::kSum:
        case AggFunc::kAvg: {
          if (distinct.empty()) return Value::Null();
          bool any_double = false;
          int64_t si = 0;
          double sd = 0.0;
          for (const Value& v : distinct) {
            if (v.kind() == Value::Kind::kInt) {
              si += v.AsInt();
            } else {
              any_double = true;
            }
            sd += v.ToDouble();
          }
          Value sum = any_double ? Value::Double(sd) : Value::Int(si);
          if (spec.func == AggFunc::kSum) return sum;
          return Value::Double(sd / static_cast<double>(distinct.size()));
        }
        case AggFunc::kMin:
        case AggFunc::kMax: {
          if (distinct.empty()) return Value::Null();
          Value best;
          bool first = true;
          for (const Value& v : distinct) {
            if (first || (spec.func == AggFunc::kMin ? v < best : best < v)) {
              best = v;
            }
            first = false;
          }
          return best;
        }
      }
    }
    switch (spec.func) {
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kSum:
        if (!saw_value) return Value::Null();
        return saw_double ? Value::Double(sum_double) : Value::Int(sum_int);
      case AggFunc::kAvg:
        if (!saw_value) return Value::Null();
        return Value::Double(
            (saw_double ? sum_double : static_cast<double>(sum_int)) /
            static_cast<double>(count));
      case AggFunc::kMin:
      case AggFunc::kMax:
        return saw_value ? extreme : Value::Null();
    }
    return Value::Null();
  }
};

/// Renders every group of one cuboid into output rows (grouping outputs
/// NULL-padded where the cuboid grouped them out, then the aggregates).
void EmitGroups(
    const std::unordered_map<Row, std::vector<Accum>, RowHash>& groups,
    const std::vector<int>& set, size_t num_grouping_cols,
    const std::vector<AggSpec>& aggs, std::vector<Row>* output) {
  for (const auto& [key, accums] : groups) {
    Row out;
    out.reserve(num_grouping_cols + aggs.size());
    for (size_t g = 0; g < num_grouping_cols; ++g) {
      int pos = -1;
      for (size_t k = 0; k < set.size(); ++k) {
        if (set[k] == static_cast<int>(g)) pos = static_cast<int>(k);
      }
      out.push_back(pos >= 0 ? key[pos] : Value::Null());
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      out.push_back(accums[a].Finish(aggs[a]));
    }
    output->push_back(std::move(out));
  }
}

/// Rows per lane below which partitioning overhead beats the win.
constexpr int64_t kMinParallelRowsPerLane = 4096;

/// Accumulates batch row i into its group (generic path: Values are
/// reconstructed per row and funnel through Accum::AddValue).
void AccumulateBatchRow(
    const Batch& input, int64_t i, const std::vector<int>& set,
    const std::vector<int>& grouping_cols, const std::vector<AggSpec>& aggs,
    std::unordered_map<Row, std::vector<Accum>, RowHash>* groups) {
  Row key;
  key.reserve(set.size());
  for (int g : set) key.push_back(input.columns[grouping_cols[g]].ValueAt(i));
  auto [it, inserted] = groups->try_emplace(std::move(key));
  if (inserted) it->second.resize(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    const AggSpec& spec = aggs[a];
    it->second[a].AddValue(
        spec, spec.star ? Value::Null() : input.columns[spec.arg_col].ValueAt(i));
  }
}

/// Per-aggregate dispatch for the int-keyed fast path. kGeneric reconstructs
/// the argument Value and calls AddValue (distinct, MIN/MAX, string/variant
/// arguments); the others run typed loops.
enum class FastOp { kStar, kCount, kSumInt, kSumDouble, kGeneric };

struct FastAggPlan {
  FastOp op = FastOp::kGeneric;
  const ColumnVector* arg = nullptr;  // null only for kStar
};

std::vector<FastAggPlan> BuildFastAggPlans(const Batch& input,
                                           const std::vector<AggSpec>& aggs) {
  std::vector<FastAggPlan> plans;
  plans.reserve(aggs.size());
  for (const AggSpec& spec : aggs) {
    FastAggPlan plan;
    if (spec.star) {
      plan.op = FastOp::kStar;
      plans.push_back(plan);
      continue;
    }
    plan.arg = &input.columns[spec.arg_col];
    ColumnVector::Tag tag = plan.arg->tag();
    if (spec.distinct) {
      plan.op = FastOp::kGeneric;
    } else if (spec.func == AggFunc::kCount) {
      plan.op = FastOp::kCount;
    } else if (spec.func == AggFunc::kSum || spec.func == AggFunc::kAvg) {
      if (tag == ColumnVector::Tag::kInt) {
        plan.op = FastOp::kSumInt;
      } else if (plan.arg->IsNumericTag()) {
        // double/date/bool all take the scalar AddValue's double branch.
        plan.op = FastOp::kSumDouble;
      } else {
        plan.op = FastOp::kGeneric;
      }
    } else {
      plan.op = FastOp::kGeneric;  // MIN/MAX compare Values either way
    }
    plans.push_back(plan);
  }
  return plans;
}

/// One cuboid over a single int-like grouping column: flat int64-keyed hash
/// table (plus one slot for the NULL group) and typed accumulate loops.
/// `lanes` > 1 hash-partitions rows by key so each group lands wholly in one
/// partition and is still visited in input order.
void FastAggregateSet(const Batch& input, size_t num_grouping_cols,
                      const std::vector<int>& set,
                      const std::vector<int>& grouping_cols,
                      const std::vector<AggSpec>& aggs, int lanes,
                      std::vector<Row>* output) {
  const ColumnVector& keycol = input.columns[grouping_cols[set[0]]];
  const bool date_key = keycol.tag() == ColumnVector::Tag::kDate;
  const std::vector<FastAggPlan> plans = BuildFastAggPlans(input, aggs);
  const int64_t n = input.num_rows;

  auto key_at = [&](int64_t i) -> int64_t {
    return date_key ? keycol.dates()[i] : keycol.ints()[i];
  };
  auto accumulate = [&](int64_t i, std::vector<Accum>* accums) {
    for (size_t a = 0; a < plans.size(); ++a) {
      Accum& acc = (*accums)[a];
      const FastAggPlan& plan = plans[a];
      switch (plan.op) {
        case FastOp::kStar:
          ++acc.count;
          break;
        case FastOp::kCount:
          if (!plan.arg->IsNull(i)) ++acc.count;
          break;
        case FastOp::kSumInt:
          if (!plan.arg->IsNull(i)) acc.AddSumInt(plan.arg->ints()[i]);
          break;
        case FastOp::kSumDouble:
          if (!plan.arg->IsNull(i)) acc.AddSumDouble(plan.arg->NumericAt(i));
          break;
        case FastOp::kGeneric:
          acc.AddValue(aggs[a], plan.arg->ValueAt(i));
          break;
      }
    }
  };
  auto emit = [&](int64_t key, bool key_null,
                  const std::vector<Accum>& accums,
                  std::vector<Row>* out_rows) {
    Row out;
    out.reserve(num_grouping_cols + aggs.size());
    for (size_t g = 0; g < num_grouping_cols; ++g) {
      if (static_cast<int>(g) != set[0] || key_null) {
        out.push_back(Value::Null());
      } else {
        out.push_back(date_key ? Value::Date(static_cast<int32_t>(key))
                               : Value::Int(key));
      }
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      out.push_back(accums[a].Finish(aggs[a]));
    }
    out_rows->push_back(std::move(out));
  };
  // Scans [0, n) keeping rows whose partition matches (partition < 0 keeps
  // all — the serial path); NULL keys live in partition 0.
  auto run_partition = [&](int partition, std::vector<Row>* out_rows) {
    std::unordered_map<int64_t, std::vector<Accum>> groups;
    std::vector<Accum> null_group;
    bool has_null_group = false;
    for (int64_t i = 0; i < n; ++i) {
      const bool key_null = keycol.IsNull(i);
      if (partition >= 0) {
        const int p =
            key_null ? 0
                     : static_cast<int>(static_cast<uint64_t>(key_at(i)) %
                                        static_cast<uint64_t>(lanes));
        if (p != partition) continue;
      }
      std::vector<Accum>* accums;
      if (key_null) {
        if (!has_null_group) {
          null_group.resize(aggs.size());
          has_null_group = true;
        }
        accums = &null_group;
      } else {
        auto [it, inserted] = groups.try_emplace(key_at(i));
        if (inserted) it->second.resize(aggs.size());
        accums = &it->second;
      }
      accumulate(i, accums);
    }
    for (const auto& [key, accums] : groups) {
      emit(key, /*key_null=*/false, accums, out_rows);
    }
    if (has_null_group) emit(0, /*key_null=*/true, null_group, out_rows);
  };

  if (lanes <= 1) {
    run_partition(-1, output);
    return;
  }
  std::vector<std::vector<Row>> lane_output(lanes);
  ParallelFor(lanes, lanes, [&](int, int64_t begin, int64_t end) {
    for (int64_t p = begin; p < end; ++p) {
      run_partition(static_cast<int>(p), &lane_output[p]);
    }
  }, /*min_chunk=*/1);
  for (std::vector<Row>& part : lane_output) {
    for (Row& row : part) output->push_back(std::move(row));
  }
}

/// How many grouping columns the encoded composite-key path can widen into
/// one fixed-size key.
constexpr int kMaxEncodedKeyCols = 4;

/// One grouping column widened to an int64 code view: ints borrow their
/// buffer, dates/bools widen into `scratch`, dictionary-encoded strings widen
/// their codes. Two rows carry the same widened code iff their Values are
/// equal, which is exactly what group identity needs. Doubles are excluded —
/// bit-pattern equality would split -0.0 from 0.0 and disagree with Value
/// equality across int/double — as are raw strings and variants.
struct EncodedKey {
  const int64_t* values = nullptr;
  std::vector<int64_t> scratch;
  const ColumnVector* col = nullptr;  // for IsNull and emit-time decode
};

bool EncodeKeyColumn(const ColumnVector& col, int64_t n, EncodedKey* out) {
  out->col = &col;
  switch (col.tag()) {
    case ColumnVector::Tag::kInt:
      out->values = col.ints().data();
      return true;
    case ColumnVector::Tag::kDate: {
      out->scratch.resize(n);
      const int32_t* src = col.dates().data();
      for (int64_t i = 0; i < n; ++i) out->scratch[i] = src[i];
      out->values = out->scratch.data();
      return true;
    }
    case ColumnVector::Tag::kBool: {
      out->scratch.resize(n);
      const uint8_t* src = col.bools().data();
      for (int64_t i = 0; i < n; ++i) out->scratch[i] = src[i];
      out->values = out->scratch.data();
      return true;
    }
    case ColumnVector::Tag::kString: {
      if (!col.dict_encoded()) return false;
      out->scratch.resize(n);
      const int32_t* src = col.codes().data();
      for (int64_t i = 0; i < n; ++i) out->scratch[i] = src[i];
      out->values = out->scratch.data();
      return true;
    }
    default:
      return false;
  }
}

/// Composite key of up to kMaxEncodedKeyCols widened codes. NULL slots carry
/// code 0 with their null_mask bit set so equality is a flat compare.
struct EncodedGroupKey {
  std::array<int64_t, kMaxEncodedKeyCols> v{};
  uint8_t null_mask = 0;
  uint8_t width = 0;

  bool operator==(const EncodedGroupKey& o) const {
    return null_mask == o.null_mask && v == o.v;
  }
};

struct EncodedGroupKeyHash {
  size_t operator()(const EncodedGroupKey& k) const {
    return static_cast<size_t>(
        kernels::MixKey(k.v.data(), k.width, k.null_mask));
  }
};

/// One cuboid over 1..kMaxEncodedKeyCols encodable grouping columns: widen
/// every key column to int64 codes once, then group through a flat composite
/// key — no per-row Value construction or Row hashing. Returns false (output
/// untouched) when any grouping column is not encodable.
///
/// Parallel lanes hash-partition rows by key hash, so each group lands wholly
/// in one partition and every partition walks [0, n) in input order: the
/// per-group accumulation order — and thus every floating-point sum — is
/// exactly the serial one.
bool EncodedAggregateSet(const Batch& input, size_t num_grouping_cols,
                         const std::vector<int>& set,
                         const std::vector<int>& grouping_cols,
                         const std::vector<AggSpec>& aggs, int lanes,
                         std::vector<Row>* output) {
  const int width = static_cast<int>(set.size());
  const int64_t n = input.num_rows;
  std::vector<EncodedKey> keys(width);
  for (int g = 0; g < width; ++g) {
    if (!EncodeKeyColumn(input.columns[grouping_cols[set[g]]], n, &keys[g])) {
      return false;
    }
  }
  const std::vector<FastAggPlan> plans = BuildFastAggPlans(input, aggs);

  // Group payload: accumulators plus the first input row, whose column
  // Values decode the key at emit time (every row of a group carries
  // bit-identical key Values, so the first is as good as any).
  struct GroupState {
    int64_t first_row = 0;
    std::vector<Accum> accums;
  };

  auto accumulate = [&](int64_t i, std::vector<Accum>* accums) {
    for (size_t a = 0; a < plans.size(); ++a) {
      Accum& acc = (*accums)[a];
      const FastAggPlan& plan = plans[a];
      switch (plan.op) {
        case FastOp::kStar:
          ++acc.count;
          break;
        case FastOp::kCount:
          if (!plan.arg->IsNull(i)) ++acc.count;
          break;
        case FastOp::kSumInt:
          if (!plan.arg->IsNull(i)) acc.AddSumInt(plan.arg->ints()[i]);
          break;
        case FastOp::kSumDouble:
          if (!plan.arg->IsNull(i)) acc.AddSumDouble(plan.arg->NumericAt(i));
          break;
        case FastOp::kGeneric:
          acc.AddValue(aggs[a], plan.arg->ValueAt(i));
          break;
      }
    }
  };
  auto make_key = [&](int64_t i) {
    EncodedGroupKey key;
    key.width = static_cast<uint8_t>(width);
    for (int g = 0; g < width; ++g) {
      if (keys[g].col->IsNull(i)) {
        key.null_mask |= static_cast<uint8_t>(1u << g);
      } else {
        key.v[g] = keys[g].values[i];
      }
    }
    return key;
  };
  auto emit = [&](const EncodedGroupKey& key, const GroupState& state,
                  std::vector<Row>* out_rows) {
    Row out;
    out.reserve(num_grouping_cols + aggs.size());
    for (size_t g = 0; g < num_grouping_cols; ++g) {
      int pos = -1;
      for (int s = 0; s < width; ++s) {
        if (set[s] == static_cast<int>(g)) pos = s;
      }
      if (pos < 0 || ((key.null_mask >> pos) & 1) != 0) {
        out.push_back(Value::Null());
      } else {
        out.push_back(keys[pos].col->ValueAt(state.first_row));
      }
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      out.push_back(state.accums[a].Finish(aggs[a]));
    }
    out_rows->push_back(std::move(out));
  };
  // Scans [0, n) keeping rows whose partition matches (partition < 0 keeps
  // all — the serial path).
  auto run_partition = [&](int partition, std::vector<Row>* out_rows) {
    std::unordered_map<EncodedGroupKey, GroupState, EncodedGroupKeyHash>
        groups;
    for (int64_t i = 0; i < n; ++i) {
      EncodedGroupKey key = make_key(i);
      if (partition >= 0) {
        const int p = static_cast<int>(EncodedGroupKeyHash{}(key) %
                                       static_cast<uint64_t>(lanes));
        if (p != partition) continue;
      }
      auto [it, inserted] = groups.try_emplace(key);
      if (inserted) {
        it->second.first_row = i;
        it->second.accums.resize(aggs.size());
      }
      accumulate(i, &it->second.accums);
    }
    for (const auto& [key, state] : groups) emit(key, state, out_rows);
  };

  if (lanes <= 1) {
    run_partition(-1, output);
    return true;
  }
  std::vector<std::vector<Row>> lane_output(lanes);
  ParallelFor(lanes, lanes, [&](int, int64_t begin, int64_t end) {
    for (int64_t p = begin; p < end; ++p) {
      run_partition(static_cast<int>(p), &lane_output[p]);
    }
  }, /*min_chunk=*/1);
  for (std::vector<Row>& part : lane_output) {
    for (Row& row : part) output->push_back(std::move(row));
  }
  return true;
}

}  // namespace

StatusOr<std::vector<Row>> AggregateBatch(
    const Batch& input, const std::vector<int>& grouping_cols,
    const std::vector<std::vector<int>>& grouping_sets,
    const std::vector<AggSpec>& aggs, int max_threads) {
  for (const AggSpec& spec : aggs) {
    if (!spec.star && spec.arg_col < 0) {
      return Status::Internal("aggregate argument column missing");
    }
  }
  const int64_t n = input.num_rows;
  std::vector<Row> output;
  for (const std::vector<int>& set : grouping_sets) {
    const int lanes =
        set.empty() ? 1 : ParallelLanes(n, max_threads, kMinParallelRowsPerLane);
    // Single int-like grouping key: flat int64 hash table + typed loops.
    // (A kVariant key column would break int64 equality == Value equality,
    // so only plain kInt/kDate tags qualify.)
    if (set.size() == 1) {
      ColumnVector::Tag key_tag = input.columns[grouping_cols[set[0]]].tag();
      if (key_tag == ColumnVector::Tag::kInt ||
          key_tag == ColumnVector::Tag::kDate) {
        FastAggregateSet(input, grouping_cols.size(), set, grouping_cols,
                         aggs, lanes, &output);
        continue;
      }
    }
    // Up to kMaxEncodedKeyCols encodable grouping columns (ints, dates,
    // bools, dictionary-encoded strings): one composite widened key per row,
    // no Row hashing. Falls through when any column is not encodable.
    if (!set.empty() && set.size() <= kMaxEncodedKeyCols &&
        EncodedAggregateSet(input, grouping_cols.size(), set, grouping_cols,
                            aggs, lanes, &output)) {
      continue;
    }
    // Generic path: per-row Values reconstructed from the columns, grouped
    // under Row keys. A cuboid with grouping columns and a big input
    // aggregates in parallel: every group hashes wholly into one partition,
    // partitions run concurrently, and each partition walks the input in
    // order — so the per-group accumulation order (and thus every
    // floating-point sum) is exactly the serial one. The empty set (global
    // aggregation) is a single group and stays serial.
    if (lanes > 1) {
      std::vector<uint8_t> partition_of(n);
      ParallelFor(n, lanes, [&](int, int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          size_t h = 0;
          for (int g : set) {
            h = h * 1000003u + input.columns[grouping_cols[g]].ValueAt(i).Hash();
          }
          partition_of[i] = static_cast<uint8_t>(h % lanes);
        }
      });
      std::vector<std::vector<Row>> lane_output(lanes);
      ParallelFor(lanes, lanes, [&](int, int64_t begin, int64_t end) {
        for (int64_t p = begin; p < end; ++p) {
          std::unordered_map<Row, std::vector<Accum>, RowHash> groups;
          for (int64_t i = 0; i < n; ++i) {
            if (partition_of[i] != p) continue;
            AccumulateBatchRow(input, i, set, grouping_cols, aggs, &groups);
          }
          EmitGroups(groups, set, grouping_cols.size(), aggs,
                     &lane_output[p]);
        }
      }, /*min_chunk=*/1);
      for (std::vector<Row>& part : lane_output) {
        for (Row& row : part) output.push_back(std::move(row));
      }
      continue;
    }
    std::unordered_map<Row, std::vector<Accum>, RowHash> groups;
    for (int64_t i = 0; i < n; ++i) {
      AccumulateBatchRow(input, i, set, grouping_cols, aggs, &groups);
    }
    if (groups.empty() && set.empty()) {
      // Global aggregation over an empty input produces one row.
      groups.try_emplace(Row{}).first->second.resize(aggs.size());
    }
    EmitGroups(groups, set, grouping_cols.size(), aggs, &output);
  }
  return output;
}

}  // namespace engine
}  // namespace sumtab
