// Hash aggregation with multidimensional grouping (canonical grouping sets):
// each grouping set is evaluated as its own cuboid over the input; grouped-out
// columns are NULL-padded, and cuboid outputs are concatenated (paper Sec. 5,
// Fig. 12). The same kernel merges partial aggregates (MergeGroups), so
// recompute, incremental maintenance and delta compensation share one
// definition of COUNT/SUM/MIN/MAX.
#ifndef SUMTAB_ENGINE_AGGREGATOR_H_
#define SUMTAB_ENGINE_AGGREGATOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "engine/column_vector.h"
#include "expr/expr.h"

namespace sumtab {
namespace engine {

struct AggSpec {
  expr::AggFunc func = expr::AggFunc::kCount;
  bool distinct = false;
  bool star = false;   // COUNT(*)
  int arg_col = -1;    // input column index; -1 only for COUNT(*)
};

/// Aggregates `input` rows.
///   grouping_cols: input column index for each grouping output;
///   grouping_sets: per cuboid, indexes into grouping_cols;
///   aggs: aggregate outputs following the grouping outputs.
/// Output columns: one per grouping output (NULL where the cuboid groups it
/// out), then one per aggregate; one row per group, cuboids in order. An
/// empty input still yields one row for each empty grouping set (global
/// aggregation semantics).
///
/// One kernel, two passes per grouping set. Pass 1 maps each row's key to a
/// dense group id (first-seen order) through a kernels::GroupIdTable; keys
/// of up to four int/date/bool/dictionary-string columns compare as int64
/// codes widened once per call, other keys as Values. Pass 2 folds each
/// aggregate's argument column into typed struct-of-arrays accumulators
/// indexed by group id (counts, the sticky int->double SUM, typed MIN/MAX,
/// the best row for string/variant MIN/MAX; only DISTINCT keeps Value sets).
/// Grouping outputs are gathered from each group's first row, so they keep
/// their Values bit for bit and their dictionary codes.
///
/// max_threads > 1 enables hash-partitioned parallel aggregation for large
/// inputs: each key is hashed once and the hash picks the row's partition,
/// so every group lands wholly inside one partition, and each partition
/// runs both passes over its rows in input order. Per-group accumulation
/// order is therefore the serial one — floating-point sums are
/// bit-identical, only output row order may differ (callers treat results
/// as multisets).
///
/// A view's selection is the one serial partition's row list, so a filtered
/// input is aggregated where it lies, without a gather; a global aggregate
/// (an empty grouping set) needs no group ids and folds COUNT and SUM
/// straight into its accumulators.
StatusOr<Batch> AggregateBatch(
    const BatchView& input, const std::vector<int>& grouping_cols,
    const std::vector<std::vector<int>>& grouping_sets,
    const std::vector<AggSpec>& aggs, int max_threads = 1);
/// The same over every row of a batch.
StatusOr<Batch> AggregateBatch(
    const Batch& input, const std::vector<int>& grouping_cols,
    const std::vector<std::vector<int>>& grouping_sets,
    const std::vector<AggSpec>& aggs, int max_threads = 1);

/// The one keyed merge of partial aggregates, used by incremental
/// maintenance (stored AST + delta aggregate) and delta compensation (AST
/// leg + delta leg). Every column of the shared layout is a key
/// (`key_cols`) or a COUNT/SUM/MIN/MAX partial (`agg_cols`). Runs
/// AggregateBatch over ConcatBatches(current, delta) grouped on the keys,
/// re-aggregating COUNT as SUM and SUM/MIN/MAX as themselves (paper §4.1:
/// `count(*)` rolls up as `sum(cnt)`), so each merged cell has the value
/// and Value kind a recompute over the union would give. Columns keep
/// their positions. At one lane, `current`'s groups (unique keys) keep
/// their order and new groups follow in `delta` order.
StatusOr<Batch> MergeGroups(const Batch& current, const Batch& delta,
                            const std::vector<int>& key_cols,
                            const std::vector<expr::AggColumn>& agg_cols,
                            int max_threads = 1);

/// SELECT DISTINCT on the same pass 1: the first occurrence of every
/// distinct row of `input` (Value equality, NULL equal to NULL), in input
/// order.
std::vector<int64_t> DistinctRows(const Batch& input, int max_threads = 1);

// ---- Pass 1, the one definition of key equality ----
// Grouping, DISTINCT, MergeGroups and the hash join key rows through
// GroupIdsOf: two rows get one id iff their key Values are equal column by
// column (NULL meets NULL, Int(3) meets Double(3.0), -0.0 meets 0.0).

/// Rows per lane below which partitioning overhead beats the win.
constexpr int64_t kMinParallelRowsPerLane = 4096;

/// How many key columns one composite key of widened codes can hold.
constexpr int kMaxEncodedKeyCols = 4;

/// One column widened to an int64 code view: ints borrow their buffer,
/// dates/bools widen into `scratch`, dictionary-encoded strings widen their
/// codes. Two rows carry the same widened code iff their Values are equal.
/// Doubles are excluded — bit-pattern equality would split -0.0 from 0.0 —
/// as are raw strings and variants; `values` stays null for them.
struct EncodedKey {
  const ColumnVector* col = nullptr;
  const int64_t* values = nullptr;
  const uint8_t* nulls = nullptr;
  std::vector<int64_t> scratch;
};

void EncodeKeyColumn(const ColumnVector& col, EncodedKey* out);

/// Pass 1's answer for one partition of the input: its column rows, each
/// row's group id, and each group's first row; ids run from 0 in
/// first-seen order. Serially the one partition holds every row: the
/// input's selection, or every column row when it has none. The global
/// group needs no ids: every row is in group 0.
struct Partition {
  const int64_t* rows = nullptr;   // column rows, in order; null = 0..count-1
  int64_t count = 0;
  std::vector<int64_t> own_rows;   // a parallel partition's rows
  bool global = false;             // one group, 0, and no `gid`
  std::vector<int32_t> gid;        // per partition row
  std::vector<int64_t> first_row;  // per group, a column row
};

/// Calls fn(k, i) for partition row k = 0, 1, ... and its column row i.
template <typename Fn>
void ForEachRow(const Partition& part, const Fn& fn) {
  if (part.rows == nullptr) {
    for (int64_t k = 0; k < part.count; ++k) fn(k, k);
  } else {
    for (int64_t k = 0; k < part.count; ++k) fn(k, part.rows[k]);
  }
}

/// Pass 1 over the key made of the `keys` columns, for the n input rows
/// `sel` lists (column rows 0..n-1 when null). With lanes > 1 every group
/// lies wholly inside one partition, which keeps its rows in input order
/// and numbers its groups from 0. An empty key is the one global group,
/// which exists even over no rows.
std::vector<Partition> GroupIdsOf(const std::vector<const EncodedKey*>& keys,
                                  const int64_t* sel, int64_t n, int lanes);

}  // namespace engine
}  // namespace sumtab

#endif  // SUMTAB_ENGINE_AGGREGATOR_H_
