// Hash aggregation with multidimensional grouping (canonical grouping sets):
// each grouping set is evaluated as its own cuboid over the input; grouped-out
// columns are NULL-padded, and cuboid outputs are concatenated (paper Sec. 5,
// Fig. 12). The same kernel merges partial aggregates (MergeGroups), so
// recompute, incremental maintenance and delta compensation share one
// definition of COUNT/SUM/MIN/MAX.
#ifndef SUMTAB_ENGINE_AGGREGATOR_H_
#define SUMTAB_ENGINE_AGGREGATOR_H_

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

}  // namespace engine
}  // namespace sumtab

#endif  // SUMTAB_ENGINE_AGGREGATOR_H_
