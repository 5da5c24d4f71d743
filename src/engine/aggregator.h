// Hash aggregation with multidimensional grouping (canonical grouping sets):
// each grouping set is evaluated as its own cuboid over the input; grouped-out
// columns are NULL-padded, and cuboid outputs are concatenated (paper Sec. 5,
// Fig. 12).
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
/// Output row layout: one value per grouping output (NULL when the cuboid
/// groups it out), then one value per aggregate. An empty input still yields
/// one row for each empty grouping set (global aggregation semantics).
///
/// Single-column grouping keys over int-like columns take a flat int64 hash
/// table and typed accumulate loops; up to four int/date/bool/dictionary
/// columns group through one widened composite key; everything else
/// reconstructs per-row Values. All paths share one accumulator, so the
/// sticky int->double SUM promotion happens at the same row on each.
///
/// max_threads > 1 enables hash-partitioned parallel aggregation for large
/// inputs: rows are partitioned by group-key hash so every group lands
/// wholly inside one partition, partitions aggregate concurrently, and each
/// partition visits its rows in input order. Per-group accumulation order is
/// therefore identical to the serial path — floating-point sums are
/// bit-identical, only output row order may differ (callers treat results
/// as multisets).
StatusOr<std::vector<Row>> AggregateBatch(
    const Batch& input, const std::vector<int>& grouping_cols,
    const std::vector<std::vector<int>>& grouping_sets,
    const std::vector<AggSpec>& aggs, int max_threads = 1);

}  // namespace engine
}  // namespace sumtab

#endif  // SUMTAB_ENGINE_AGGREGATOR_H_
