// Executor internals shared by executor.cc (entry point, budgets, ordering)
// and executor_vec.cc (operators), plus the one ORDER BY definition that
// compensation's merged answers reuse: predicate classification, equi-join
// detection, morsel size and the GROUPBY output layout.
#ifndef SUMTAB_ENGINE_EXEC_SHARED_H_
#define SUMTAB_ENGINE_EXEC_SHARED_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "engine/aggregator.h"
#include "engine/relation.h"
#include "expr/expr.h"
#include "qgm/qgm.h"

namespace sumtab {
namespace engine {
namespace exec_internal {

/// Quantifier indexes referenced by a predicate.
std::vector<int> PredQuantifiers(const expr::ExprPtr& pred);

/// Applies an ORDER BY spec to a final result: stable sort under the
/// engine-wide Value::Compare total order (NULL first, numerics by value
/// across kinds). The ONE definition every result-ordering site uses — the
/// executor's Execute tail, compensation's answers (after the merge and the
/// residual root, converted from Batch like Execute's) and the tests'
/// reference evaluator — so a compensated or rewritten query is ordered
/// exactly like a direct one.
void ApplyOrderBy(const std::vector<qgm::OrderSpec>& spec, Relation* result);

/// True for `ColRef{qa,*} = ColRef{qb,*}` with qa != qb.
bool IsEquiJoin(const expr::ExprPtr& pred, int* qa, int* ca, int* qb, int* cb);

/// Rows per morsel for parallel filter/probe/project loops; one morsel is
/// one batch range for the vectorized evaluator.
constexpr int64_t kMorselRows = 4096;

/// A GROUPBY box decoded into aggregator terms. Grouping outputs and
/// aggregates may be interleaved in compensation boxes; the ordinal maps
/// translate between output positions and the aggregator's packed layout.
struct GroupBySpec {
  std::vector<int> grouping_cols;      // per grouping ordinal: child column
  std::vector<int> grouping_ordinal;   // per output: grouping ordinal or -1
  std::vector<AggSpec> aggs;
  std::vector<int> agg_ordinal;        // per output: aggregate ordinal or -1
  std::vector<std::vector<int>> sets;  // grouping sets as grouping ordinals
};

Status BuildGroupBySpec(const qgm::Box& box, GroupBySpec* spec);

}  // namespace exec_internal
}  // namespace engine
}  // namespace sumtab

#endif  // SUMTAB_ENGINE_EXEC_SHARED_H_
