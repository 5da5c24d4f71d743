// Reference evaluator: a deliberately naive, single-threaded QGM interpreter
// the production executor's answers are checked against. It is linked only
// into test binaries.
//
// Obviously correct beats fast here. A SELECT box runs nested loops over its
// quantifiers in declared order and applies each conjunct at the first loop
// level where all of its quantifiers are bound; the only concession to speed
// is a std::multimap index on one equality conjunct per level, so star joins
// over test-sized tables stay quick. A GROUPBY box evaluates every grouping
// set as its own cuboid through a std::map from key to the group's collected
// argument values and folds them when the group is emitted (Gray et al.'s
// data-cube semantics: grouped-out columns are NULL padding). Expressions
// evaluate through the scalar expr::Eval.
//
// It shares no engine code with the executor beyond Value ordering and
// exec_internal::ApplyOrderBy, so a bug in a hash join, a morsel split or a
// typed aggregation kernel cannot hide by being reproduced here.
// Equivalence with it follows Cohen & Nutt's notion for count/sum/max/min
// rewritings: integer results match exactly; floating-point sums may
// differ in the last bits because the join order differs.
#ifndef SUMTAB_TESTS_REFERENCE_H_
#define SUMTAB_TESTS_REFERENCE_H_

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "common/value.h"
#include "engine/aggregator.h"
#include "engine/relation.h"
#include "qgm/qgm.h"
#include "sumtab/database.h"

namespace sumtab {
namespace reference {

/// BASE boxes naming a key read the mapped relation instead of the snapshot
/// (how maintenance evaluates a definition over an append delta).
using TableOverrides = std::map<std::string, const engine::Relation*>;

/// Evaluates `graph` against `snap` and applies its ORDER BY.
StatusOr<engine::Relation> Evaluate(const qgm::Graph& graph,
                                    const engine::Storage::Snapshot& snap,
                                    const TableOverrides* overrides = nullptr);

/// Parses `sql`, builds its graph against db's catalog and evaluates it over
/// `snap` (by default, db's current storage).
StatusOr<engine::Relation> Query(const Database& db, const std::string& sql);
StatusOr<engine::Relation> Query(const Database& db, const std::string& sql,
                                 const engine::Storage::Snapshot& snap);

/// Grouping-set aggregation over plain rows, in engine::AggregateBatch's
/// packed output layout (one value per grouping column, NULL where the
/// cuboid groups it out, then one per aggregate). Groups are visited in
/// input order, so floating-point sums accumulate in the same order as any
/// aggregator that walks the input front to back.
StatusOr<std::vector<Row>> Aggregate(
    const std::vector<Row>& input, const std::vector<int>& grouping_cols,
    const std::vector<std::vector<int>>& grouping_sets,
    const std::vector<engine::AggSpec>& aggs);

/// Compares an engine answer with the reference's: the same row multiset
/// under engine::SameRowMultiset's floating-point tolerance, and, beyond
/// that, every cell that is not a double on both sides equal exactly and of
/// the same kind (integer aggregates never get a tolerance).
::testing::AssertionResult MatchesReference(const engine::Relation& got,
                                            const engine::Relation& want);

/// Exact multiset comparison with no tolerance at all: after sorting, the
/// same Values of the same kinds. For sides that accumulate in the same
/// input order, where even a double sum must agree to the last bit.
::testing::AssertionResult SameRowsExactly(const std::vector<Row>& got,
                                           const std::vector<Row>& want);

}  // namespace reference
}  // namespace sumtab

#endif  // SUMTAB_TESTS_REFERENCE_H_
