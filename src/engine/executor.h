// QGM executor: the one execution engine. Executes a graph bottom-up over
// columnar batches: BASE boxes scan storage's columnar versions, SELECT boxes
// join (greedy equi-join hash joins with nested-loop fallback), filter and
// project through the vectorized evaluator, GROUPBY boxes hash-aggregate
// (incl. grouping sets), scalar quantifiers evaluate uncorrelated scalar
// subqueries. Queries, summary-table materialization, maintenance and
// compensation all run here.
//
// QGM describes semantics, not plans; the executor picks a plan with two
// fixed policies (single-quantifier predicate pushdown, greedy hash joins)
// that suffice for benchmarking relative costs. Answers are checked against
// a deliberately naive reference evaluator that lives with the tests.
//
// With max_threads > 1 the hot loops go morsel-parallel on the shared pool:
// pushed-down filters, projection, and hash-join probes split the input into
// contiguous chunks whose outputs are concatenated in chunk order, and
// aggregation hash-partitions rows by group key — both schemes preserve the
// serial per-row evaluation order inside each group/chunk, so results are
// bit-identical to max_threads = 1 up to output row order (see DESIGN.md,
// "Parallel execution and plan caching").
#ifndef SUMTAB_ENGINE_EXECUTOR_H_
#define SUMTAB_ENGINE_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "engine/relation.h"
#include "expr/expr.h"
#include "qgm/qgm.h"

namespace sumtab {
namespace engine {

struct ExecOptions {
  /// Per-table substitutions: BASE boxes naming a key scan the mapped
  /// batch instead of storage (same columns as the table it stands in for).
  /// The one delta leg (compensation::MergeDeltaLeg) evaluates a graph
  /// against one append slice at a time this way — an AST definition for
  /// incremental maintenance and catch-up, a query's delta leg for
  /// compensation.
  const std::map<std::string, std::shared_ptr<const Batch>>*
      columnar_overrides = nullptr;
  /// Row budget: total rows the plan may materialize across all operators
  /// (join intermediates included). 0 = unbounded. Exceeding it aborts the
  /// query with kResourceExhausted — runaway cross products die early
  /// instead of exhausting memory.
  int64_t max_rows = 0;
  /// Wall-clock budget for the whole plan; 0 = none. Checked at operator
  /// boundaries and periodically inside join loops; exceeding it returns
  /// kResourceExhausted.
  double timeout_millis = 0;
  /// Max concurrent lanes for morsel-parallel operators. 1 (the default)
  /// runs single-threaded; values above the shared pool size are clamped to
  /// it.
  int max_threads = 1;
  /// Optional query trace: rows materialized are counted into it from the
  /// same (possibly parallel) lanes that charge the row budget. Null on the
  /// untraced path — one pointer test per Charge call.
  QueryTrace* trace = nullptr;
  /// Read by nothing: the executor has a single (columnar) engine. Kept
  /// only because the benchmark harness under perfbench/ still sets it, and
  /// that harness changes only together with the benchmark itself.
  bool vectorized = true;
};

class Executor {
 public:
  /// Snapshots `storage` at construction: the whole plan executes against
  /// that one consistent version set, so concurrent BulkLoad/Append/refresh
  /// commits never tear a running query.
  explicit Executor(const Storage& storage, ExecOptions options = {})
      : snapshot_(storage.Snap()), options_(options) {}

  /// Executes against an already-pinned snapshot (the serving path pins one
  /// snapshot per query and shares it between planning and execution).
  explicit Executor(Storage::Snapshot snapshot, ExecOptions options = {})
      : snapshot_(std::move(snapshot)), options_(options) {}

  /// Executes the graph; applies the graph's ORDER BY to the final result.
  StatusOr<Relation> Execute(const qgm::Graph& graph);

  using BatchPtr = std::shared_ptr<const Batch>;

  /// Executes the graph and returns its result columns, ignoring ORDER BY —
  /// for materializations that storage keeps in an order of its own.
  StatusOr<BatchPtr> ExecuteColumns(const qgm::Graph& graph);

 private:
  // One method per box kind (executor_vec.cc): operators consume and produce
  // views (borrowed columns under an optional selection) and evaluate
  // expressions morsel-at-a-time.
  StatusOr<BatchView> ExecuteBox(const qgm::Graph& graph, qgm::BoxId id);
  StatusOr<BatchView> ExecuteSelect(const qgm::Graph& graph,
                                    const qgm::Box& box);
  StatusOr<BatchView> ExecuteGroupBy(const qgm::Graph& graph,
                                     const qgm::Box& box);
  /// Column names of the root box's result (outputs, or the base table's
  /// schema when the root is a bare scan).
  std::vector<std::string> RootColumnNames(const qgm::Graph& graph) const;

  /// Accounts `rows` materialized rows against the budget; every 1024
  /// charged rows it also polls the deadline (a clock read is too expensive
  /// per row). Thread-safe: parallel lanes charge the shared budget.
  Status Charge(int64_t rows);
  Status CheckDeadline();

  Storage::Snapshot snapshot_;
  ExecOptions options_;
  std::atomic<int64_t> rows_charged_{0};
  std::atomic<int64_t> deadline_poll_{0};
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;
};

}  // namespace engine
}  // namespace sumtab

#endif  // SUMTAB_ENGINE_EXECUTOR_H_
