// Seeded op streams. The benchmark owns the seed; the database only ever
// sees the SQL texts and append batches generated here, so one seed always
// yields the same inputs.
#ifndef PERFBENCH_STREAM_H_
#define PERFBENCH_STREAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"
#include "data/card_schema.h"
#include "harness.h"

namespace perfbench {

struct QueryOp {
  std::string tmpl;   // template name, e.g. "fig2_rejoin" or "group_high"
  std::string shape;  // operator shape (adhoc_scan) or "tile"/"drill"
  std::string sql;
};

struct AstDef {
  const char* name;
  const char* sql;
};

/// The six summary tables every workload registers: five single-grouping
/// ASTs and one GROUPING SETS AST, all over `trans`.
const std::vector<AstDef>& SummaryTables();

/// dashboard: ten paper-shaped templates (fig2/6/7/10/11 rejoin, regroup,
/// nested-GB and scalar-subquery shapes, fig12-14 grouping-set/cube slices,
/// two drill-downs). A round issues each template once as a tile (a text
/// from a fixed per-seed set, so plan-cache hits) and once as a drill-down
/// (literals from wide domains, mostly first sightings), shuffled.
class DashboardStream {
 public:
  static constexpr int kTilesPerTemplate = 4;

  DashboardStream(uint64_t seed, const sumtab::data::CardSchemaParams& data);
  std::vector<QueryOp> NextRound();
  const std::vector<QueryOp>& tiles() const { return tiles_; }

 private:
  Rng rng_;
  sumtab::data::CardSchemaParams data_;
  std::vector<QueryOp> tiles_;
  int64_t round_ = 0;
};

/// adhoc_scan: one template per operator shape (scan, filter, join,
/// group_low, group_high, cube) plus a second filter template, so a round
/// holds an odd number (7) of queries. Every template falls outside the
/// registered summary tables, so each query runs on the base tables.
class AdhocStream {
 public:
  explicit AdhocStream(uint64_t seed);
  std::vector<QueryOp> NextRound();
  /// One fixed instance per shape (scan, filter, join, group_low,
  /// group_high, cube), for the per-operator ns/row probes.
  std::vector<QueryOp> ShapeProbes();

 private:
  Rng rng_;
};

/// `count` trans rows with tids first_tid, first_tid+1, ..., drawn from the
/// dimension domains of `data`.
std::vector<sumtab::Row> AppendBatch(Rng* rng, int64_t first_tid, int count,
                                     const sumtab::data::CardSchemaParams& data);

}  // namespace perfbench

#endif  // PERFBENCH_STREAM_H_
