// The three perfbench workloads. Each is a closed loop with one client
// thread: the next operation is issued when the previous one returns.
//
//   dashboard   1M trans rows, six ASTs; tiles (plan-cache hits) and
//               drill-downs (mostly misses), nearly all rewritten.
//   adhoc_scan  200k trans rows over 100k accounts, same ASTs; every query
//               falls outside them and runs on the base tables.
//   ingest      the dashboard schema, ASTs and tiles over 200k rows in a
//               durable database; 200-row appends (every 4th deferred) each
//               followed by 4 tile queries, periodic checkpoints, and a
//               timed restart at the end.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/card_schema.h"
#include "harness.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Times the set-up is repeated; setup_s is their median.
  int setups = 3;
  sumtab::data::CardSchemaParams data;
  /// Working directory for durable data dirs and span files; must exist.
  std::string work_dir = ".";
  /// Share of queries whose answer is checked against base-table execution.
  double check_share = 0.01;
  /// Repetitions per thread count in the per-operator ns/row probes.
  int probe_reps = 3;
};

/// Full-size configuration of a named workload; false if unknown.
bool DefaultConfig(const std::string& workload, Config* config);

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Every end-to-end metric that applies to the workload, including the
  /// ones BENCHMARK.json cannot list because other workloads lack them.
  MetricSet end_to_end;
  /// Per-layer metrics (filled only by traced runs).
  MetricSet per_layer;
  /// Human-readable lines: tail percentiles, self times, failures.
  std::vector<std::string> notes;
};

RunResult RunWorkload(const Config& config);

/// The metric names BENCHMARK.json declares, in its order.
const std::vector<std::string>& EndToEndNames();
const std::vector<std::string>& PerLayerNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
